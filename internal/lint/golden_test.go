package lint

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// The golden corpus marks expected diagnostics with `// want "substr"`
// comments on the offending line; substr must appear in a diagnostic's
// message at that exact file:line, and every diagnostic must be claimed
// by a want.
var wantRe = regexp.MustCompile(`// want "([^"]+)"`)

func loadCorpus(t *testing.T, dirs ...string) (*Loader, []*Package) {
	t.Helper()
	cwd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	modRoot, err := FindModuleRoot(cwd)
	if err != nil {
		t.Fatal(err)
	}
	loader, err := NewLoader(modRoot)
	if err != nil {
		t.Fatal(err)
	}
	var pkgs []*Package
	for _, d := range dirs {
		dir, err := filepath.Abs(filepath.Join("testdata", "src", d))
		if err != nil {
			t.Fatal(err)
		}
		pkg, err := loader.LoadDir(dir, "sandbox/"+d)
		if err != nil {
			t.Fatalf("loading corpus %s: %v", d, err)
		}
		pkgs = append(pkgs, pkg)
	}
	return loader, pkgs
}

type lineKey struct {
	file string
	line int
}

// collectWants scans the loaded files' comments for want markers.
func collectWants(loader *Loader, pkgs []*Package) map[lineKey][]string {
	wants := make(map[lineKey][]string)
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					for _, m := range wantRe.FindAllStringSubmatch(c.Text, -1) {
						pos := loader.Fset.Position(c.Pos())
						k := lineKey{pos.Filename, pos.Line}
						wants[k] = append(wants[k], m[1])
					}
				}
			}
		}
	}
	return wants
}

// runGolden runs one analyzer over the given corpus dirs and checks the
// diagnostics against the want markers, both directions.
func runGolden(t *testing.T, a *Analyzer, dirs ...string) {
	t.Helper()
	loader, pkgs := loadCorpus(t, dirs...)
	wants := collectWants(loader, pkgs)
	diags := Run(loader.Fset, pkgs, []*Analyzer{a})

	matched := make(map[lineKey][]bool)
	for k, w := range wants {
		matched[k] = make([]bool, len(w))
	}
	for _, d := range diags {
		k := lineKey{d.File, d.Line}
		found := false
		for i, substr := range wants[k] {
			if !matched[k][i] && strings.Contains(d.Message, substr) {
				matched[k][i] = true
				found = true
				break
			}
		}
		if !found {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for k, w := range wants {
		for i, substr := range w {
			if !matched[k][i] {
				t.Errorf("%s:%d: expected a %s diagnostic containing %q, got none",
					filepath.Base(k.file), k.line, a.Name, substr)
			}
		}
	}
}

func TestAtomicmixGolden(t *testing.T)   { runGolden(t, Atomicmix, "atomicmix") }
func TestPoolbalanceGolden(t *testing.T) { runGolden(t, Poolbalance, "poolbalance") }
func TestCtxflowGolden(t *testing.T) {
	runGolden(t, Ctxflow, "ctxflow", "ctxflow_main", "ctxflow_server")
}
func TestSentinelcmpGolden(t *testing.T) { runGolden(t, Sentinelcmp, "sentinelcmp") }
func TestLockscopeGolden(t *testing.T)   { runGolden(t, Lockscope, "lockscope") }
func TestRefbalanceGolden(t *testing.T)  { runGolden(t, Refbalance, "refbalance") }
func TestGoroleakGolden(t *testing.T)    { runGolden(t, Goroleak, "goroleak") }

// TestSuppression checks the //lint:ignore machinery: a well-formed
// directive (same line or line above) suppresses, a reason-less
// directive suppresses nothing and is itself reported.
func TestSuppression(t *testing.T) {
	loader, pkgs := loadCorpus(t, "suppress")
	diags := Run(loader.Fset, pkgs, []*Analyzer{Sentinelcmp})
	var lintDiags, sentinel []Diagnostic
	for _, d := range diags {
		switch d.Analyzer {
		case "lint":
			lintDiags = append(lintDiags, d)
		case "sentinelcmp":
			sentinel = append(sentinel, d)
		default:
			t.Errorf("diagnostic from unexpected analyzer: %s", d)
		}
	}
	if len(lintDiags) != 1 || !strings.Contains(lintDiags[0].Message, "malformed //lint:ignore") {
		t.Errorf("want exactly 1 malformed-directive diagnostic, got %v", lintDiags)
	}
	// The corpus has 4 sentinel comparisons; 2 are suppressed (comment
	// above, trailing comment) and 2 must survive (the reason-less
	// directive suppresses nothing, plus the unsuppressed control).
	if len(sentinel) != 2 {
		t.Errorf("want exactly 2 surviving sentinelcmp diagnostics, got %d: %v", len(sentinel), sentinel)
	}
	wants := collectWants(loader, pkgs)
	for _, d := range sentinel {
		if len(wants[lineKey{d.File, d.Line}]) == 0 {
			t.Errorf("surviving diagnostic on an unmarked line: %s", d)
		}
	}
}

// TestDiagnosticString pins the output format the CI log scrapers and
// editors rely on.
func TestDiagnosticString(t *testing.T) {
	d := Diagnostic{File: "a.go", Line: 3, Col: 7, Analyzer: "atomicmix", Message: "boom"}
	if got, want := d.String(), "a.go:3:7: [atomicmix] boom"; got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}

// TestRepoIsClean runs the full analyzer suite over the real module and
// requires zero diagnostics — the linter gates CI, so the tree must be
// clean at all times. Skipped under -short (it type-checks the whole
// module from source).
func TestRepoIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("full-module analysis; skipped in -short mode")
	}
	cwd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	modRoot, err := FindModuleRoot(cwd)
	if err != nil {
		t.Fatal(err)
	}
	loader, err := NewLoader(modRoot)
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := loader.LoadAll()
	if err != nil {
		t.Fatal(err)
	}
	diags := Run(loader.Fset, pkgs, All())
	for _, d := range diags {
		t.Errorf("repo not lint-clean: %s", d)
	}
	// The tree must also be suppression-free: with the interprocedural
	// summary framework every legal ownership pattern in the module is
	// expressible to the analyzers, so a //lint:ignore in real code means
	// either a framework gap (fix the framework) or a real bug (fix the
	// code) — never a carve-out.
	dirs, bad := collectDirectives(loader.Fset, pkgs)
	for _, dir := range dirs {
		t.Errorf("suppression directive in real tree: %s:%d (//lint:ignore %s)",
			dir.file, dir.line, strings.Join(dir.analyzers, ","))
	}
	for _, d := range bad {
		t.Errorf("malformed suppression in real tree: %s", d)
	}
}
