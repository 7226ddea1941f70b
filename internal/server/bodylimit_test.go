package server_test

import (
	"encoding/json"
	"net/http"
	"strings"
	"testing"

	"tripoline/internal/server"
)

// paddedBody returns a JSON document of exactly n bytes: prefix, then
// whitespace, then suffix. The decoder cannot finish the value without
// reading the final byte, so a body one byte over the cap must trip it.
func paddedBody(prefix, suffix string, n int) string {
	return prefix + strings.Repeat(" ", n-len(prefix)-len(suffix)) + suffix
}

// TestBodyLimit413 sends each POST endpoint a body one byte over
// MaxBodyBytes and expects 413 with the too_large envelope; a body of
// exactly MaxBodyBytes must still be decoded and applied (200).
func TestBodyLimit413(t *testing.T) {
	ts, _ := newTestServer(t, "SSSP")
	cases := []struct{ path, prefix, suffix string }{
		{"/v1/batch", `{"edges":[{"src":1,"dst":2,"w":3}`, `]}`},
		{"/v1/delete", `{"edges":[{"src":1,"dst":2}`, `]}`},
		{"/v1/querymany", `{"problem":"SSSP","sources":[1,2]`, `}`},
	}
	post := func(path, body string) (int, string) {
		t.Helper()
		resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var env struct {
			Error struct {
				Code    string `json:"code"`
				Message string `json:"message"`
			} `json:"error"`
		}
		if resp.StatusCode != http.StatusOK {
			if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
				t.Fatalf("%s: status %d without an error envelope: %v", path, resp.StatusCode, err)
			}
		}
		return resp.StatusCode, env.Error.Code
	}
	for _, c := range cases {
		code, errCode := post(c.path, paddedBody(c.prefix, c.suffix, server.MaxBodyBytes+1))
		if code != http.StatusRequestEntityTooLarge || errCode != "too_large" {
			t.Errorf("%s with %d-byte body: status %d code %q, want 413 too_large",
				c.path, server.MaxBodyBytes+1, code, errCode)
		}
		if code, _ := post(c.path, paddedBody(c.prefix, c.suffix, server.MaxBodyBytes)); code != http.StatusOK {
			t.Errorf("%s with %d-byte body: status %d, want 200", c.path, server.MaxBodyBytes, code)
		}
	}
}
