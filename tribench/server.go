package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// serverProc is one running tripoline-server child process.
type serverProc struct {
	cmd      *exec.Cmd
	base     string
	exited   chan struct{} // closed once the process has been reaped
	waitErr  error         // cmd.Wait's result, set before exited closes
	stopOnce sync.Once
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// startServer spawns the server on the edge file with its default
// configuration and waits until /v1/stats answers. It returns the time
// from spawn to the first answer and the version the server reports.
func startServer(ctx context.Context, bin, file string, directed bool, logPath string) (*serverProc, time.Duration, uint64, error) {
	port, err := freePort()
	if err != nil {
		return nil, 0, 0, err
	}
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	args := []string{"-addr", addr, "-file", file}
	if directed {
		args = append(args, "-directed")
	}
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, 0, 0, err
	}
	defer logf.Close()
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = logf, logf
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, 0, 0, fmt.Errorf("starting server: %w", err)
	}
	p := &serverProc{cmd: cmd, base: "http://" + addr, exited: make(chan struct{})}
	go func() {
		p.waitErr = cmd.Wait()
		close(p.exited)
	}()
	version, err := p.waitReady(ctx, 2*time.Minute)
	if err != nil {
		p.stop()
		return nil, 0, 0, err
	}
	return p, time.Since(start), version, nil
}

func (p *serverProc) waitReady(ctx context.Context, limit time.Duration) (uint64, error) {
	hc := &http.Client{Timeout: 2 * time.Second}
	defer hc.CloseIdleConnections()
	deadline := time.Now().Add(limit)
	for time.Now().Before(deadline) {
		select {
		case <-p.exited:
			return 0, fmt.Errorf("server exited before it was ready: %v", p.waitErr)
		case <-ctx.Done():
			return 0, ctx.Err()
		case <-time.After(5 * time.Millisecond):
		}
		resp, err := hc.Get(p.base + "/v1/stats")
		if err != nil {
			continue
		}
		var st struct {
			Version uint64 `json:"version"`
		}
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err == nil && resp.StatusCode == http.StatusOK {
			return st.Version, nil
		}
	}
	return 0, errors.New("server not ready within " + limit.String())
}

// peakRSSMB reads the server's high-water resident set (VmHWM).
func (p *serverProc) peakRSSMB() (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			return kb / 1024, err
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// stop asks the server to drain (SIGTERM), kills it if it has not
// exited within ten seconds, and waits until the process is gone. It
// is safe to call more than once.
func (p *serverProc) stop() {
	p.stopOnce.Do(func() {
		_ = p.cmd.Process.Signal(syscall.SIGTERM) // an already-exited child is fine
		select {
		case <-p.exited:
		case <-time.After(10 * time.Second):
			_ = p.cmd.Process.Kill() // best effort; the waiter goroutine reaps it
			<-p.exited
		}
	})
}
