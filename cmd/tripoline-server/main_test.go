package main

import (
	"net/http"
	"testing"
)

// TestHTTPServerTimeouts: the listener bounds how long a client may take
// to send its headers and how long an idle keep-alive connection stays
// open.
func TestHTTPServerTimeouts(t *testing.T) {
	h := http.NotFoundHandler()
	s := newHTTPServer(":0", h)
	if s.ReadHeaderTimeout <= 0 || s.IdleTimeout <= 0 {
		t.Fatalf("ReadHeaderTimeout=%v IdleTimeout=%v, want both set", s.ReadHeaderTimeout, s.IdleTimeout)
	}
	if s.Addr != ":0" || s.Handler == nil {
		t.Fatalf("server built with Addr=%q Handler=%v", s.Addr, s.Handler)
	}
}
