package client

import (
	"context"
	"errors"
	"net"
	"testing"
	"time"
)

// TestDialContextHonorsShortCallerDeadline is the deadline-layering
// regression test: a caller deadline SHORTER than the default 10 s
// connect+handshake budget must govern the dial. The listener completes TCP
// connects in the kernel backlog but never answers the Hello, so only the
// deadline can end the attempt — a 50 ms context must fail in tens of
// milliseconds, not when DefaultDialTimeout expires.
func TestDialContextHonorsShortCallerDeadline(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err = DialContext(ctx, ln.Addr().String(), Options{})
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("dial to a never-accepting listener succeeded")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("err = %v, want context.DeadlineExceeded", err)
	}
	// Generous slack for CI schedulers, but far below DefaultDialTimeout:
	// failing only at ~10 s means the default was layered over the caller's
	// 50 ms deadline instead of the sooner one winning.
	if elapsed > 2*time.Second {
		t.Errorf("50ms-deadline dial blocked for %v (default timeout layered on top?)", elapsed)
	}
}

// TestDialContextDefaultBoundsDistantDeadline: the inverse ordering — a
// caller deadline far beyond the default budget must not extend the
// handshake budget. With the default lowered to 30 ms and a one-hour caller
// deadline, the dial fails when the default expires.
func TestDialContextDefaultBoundsDistantDeadline(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	defer func(old time.Duration) { dialTimeout = old }(dialTimeout)
	dialTimeout = 30 * time.Millisecond
	ctx, cancel := context.WithTimeout(context.Background(), time.Hour)
	defer cancel()
	start := time.Now()
	_, err = DialContext(ctx, ln.Addr().String(), Options{})
	if err == nil {
		t.Fatal("dial to a never-accepting listener succeeded")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("err = %v, want context.DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("dial under a 30ms default blocked for %v", elapsed)
	}
}
