package faultinject

import (
	"errors"
	"io"
	"net"
	"testing"
	"time"

	"repro/internal/pagefile"
)

// TestReaderEIO: every Nth page read fails with a typed injected error
// whose text never names the requested index.
func TestReaderEIO(t *testing.T) {
	pages := [][]byte{{1}, {2}, {3}, {4}}
	base := pagefile.SlicePages("F", 1, pages)
	r := New(Config{EIOEvery: 3}).Reader(base)

	fails := 0
	for i := 0; i < 12; i++ {
		_, err := r.Page(i % 4)
		if err != nil {
			if !errors.Is(err, ErrInjected) {
				t.Fatalf("read %d: untyped error %v", i, err)
			}
			fails++
		}
	}
	if fails != 4 {
		t.Fatalf("12 reads at eio=3 produced %d failures, want 4", fails)
	}
	// The wrapper is transparent for metadata.
	if r.Name() != "F" || r.PageSize() != 1 || r.NumPages() != 4 {
		t.Fatal("wrapper changed reader metadata")
	}
	// Disabled page faults return the reader unchanged.
	if got := New(Config{TearEvery: 5}).Reader(base); got != base {
		t.Fatal("conn-only config wrapped the reader")
	}
}

// TestListenerDialFail: every Nth accepted connection is closed before a
// byte moves; other connections work.
func TestListenerDialFail(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	fln := New(Config{DialFailEvery: 2}).Listener(ln)
	defer fln.Close()

	// Echo server over the faulty listener.
	go func() {
		for {
			c, err := fln.Accept()
			if err != nil {
				return
			}
			go func() { io.Copy(c, c); c.Close() }()
		}
	}()

	ok := 0
	for i := 0; i < 6; i++ {
		c, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			continue
		}
		c.SetDeadline(time.Now().Add(2 * time.Second))
		if _, err := c.Write([]byte("hi")); err == nil {
			buf := make([]byte, 2)
			if _, err := io.ReadFull(c, buf); err == nil {
				ok++
			}
		}
		c.Close()
	}
	// dialfail=2 kills every second accept: exactly 3 of 6 survive.
	if ok != 3 {
		t.Fatalf("%d of 6 connections survived dialfail=2, want 3", ok)
	}
}

// TestConnTear: a torn connection delivers a byte prefix then dies with a
// typed error; the peer sees the truncation as EOF.
func TestConnTear(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	fln := New(Config{TearEvery: 1, Seed: 7}).Listener(ln)
	defer fln.Close()

	done := make(chan error, 1)
	go func() {
		c, err := fln.Accept()
		if err != nil {
			done <- err
			return
		}
		defer c.Close()
		// Push far more than any tear budget (64..4160 bytes).
		buf := make([]byte, 64<<10)
		var werr error
		for i := 0; i < 4 && werr == nil; i++ {
			_, werr = c.Write(buf)
		}
		done <- werr
	}()

	c, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.SetDeadline(time.Now().Add(5 * time.Second))
	n, _ := io.Copy(io.Discard, c)
	werr := <-done
	if !errors.Is(werr, ErrInjected) {
		t.Fatalf("server write error = %v, want ErrInjected", werr)
	}
	if n < 64 || n > 64+4096 {
		t.Fatalf("peer received %d bytes, want within the tear budget range", n)
	}
}

// TestConnLatency: read delays draw from [0, ConnLatency), the same seed
// draws the same delays, and a delayed connection still delivers its bytes.
func TestConnLatency(t *testing.T) {
	const d = 3 * time.Millisecond
	a, b := New(Config{ConnLatency: d, Seed: 11}), New(Config{ConnLatency: d, Seed: 11})
	distinct := map[time.Duration]bool{}
	for i := 0; i < 64; i++ {
		x, y := a.jitter(d), b.jitter(d)
		if x != y {
			t.Fatalf("draw %d: %v and %v under one seed", i, x, y)
		}
		if x < 0 || x >= d {
			t.Fatalf("draw %d = %v, outside [0, %v)", i, x, d)
		}
		distinct[x] = true
	}
	if len(distinct) < 2 {
		t.Fatalf("64 draws took %d distinct values, want a spread", len(distinct))
	}
	if got := a.jitter(0); got != 0 {
		t.Fatalf("jitter(0) = %v, want 0", got)
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	fln := New(Config{ConnLatency: d}).Listener(ln)
	defer fln.Close()
	got := make(chan []byte, 1)
	go func() {
		c, err := fln.Accept()
		if err != nil {
			got <- nil
			return
		}
		defer c.Close()
		buf := make([]byte, 5)
		if _, err := io.ReadFull(c, buf); err != nil {
			buf = nil
		}
		got <- buf
	}()
	c, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Write([]byte("hello")); err != nil {
		t.Fatal(err)
	}
	select {
	case buf := <-got:
		if string(buf) != "hello" {
			t.Fatalf("delayed connection read %q, want %q", buf, "hello")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("delayed connection never delivered its bytes")
	}
}

// TestZeroConfigInjectsNothing: the zero Config leaves page reads unwrapped
// and lets every connection through untouched.
func TestZeroConfigInjectsNothing(t *testing.T) {
	in := New(Config{})
	base := pagefile.SlicePages("F", 1, [][]byte{{1}, {2}})
	if got := in.Reader(base); got != base {
		t.Fatal("zero config wrapped the reader")
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	fln := in.Listener(ln)
	defer fln.Close()
	go func() {
		for {
			c, err := fln.Accept()
			if err != nil {
				return
			}
			go func() { io.Copy(c, c); c.Close() }()
		}
	}()

	msg := make([]byte, 16<<10) // past any tear budget
	for i := range msg {
		msg[i] = byte(i)
	}
	for i := 0; i < 6; i++ {
		c, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		c.SetDeadline(time.Now().Add(5 * time.Second))
		go c.Write(msg)
		echo := make([]byte, len(msg))
		if _, err := io.ReadFull(c, echo); err != nil {
			t.Fatalf("connection %d: %v", i, err)
		}
		if string(echo) != string(msg) {
			t.Fatalf("connection %d echoed altered bytes", i)
		}
		c.Close()
	}
}
