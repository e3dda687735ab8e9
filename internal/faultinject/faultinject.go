// Package faultinject is a test fixture: it wraps the daemon's I/O seams
// with deterministic, rate-controlled faults — listener-level dial
// failures, per-connection latency, connections torn mid-frame, and page
// reads failing with an injected EIO. Tests build an Injector in process
// and hand its Listener to Server.Serve or its Reader to a store factory.
// No product binary links it: privspd has no fault-injection flag.
//
// Every fault is content-blind by construction: injection decisions count
// accepts, bytes, and page reads, never query payloads, so a faulted run
// preserves the Theorem 1 adversarial model — the faults an adversary
// could inflict anyway, timed independently of src/dst.
package faultinject

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/pagefile"
)

// ErrInjected marks every fault this package produces, so tests can tell
// injected failures from real ones with errors.Is.
var ErrInjected = errors.New("faultinject: injected fault")

// Config sets per-fault rates. A zero rate disables that fault; the zero
// Config injects nothing.
type Config struct {
	// Seed makes a faulted run reproducible; 0 picks a fixed default.
	Seed int64
	// ConnLatency delays every connection read by a uniform draw in
	// [0, ConnLatency).
	ConnLatency time.Duration
	// TearEvery tears every Nth accepted connection: after a pseudo-random
	// number of written bytes the connection closes abruptly, leaving the
	// peer a torn frame.
	TearEvery int
	// DialFailEvery closes every Nth accepted connection immediately,
	// before the handshake — the client sees a failed dial.
	DialFailEvery int
	// EIOEvery fails every Nth page read with an error wrapping
	// ErrInjected. The error text never names the page index.
	EIOEvery int
}

// Injector owns the shared fault state (counters, RNG) its wrappers draw
// from. One Injector can serve a whole daemon, so every-Nth rates are
// global across connections and files.
type Injector struct {
	cfg Config

	mu  sync.Mutex
	rng *rand.Rand

	accepts atomic.Uint64
	reads   atomic.Uint64
}

// New builds an Injector for the config.
func New(cfg Config) *Injector {
	seed := cfg.Seed
	if seed == 0 {
		seed = 1
	}
	return &Injector{cfg: cfg, rng: rand.New(rand.NewSource(seed))}
}

// jitter draws uniformly in [0, d); safe for concurrent use.
func (in *Injector) jitter(d time.Duration) time.Duration {
	if d <= 0 {
		return 0
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	return time.Duration(in.rng.Int63n(int64(d)))
}

// tearBudget draws a torn connection's byte allowance: enough to survive
// the handshake sometimes, small enough to tear mid-query often.
func (in *Injector) tearBudget() int64 {
	in.mu.Lock()
	defer in.mu.Unlock()
	return 64 + in.rng.Int63n(4096)
}

// Listener wraps ln with the injector's connection-level faults.
func (in *Injector) Listener(ln net.Listener) net.Listener {
	return &listener{Listener: ln, in: in}
}

type listener struct {
	net.Listener
	in *Injector
}

func (l *listener) Accept() (net.Conn, error) {
	for {
		c, err := l.Listener.Accept()
		if err != nil {
			return nil, err
		}
		n := l.in.accepts.Add(1)
		if every(n, l.in.cfg.DialFailEvery) {
			// A failed dial from the client's point of view: the connection
			// closes before any handshake byte.
			c.Close()
			continue
		}
		fc := &conn{Conn: c, in: l.in}
		if every(n, l.in.cfg.TearEvery) {
			fc.tearAfter = l.in.tearBudget()
		}
		return fc, nil
	}
}

// every reports whether the nth event (1-based) hits a 1-in-rate fault.
func every(n uint64, rate int) bool {
	return rate > 0 && n%uint64(rate) == 0
}

// conn injects read latency and, when tearAfter is set, abruptly closes
// the connection once that many bytes have been written to the peer.
type conn struct {
	net.Conn
	in        *Injector
	tearAfter int64 // 0 = never tear
	written   int64
	torn      atomic.Bool
}

func (c *conn) Read(b []byte) (int, error) {
	if c.torn.Load() {
		return 0, fmt.Errorf("read torn connection: %w", ErrInjected)
	}
	if d := c.in.jitter(c.in.cfg.ConnLatency); d > 0 {
		time.Sleep(d)
	}
	return c.Conn.Read(b)
}

func (c *conn) Write(b []byte) (int, error) {
	if c.torn.Load() {
		return 0, fmt.Errorf("write torn connection: %w", ErrInjected)
	}
	if c.tearAfter > 0 && c.written+int64(len(b)) > c.tearAfter {
		// Write the partial prefix so the peer sees a torn frame, then kill
		// the connection.
		keep := c.tearAfter - c.written
		if keep > 0 {
			c.Conn.Write(b[:keep])
		}
		c.torn.Store(true)
		c.Conn.Close()
		return int(max(keep, 0)), fmt.Errorf("connection torn after %d bytes: %w", c.tearAfter, ErrInjected)
	}
	n, err := c.Conn.Write(b)
	c.written += int64(n)
	return n, err
}

// Reader wraps r with the injector's page-read faults: every EIOEvery'th
// Page call fails with an error wrapping ErrInjected (content-free text —
// no page index, because the requested index is exactly what PIR hides).
func (in *Injector) Reader(r pagefile.Reader) pagefile.Reader {
	if in.cfg.EIOEvery <= 0 {
		return r
	}
	return &reader{Reader: r, in: in}
}

type reader struct {
	pagefile.Reader
	in *Injector
}

func (r *reader) Page(i int) ([]byte, error) {
	if every(r.in.reads.Add(1), r.in.cfg.EIOEvery) {
		return nil, fmt.Errorf("read page of %s: input/output error: %w", r.Name(), ErrInjected)
	}
	return r.Reader.Page(i)
}
