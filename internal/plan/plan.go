// Package plan implements the fixed query plan of §3.1: every shortest path
// query (i) executes the same number of rounds, (ii) accesses the same files
// in the same order in each round, and (iii) retrieves the same number of
// pages from each file. The plan is public — it ships inside the header
// file — and Theorem 1's indistinguishability argument rests on every query
// conforming to it, padding with dummy retrievals where necessary.
package plan

import (
	"fmt"
	"strings"

	"repro/internal/pagefile"
)

// Fetch prescribes count page retrievals from one file within a round.
type Fetch struct {
	File  string
	Count int
}

// Round is an ordered list of per-file retrieval quotas.
type Round struct {
	Fetches []Fetch
}

// Plan is the full public query plan. Round 0 is implicitly the header
// download (no PIR); Rounds describes the PIR rounds that follow.
type Plan struct {
	Rounds []Round
}

// TotalFetches sums the retrievals from the named file across all rounds.
func (p Plan) TotalFetches(file string) int {
	n := 0
	for _, r := range p.Rounds {
		for _, f := range r.Fetches {
			if f.File == file {
				n += f.Count
			}
		}
	}
	return n
}

// TotalPIRAccesses sums retrievals across all files and rounds.
func (p Plan) TotalPIRAccesses() int {
	n := 0
	for _, r := range p.Rounds {
		for _, f := range r.Fetches {
			n += f.Count
		}
	}
	return n
}

// Requests is how many frames a conforming query sends for the plan: one
// announcement per round and one request per quota with a nonzero count.
func (p Plan) Requests() int {
	n := len(p.Rounds)
	for _, r := range p.Rounds {
		for _, f := range r.Fetches {
			if f.Count > 0 {
				n++
			}
		}
	}
	return n
}

// String renders the plan in the paper's style, e.g.
// "round 1: Fl:1 | round 2: Fi:3 | round 3: Fd:12".
func (p Plan) String() string {
	var b strings.Builder
	for i, r := range p.Rounds {
		if i > 0 {
			b.WriteString(" | ")
		}
		fmt.Fprintf(&b, "round %d:", i+1)
		for _, f := range r.Fetches {
			fmt.Fprintf(&b, " %s:%d", f.File, f.Count)
		}
	}
	return b.String()
}

// Validate rejects degenerate plans.
func (p Plan) Validate() error {
	if len(p.Rounds) == 0 {
		return fmt.Errorf("plan: no rounds")
	}
	for i, r := range p.Rounds {
		if len(r.Fetches) == 0 {
			return fmt.Errorf("plan: round %d empty", i+1)
		}
		for _, f := range r.Fetches {
			if f.Count <= 0 {
				return fmt.Errorf("plan: round %d file %q count %d", i+1, f.File, f.Count)
			}
			if f.File == "" {
				return fmt.Errorf("plan: round %d unnamed file", i+1)
			}
		}
	}
	return nil
}

// Encode serializes the plan (it is part of the header file).
func (p Plan) Encode(e *pagefile.Enc) {
	e.U16(uint16(len(p.Rounds)))
	for _, r := range p.Rounds {
		e.U16(uint16(len(r.Fetches)))
		for _, f := range r.Fetches {
			e.U8(uint8(len(f.File)))
			e.Raw([]byte(f.File))
			e.U32(uint32(f.Count))
		}
	}
}

// Decode reverses Encode.
func Decode(d *pagefile.Dec) (Plan, error) {
	var p Plan
	nr := int(d.U16())
	for i := 0; i < nr; i++ {
		var r Round
		nf := int(d.U16())
		for j := 0; j < nf; j++ {
			nameLen := int(d.U8())
			name := string(d.Raw(nameLen))
			count := int(d.U32())
			r.Fetches = append(r.Fetches, Fetch{File: name, Count: count})
		}
		p.Rounds = append(p.Rounds, r)
	}
	if d.Err() != nil {
		return Plan{}, fmt.Errorf("plan: decode: %w", d.Err())
	}
	return p, p.Validate()
}
