package plan

import (
	"strings"
	"testing"

	"repro/internal/pagefile"
)

func sample() Plan {
	return Plan{Rounds: []Round{
		{Fetches: []Fetch{{File: "Fl", Count: 1}}},
		{Fetches: []Fetch{{File: "Fi", Count: 3}}},
		{Fetches: []Fetch{{File: "Fi", Count: 2}, {File: "Fd", Count: 12}}},
	}}
}

func TestTotals(t *testing.T) {
	p := sample()
	if p.TotalFetches("Fi") != 5 {
		t.Errorf("TotalFetches(Fi) = %d, want 5", p.TotalFetches("Fi"))
	}
	if p.TotalFetches("Fd") != 12 {
		t.Errorf("TotalFetches(Fd) = %d", p.TotalFetches("Fd"))
	}
	if p.TotalFetches("nope") != 0 {
		t.Error("unknown file counted")
	}
	if p.TotalPIRAccesses() != 18 {
		t.Errorf("TotalPIRAccesses = %d, want 18", p.TotalPIRAccesses())
	}
	// Three announcements and four quotas; a quota of no pages sends none.
	if p.Requests() != 7 {
		t.Errorf("Requests = %d, want 7", p.Requests())
	}
	p.Rounds[2].Fetches[0].Count = 0
	if p.Requests() != 6 {
		t.Errorf("Requests with an empty quota = %d, want 6", p.Requests())
	}
}

func TestString(t *testing.T) {
	s := sample().String()
	for _, want := range []string{"round 1: Fl:1", "round 2: Fi:3", "round 3: Fi:2 Fd:12"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() = %q lacks %q", s, want)
		}
	}
}

func TestValidate(t *testing.T) {
	if err := sample().Validate(); err != nil {
		t.Errorf("valid plan rejected: %v", err)
	}
	bad := []Plan{
		{},
		{Rounds: []Round{{}}},
		{Rounds: []Round{{Fetches: []Fetch{{File: "F", Count: 0}}}}},
		{Rounds: []Round{{Fetches: []Fetch{{File: "", Count: 1}}}}},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("bad plan %d accepted", i)
		}
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	p := sample()
	e := pagefile.NewEnc(64)
	p.Encode(e)
	got, err := Decode(pagefile.NewDec(e.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != p.String() {
		t.Errorf("round trip: %q != %q", got.String(), p.String())
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	if _, err := Decode(pagefile.NewDec([]byte{0xff, 0xff, 0x01})); err == nil {
		t.Error("garbage decoded")
	}
}
