// Package core formalizes the paper's central methodology (§3.1) and its
// privacy guarantee (Theorem 1): if every query (i) is executed in the same
// number of rounds, (ii) accesses the same files in the same order in every
// round, (iii) retrieves the same number of pages from each file, and (iv)
// fetches each page through a PIR protocol, then the adversary's view of any
// two queries is identical, and so no information about the query leaks.
//
// The package operationalizes the guarantee as a standard indistinguishability
// game: the adversary picks two queries, a challenger executes one of them
// chosen by a hidden coin, and the adversary guesses which from the observable
// transcript. The best possible adversary against a deterministic transcript
// is transcript comparison itself, so the measured advantage is exact, not a
// heuristic: 0 means "provably nothing to tell apart", 1 means the scheme's
// transcript fully separates the two queries. The paper's schemes must score
// 0 on every query pair; the obfuscation baseline scores near 1.
package core

import (
	"fmt"
	"math/rand"

	"repro/internal/geom"
)

// Query is one shortest path request: the client's source and destination.
type Query struct {
	S, T geom.Point
}

// View is the totality of what the LBS observes during one query execution:
// the access transcript (file-level fetch sequence with round boundaries).
// Page indices are absent by construction — the PIR layer hides them.
type View struct {
	Transcript string
}

// Executor runs a query against a scheme and returns the adversary's view.
// Implementations wrap scheme query functions.
type Executor func(Query) (View, error)

// Advantage is the distinguishing advantage over random guessing, in [0, 1]:
// 2·|Pr[guess correct] − 1/2| under the optimal transcript-comparison
// adversary.
type Advantage float64

// Game is one instance of the indistinguishability experiment.
type Game struct {
	Exec Executor
	Rng  *rand.Rand
}

// Play runs the experiment `trials` times for the query pair (q0, q1): each
// trial flips a hidden coin b, executes q_b, and lets the optimal adversary
// guess b from the view given reference transcripts of both queries. It
// returns the measured advantage.
//
// For deterministic transcripts (all schemes here), a single trial already
// decides the outcome: advantage 1 when the transcripts differ, 0 when they
// are equal. Running multiple trials additionally exercises re-execution,
// catching schemes whose transcripts vary across runs of the same query
// (which would leak repetition patterns).
func (g *Game) Play(q0, q1 Query, trials int) (Advantage, error) {
	ref0, err := g.Exec(q0)
	if err != nil {
		return 0, fmt.Errorf("core: reference run of q0: %w", err)
	}
	ref1, err := g.Exec(q1)
	if err != nil {
		return 0, fmt.Errorf("core: reference run of q1: %w", err)
	}
	correct := 0.0
	for i := 0; i < trials; i++ {
		b := g.Rng.Intn(2)
		var challenge Query
		if b == 0 {
			challenge = q0
		} else {
			challenge = q1
		}
		view, err := g.Exec(challenge)
		if err != nil {
			return 0, fmt.Errorf("core: challenge run: %w", err)
		}
		switch g.guess(view, ref0, ref1) {
		case b:
			correct++
		case -1:
			// A tie gives the adversary exactly a coin flip; score it as
			// 1/2 analytically instead of sampling, so the measured
			// advantage is exact rather than statistically noisy.
			correct += 0.5
		}
	}
	p := correct / float64(trials)
	adv := 2 * (p - 0.5)
	if adv < 0 {
		adv = -adv
	}
	return Advantage(adv), nil
}

// guess is the adversary: exact transcript match decides when it can
// (optimal for deterministic transcripts); otherwise the view's token
// overlap with each reference decides (effective against randomized
// transcripts such as OBF's, whose decoys change but whose real endpoints
// recur). -1 signals a tie (no information).
func (g *Game) guess(view, ref0, ref1 View) int {
	m0 := view.Transcript == ref0.Transcript
	m1 := view.Transcript == ref1.Transcript
	switch {
	case m0 && !m1:
		return 0
	case m1 && !m0:
		return 1
	case m0 && m1:
		return -1
	}
	o0 := tokenOverlap(view.Transcript, ref0.Transcript)
	o1 := tokenOverlap(view.Transcript, ref1.Transcript)
	switch {
	case o0 > o1:
		return 0
	case o1 > o0:
		return 1
	default:
		return -1
	}
}

// tokenOverlap counts distinct whitespace/punctuation-delimited tokens the
// two transcripts share.
func tokenOverlap(a, b string) int {
	ta := tokens(a)
	n := 0
	for tok := range tokens(b) {
		if ta[tok] {
			n++
		}
	}
	return n
}

func tokens(s string) map[string]bool {
	out := map[string]bool{}
	start := -1
	for i := 0; i <= len(s); i++ {
		isTok := i < len(s) && (s[i] == '_' || s[i] == '.' ||
			('0' <= s[i] && s[i] <= '9') || ('a' <= s[i] && s[i] <= 'z') || ('A' <= s[i] && s[i] <= 'Z'))
		if isTok && start < 0 {
			start = i
		}
		if !isTok && start >= 0 {
			out[s[start:i]] = true
			start = -1
		}
	}
	return out
}

// MeasureAdvantage samples `pairs` random query pairs over the node set of
// a network (supplied as point lookup + size) and returns the maximum
// advantage observed. A scheme satisfying Theorem 1 must return exactly 0.
func MeasureAdvantage(exec Executor, pointOf func(int) geom.Point, numNodes int, pairs, trialsPerPair int, seed int64) (Advantage, error) {
	rng := rand.New(rand.NewSource(seed))
	game := &Game{Exec: exec, Rng: rng}
	var worst Advantage
	for i := 0; i < pairs; i++ {
		q0 := Query{S: pointOf(rng.Intn(numNodes)), T: pointOf(rng.Intn(numNodes))}
		q1 := Query{S: pointOf(rng.Intn(numNodes)), T: pointOf(rng.Intn(numNodes))}
		adv, err := game.Play(q0, q1, trialsPerPair)
		if err != nil {
			return 0, err
		}
		if adv > worst {
			worst = adv
		}
	}
	return worst, nil
}
