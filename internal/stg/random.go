package stg

import (
	"fmt"
	"math/rand"
)

// RandomOptions shapes random STG generation.
type RandomOptions struct {
	// MaxBranches bounds the concurrent branches per phase (default 3).
	MaxBranches int
	// TwoRounds allows a second phase that re-runs some branches with
	// instance-numbered transitions, the pattern that produces CSC
	// conflicts across rounds. The zero value (false) generates
	// single-phase nets only.
	TwoRounds bool
}

// Random generates a live, safe, consistent STG from a seed by composing
// the structural patterns the benchmark suite is built from: a master
// request/acknowledge cycle forking a random mix of pulse, handshake and
// double-pulse branches, optionally re-run in a second phase. Every
// generated STG is consistent by construction (signal transitions
// alternate along every path); most seeds produce CSC conflicts. Used
// for fuzz-testing the synthesis pipeline.
func Random(seed int64, opt RandomOptions) (*G, error) {
	if opt.MaxBranches == 0 {
		opt.MaxBranches = 3
	}
	rng := rand.New(rand.NewSource(seed))
	b := NewBuilder(fmt.Sprintf("rand%d", seed))
	b.Inputs("r")
	b.Outputs("a")

	k := 1 + rng.Intn(opt.MaxBranches)
	type branch struct {
		kind int // 0 pulse, 1 handshake, 2 double pulse
		sig  string
		tin  string
	}
	branches := make([]branch, k)
	for i := range branches {
		br := branch{kind: rng.Intn(3), sig: fmt.Sprintf("s%d", i)}
		b.Outputs(br.sig)
		if br.kind == 1 {
			br.tin = fmt.Sprintf("t%d", i)
			b.Inputs(br.tin)
		}
		branches[i] = br
	}

	// emit wires one branch run between master transitions from and to;
	// suffix distinguishes the second round's transition instances.
	emit := func(br branch, from, to, suffix string) {
		s := br.sig
		switch br.kind {
		case 0: // pulse
			b.Arc(from, s+"+"+suffix)
			b.Chain(s+"+"+suffix, s+"-"+suffix)
			b.Arc(s+"-"+suffix, to)
		case 1: // full handshake with its input
			b.Arc(from, s+"+"+suffix)
			b.Chain(s+"+"+suffix, br.tin+"+"+suffix, s+"-"+suffix, br.tin+"-"+suffix)
			b.Arc(br.tin+"-"+suffix, to)
		case 2: // double pulse
			i1, i2 := "", "/2"
			if suffix != "" {
				i1, i2 = "/5", "/6"
			}
			b.Arc(from, s+"+"+i1)
			b.Chain(s+"+"+i1, s+"-"+i1, s+"+"+i2, s+"-"+i2)
			b.Arc(s+"-"+i2, to)
		}
	}

	for _, br := range branches {
		emit(br, "r+", "a+", "")
	}
	if opt.TwoRounds && rng.Intn(4) != 0 {
		b.Arc("a+", "r-")
		// Second phase: every branch re-runs (instances keep levels
		// consistent), a subset shuffled into pulses.
		for _, br := range branches {
			if br.kind == 2 {
				// Double pulse already used /2; reuse as single pulse /4-/5
				b.Arc("r-", br.sig+"+/4")
				b.Chain(br.sig+"+/4", br.sig+"-/4")
				b.Arc(br.sig+"-/4", "a-")
				continue
			}
			emit(br, "r-", "a-", "/9")
		}
		b.Arc("a-", "r+")
		b.Token("a-", "r+")
	} else {
		b.Chain("a+", "r-", "a-")
		b.Arc("a-", "r+")
		b.Token("a-", "r+")
	}
	return b.Build()
}
