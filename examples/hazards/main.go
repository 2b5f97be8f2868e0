// Hazards: run the hazard cleanup step the paper's §3.5 points to —
// check every synthesized cover for static-1 hazards across the state
// graph's single-signal transitions and repair them by cube insertion.
// This example drives the lower-level packages directly to get at the
// covers and the expanded state graph.
//
//	go run ./examples/hazards
package main

import (
	"context"
	"fmt"
	"log"

	"asyncsyn/internal/bench"
	"asyncsyn/internal/core"
	"asyncsyn/internal/hazard"
)

func main() {
	spec, err := bench.Load("sbuf-read-ctl")
	if err != nil {
		log.Fatal(err)
	}
	res, err := core.Synthesize(context.Background(), spec, core.Options{})
	if err != nil {
		log.Fatal(err)
	}
	// Hazard checking walks the expanded graph's edge structure, which
	// the synthesis pipeline streams without keeping; rebuild it from
	// the final phase-annotated graph.
	ex, err := res.Full.Expand()
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("model %s: %d functions, area %d literals\n\n", res.Name, len(res.Functions), res.Area)
	totalViolations, totalAdded := 0, 0
	for _, fn := range res.Functions {
		// Project every state-graph edge onto the function's support.
		varIdx := make([]int, len(fn.Vars))
		for i, v := range fn.Vars {
			vi, ok := ex.SignalIndex(v)
			if !ok {
				log.Fatalf("missing signal %s", v)
			}
			varIdx[i] = vi
		}
		project := func(code uint64) uint64 {
			var m uint64
			for i, vi := range varIdx {
				if code&(1<<vi) != 0 {
					m |= 1 << i
				}
			}
			return m
		}
		codes := make([]uint64, ex.NumStates())
		for s := range ex.States {
			codes[s] = project(ex.States[s].Code)
		}
		var edges [][2]int
		for _, e := range ex.Edges {
			edges = append(edges, [2]int{e.From, e.To})
		}
		trans := hazard.AdjacentOnTransitions(codes, edges)

		violations := hazard.Check(fn.Cover, trans)
		totalViolations += len(violations)
		fmt.Printf("%-8s %3d transitions, %d static-1 hazards", fn.Name, len(trans), len(violations))
		if len(violations) > 0 {
			// OFF-set over the support: implied-0 projected codes.
			sigIdx, _ := ex.SignalIndex(fn.Name)
			offSeen := map[uint64]bool{}
			var off []uint64
			for s := range ex.States {
				if ex.ImpliedValue(s, sigIdx) == 0 && !offSeen[codes[s]] {
					offSeen[codes[s]] = true
					off = append(off, codes[s])
				}
			}
			fixed, err := hazard.Repair(fn.Cover, trans, off, len(fn.Vars))
			if err != nil {
				log.Fatalf("repair %s: %v", fn.Name, err)
			}
			added := len(fixed) - len(fn.Cover)
			totalAdded += added
			fmt.Printf(" → repaired with %d extra cube(s), area %d → %d literals",
				added, fn.Cover.Literals(), fixed.Literals())
			if left := hazard.Check(fixed, trans); len(left) != 0 {
				log.Fatalf("hazards survived repair: %v", left)
			}
		}
		fmt.Println()
	}
	fmt.Printf("\ntotal: %d hazards found, %d cover cubes added\n", totalViolations, totalAdded)
}
