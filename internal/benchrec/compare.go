package benchrec

import "fmt"

// CompareOptions tunes the regression thresholds.
type CompareOptions struct {
	// TimeRatio is the soft-warn threshold for CPU-time regressions:
	// new > old×TimeRatio warns (default 1.25, the ">25% regression"
	// gate). Rows faster than TimeFloor in the baseline are exempt —
	// sub-threshold timings are dominated by scheduler noise.
	TimeRatio float64
	// TimeFloor is the minimum baseline seconds for a time comparison
	// (default 0.05).
	TimeFloor float64
	// HeapRatio is the soft-warn threshold for peak-heap regressions:
	// new > old×HeapRatio warns (default 1.25). Peak heap is sampled and
	// machine-dependent, so it never gates hard — but a large jump is
	// the first symptom of a streaming path quietly re-materializing.
	HeapRatio float64
	// HeapFloor is the minimum baseline peak (bytes) for a heap
	// comparison (default 32 MiB); smaller peaks are dominated by the
	// runtime's own footprint and GC timing.
	HeapFloor uint64
}

func (o CompareOptions) withDefaults() CompareOptions {
	if o.TimeRatio == 0 {
		o.TimeRatio = 1.25
	}
	if o.TimeFloor == 0 {
		o.TimeFloor = 0.05
	}
	if o.HeapRatio == 0 {
		o.HeapRatio = 1.25
	}
	if o.HeapFloor == 0 {
		o.HeapFloor = 32 << 20
	}
	return o
}

// Report is the outcome of comparing two records. Hard findings are
// behaviour drift — areas, state counts, signals, abort status, digests
// — and fail the comparison; Soft findings are advisory (time
// regressions, counter drift, environment differences).
type Report struct {
	Hard []string
	Soft []string
	// Compared counts the benchmark×method pairs checked.
	Compared int
}

// Failed reports whether the comparison found behaviour drift.
func (r *Report) Failed() bool { return len(r.Hard) > 0 }

// Compare diffs a fresh record (new) against a baseline (old). Rows are
// matched by name; rows present in only one record are skipped (a
// -quick run legitimately covers a subset of the committed baseline).
// Deterministic outputs (states, signals, areas, aborts, digests) must
// match exactly; timings are compared with the soft thresholds of opt.
func Compare(old, new *Record, opt CompareOptions) *Report {
	opt = opt.withDefaults()
	rep := &Report{}
	if old.Schema != new.Schema {
		rep.Hard = append(rep.Hard, fmt.Sprintf("schema: baseline %d vs fresh %d", old.Schema, new.Schema))
		return rep
	}
	if old.Env.GoVersion != new.Env.GoVersion {
		rep.Soft = append(rep.Soft, fmt.Sprintf("env: go version %s vs %s", old.Env.GoVersion, new.Env.GoVersion))
	}
	if old.Env.MaxBacktracks != new.Env.MaxBacktracks {
		rep.Hard = append(rep.Hard, fmt.Sprintf("env: backtrack budget %d vs %d (records are not comparable)",
			old.Env.MaxBacktracks, new.Env.MaxBacktracks))
	}

	for _, nrow := range new.Rows {
		orow, ok := old.Row(nrow.Name)
		if !ok {
			continue
		}
		if orow.InitialStates != nrow.InitialStates || orow.InitialSignals != nrow.InitialSignals {
			rep.Hard = append(rep.Hard, fmt.Sprintf("%s: initial graph %d/%d vs %d/%d",
				nrow.Name, orow.InitialStates, orow.InitialSignals, nrow.InitialStates, nrow.InitialSignals))
		}
		compareMethod(rep, opt, nrow.Name+"/modular", orow.Modular, nrow.Modular)
		compareMethod(rep, opt, nrow.Name+"/direct", orow.Direct, nrow.Direct)
		compareMethod(rep, opt, nrow.Name+"/lavagno", orow.Lavagno, nrow.Lavagno)
	}

	for _, ncl := range new.Clauses {
		for _, ocl := range old.Clauses {
			if ocl.Name != ncl.Name {
				continue
			}
			if ocl.DirectClauses != ncl.DirectClauses || ocl.DirectVars != ncl.DirectVars ||
				!equalFormulas(ocl.Modular, ncl.Modular) {
				rep.Hard = append(rep.Hard, fmt.Sprintf("clauses %s: formula sizes drifted", ncl.Name))
			}
		}
	}

	// Cache sweep: a warm run that fails to reproduce its cold run's
	// digest is behaviour drift in the fresh record itself; hit/miss
	// movement between records is advisory (the cacheable-problem set
	// legitimately moves with the algorithm).
	for _, ncr := range new.Cache {
		if !ncr.DigestMatch {
			rep.Hard = append(rep.Hard, fmt.Sprintf("cache %s: warm run digest diverged from cold run", ncr.Name))
		}
		for _, ocr := range old.Cache {
			if ocr.Name != ncr.Name {
				continue
			}
			if ocr.Hits != ncr.Hits || ocr.Misses != ncr.Misses {
				rep.Soft = append(rep.Soft, fmt.Sprintf("cache %s: hits/misses %d/%d vs %d/%d",
					ncr.Name, ocr.Hits, ocr.Misses, ncr.Hits, ncr.Misses))
			}
		}
	}

	for _, nsc := range new.Scaling {
		for _, osc := range old.Scaling {
			if osc.K != nsc.K {
				continue
			}
			if osc.States != nsc.States {
				rep.Hard = append(rep.Hard, fmt.Sprintf("scaling k=%d: states %d vs %d", nsc.K, osc.States, nsc.States))
			}
			compareScalCell(rep, opt, fmt.Sprintf("scaling k=%d/modular", nsc.K), osc.Modular, nsc.Modular)
			compareScalCell(rep, opt, fmt.Sprintf("scaling k=%d/direct", nsc.K), osc.Direct, nsc.Direct)
			compareScalCell(rep, opt, fmt.Sprintf("scaling k=%d/lavagno", nsc.K), osc.Lavagno, nsc.Lavagno)
		}
	}
	return rep
}

func compareMethod(rep *Report, opt CompareOptions, label string, old, new MethodResult) {
	rep.Compared++
	if old.Aborted != new.Aborted {
		rep.Hard = append(rep.Hard, fmt.Sprintf("%s: aborted %v vs %v", label, old.Aborted, new.Aborted))
		return
	}
	if old.Error != new.Error {
		rep.Hard = append(rep.Hard, fmt.Sprintf("%s: error %q vs %q", label, old.Error, new.Error))
		return
	}
	if !new.Completed() {
		compareTime(rep, opt, label, old.Seconds, new.Seconds)
		return
	}
	if old.Area != new.Area {
		rep.Hard = append(rep.Hard, fmt.Sprintf("%s: area %d vs %d", label, old.Area, new.Area))
	}
	if old.States != new.States {
		rep.Hard = append(rep.Hard, fmt.Sprintf("%s: final states %d vs %d", label, old.States, new.States))
	}
	if old.Signals != new.Signals || old.StateSignals != new.StateSignals {
		rep.Hard = append(rep.Hard, fmt.Sprintf("%s: signals %d(+%d) vs %d(+%d)",
			label, old.Signals, old.StateSignals, new.Signals, new.StateSignals))
	}
	if old.Digest != "" && new.Digest != "" && old.Digest != new.Digest {
		rep.Hard = append(rep.Hard, fmt.Sprintf("%s: digest %s vs %s (covers changed)", label, old.Digest, new.Digest))
	}
	compareCounters(rep, label, old.Counters, new.Counters)
	compareTime(rep, opt, label, old.Seconds, new.Seconds)
	comparePeakHeap(rep, opt, label, old.PeakHeapBytes, new.PeakHeapBytes)
}

// compareCounters reports drift in the deterministic counters as soft
// findings: counter totals are bit-stable for a given code version,
// but a legitimate algorithm change moves them, so they inform rather
// than gate.
func compareCounters(rep *Report, label string, old, new map[string]int64) {
	if old == nil || new == nil {
		return
	}
	for _, k := range []string{"sg_states", "sat_clauses", "modules"} {
		if o, n := old[k], new[k]; o != n {
			rep.Soft = append(rep.Soft, fmt.Sprintf("%s: counter %s %d vs %d", label, k, o, n))
		}
	}
}

func compareScalCell(rep *Report, opt CompareOptions, label string, old, new ScalCell) {
	rep.Compared++
	if old.Aborted != new.Aborted {
		rep.Hard = append(rep.Hard, fmt.Sprintf("%s: aborted %v vs %v", label, old.Aborted, new.Aborted))
		return
	}
	if !new.Aborted && old.Area != new.Area {
		rep.Hard = append(rep.Hard, fmt.Sprintf("%s: area %d vs %d", label, old.Area, new.Area))
	}
	compareTime(rep, opt, label, old.Seconds, new.Seconds)
	comparePeakHeap(rep, opt, label, old.PeakHeapBytes, new.PeakHeapBytes)
}

func compareTime(rep *Report, opt CompareOptions, label string, old, new float64) {
	if old < opt.TimeFloor {
		return
	}
	if new > old*opt.TimeRatio {
		rep.Soft = append(rep.Soft, fmt.Sprintf("%s: time %.2fs vs %.2fs (>%.0f%% regression)",
			label, old, new, (opt.TimeRatio-1)*100))
	}
}

// comparePeakHeap soft-warns on peak-heap regressions beyond the heap
// ratio. Records from before schema 4 (or rows measured without the
// watcher) carry zero peaks and are skipped.
func comparePeakHeap(rep *Report, opt CompareOptions, label string, old, new uint64) {
	if old < opt.HeapFloor || new == 0 {
		return
	}
	if float64(new) > float64(old)*opt.HeapRatio {
		rep.Soft = append(rep.Soft, fmt.Sprintf("%s: peak heap %.1f MiB vs %.1f MiB (>%.0f%% regression)",
			label, float64(old)/(1<<20), float64(new)/(1<<20), (opt.HeapRatio-1)*100))
	}
}

func equalFormulas(a, b []ClauseFormula) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
