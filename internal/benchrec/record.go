// Package benchrec defines the machine-readable benchmark record that
// cmd/bench emits (BENCH_<n>.json): a versioned, schema-stable snapshot
// of the full Table-1 suite across all three synthesis methods, the
// formula-size sweep, and the scaling sweep, each row carrying areas,
// state counts, timings, metrics counters and a determinism digest. The
// package also provides the regression comparator (Compare: hard fail
// on area/state/digest drift, soft warn on time regression) and the
// markdown renderer that regenerates the generated sections of
// EXPERIMENTS.md from a committed record, keeping the experiment
// documentation provably in sync with the code.
package benchrec

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// SchemaVersion identifies the record layout. Any breaking change to
// the JSON field set, the counter names, or the digest recipe must bump
// it; Compare refuses records with mismatched versions.
//
// Version 2: added the cache-effectiveness sweep (Record.Cache), the
// modcache_* / sat_warm_clauses counters, and the warm-start DPLL
// seeding that moves SAT models (digests) relative to version 1.
//
// Version 3: added per-method allocation totals (MethodResult.AllocBytes
// / Allocs — machine-facing, never compared), the sat_assumptions
// counter, and the bitset/incremental-SAT hot paths, which move timings
// and allocation profiles but leave digests and deterministic counters
// unchanged relative to version 2.
//
// Version 4: added per-row peak heap (MethodResult.PeakHeapBytes and
// ScalCell.PeakHeapBytes — a sampled HeapInuse high-water mark,
// soft-warned on >25% regression, never hard-gated) and the
// sg_states_streamed / sg_peak_frontier counters of the streaming
// expansion spine. Digests and deterministic counters are unchanged
// relative to version 3 (the streaming and materializing paths are
// pinned bit-identical); memory profiles move.
//
// Version 5: added the speculative partition-parallel module scheduler's
// scaling cells — ScalCell.ModuleSeconds (module-stage time, the part
// speculation parallelized) and ScalingRow.ModularSpec (the modular
// method re-run at Workers=4 with speculation on) — plus
// Env.NoSpeculation for ablation records. Digests and the counters in
// MethodResult.Counters are unchanged relative to version 4; timings
// move. The scheduler has since been deleted: cmd/bench no longer
// fills ModularSpec or NoSpeculation, which stay so BENCH_3.json still
// reads and renders.
const SchemaVersion = 5

// Env describes the machine and configuration that produced a record.
type Env struct {
	GoVersion     string `json:"go_version"`
	GOOS          string `json:"goos"`
	GOARCH        string `json:"goarch"`
	NumCPU        int    `json:"num_cpu"`
	GOMAXPROCS    int    `json:"gomaxprocs"`
	Commit        string `json:"commit,omitempty"`
	Workers       int    `json:"workers"`
	MaxBacktracks int64  `json:"max_backtracks"`
	Quick         bool   `json:"quick,omitempty"`
	// NoSpeculation marks an ablation record: the (since deleted)
	// speculative module scheduler was disabled for every run.
	NoSpeculation bool `json:"no_speculation,omitempty"`
}

// StageTiming records one pipeline stage of a run.
type StageTiming struct {
	Name    string  `json:"name"`
	Seconds float64 `json:"seconds"`
}

// ModuleStat records one per-output modular pass.
type ModuleStat struct {
	Output    string `json:"output"`
	States    int    `json:"states"`            // merged modular graph states
	Conflicts int    `json:"conflicts"`         // CSC conflict pairs
	Clauses   int    `json:"clauses,omitempty"` // largest formula of the pass
	Vars      int    `json:"vars,omitempty"`
}

// MethodResult is one benchmark × method measurement.
type MethodResult struct {
	States       int     `json:"states,omitempty"`
	Signals      int     `json:"signals,omitempty"`
	StateSignals int     `json:"state_signals,omitempty"`
	Area         int     `json:"area,omitempty"`
	Aborted      bool    `json:"aborted,omitempty"`
	Error        string  `json:"error,omitempty"`
	Seconds      float64 `json:"seconds"`
	// Digest is a short hash of every machine-independent output of the
	// run (states, signals, areas, function covers). Two runs of the
	// same code on any machine and any worker count produce the same
	// digest; a digest drift is a behaviour change.
	Digest   string           `json:"digest,omitempty"`
	Counters map[string]int64 `json:"counters,omitempty"`
	Stages   []StageTiming    `json:"stages,omitempty"`
	Modules  []ModuleStat     `json:"modules,omitempty"`
	// AllocBytes and Allocs are the run's heap-allocation deltas
	// (runtime.MemStats TotalAlloc / Mallocs). Like Seconds they describe
	// the machine and build, not the algorithm's outputs, so Compare
	// never gates on them; they exist so future records can separate
	// machine drift from code drift. When benchmark rows run
	// concurrently (bench -workers ≠ 1) the per-row numbers include the
	// other rows' allocations; whole-record totals remain meaningful.
	AllocBytes uint64 `json:"alloc_bytes,omitempty"`
	Allocs     uint64 `json:"allocs,omitempty"`
	// PeakHeapBytes is the run's sampled HeapInuse high-water mark
	// (metrics.WatchHeap). Machine- and build-facing like AllocBytes, but
	// unlike it, Compare soft-warns when it regresses beyond the heap
	// ratio — a peak-heap jump is how a streaming path silently falling
	// back to materialization would first show up. Concurrent rows
	// (bench -workers ≠ 1) share one heap, so per-row peaks include the
	// other rows' footprints.
	PeakHeapBytes uint64 `json:"peak_heap_bytes,omitempty"`
}

// Completed reports whether the run finished with a full circuit.
func (m MethodResult) Completed() bool { return m.Error == "" && !m.Aborted }

// Row is one Table-1 benchmark across the three methods.
type Row struct {
	Name           string       `json:"name"`
	InitialStates  int          `json:"initial_states"`
	InitialSignals int          `json:"initial_signals"`
	Modular        MethodResult `json:"modular"`
	Direct         MethodResult `json:"direct"`
	Lavagno        MethodResult `json:"lavagno"`
}

// ClauseFormula is one modular formula of the clause-size sweep.
type ClauseFormula struct {
	Clauses int `json:"clauses"`
	Vars    int `json:"vars"`
}

// ClauseRow records the formula-size comparison (paper-style expanded
// CNF) for one benchmark: the direct method's largest formula against
// the modular method's per-module formulas.
type ClauseRow struct {
	Name          string          `json:"name"`
	DirectClauses int             `json:"direct_clauses"`
	DirectVars    int             `json:"direct_vars"`
	Modular       []ClauseFormula `json:"modular"`
}

// ScalCell is one method's outcome at one scaling point.
type ScalCell struct {
	Seconds float64 `json:"seconds"`
	Area    int     `json:"area,omitempty"`
	Aborted bool    `json:"aborted,omitempty"`
	// PeakHeapBytes is the sampled HeapInuse high-water mark of this
	// point's run (see MethodResult.PeakHeapBytes); the scaling sweep is
	// where the frontier-bounded streaming expansion shows up.
	PeakHeapBytes uint64 `json:"peak_heap_bytes,omitempty"`
	// ModuleSeconds isolates the modules pipeline stage. Zero in
	// pre-schema-5 records and in aborted cells.
	ModuleSeconds float64 `json:"module_seconds,omitempty"`
}

// ScalingRow is one point of the parametric handshake sweep.
type ScalingRow struct {
	K       int      `json:"k"`
	States  int      `json:"states"`
	Modular ScalCell `json:"modular"`
	Direct  ScalCell `json:"direct"`
	Lavagno ScalCell `json:"lavagno"`
	// ModularSpec is the modular method re-run with the (since deleted)
	// speculative module scheduler engaged (Workers=4); the record keeps
	// only the timings. Nil in pre-schema-5 records and in records
	// written after the scheduler's removal.
	ModularSpec *ScalCell `json:"modular_spec,omitempty"`
}

// CacheRow records the cache-effectiveness measurement for one
// benchmark: the same modular synthesis run twice against one shared
// solve cache — cold (empty cache) and warm (fully populated).
type CacheRow struct {
	Name string `json:"name"`
	// ColdSeconds and WarmSeconds are the whole-run wall-clock times.
	ColdSeconds float64 `json:"cold_seconds"`
	WarmSeconds float64 `json:"warm_seconds"`
	// ColdModuleSeconds and WarmModuleSeconds isolate the modules
	// pipeline stage, where the cached solves live.
	ColdModuleSeconds float64 `json:"cold_module_seconds"`
	WarmModuleSeconds float64 `json:"warm_module_seconds"`
	// Hits and Misses are the warm run's cache counters.
	Hits   int64 `json:"hits"`
	Misses int64 `json:"misses"`
	// WarmClauses is the cold run's sat_warm_clauses counter: learned
	// clauses re-seeded along its widening chains.
	WarmClauses int64 `json:"warm_clauses,omitempty"`
	// DigestMatch asserts the warm run reproduced the cold run's
	// determinism digest bit for bit.
	DigestMatch bool `json:"digest_match"`
}

// Record is one complete benchmark run.
type Record struct {
	Schema  int          `json:"schema"`
	Env     Env          `json:"env"`
	Rows    []Row        `json:"rows"`
	Clauses []ClauseRow  `json:"clauses,omitempty"`
	Scaling []ScalingRow `json:"scaling,omitempty"`
	Cache   []CacheRow   `json:"cache,omitempty"`
}

// Validate checks schema version and structural sanity.
func (r *Record) Validate() error {
	if r.Schema != SchemaVersion {
		return fmt.Errorf("benchrec: schema %d, this build reads %d", r.Schema, SchemaVersion)
	}
	if len(r.Rows) == 0 {
		return fmt.Errorf("benchrec: record has no rows")
	}
	seen := make(map[string]bool, len(r.Rows))
	for _, row := range r.Rows {
		if row.Name == "" {
			return fmt.Errorf("benchrec: row with empty name")
		}
		if seen[row.Name] {
			return fmt.Errorf("benchrec: duplicate row %q", row.Name)
		}
		seen[row.Name] = true
	}
	return nil
}

// Row returns the named row.
func (r *Record) Row(name string) (Row, bool) {
	for _, row := range r.Rows {
		if row.Name == name {
			return row, true
		}
	}
	return Row{}, false
}

// Encode writes the record as stable, indented JSON. Map keys are
// sorted by encoding/json, so equal records produce byte-equal output.
func (r *Record) Encode(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// WriteFile writes the record to path.
func (r *Record) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := r.Encode(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Read parses and validates a record.
func Read(rd io.Reader) (*Record, error) {
	dec := json.NewDecoder(rd)
	dec.DisallowUnknownFields()
	var r Record
	if err := dec.Decode(&r); err != nil {
		return nil, fmt.Errorf("benchrec: %w", err)
	}
	if err := r.Validate(); err != nil {
		return nil, err
	}
	return &r, nil
}

// ReadFile reads and validates a record from path.
func ReadFile(path string) (*Record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	r, err := Read(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return r, nil
}

// ResolveBaseline turns a directory into its highest-numbered
// BENCH_*.json record — the conventional "latest committed baseline" —
// so CI can point at the baselines directory without editing the
// workflow every time a new record lands, and tests pin the same record
// cmd/bench -against compares with. Numbers compare numerically
// (BENCH_10 beats BENCH_9); ties and unnumbered records fall back to
// lexical order. A file path passes through untouched.
func ResolveBaseline(path string) (string, error) {
	fi, err := os.Stat(path)
	if err != nil {
		return "", err
	}
	if !fi.IsDir() {
		return path, nil
	}
	matches, err := filepath.Glob(filepath.Join(path, "BENCH_*.json"))
	if err != nil {
		return "", err
	}
	if len(matches) == 0 {
		return "", fmt.Errorf("benchrec: no BENCH_*.json records in directory %s", path)
	}
	num := func(p string) int {
		base := strings.TrimSuffix(strings.TrimPrefix(filepath.Base(p), "BENCH_"), ".json")
		n, err := strconv.Atoi(base)
		if err != nil {
			return -1
		}
		return n
	}
	sort.Slice(matches, func(i, j int) bool {
		ni, nj := num(matches[i]), num(matches[j])
		if ni != nj {
			return ni < nj
		}
		return matches[i] < matches[j]
	})
	return matches[len(matches)-1], nil
}

// Digest hashes the machine-independent outputs of a run into a short
// hex string: the circuit shape (states/signals/areas) plus every
// function equation, sorted for order independence. parts is the
// caller-assembled list; sorting and hashing here keeps the recipe in
// one place.
func Digest(parts []string) string {
	sorted := append([]string(nil), parts...)
	sort.Strings(sorted)
	h := sha256.New()
	for _, p := range sorted {
		io.WriteString(h, p)
		h.Write([]byte{0})
	}
	return hex.EncodeToString(h.Sum(nil))[:12]
}
