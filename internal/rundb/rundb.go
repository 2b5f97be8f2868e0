// Package rundb is the persistent run database: a crash-safe,
// disk-backed record of completed synthesis runs keyed by the pair
// (STG content hash, canonical options hash). Where internal/modcache
// banks individual module solves, rundb banks whole runs — circuit
// digest, equations, shape statistics, counters and per-stage timings
// — so a project suite can skip entries whose specification and
// options have not changed, and a long-lived daemon can serve its run
// history (`GET /v1/runs`) instead of forgetting every result at
// response time.
//
// The key is content-addressed on both axes:
//
//   - Signature is the hex SHA-256 of the *canonical rendering* of the
//     parsed STG (stg.Format of the parse), the same normalization the
//     cluster router hashes for shard placement: whitespace, comments
//     and declaration noise never move it, a semantic edit always
//     does.
//   - OptionsHash is the hex SHA-256 of the canonical JSON of exactly
//     the solver-visible options (method, engine, budgets, encodings)
//     of the normalized option set (asyncsyn.Options.Normalize), so a
//     budget spelled out at its default hashes like a zero one and an
//     invalid set has no hash at all. Workers, timeouts, caching and
//     tracing are excluded: the pipeline's determinism contract
//     (DESIGN.md §3.7) guarantees they never change the circuit.
//
// The record layout mirrors modcache's content-addressed files: every
// write goes to a private temp file first and is published by rename,
// so a reader (or a crashed writer) can never observe a torn record.
// Reads validate schema, tool version and the full key before trusting
// a record — truncation, garbage, a foreign schema or a hash collision
// all read as a clean miss, never as a wrong answer. The divergence
// policy follows from the key: two runs with equal keys must produce
// bit-identical digests, so a recorded digest that differs from the
// banked one is a regression by definition and is flagged on the
// record (Record.Divergent) for callers to escalate — the project
// runner hard-fails, the daemon exposes a counter.
//
// On-disk layout under the database directory:
//
//	runs/<id>.json   one immutable record per completed run (history)
//	bank/<key>.json  the latest record per key (the skip predicate),
//	                 <key> = hex SHA-256 of the canonical key JSON
package rundb

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"asyncsyn"
)

// Schema versions the record layout; a record carrying any other value
// reads as a miss.
const Schema = 1

// Tool names the writer; records from an incompatible tool read as a
// miss even when the schema number matches.
const Tool = "asyncsyn/rundb"

// Signature content-addresses a specification: the hex SHA-256 of its
// canonical rendering (STG.Format of the parsed source). It doubles as
// the `signature` field of the daemon's synthesis responses and the
// `?signature=` filter of GET /v1/runs, so clients correlate jobs with
// history without re-deriving anything.
func Signature(canonical string) string {
	sum := sha256.Sum256([]byte(canonical))
	return hex.EncodeToString(sum[:])
}

// OptionsKey is the canonical, solver-visible option set: every field
// that can move a circuit, and none that cannot. Hash it with
// (OptionsKey).Hash.
type OptionsKey struct {
	Method        string `json:"method"`
	Engine        string `json:"engine"`
	MaxBacktracks int64  `json:"max_backtracks"`
	ExpandXor     bool   `json:"expand_xor"`
	MaxStates     int    `json:"max_states"`
	TokenBound    int    `json:"token_bound"`
}

// OptionsOf normalizes facade options and projects the canonical option
// set out of the result; an option set Normalize rejects returns its
// error, which matches asyncsyn.ErrParse. Workers, Timeout, Tracer,
// Metrics and every cache knob are dropped: the determinism contract
// pins the circuit bit-identical across them. This is the one list of
// the solver-visible fields every option key is derived from.
func OptionsOf(opt asyncsyn.Options) (OptionsKey, error) {
	opt, err := opt.Normalize()
	if err != nil {
		return OptionsKey{}, err
	}
	return OptionsKey{
		Method:        opt.Method.String(),
		Engine:        opt.Engine.String(),
		MaxBacktracks: opt.MaxBacktracks,
		ExpandXor:     opt.ExpandXor,
		MaxStates:     opt.MaxStates,
		TokenBound:    opt.TokenBound,
	}, nil
}

// Hash returns the hex SHA-256 of the canonical JSON encoding.
func (o OptionsKey) Hash() string {
	b, _ := json.Marshal(o)
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// Key identifies one synthesis problem instance: what was synthesized
// (Signature) and how (OptionsHash).
type Key struct {
	Signature   string `json:"signature"`
	OptionsHash string `json:"options_hash"`
}

// KeyOf builds the key for a canonical STG rendering and an option set.
func KeyOf(canonical string, opts OptionsKey) Key {
	return Key{Signature: Signature(canonical), OptionsHash: opts.Hash()}
}

// hash content-addresses the key for the bank filename.
func (k Key) hash() string {
	b, _ := json.Marshal(k)
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// StageMS is one pipeline stage timing in a record.
type StageMS struct {
	Name string  `json:"name"`
	MS   float64 `json:"ms"`
}

// Record is one completed synthesis run. Records are immutable once
// written; a re-synthesis of the same key appends a new record and
// re-points the bank.
type Record struct {
	Schema int    `json:"schema"`
	Tool   string `json:"tool"`
	// ID names the record ("r<seq>-<sig prefix>"); Seq orders history.
	ID  string `json:"id"`
	Seq int64  `json:"seq"`

	Signature   string     `json:"signature"`
	OptionsHash string     `json:"options_hash"`
	Options     OptionsKey `json:"options"`

	Model string `json:"model"`
	// Bench is the embedded benchmark name when the run came from one;
	// File is the project-relative path in suite mode.
	Bench string `json:"bench,omitempty"`
	File  string `json:"file,omitempty"`

	// Digest is the canonical circuit digest (Circuit.Digest); empty on
	// aborted runs, which never satisfy the skip predicate.
	Digest  string `json:"digest,omitempty"`
	Aborted bool   `json:"aborted,omitempty"`
	// Divergent marks a record whose digest differs from the banked
	// predecessor for the same key — a determinism regression, set by
	// the database at record time, never by callers.
	Divergent bool `json:"divergent,omitempty"`

	InitialStates  int `json:"initial_states"`
	InitialSignals int `json:"initial_signals"`
	FinalStates    int `json:"final_states"`
	FinalSignals   int `json:"final_signals"`
	StateSignals   int `json:"state_signals"`
	Area           int `json:"area"`

	CPUMS     float64          `json:"cpu_ms"`
	Functions []string         `json:"functions,omitempty"`
	Counters  map[string]int64 `json:"counters,omitempty"`
	Stages    []StageMS        `json:"stages,omitempty"`

	// UnixMS is the record time in milliseconds since the epoch.
	UnixMS int64 `json:"unix_ms"`
}

// RecordOf flattens one completed circuit into a record for key. The
// caller fills Bench or File as appropriate before storing.
func RecordOf(c *asyncsyn.Circuit, canonical string, opts OptionsKey) *Record {
	rec := &Record{
		Schema:      Schema,
		Tool:        Tool,
		Signature:   Signature(canonical),
		OptionsHash: opts.Hash(),
		Options:     opts,
		Model:       c.Name,
		Aborted:     c.Aborted,

		InitialStates:  c.InitialStates,
		InitialSignals: c.InitialSignals,
		FinalStates:    c.FinalStates,
		FinalSignals:   c.FinalSignals,
		StateSignals:   c.StateSignals,
		Area:           c.Area,

		CPUMS:    float64(c.CPU) / float64(time.Millisecond),
		Counters: c.Counters,
	}
	if !c.Aborted {
		rec.Digest = c.Digest()
		for _, f := range c.Functions {
			rec.Functions = append(rec.Functions, f.String())
		}
	}
	for _, st := range c.Stages {
		rec.Stages = append(rec.Stages, StageMS{Name: st.Name, MS: float64(st.Duration) / float64(time.Millisecond)})
	}
	return rec
}

// Key returns the record's database key.
func (r *Record) Key() Key {
	return Key{Signature: r.Signature, OptionsHash: r.OptionsHash}
}

// DB is one open run database. All methods are safe for concurrent
// use; concurrent processes sharing a directory are safe against torn
// reads (rename publication) though their sequence numbers may
// interleave.
type DB struct {
	mu    sync.Mutex
	dir   string
	seq   int64
	index []*Record // history, ascending Seq
	byID  map[string]*Record
}

// Open opens (creating if missing) the database under dir and loads
// the run history. Corrupt or foreign run files are skipped, never
// fatal: a half-written record from a crashed process must not brick
// the database.
func Open(dir string) (*DB, error) {
	for _, d := range []string{dir, filepath.Join(dir, "runs"), filepath.Join(dir, "bank")} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return nil, fmt.Errorf("rundb: %w", err)
		}
	}
	db := &DB{dir: dir, byID: make(map[string]*Record)}
	entries, err := os.ReadDir(filepath.Join(dir, "runs"))
	if err != nil {
		return nil, fmt.Errorf("rundb: %w", err)
	}
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".json") {
			continue
		}
		b, err := os.ReadFile(filepath.Join(dir, "runs", e.Name()))
		if err != nil {
			continue
		}
		rec, err := decode(b)
		if err != nil {
			continue
		}
		db.index = append(db.index, rec)
		db.byID[rec.ID] = rec
		if rec.Seq > db.seq {
			db.seq = rec.Seq
		}
	}
	sort.Slice(db.index, func(i, j int) bool { return db.index[i].Seq < db.index[j].Seq })
	return db, nil
}

// Dir returns the database directory.
func (db *DB) Dir() string { return db.dir }

// Len returns the number of history records loaded or appended.
func (db *DB) Len() int {
	db.mu.Lock()
	defer db.mu.Unlock()
	return len(db.index)
}

// decode parses and validates one record; any violation of the layout
// contract — malformed JSON, wrong schema or tool, missing identity —
// is an error the callers turn into a miss.
func decode(b []byte) (*Record, error) {
	var rec Record
	if err := json.Unmarshal(b, &rec); err != nil {
		return nil, fmt.Errorf("rundb: bad record: %w", err)
	}
	if rec.Schema != Schema {
		return nil, fmt.Errorf("rundb: record schema %d, want %d", rec.Schema, Schema)
	}
	if rec.Tool != Tool {
		return nil, fmt.Errorf("rundb: record tool %q, want %q", rec.Tool, Tool)
	}
	if rec.ID == "" || rec.Signature == "" || rec.OptionsHash == "" {
		return nil, fmt.Errorf("rundb: record missing identity")
	}
	return &rec, nil
}

// Record assigns the run an identity, appends it to the history and
// re-points the bank for its key, returning the previously banked
// record (nil when the key is new). When both digests exist and
// differ, the stored record is flagged Divergent — equal keys must
// produce bit-identical circuits, so a digest move without a source
// or option change is a regression, not an update.
func (db *DB) Record(rec *Record) (prev *Record, err error) {
	if rec.Schema == 0 {
		rec.Schema = Schema
	}
	if rec.Tool == "" {
		rec.Tool = Tool
	}
	if rec.Schema != Schema || rec.Tool != Tool {
		return nil, fmt.Errorf("rundb: refusing to store schema %d / tool %q", rec.Schema, rec.Tool)
	}
	if rec.Signature == "" || rec.OptionsHash == "" {
		return nil, fmt.Errorf("rundb: record missing key")
	}
	key := rec.Key()
	prev, _ = db.Lookup(key)

	db.mu.Lock()
	db.seq++
	rec.Seq = db.seq
	rec.ID = fmt.Sprintf("r%06d-%s", rec.Seq, rec.Signature[:8])
	if rec.UnixMS == 0 {
		rec.UnixMS = time.Now().UnixMilli()
	}
	rec.Divergent = prev != nil && prev.Digest != "" && rec.Digest != "" && prev.Digest != rec.Digest
	db.mu.Unlock()

	b, err := json.Marshal(rec)
	if err != nil {
		return prev, fmt.Errorf("rundb: %w", err)
	}
	if err := db.publish(filepath.Join(db.dir, "runs", rec.ID+".json"), b); err != nil {
		return prev, err
	}
	if err := db.publish(filepath.Join(db.dir, "bank", key.hash()+".json"), b); err != nil {
		return prev, err
	}

	db.mu.Lock()
	db.index = append(db.index, rec)
	db.byID[rec.ID] = rec
	db.mu.Unlock()
	return prev, nil
}

// publish writes b to path via temp file + rename, so a reader never
// observes a torn record and a crash leaves at worst an orphan temp.
func (db *DB) publish(path string, b []byte) error {
	tmp, err := os.CreateTemp(db.dir, ".tmp-*")
	if err != nil {
		return fmt.Errorf("rundb: %w", err)
	}
	_, werr := tmp.Write(b)
	cerr := tmp.Close()
	if werr != nil || cerr != nil {
		os.Remove(tmp.Name())
		if werr == nil {
			werr = cerr
		}
		return fmt.Errorf("rundb: %w", werr)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("rundb: %w", err)
	}
	return nil
}

// Lookup returns the banked (latest) record for key. The record is
// re-read and re-validated from disk every time, so concurrent
// processes sharing the directory observe each other's runs; any
// corruption — truncation, garbage, wrong schema or tool, or a record
// whose key does not match the bank filename's — reads as a miss.
func (db *DB) Lookup(key Key) (*Record, bool) {
	b, err := os.ReadFile(filepath.Join(db.dir, "bank", key.hash()+".json"))
	if err != nil {
		return nil, false
	}
	rec, err := decode(b)
	if err != nil || rec.Key() != key {
		return nil, false
	}
	return rec, true
}

// Get returns the history record by id.
func (db *DB) Get(id string) (*Record, bool) {
	db.mu.Lock()
	defer db.mu.Unlock()
	rec, ok := db.byID[id]
	return rec, ok
}

// Filter selects and paginates history for List.
type Filter struct {
	// Signature, when non-empty, matches Record.Signature exactly.
	Signature string
	// Model, when non-empty, matches Record.Model, Bench or File.
	Model string
	// Offset and Limit paginate the newest-first result; Limit <= 0
	// means DefaultLimit, capped at MaxLimit.
	Offset int
	Limit  int
}

// DefaultLimit and MaxLimit bound one List page.
const (
	DefaultLimit = 50
	MaxLimit     = 500
)

// List returns one page of history, newest first, and the total number
// of records matching the filter (before pagination).
func (db *DB) List(f Filter) (page []*Record, total int) {
	limit := f.Limit
	if limit <= 0 {
		limit = DefaultLimit
	}
	if limit > MaxLimit {
		limit = MaxLimit
	}
	offset := f.Offset
	if offset < 0 {
		offset = 0
	}

	db.mu.Lock()
	defer db.mu.Unlock()
	for i := len(db.index) - 1; i >= 0; i-- {
		rec := db.index[i]
		if f.Signature != "" && rec.Signature != f.Signature {
			continue
		}
		if f.Model != "" && rec.Model != f.Model && rec.Bench != f.Model && rec.File != f.Model {
			continue
		}
		if total >= offset && len(page) < limit {
			page = append(page, rec)
		}
		total++
	}
	return page, total
}
