// Package modcache is the module solve cache: a concurrency-safe map
// from module solve keys to solved phase columns. A key is the exact
// layout of the CSC problem (sg.SignatureOf: state numbering, edge
// order and conflict lists, byte for byte) plus every solver-visible
// option, so a hit needs a byte-identical problem solved under the same
// options. Within one run that is rare: in the committed record
// (BENCH_3.json) the modular method makes no module-cache hit on any of
// the 23 Table 1 rows (56 misses), and the Lavagno-style baseline hits
// 3 times (mr1, mmu0, mmu1). The hits come from sharing one cache
// across runs: the record's warm suite, re-run against the cache its
// cold suite filled, hits 42 times and misses none over 20 benchmarks.
//
// Three properties keep cached and cold runs bit-identical:
//
//   - The key carries the exact layout hash, every solver-visible
//     option (engine, encoding, budgets), and the warm-chain hash, so a
//     hit guarantees the producing solve saw the same formula, the same
//     search parameters, and the same seed clauses.
//   - The entry stores the solve's outcome wholesale: decoded (and
//     tightened) phase columns, formula statistics, and the normalized
//     learned-clause export. The hit path replays the export into the
//     caller's warm chain, so downstream solves of the chain observe
//     the same seeds whether this solve was computed or replayed.
//   - Only deterministic outcomes are cached (Sat, Unsat, and
//     BacktrackLimit, which is a function of the budget in the key);
//     errors — cancellation, internal failures — are never stored.
//
// Do provides singleflight semantics: concurrent callers with one key
// share a single computation (metrics: modcache_inflight), and a
// producer that fails releases its waiters to retry rather than caching
// the error.
//
// The content-addressed on-disk record is also the cluster wire format:
// EncodeRecord/DecodeRecord serialize one (key, entry) pair, and
// RecordDigest names it, so a record written by one node can be served
// verbatim to another (the daemon's GET/PUT /v1/cache/{key} exchange).
// A Remote attached with SetRemote becomes a third lookup tier: a local
// miss pulls from peers before solving, inside the same singleflight
// guard, so at most one fetch-or-solve runs per key however many
// requests race. Every imported record is re-validated (schema, digest,
// key match) — a corrupt or foreign record reads as a miss, never as a
// wrong answer — which keeps digests bit-identical across every
// distribution topology: cold, disk-warmed, or peer-warmed.
package modcache

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"asyncsyn/internal/metrics"
	"asyncsyn/internal/sat"
	"asyncsyn/internal/sg"
	"asyncsyn/internal/synerr"
)

// Key identifies one module solve. Two solves with equal keys produce
// byte-identical results, so every field the solver's outcome depends
// on must appear here.
type Key struct {
	// Layout is the problem signature (sg.SignatureOf): a hit needs a
	// byte-identical graph and conflict set.
	Layout string `json:"layout"`
	// M is the number of state signals attempted.
	M int `json:"m"`
	// Engine and ExpandXor select the solver and encoding. Engine is
	// int(csc.Engine), whose retired numbers are never reused, so a
	// record can only match the engine that wrote it.
	Engine    int  `json:"engine"`
	ExpandXor bool `json:"expand_xor"`
	// MaxBacktracks is the search budget (the BDD engine's node limit
	// is fixed); a BacktrackLimit verdict is only deterministic relative
	// to it.
	MaxBacktracks int `json:"max_backtracks"`
	// WarmHash fingerprints the warm-chain state seeded into the
	// search ("-" when the caller has no chain): seeds steer the DPLL
	// variable order, so different seeds can reach different models.
	WarmHash string `json:"warm_hash"`
}

// Entry is one cached solve outcome.
type Entry struct {
	// Cols holds the decoded, tightened phase columns when Status is
	// Sat; nil otherwise.
	Cols [][]sg.Phase `json:"cols"`
	// Formula statistics of the producing solve (FormulaStats fields
	// that survive a replay).
	Signals  int        `json:"signals"`
	Vars     int        `json:"vars"`
	Clauses  int        `json:"clauses"`
	Literals int        `json:"literals"`
	Status   sat.Status `json:"status"`
	Engine   string     `json:"engine"`
	// Warm is the normalized learned-clause export the producing solve
	// contributed to its warm chain; hits replay it so the chain state
	// matches the miss path exactly.
	Warm [][]sat.Lit `json:"warm,omitempty"`
}

// clone deep-copies the mutable slices so callers can own the result.
func (e *Entry) clone() *Entry {
	out := *e
	if e.Cols != nil {
		out.Cols = make([][]sg.Phase, len(e.Cols))
		for i, c := range e.Cols {
			out.Cols[i] = append([]sg.Phase(nil), c...)
		}
	}
	if e.Warm != nil {
		out.Warm = make([][]sat.Lit, len(e.Warm))
		for i, c := range e.Warm {
			out.Warm[i] = append([]sat.Lit(nil), c...)
		}
	}
	return &out
}

// flight is one in-progress computation; waiters block on done.
type flight struct {
	done chan struct{}
	val  *Entry
	err  error
}

// Remote is a further lookup tier behind the local memory and disk
// tiers: typically another node's cache reached over HTTP (the
// daemon's peer cache exchange). Fetch returns the peer's entry for
// key, or (nil, error) on miss or failure — both read as a local
// miss and fall through to a solve. Implementations must be safe for
// concurrent use and must validate what they fetch (DecodeRecord plus
// a key comparison) so a damaged peer record can never corrupt the
// local cache.
type Remote interface {
	Fetch(ctx context.Context, key Key) (*Entry, error)
}

// Cache is the solve cache. The zero value is not usable; construct
// with New or NewDisk. All methods are safe for concurrent use.
type Cache struct {
	mu       sync.Mutex
	entries  map[Key]*Entry
	byDigest map[string]Key // RecordDigest → key, for Export
	inflight map[Key]*flight
	dir      string // "" = memory only
	remote   Remote // nil = no peer tier
}

// New returns an empty in-memory cache.
func New() *Cache {
	return &Cache{
		entries:  make(map[Key]*Entry),
		byDigest: make(map[string]Key),
		inflight: make(map[Key]*flight),
	}
}

// SetRemote attaches (or, with nil, detaches) the peer tier consulted
// on local misses. Safe to call while the cache is serving.
func (c *Cache) SetRemote(r Remote) {
	c.mu.Lock()
	c.remote = r
	c.mu.Unlock()
}

// NewDisk returns a cache backed by content-addressed JSON files under
// dir (created if missing), layered over the in-memory map: lookups try
// memory, then disk; stores write through. Disk I/O failures degrade to
// memory-only behavior, never to a solve error.
func NewDisk(dir string) (*Cache, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("modcache: %w", err)
	}
	c := New()
	c.dir = dir
	return c, nil
}

// Do returns the cached entry for key, computing it with solve on a
// miss. Concurrent calls with equal keys share one computation. hit
// reports whether the entry was served without running solve (memory,
// disk, or in-flight dedup). The returned entry is the caller's own
// deep copy. solve errors are returned to every waiter but never
// cached; a canceled ctx aborts the wait with synerr.Canceled.
func (c *Cache) Do(ctx context.Context, key Key, solve func() (*Entry, error)) (entry *Entry, hit bool, err error) {
	mc := metrics.From(ctx)
	for {
		c.mu.Lock()
		if e, ok := c.entries[key]; ok {
			c.mu.Unlock()
			mc.Add(metrics.CacheHits, 1)
			return e.clone(), true, nil
		}
		if c.dir != "" {
			if e := c.loadDisk(key); e != nil {
				c.entries[key] = e
				c.byDigest[RecordDigest(key)] = key
				c.mu.Unlock()
				mc.Add(metrics.CacheHits, 1)
				return e.clone(), true, nil
			}
		}
		if fl, ok := c.inflight[key]; ok {
			c.mu.Unlock()
			mc.Add(metrics.CacheInflight, 1)
			select {
			case <-fl.done:
			case <-ctx.Done():
				return nil, false, synerr.Canceled(ctx.Err())
			}
			if fl.err == nil {
				return fl.val.clone(), true, nil
			}
			// The producer failed (e.g. its context was canceled).
			// Its error may not apply to us — loop and retry.
			if ctx.Err() != nil {
				return nil, false, synerr.Canceled(ctx.Err())
			}
			continue
		}
		fl := &flight{done: make(chan struct{})}
		c.inflight[key] = fl
		remote := c.remote
		c.mu.Unlock()

		// Peer tier: pull-on-miss, inside the singleflight guard so
		// concurrent callers never issue duplicate fetches. A fetched
		// entry is stored and served exactly like a local hit; any
		// fetch failure falls through to a local solve.
		if remote != nil {
			if e, ferr := remote.Fetch(ctx, key); ferr == nil && e != nil {
				mc.Add(metrics.CachePeerHits, 1)
				c.mu.Lock()
				delete(c.inflight, key)
				stored := e.clone()
				c.store(key, stored)
				fl.val = stored
				c.mu.Unlock()
				close(fl.done)
				return e, true, nil
			}
			mc.Add(metrics.CachePeerMisses, 1)
		}

		mc.Add(metrics.CacheMisses, 1)
		val, solveErr := solve()

		c.mu.Lock()
		delete(c.inflight, key)
		if solveErr == nil {
			// Waiters clone from the cached copy, never from val: the
			// producing caller owns val and may mutate it after return.
			stored := val.clone()
			c.store(key, stored)
			fl.val = stored
		} else {
			fl.err = solveErr
		}
		c.mu.Unlock()
		close(fl.done)
		return val, false, solveErr
	}
}

// store inserts e (which must be a private copy the cache owns) under
// key in every local tier. Call with c.mu held.
func (c *Cache) store(key Key, e *Entry) {
	c.entries[key] = e
	c.byDigest[RecordDigest(key)] = key
	if c.dir != "" {
		c.writeDisk(key, e)
	}
}

// Len returns the number of in-memory entries.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// diskSchema versions the on-disk record layout.
const diskSchema = 1

// diskRecord is the on-disk JSON envelope. The full key is stored and
// verified on load, so a content-hash collision or a record written by
// an incompatible build reads as a miss, never as a wrong answer.
type diskRecord struct {
	Schema int    `json:"schema"`
	Key    Key    `json:"key"`
	Entry  *Entry `json:"entry"`
}

// RecordDigest content-addresses a key: the hex SHA-256 of its
// canonical JSON encoding. It names the key's record both on disk
// (<digest>.json under the cache directory) and on the wire (the
// {key} segment of the daemon's /v1/cache/{key} exchange), so a
// record travels between nodes under one stable identity.
func RecordDigest(key Key) string {
	b, _ := json.Marshal(key)
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// EncodeRecord serializes one (key, entry) pair in the on-disk /
// wire record format.
func EncodeRecord(key Key, e *Entry) ([]byte, error) {
	if e == nil {
		return nil, fmt.Errorf("modcache: nil entry")
	}
	return json.Marshal(diskRecord{Schema: diskSchema, Key: key, Entry: e})
}

// DecodeRecord parses and validates a record produced by EncodeRecord
// (or read from a cache directory): the envelope must parse, carry the
// current schema version, and hold an entry. Callers that know which
// key they asked for must additionally compare the returned key (or
// its RecordDigest) before trusting the entry.
func DecodeRecord(b []byte) (Key, *Entry, error) {
	var rec diskRecord
	if err := json.Unmarshal(b, &rec); err != nil {
		return Key{}, nil, fmt.Errorf("modcache: bad record: %w", err)
	}
	if rec.Schema != diskSchema {
		return Key{}, nil, fmt.Errorf("modcache: record schema %d, want %d", rec.Schema, diskSchema)
	}
	if rec.Entry == nil {
		return Key{}, nil, fmt.Errorf("modcache: record has no entry")
	}
	return rec.Key, rec.Entry, nil
}

// Export returns the encoded record named by digest, from memory or —
// on a disk-backed cache — straight from the cache directory, so a
// node can serve records persisted by earlier processes. The bool is
// false when no valid record by that name exists.
func (c *Cache) Export(digest string) ([]byte, bool) {
	if !validDigest(digest) {
		return nil, false
	}
	c.mu.Lock()
	key, ok := c.byDigest[digest]
	var e *Entry
	if ok {
		e = c.entries[key]
	}
	dir := c.dir
	c.mu.Unlock()
	if e != nil {
		b, err := EncodeRecord(key, e)
		return b, err == nil
	}
	if dir == "" {
		return nil, false
	}
	b, err := os.ReadFile(filepath.Join(dir, digest+".json"))
	if err != nil {
		return nil, false
	}
	k, _, derr := DecodeRecord(b)
	if derr != nil || RecordDigest(k) != digest {
		return nil, false
	}
	return b, true
}

// Import validates an encoded record and stores it in every local
// tier, returning its digest. An already-present key is left
// untouched (first write wins — entries for one key are byte-identical
// by construction, so there is nothing to reconcile).
func (c *Cache) Import(b []byte) (string, error) {
	key, e, err := DecodeRecord(b)
	if err != nil {
		return "", err
	}
	d := RecordDigest(key)
	c.mu.Lock()
	if _, ok := c.entries[key]; !ok {
		c.store(key, e.clone())
	}
	c.mu.Unlock()
	return d, nil
}

// validDigest guards Export's disk path against traversal: a digest is
// exactly 64 lowercase hex characters.
func validDigest(d string) bool {
	if len(d) != 64 {
		return false
	}
	for _, r := range d {
		if (r < '0' || r > '9') && (r < 'a' || r > 'f') {
			return false
		}
	}
	return true
}

// diskPath content-addresses key under c.dir.
func (c *Cache) diskPath(key Key) string {
	return filepath.Join(c.dir, RecordDigest(key)+".json")
}

// loadDisk reads and verifies the record for key; nil on any mismatch
// or I/O error. Called with c.mu held (file reads under the lock are
// acceptable: records are small and the path is a startup-warming one).
func (c *Cache) loadDisk(key Key) *Entry {
	b, err := os.ReadFile(c.diskPath(key))
	if err != nil {
		return nil
	}
	var rec diskRecord
	if json.Unmarshal(b, &rec) != nil || rec.Schema != diskSchema || rec.Key != key || rec.Entry == nil {
		return nil
	}
	return rec.Entry
}

// writeDisk persists the record best-effort via temp file + rename so
// concurrent processes never observe a torn record.
func (c *Cache) writeDisk(key Key, e *Entry) {
	b, err := json.Marshal(diskRecord{Schema: diskSchema, Key: key, Entry: e})
	if err != nil {
		return
	}
	path := c.diskPath(key)
	tmp, err := os.CreateTemp(c.dir, ".tmp-*")
	if err != nil {
		return
	}
	_, werr := tmp.Write(b)
	cerr := tmp.Close()
	if werr != nil || cerr != nil {
		os.Remove(tmp.Name())
		return
	}
	if os.Rename(tmp.Name(), path) != nil {
		os.Remove(tmp.Name())
	}
}
