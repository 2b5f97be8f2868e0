package modcache

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"asyncsyn/internal/metrics"
	"asyncsyn/internal/sat"
)

// TestDiskCorruptionMissesCleanly pins the robustness contract the
// remote tier inherits: a damaged on-disk record — truncated, garbage,
// wrong schema, or swapped with another key's record — reads as a
// miss that recomputes, never as an error or a wrong answer.
func TestDiskCorruptionMissesCleanly(t *testing.T) {
	ctx := context.Background()
	damage := []struct {
		name  string
		wreck func(t *testing.T, path string)
	}{
		{"truncated", func(t *testing.T, path string) {
			b, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, b[:len(b)/2], 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{"garbage", func(t *testing.T, path string) {
			if err := os.WriteFile(path, []byte("\x00\xffnot json at all"), 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{"empty", func(t *testing.T, path string) {
			if err := os.WriteFile(path, nil, 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{"wrong-schema", func(t *testing.T, path string) {
			if err := os.WriteFile(path, []byte(`{"schema":999,"key":{},"entry":{}}`), 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{"key-swap", func(t *testing.T, path string) {
			// A record whose content is valid but belongs to a different
			// key: must fail the stored-key comparison, not be served.
			other, err := EncodeRecord(testKey("other"), testEntry())
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, other, 0o644); err != nil {
				t.Fatal(err)
			}
		}},
	}
	for _, d := range damage {
		t.Run(d.name, func(t *testing.T) {
			dir := t.TempDir()
			c1, err := NewDisk(dir)
			if err != nil {
				t.Fatal(err)
			}
			key := testKey("victim")
			if _, _, err := c1.Do(ctx, key, func() (*Entry, error) { return testEntry(), nil }); err != nil {
				t.Fatal(err)
			}
			path := c1.diskPath(key)
			if _, err := os.Stat(path); err != nil {
				t.Fatalf("record not written: %v", err)
			}
			d.wreck(t, path)

			// A fresh cache over the damaged directory must recompute
			// without surfacing an error.
			c2, err := NewDisk(dir)
			if err != nil {
				t.Fatal(err)
			}
			ran := false
			e, hit, err := c2.Do(ctx, key, func() (*Entry, error) { ran = true; return testEntry(), nil })
			if err != nil {
				t.Fatalf("corrupt record surfaced an error: %v", err)
			}
			if hit || !ran {
				t.Fatalf("corrupt record served as a hit (hit=%v ran=%v)", hit, ran)
			}
			if e == nil || e.Status != sat.Sat {
				t.Fatalf("recompute returned %+v", e)
			}
		})
	}
}

// TestRecordRoundTrip pins the wire format: Encode → Decode is
// lossless and RecordDigest matches the on-disk content address.
func TestRecordRoundTrip(t *testing.T) {
	key, want := testKey("wire"), testEntry()
	b, err := EncodeRecord(key, want)
	if err != nil {
		t.Fatal(err)
	}
	k, e, err := DecodeRecord(b)
	if err != nil {
		t.Fatal(err)
	}
	if k != key {
		t.Fatalf("key mangled: %+v != %+v", k, key)
	}
	if !reflect.DeepEqual(e, want) {
		t.Fatalf("entry mangled:\n got %+v\nwant %+v", e, want)
	}

	c, err := NewDisk(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Do(context.Background(), key, func() (*Entry, error) { return want, nil }); err != nil {
		t.Fatal(err)
	}
	if got, wantPath := filepath.Base(c.diskPath(key)), RecordDigest(key)+".json"; got != wantPath {
		t.Fatalf("disk name %s != digest name %s", got, wantPath)
	}
}

// TestExportImport pins the exchange surface: Export serves a record
// from memory or straight from disk; Import validates and stores it;
// invalid digests and records are rejected.
func TestExportImport(t *testing.T) {
	ctx := context.Background()
	key := testKey("x")
	digest := RecordDigest(key)

	src := New()
	if _, _, err := src.Do(ctx, key, func() (*Entry, error) { return testEntry(), nil }); err != nil {
		t.Fatal(err)
	}
	rec, ok := src.Export(digest)
	if !ok {
		t.Fatal("Export missed a just-stored record")
	}
	if _, ok := src.Export("zz"); ok {
		t.Fatal("Export served a malformed digest")
	}
	if _, ok := src.Export(RecordDigest(testKey("absent"))); ok {
		t.Fatal("Export served an absent record")
	}

	dst := New()
	if err := dst.Import(RecordDigest(testKey("other")), rec); err == nil || dst.Len() != 0 {
		t.Fatalf("Import under another key's digest: err=%v, %d entries stored; want a refusal that stores nothing", err, dst.Len())
	}
	if err := dst.Import(digest, rec); err != nil {
		t.Fatal(err)
	}
	e, hit, err := dst.Do(ctx, key, func() (*Entry, error) {
		t.Fatal("solve ran despite an imported record")
		return nil, nil
	})
	if err != nil || !hit || e.Status != sat.Sat {
		t.Fatalf("imported record not served: hit=%v err=%v", hit, err)
	}

	for _, bad := range []string{"junk", `{"schema":999,"key":{},"entry":{}}`, `{"schema":2,"key":{}}`} {
		if err := dst.Import(RecordDigest(Key{}), []byte(bad)); err == nil {
			t.Fatalf("Import accepted %s", bad)
		}
	}

	// A disk-backed cache exports records persisted by an earlier
	// process even before any Do touched them.
	dir := t.TempDir()
	c1, err := NewDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := c1.Do(ctx, key, func() (*Entry, error) { return testEntry(), nil }); err != nil {
		t.Fatal(err)
	}
	c2, err := NewDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := c2.Export(digest); !ok {
		t.Fatal("restarted cache could not export its persisted record")
	}
}

// TestEarlierKeyFormatMissesCleanly pins the record format change that
// dropped the key's engine number (0 for DPLL, 2 for the retired BDD
// engine): json.Unmarshal ignores unknown fields, so a schema-1 record
// would decode into the current key of the same problem whatever
// engine wrote it. Such a record, in the engine-numbered format or in
// the earlier one that also carried a renumbering-invariant "canon"
// hash, reads from a cache directory as a miss that solves, under its
// old name and under the current digest of the key it describes alike;
// it is not exported under its old name, and Import refuses it under
// either name, storing nothing.
func TestEarlierKeyFormatMissesCleanly(t *testing.T) {
	ctx := context.Background()
	key := testKey("layout")
	type earlierKey struct {
		Canon         string `json:"canon,omitempty"`
		Layout        string `json:"layout"`
		M             int    `json:"m"`
		Engine        int    `json:"engine"`
		ExpandXor     bool   `json:"expand_xor"`
		MaxBacktracks int    `json:"max_backtracks"`
		WarmHash      string `json:"warm_hash"`
	}
	for _, old := range []earlierKey{
		{Engine: 0}, {Engine: 2}, {Canon: "canon", Engine: 0}, {Canon: "canon", Engine: 2},
	} {
		old.Layout, old.M, old.ExpandXor, old.MaxBacktracks, old.WarmHash = key.Layout, key.M, key.ExpandXor, key.MaxBacktracks, key.WarmHash
		t.Run(fmt.Sprintf("canon=%q,engine=%d", old.Canon, old.Engine), func(t *testing.T) {
			kb, err := json.Marshal(old)
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(kb)
			oldDigest := hex.EncodeToString(sum[:])
			if oldDigest == RecordDigest(key) {
				t.Fatal("earlier and current key JSON share a digest")
			}
			rec, err := json.Marshal(struct {
				Schema int        `json:"schema"`
				Key    earlierKey `json:"key"`
				Entry  *Entry     `json:"entry"`
			}{1, old, testEntry()})
			if err != nil {
				t.Fatal(err)
			}
			dir := t.TempDir()
			for _, d := range []string{oldDigest, RecordDigest(key)} {
				if err := os.WriteFile(filepath.Join(dir, d+".json"), rec, 0o644); err != nil {
					t.Fatal(err)
				}
			}

			c, err := NewDisk(dir)
			if err != nil {
				t.Fatal(err)
			}
			if _, ok := c.Export(oldDigest); ok {
				t.Fatal("Export served an earlier-format record under its old digest")
			}
			solves := 0
			if _, hit, err := c.Do(ctx, key, func() (*Entry, error) { solves++; return testEntry(), nil }); err != nil || hit || solves != 1 {
				t.Fatalf("earlier-format record: hit=%v err=%v solves=%d, want a miss that solves", hit, err, solves)
			}

			dst := New()
			for _, d := range []string{oldDigest, RecordDigest(key)} {
				if err := dst.Import(d, rec); err == nil {
					t.Fatalf("Import accepted an earlier-format record under %s", d)
				}
			}
			if dst.Len() != 0 {
				t.Fatalf("refused imports stored %d entries", dst.Len())
			}
		})
	}
}

// fakeRemote is a controllable peer tier.
type fakeRemote struct {
	mu      sync.Mutex
	entries map[Key]*Entry
	err     error
	fetches atomic.Int64
}

func (f *fakeRemote) Fetch(ctx context.Context, key Key) (*Entry, error) {
	f.fetches.Add(1)
	if f.err != nil {
		return nil, f.err
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if e, ok := f.entries[key]; ok {
		return e.clone(), nil
	}
	return nil, errors.New("miss")
}

// TestRemoteTier pins the pull-on-miss path: a peer hit is served and
// stored locally without solving; a peer miss or failure falls through
// to a solve; counters track both.
func TestRemoteTier(t *testing.T) {
	m := metrics.New()
	ctx := metrics.With(context.Background(), m)
	key := testKey("r")

	rem := &fakeRemote{entries: map[Key]*Entry{key: testEntry()}}
	c := New()
	c.SetRemote(rem)

	e, hit, err := c.Do(ctx, key, func() (*Entry, error) {
		t.Fatal("solve ran despite a peer record")
		return nil, nil
	})
	if err != nil || !hit || e.Status != sat.Sat {
		t.Fatalf("peer hit: hit=%v err=%v", hit, err)
	}
	// Stored locally: a second Do is a plain memory hit, no new fetch.
	if _, hit, _ := c.Do(ctx, key, nil); !hit {
		t.Fatal("peer-warmed entry not stored locally")
	}
	if n := rem.fetches.Load(); n != 1 {
		t.Fatalf("fetches = %d, want 1", n)
	}

	// Peer miss falls through to the solve.
	k2 := testKey("r2")
	ran := false
	if _, hit, err := c.Do(ctx, k2, func() (*Entry, error) { ran = true; return testEntry(), nil }); err != nil || hit || !ran {
		t.Fatalf("peer miss: hit=%v ran=%v err=%v", hit, ran, err)
	}

	// Peer failure likewise.
	rem.err = errors.New("peer down")
	k3 := testKey("r3")
	ran = false
	if _, _, err := c.Do(ctx, k3, func() (*Entry, error) { ran = true; return testEntry(), nil }); err != nil || !ran {
		t.Fatalf("peer failure: ran=%v err=%v", ran, err)
	}

	d := m.Snapshot()
	if d[metrics.CachePeerHits] != 1 || d[metrics.CachePeerMisses] != 2 {
		t.Fatalf("peer counters hits=%d misses=%d, want 1/2",
			d[metrics.CachePeerHits], d[metrics.CachePeerMisses])
	}
	if d[metrics.CacheMisses] != 2 {
		t.Fatalf("modcache_misses = %d, want 2 (peer hit must not count as a solve)", d[metrics.CacheMisses])
	}
}

// TestRemoteFetchSingleflight pins that concurrent callers of one key
// issue at most one peer fetch.
func TestRemoteFetchSingleflight(t *testing.T) {
	key := testKey("sf-remote")
	gate := make(chan struct{})
	rem := &fakeRemote{entries: map[Key]*Entry{key: testEntry()}}
	c := New()
	c.SetRemote(remoteFunc(func(ctx context.Context, k Key) (*Entry, error) {
		<-gate
		return rem.Fetch(ctx, k)
	}))

	const waiters = 8
	var wg sync.WaitGroup
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			e, _, err := c.Do(context.Background(), key, nil)
			if err != nil || e == nil {
				t.Errorf("Do: e=%v err=%v", e, err)
			}
		}()
	}
	// Wait until every goroutine is either the fetching producer or a
	// flight waiter, then release the fetch.
	waitInflight(t, c)
	close(gate)
	wg.Wait()
	if n := rem.fetches.Load(); n != 1 {
		t.Fatalf("fetches = %d, want 1 (singleflight must guard the peer pull)", n)
	}
}

type remoteFunc func(ctx context.Context, key Key) (*Entry, error)

func (f remoteFunc) Fetch(ctx context.Context, key Key) (*Entry, error) { return f(ctx, key) }

func waitInflight(t *testing.T, c *Cache) {
	t.Helper()
	for {
		c.mu.Lock()
		n := len(c.inflight)
		c.mu.Unlock()
		if n >= 1 {
			return
		}
	}
}
