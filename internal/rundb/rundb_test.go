package rundb

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"asyncsyn"
)

// fakeRecord fabricates a storable record without running synthesis;
// the durability tests exercise the disk layout, not the pipeline.
func fakeRecord(sig, digest string) *Record {
	opts := OptionsKey{Method: "modular", Engine: "dpll"}
	return &Record{
		Schema:      Schema,
		Tool:        Tool,
		Signature:   sig,
		OptionsHash: opts.Hash(),
		Options:     opts,
		Model:       "fake",
		Digest:      digest,
		Area:        7,
	}
}

func sigOf(s string) string { return Signature(s) }

func TestRecordLookupRoundTrip(t *testing.T) {
	db, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	rec := fakeRecord(sigOf("spec-a"), "digest-a")
	prev, err := db.Record(rec)
	if err != nil {
		t.Fatal(err)
	}
	if prev != nil {
		t.Fatalf("fresh key returned prev %v", prev)
	}
	if rec.ID == "" || rec.Seq != 1 {
		t.Fatalf("record identity not assigned: id=%q seq=%d", rec.ID, rec.Seq)
	}

	got, ok := db.Lookup(rec.Key())
	if !ok {
		t.Fatal("banked record missed")
	}
	if got.Digest != "digest-a" || got.ID != rec.ID {
		t.Fatalf("lookup returned %+v", got)
	}
	if byID, ok := db.Get(rec.ID); !ok || byID.Digest != "digest-a" {
		t.Fatalf("Get(%q) = %+v, %v", rec.ID, byID, ok)
	}

	// A second database over the same directory must see the history:
	// this is what lets the project runner resume across processes.
	db2, err := Open(db.Dir())
	if err != nil {
		t.Fatal(err)
	}
	if db2.Len() != 1 {
		t.Fatalf("reopened db has %d records, want 1", db2.Len())
	}
	if _, ok := db2.Lookup(rec.Key()); !ok {
		t.Fatal("reopened db missed the banked record")
	}
}

func TestDivergenceFlagged(t *testing.T) {
	db, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	sig := sigOf("spec-div")
	if _, err := db.Record(fakeRecord(sig, "digest-1")); err != nil {
		t.Fatal(err)
	}

	same := fakeRecord(sig, "digest-1")
	if _, err := db.Record(same); err != nil {
		t.Fatal(err)
	}
	if same.Divergent {
		t.Fatal("identical digest flagged divergent")
	}

	moved := fakeRecord(sig, "digest-2")
	prev, err := db.Record(moved)
	if err != nil {
		t.Fatal(err)
	}
	if !moved.Divergent {
		t.Fatal("digest move under an unchanged key not flagged divergent")
	}
	if prev == nil || prev.Digest != "digest-1" {
		t.Fatalf("prev = %+v, want the banked digest-1 record", prev)
	}
}

// bankPath returns the on-disk bank file for a record's key.
func bankPath(db *DB, rec *Record) string {
	return filepath.Join(db.Dir(), "bank", rec.Key().hash()+".json")
}

// TestCorruptBankMissesCleanly pins the durability contract: whatever
// garbage ends up in a bank file — truncation mid-write, random bytes,
// a foreign schema or tool, a record moved to the wrong filename — the
// read is a clean miss, never a panic or a wrong answer.
func TestCorruptBankMissesCleanly(t *testing.T) {
	db, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	rec := fakeRecord(sigOf("spec-corrupt"), "digest-c")
	if _, err := db.Record(rec); err != nil {
		t.Fatal(err)
	}
	path := bankPath(db, rec)
	valid, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	mutate := func(t *testing.T, b []byte) {
		t.Helper()
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		if got, ok := db.Lookup(rec.Key()); ok {
			t.Fatalf("corrupt bank record read as a hit: %+v", got)
		}
	}

	t.Run("truncated", func(t *testing.T) { mutate(t, valid[:len(valid)/2]) })
	t.Run("garbage", func(t *testing.T) { mutate(t, []byte("\x00\xffnot json at all")) })
	t.Run("empty", func(t *testing.T) { mutate(t, nil) })
	t.Run("wrong_schema", func(t *testing.T) {
		mutate(t, []byte(strings.Replace(string(valid), `"schema":1`, `"schema":999`, 1)))
	})
	t.Run("wrong_tool", func(t *testing.T) {
		mutate(t, []byte(strings.Replace(string(valid), Tool, "other/tool", 1)))
	})
	t.Run("missing_identity", func(t *testing.T) {
		var m map[string]any
		if err := json.Unmarshal(valid, &m); err != nil {
			t.Fatal(err)
		}
		delete(m, "id")
		b, _ := json.Marshal(m)
		mutate(t, b)
	})
	t.Run("foreign_key", func(t *testing.T) {
		// A valid record of a different key published under this bank
		// filename (hash collision, botched copy): the key check rejects it.
		other := fakeRecord(sigOf("some-other-spec"), "digest-x")
		other.ID, other.Seq = "r999999-deadbeef", 999999
		b, _ := json.Marshal(other)
		mutate(t, b)
	})

	// And a missing file, the everyday miss.
	t.Run("absent", func(t *testing.T) {
		if err := os.Remove(path); err != nil {
			t.Fatal(err)
		}
		if _, ok := db.Lookup(rec.Key()); ok {
			t.Fatal("removed bank record read as a hit")
		}
	})
}

// TestOpenSkipsCorruptRunFiles pins that a half-written or foreign file
// under runs/ cannot brick the database: Open loads what validates and
// ignores the rest.
func TestOpenSkipsCorruptRunFiles(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	rec := fakeRecord(sigOf("spec-ok"), "digest-ok")
	if _, err := db.Record(rec); err != nil {
		t.Fatal(err)
	}

	runs := filepath.Join(dir, "runs")
	for name, body := range map[string][]byte{
		"torn.json":    []byte(`{"schema":1,"tool":"asyncsyn/rundb","id":"r0000`),
		"garbage.json": []byte("\x01\x02\x03"),
		"foreign.json": []byte(`{"schema":42,"tool":"elsewhere","id":"x","signature":"s","options_hash":"o"}`),
		"notes.txt":    []byte("not a record at all"),
	} {
		if err := os.WriteFile(filepath.Join(runs, name), body, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	db2, err := Open(dir)
	if err != nil {
		t.Fatalf("Open over corrupt runs dir: %v", err)
	}
	if db2.Len() != 1 {
		t.Fatalf("loaded %d records, want 1 (corrupt files skipped)", db2.Len())
	}
	if _, ok := db2.Get(rec.ID); !ok {
		t.Fatal("valid record lost among corrupt siblings")
	}
}

func TestListFilterAndPagination(t *testing.T) {
	db, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	sigA, sigB := sigOf("list-a"), sigOf("list-b")
	for i := 0; i < 5; i++ {
		r := fakeRecord(sigA, "da")
		r.Model = "alpha"
		if _, err := db.Record(r); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		r := fakeRecord(sigB, "db")
		r.Model = "beta"
		r.Bench = "beta-bench"
		if _, err := db.Record(r); err != nil {
			t.Fatal(err)
		}
	}

	page, total := db.List(Filter{})
	if total != 8 || len(page) != 8 {
		t.Fatalf("unfiltered: total=%d page=%d, want 8/8", total, len(page))
	}
	// Newest first: the beta records were appended last.
	if page[0].Model != "beta" || page[len(page)-1].Model != "alpha" {
		t.Fatalf("page order wrong: first=%s last=%s", page[0].Model, page[len(page)-1].Model)
	}

	if _, total := db.List(Filter{Signature: sigA}); total != 5 {
		t.Fatalf("signature filter: total=%d, want 5", total)
	}
	if _, total := db.List(Filter{Model: "beta-bench"}); total != 3 {
		t.Fatalf("bench-name filter: total=%d, want 3", total)
	}

	page, total = db.List(Filter{Offset: 2, Limit: 3})
	if total != 8 || len(page) != 3 {
		t.Fatalf("offset/limit: total=%d page=%d, want 8/3", total, len(page))
	}
	if page[0].Seq != 6 {
		t.Fatalf("offset 2 newest-first starts at seq %d, want 6", page[0].Seq)
	}

	page, _ = db.List(Filter{Offset: 100})
	if len(page) != 0 {
		t.Fatalf("past-the-end offset returned %d records", len(page))
	}
}

// TestOptionsKeyExcludesNonSemanticKnobs pins the determinism-contract
// boundary: workers, timeouts and cache knobs must not move the key
// (they cannot move the circuit), while every solver-visible option
// must.
func TestOptionsKeyExcludesNonSemanticKnobs(t *testing.T) {
	base := OptionsKey{Method: "modular", Engine: "dpll"}
	if base.Hash() != (OptionsKey{Method: "modular", Engine: "dpll"}).Hash() {
		t.Fatal("equal option keys hash differently")
	}
	moved := base
	moved.ExpandXor = true
	if base.Hash() == moved.Hash() {
		t.Fatal("solver-visible option did not move the hash")
	}
}

// TestDefaultOptionsHashGolden pins the options hash of a run with
// default options. Any change to OptionsKey or OptionsOf moves it and
// makes every record banked under the old hash miss once (modsyn
// -project then re-synthesizes each entry once), so such a change must
// update this value on purpose.
func TestDefaultOptionsHashGolden(t *testing.T) {
	const want = "f2012f6482691d16beb1b592816f0fdb803cc17f9c1bd4041346ab180dd3312b"
	opts, err := OptionsOf(asyncsyn.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := opts.Hash(); got != want {
		t.Fatalf("default options hash = %s, want %s", got, want)
	}
}

// TestOptionsOfNormalizes: the options hash covers the normalized set,
// so the defaults spelled out hash like the zero set (the golden above).
// An invalid set's ErrParse error is pinned through RunProject.
func TestOptionsOfNormalizes(t *testing.T) {
	zero, err := OptionsOf(asyncsyn.Options{})
	if err != nil {
		t.Fatal(err)
	}
	spelled, err := OptionsOf(asyncsyn.Options{
		Method: asyncsyn.Modular, Engine: asyncsyn.DPLL,
		MaxBacktracks: 2000000, MaxStates: 100000, TokenBound: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if spelled != zero || spelled.Hash() != zero.Hash() {
		t.Fatalf("spelled-out defaults project to %+v, want %+v", spelled, zero)
	}
}

// TestOlderOptionsKeyMissesCleanly: a record banked by a build whose
// OptionsKey also carried full_support and exact_minimize has another
// options hash. The database still opens over it, the same run today is
// a clean miss (not an error, not a hit), and banking the re-synthesis
// flags nothing divergent.
func TestOlderOptionsKeyMissesCleanly(t *testing.T) {
	dir := t.TempDir()
	if _, err := Open(dir); err != nil {
		t.Fatal(err)
	}
	const canonical = "spec-from-an-older-build"
	oldOpts := `{"method":"modular","engine":"dpll","max_backtracks":0,"expand_xor":false,` +
		`"full_support":false,"exact_minimize":false,"max_states":0,"token_bound":0}`
	sum := sha256.Sum256([]byte(oldOpts))
	old := Key{Signature: Signature(canonical), OptionsHash: hex.EncodeToString(sum[:])}
	id := "r000001-" + old.Signature[:8]
	rec := fmt.Sprintf(`{"schema":%d,"tool":%q,"id":%q,"seq":1,"signature":%q,"options_hash":%q,`+
		`"options":%s,"model":"old","digest":"digest-old","area":7,"unix_ms":1}`,
		Schema, Tool, id, old.Signature, old.OptionsHash, oldOpts)
	for _, path := range []string{
		filepath.Join(dir, "runs", id+".json"),
		filepath.Join(dir, "bank", old.hash()+".json"),
	} {
		if err := os.WriteFile(path, []byte(rec), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	db, err := Open(dir)
	if err != nil {
		t.Fatalf("database with an older record fails to open: %v", err)
	}
	if db.Len() != 1 {
		t.Fatalf("history holds %d records, want the older one", db.Len())
	}
	if _, ok := db.Lookup(old); !ok {
		t.Fatal("the older record no longer decodes under its own key")
	}
	opts, err := OptionsOf(asyncsyn.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cur := KeyOf(canonical, opts)
	if cur == old {
		t.Fatal("current key equals the older key; the fixture tests nothing")
	}
	if got, ok := db.Lookup(cur); ok {
		t.Fatalf("older record answered the current key: %+v", got)
	}
	prev, err := db.Record(&Record{
		Signature: cur.Signature, OptionsHash: cur.OptionsHash, Options: opts,
		Model: "old", Digest: "digest-new",
	})
	if err != nil || prev != nil {
		t.Fatalf("banking the re-synthesis: prev %+v, err %v", prev, err)
	}
}
