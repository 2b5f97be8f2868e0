package rundb

import (
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"asyncsyn"
	"asyncsyn/internal/bench"
)

// writeFixture copies an embedded benchmark into the project directory.
func writeFixture(t *testing.T, dir, file, benchName string) {
	t.Helper()
	src, err := bench.Source(benchName)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, file), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestProjectIncrementalContract is the suite-mode property test:
//
//   - first pass synthesizes everything;
//   - an unchanged project re-runs with ZERO solves (all skipped, the
//     metrics collector records no modules);
//   - a comment-only edit still skips (the key hashes the canonical
//     rendering, not the bytes);
//   - changing one file's specification re-synthesizes exactly that
//     entry, and its digest matches a from-scratch library run.
func TestProjectIncrementalContract(t *testing.T) {
	dir := t.TempDir()
	writeFixture(t, dir, "fifo.g", "fifo")
	writeFixture(t, dir, "nak-pa.g", "nak-pa")
	db, err := Open(filepath.Join(dir, ".rundb"))
	if err != nil {
		t.Fatal(err)
	}
	opt := asyncsyn.Options{Method: asyncsyn.Modular, Workers: 1}

	res, err := RunProject(context.Background(), db, dir, opt, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Resynthesized != 2 || res.Skipped != 0 {
		t.Fatalf("cold pass: %d resynthesized, %d skipped; want 2/0", res.Resynthesized, res.Skipped)
	}
	digests := map[string]string{}
	for _, e := range res.Entries {
		if e.Digest == "" {
			t.Fatalf("cold pass left %s without a digest", e.File)
		}
		digests[e.File] = e.Digest
	}

	// Unchanged project: zero solves. The collector is the witness — a
	// skip that secretly synthesizes would count its modules.
	m := asyncsyn.NewMetrics()
	opt2 := opt
	opt2.Metrics = m
	res, err = RunProject(context.Background(), db, dir, opt2, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Skipped != 2 || res.Resynthesized != 0 {
		t.Fatalf("warm pass: %d skipped, %d resynthesized; want 2/0", res.Skipped, res.Resynthesized)
	}
	if n := m.Map()["modules"]; n != 0 {
		t.Fatalf("warm pass solved %d modules; the skip predicate must avoid synthesis entirely", n)
	}
	for _, e := range res.Entries {
		if e.Digest != digests[e.File] {
			t.Fatalf("warm skip reported digest %s for %s, banked %s", e.Digest, e.File, digests[e.File])
		}
	}

	// Defaults spelled out normalize to the same key and skip too; an
	// invalid option set fails with ErrParse before any lookup or solve.
	spelled := opt
	spelled.MaxBacktracks, spelled.MaxStates, spelled.TokenBound = 2000000, 100000, 1
	if res, err = RunProject(context.Background(), db, dir, spelled, false, nil); err != nil || res.Skipped != 2 {
		t.Fatalf("spelled-out defaults: %+v, %v; want 2 skipped", res, err)
	}
	bad := opt
	bad.MaxBacktracks = -1
	if res, err := RunProject(context.Background(), db, dir, bad, false, nil); res != nil || !errors.Is(err, asyncsyn.ErrParse) {
		t.Fatalf("negative budget: %+v, %v; want no result and an ErrParse error", res, err)
	}

	// Comment-only edit: the canonical rendering is unchanged, so the
	// key — and the skip — must hold.
	fifoPath := filepath.Join(dir, "fifo.g")
	src, err := os.ReadFile(fifoPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(fifoPath, append([]byte("# a comment the canonical rendering strips\n"), src...), 0o644); err != nil {
		t.Fatal(err)
	}
	res, err = RunProject(context.Background(), db, dir, opt, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Skipped != 2 {
		t.Fatalf("comment-only edit broke the skip: %d skipped, want 2", res.Skipped)
	}

	// Real change: swap fifo's specification for a different one.
	writeFixture(t, dir, "fifo.g", "wrdata")
	res, err = RunProject(context.Background(), db, dir, opt, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Resynthesized != 1 || res.Skipped != 1 {
		t.Fatalf("one-file change: %d resynthesized, %d skipped; want 1/1", res.Resynthesized, res.Skipped)
	}
	var changed *Entry
	for i := range res.Entries {
		if res.Entries[i].Status == StatusResynthesized {
			changed = &res.Entries[i]
		}
	}
	if changed == nil || changed.File != "fifo.g" {
		t.Fatalf("wrong entry re-synthesized: %+v", res.Entries)
	}

	// The recorded digest must match a from-scratch library run of the
	// same source — the database reports reality, it does not invent it.
	wr, err := bench.Source("wrdata")
	if err != nil {
		t.Fatal(err)
	}
	g, err := asyncsyn.ParseSTGString(wr)
	if err != nil {
		t.Fatal(err)
	}
	c, err := asyncsyn.Synthesize(g, opt)
	if err != nil {
		t.Fatal(err)
	}
	if c.Digest() != changed.Digest {
		t.Fatalf("recorded digest %s != direct-run digest %s", changed.Digest, c.Digest())
	}

	// Different options are a different key: a changed engine re-banks
	// rather than skipping against the dpll record.
	optBDD := opt
	optBDD.Engine = asyncsyn.BDD
	res, err = RunProject(context.Background(), db, dir, optBDD, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Resynthesized != 2 {
		t.Fatalf("option change reused the old bank: %d resynthesized, want 2", res.Resynthesized)
	}
}

// TestProjectDivergenceHardFails tampers a banked digest and re-checks:
// the re-synthesized digest no longer matches the bank under an
// unchanged key, which must abort the suite with ErrDivergence.
func TestProjectDivergenceHardFails(t *testing.T) {
	dir := t.TempDir()
	writeFixture(t, dir, "fifo.g", "fifo")
	dbDir := filepath.Join(dir, ".rundb")
	db, err := Open(dbDir)
	if err != nil {
		t.Fatal(err)
	}
	opt := asyncsyn.Options{Method: asyncsyn.Modular, Workers: 1}
	if _, err := RunProject(context.Background(), db, dir, opt, false, nil); err != nil {
		t.Fatal(err)
	}

	// Tamper the banked digest in place, keeping the record valid: the
	// envelope still decodes, the key still matches, only the digest lies.
	src, err := os.ReadFile(filepath.Join(dir, "fifo.g"))
	if err != nil {
		t.Fatal(err)
	}
	g, err := asyncsyn.ParseSTGString(string(src))
	if err != nil {
		t.Fatal(err)
	}
	opts, err := OptionsOf(opt)
	if err != nil {
		t.Fatal(err)
	}
	key := KeyOf(g.Format(), opts)
	path := filepath.Join(dbDir, "bank", key.hash()+".json")
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rec Record
	if err := json.Unmarshal(b, &rec); err != nil {
		t.Fatal(err)
	}
	rec.Digest = "sha256:0000000000000000"
	b, _ = json.Marshal(&rec)
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}

	// Without recheck the poisoned bank just skips; recheck forces the
	// re-synthesis that exposes the mismatch.
	if _, err := RunProject(context.Background(), db, dir, opt, false, nil); err != nil {
		t.Fatalf("non-recheck pass failed: %v", err)
	}
	_, err = RunProject(context.Background(), db, dir, opt, true, nil)
	if !errors.Is(err, ErrDivergence) {
		t.Fatalf("recheck over a tampered bank returned %v, want ErrDivergence", err)
	}
}
