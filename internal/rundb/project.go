package rundb

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"asyncsyn"
	"asyncsyn/internal/synerr"
)

// Entry statuses reported by RunProject.
const (
	StatusSkipped       = "skipped"
	StatusResynthesized = "resynthesized"
)

// Entry is one project file's outcome.
type Entry struct {
	// File is the path relative to the project directory.
	File string
	// Status is StatusSkipped (banked record still valid) or
	// StatusResynthesized (the file was synthesized this run).
	Status string
	// Digest is the circuit digest (banked or fresh); empty for an
	// aborted resynthesis.
	Digest string
	// Run is the recorded run id for resynthesized entries.
	Run string
	// Aborted reports a resynthesis that exhausted its SAT budget.
	Aborted bool
	// Seconds is the synthesis wall-clock (0 for skips).
	Seconds float64
}

// ProjectResult summarizes one suite pass.
type ProjectResult struct {
	Entries       []Entry
	Skipped       int
	Resynthesized int
}

// ErrDivergence reports a re-synthesized digest that differs from the
// banked record under an unchanged key — the hard-fail contract of the
// suite runner: equal (content hash, options hash) keys must reproduce
// bit-identical circuits, so a divergence is a determinism regression,
// never something to silently re-bank.
var ErrDivergence = fmt.Errorf("digest diverged from banked record for unchanged source")

// RunProject walks the project directory's .g files (sorted, top level
// only) and re-synthesizes exactly the entries whose content/options
// key has no valid banked record; everything else is skipped without a
// single solve. With recheck set, banked entries are re-synthesized
// anyway and their digests compared against the bank — a mismatch
// aborts the suite with an error matching ErrDivergence (the same
// check guards every recorded run: Record flags a divergent digest
// under an unchanged key, and the runner escalates it).
//
// opt carries the synthesis options applied to every entry; its cache,
// metrics and tracer fields are used as given. An option set that
// asyncsyn.Options.Normalize rejects fails the suite with its error
// (matching asyncsyn.ErrParse) before any lookup or solve. logf, when
// non-nil, receives one line per entry as the suite progresses.
func RunProject(ctx context.Context, db *DB, dir string, opt asyncsyn.Options, recheck bool, logf func(format string, args ...any)) (*ProjectResult, error) {
	if logf == nil {
		logf = func(string, ...any) {}
	}
	opts, err := OptionsOf(opt)
	if err != nil {
		return nil, err
	}
	files, err := projectFiles(dir)
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("rundb: no .g files under %s", dir)
	}

	res := &ProjectResult{}
	for _, name := range files {
		if err := ctx.Err(); err != nil {
			return res, synerr.Canceled(err)
		}
		src, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			return res, fmt.Errorf("rundb: %w", err)
		}
		g, err := asyncsyn.ParseSTGString(string(src))
		if err != nil {
			return res, fmt.Errorf("rundb: %s: %w", name, err)
		}
		canonical := g.Format()
		key := KeyOf(canonical, opts)

		banked, ok := db.Lookup(key)
		if ok && banked.Digest != "" && !recheck {
			res.Entries = append(res.Entries, Entry{File: name, Status: StatusSkipped, Digest: banked.Digest})
			res.Skipped++
			logf("  skip   %-24s digest %.12s", name, banked.Digest)
			continue
		}

		c, err := asyncsyn.SynthesizeContext(ctx, g, opt)
		if err != nil {
			return res, fmt.Errorf("rundb: %s: %w", name, err)
		}
		rec := RecordOf(c, canonical, opts)
		rec.File = name
		prev, err := db.Record(rec)
		if err != nil {
			return res, fmt.Errorf("rundb: %s: %w", name, err)
		}
		entry := Entry{
			File: name, Status: StatusResynthesized, Digest: rec.Digest,
			Run: rec.ID, Aborted: rec.Aborted, Seconds: c.CPU.Seconds(),
		}
		res.Entries = append(res.Entries, entry)
		res.Resynthesized++
		logf("  resyn  %-24s digest %.12s  %.2fs", name, rec.Digest, entry.Seconds)
		if rec.Divergent {
			return res, fmt.Errorf("rundb: %s: %w: banked %s (run %s), got %s (run %s)",
				name, ErrDivergence, prev.Digest, prev.ID, rec.Digest, rec.ID)
		}
	}
	return res, nil
}

// projectFiles lists the .g files directly under dir, sorted by name
// so suite order — and therefore run numbering — is stable.
func projectFiles(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("rundb: %w", err)
	}
	var out []string
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".g") {
			continue
		}
		out = append(out, e.Name())
	}
	sort.Strings(out)
	return out, nil
}
