// Command modsyn synthesizes a speed-independent circuit from an STG
// specification in the astg ".g" format.
//
// Usage:
//
//	modsyn [-method modular|direct|lavagno] [-workers N] [-timeout D]
//	       [-trace file] [-cachedir dir] [-maxbacktracks N] [-expandxor]
//	       [-v] file.g
//	modsyn -bench name        # synthesize an embedded benchmark
//	modsyn -project dir/      # incremental suite mode over a directory
//	       [-rundb dir] [-recheck]
//
// Project suite mode walks the .g files of a directory against a
// persistent run database (internal/rundb; default <dir>/.rundb, or
// -rundb to share one): entries whose content/options hash matches a
// banked record are skipped without a single solve, everything else is
// re-synthesized and recorded. -recheck re-synthesizes banked entries
// too and hard-fails if any digest diverges from the bank — the
// incremental contract is that an unchanged key reproduces a
// bit-identical circuit.
//
// -workers N bounds the worker pool of per-signal logic derivation, the
// one parallel stage (0 = GOMAXPROCS, 1 = sequential); conflict scans
// and state-signal insertion run sequentially, and the synthesized
// circuit is identical for every value.
// -timeout bounds the run's wall-clock time (e.g. -timeout 30s).
// -trace writes one JSON line per pipeline stage and per SAT formula to
// the given file ("-" for stderr).
//
// It prints the synthesized logic equations and the statistics the
// paper's Table 1 reports: initial/final state and signal counts, the
// two-level implementation area in literals, and the CPU time.
//
// Exit codes distinguish the failure classes of the synerr taxonomy
// (shared with the internal/server daemon's HTTP status mapping):
// 0 = success, 2 = parse/usage error, 3 = timeout, 4 = unsolvable or
// budget exhausted (including SAT backtrack-limit aborts), 1 = any
// other failure.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"asyncsyn"
	"asyncsyn/internal/bench"
	"asyncsyn/internal/rundb"
	"asyncsyn/internal/synerr"
)

func main() {
	method := flag.String("method", "modular", "synthesis method: modular, direct or lavagno")
	workers := flag.Int("workers", 0, "worker pool for per-signal logic derivation (0 = GOMAXPROCS, 1 = sequential; output is identical for any value)")
	expandXor := flag.Bool("expandxor", false, "use the paper-style expanded CNF for separation constraints")
	benchName := flag.String("bench", "", "synthesize the named embedded benchmark instead of a file")
	maxBT := flag.Int64("maxbacktracks", 0, "SAT backtrack budget per formula (0 = default; negative is rejected)")
	verbose := flag.Bool("v", false, "print per-output module reports and SAT formula statistics")
	pla := flag.Bool("pla", false, "print each function in Berkeley PLA format")
	verilog := flag.Bool("verilog", false, "print the circuit as a Verilog module with one assign (one atomic complex gate) per function")
	dotSTG := flag.Bool("dot", false, "print the STG in Graphviz DOT format and exit")
	verify := flag.Bool("verify", false, "closed-loop-simulate the circuit against the specification")
	cacheDir := flag.String("cachedir", "", "back the module solve cache with JSON records under this directory (persists solves across runs)")
	timeout := flag.Duration("timeout", 0, "wall-clock bound for the run (0 = none; e.g. 30s)")
	tracePath := flag.String("trace", "", "write JSON-lines trace events (stage and formula) to this file (\"-\" = stderr)")
	project := flag.String("project", "", "incremental suite mode: synthesize every .g file under this directory, skipping entries banked in the run database")
	runDBDir := flag.String("rundb", "", "run database directory for -project (default <project>/.rundb)")
	recheck := flag.Bool("recheck", false, "with -project: re-synthesize banked entries too and hard-fail on digest divergence")
	flag.Parse()

	opt := asyncsyn.Options{
		ExpandXor:     *expandXor,
		MaxBacktracks: *maxBT,
		Workers:       *workers,
		Timeout:       *timeout,
		CacheDir:      *cacheDir,
	}
	if *tracePath != "" {
		w := os.Stderr
		if *tracePath != "-" {
			f, err := os.Create(*tracePath)
			if err != nil {
				fatalf("trace: %v", err)
			}
			defer f.Close()
			w = f
		}
		opt.Tracer = asyncsyn.NewJSONTracer(w)
	}
	var err error
	if opt.Method, err = asyncsyn.ParseMethod(*method); err != nil {
		fatalClass(synerr.ClassParse, "%v", err)
	}

	if *project != "" {
		if flag.NArg() != 0 || *benchName != "" {
			fatalClass(synerr.ClassParse, "-project is exclusive with a file argument or -bench")
		}
		runProject(*project, *runDBDir, opt, *recheck)
		return
	}

	var g *asyncsyn.STG
	switch {
	case *benchName != "":
		src, serr := bench.Source(*benchName)
		if serr != nil {
			fatalClass(synerr.ClassParse, "%v (available: %v)", serr, bench.Available())
		}
		g, err = asyncsyn.ParseSTGString(src)
	case flag.NArg() == 1:
		f, ferr := os.Open(flag.Arg(0))
		if ferr != nil {
			fatalClass(synerr.ClassParse, "%v", ferr)
		}
		defer f.Close()
		g, err = asyncsyn.ParseSTG(f)
	default:
		flag.Usage()
		os.Exit(2)
	}
	if err != nil {
		fatalErr("parse", err)
	}
	if *dotSTG {
		fmt.Print(g.DOT())
		return
	}

	c, err := asyncsyn.Synthesize(g, opt)
	if errors.Is(err, asyncsyn.ErrCanceled) && *timeout > 0 {
		fatalClass(synerr.ClassTimeout, "synthesize: timed out after %v: %v", *timeout, err)
	}
	if err != nil {
		fatalErr("synthesize", err)
	}
	fmt.Printf("model %s  (method %s)\n", c.Name, c.Method)
	if c.Aborted {
		// Budget exhaustion is reported via Circuit.Aborted rather than
		// an error; it exits with the unsolvable/budget class all the
		// same.
		fmt.Printf("ABORTED: SAT backtrack limit exceeded after %v\n", c.CPU)
		os.Exit(synerr.ClassUnsolvable.ExitCode())
	}
	fmt.Printf("states  %4d -> %4d\n", c.InitialStates, c.FinalStates)
	fmt.Printf("signals %4d -> %4d  (%d state signals inserted)\n",
		c.InitialSignals, c.FinalSignals, c.StateSignals)
	fmt.Printf("area    %4d literals (prime-irredundant two-level covers)\n", c.Area)
	fmt.Printf("cpu     %v\n\n", c.CPU)
	for _, f := range c.Functions {
		fmt.Printf("  %s\n", f)
	}
	if *pla {
		fmt.Println()
		for _, f := range c.Functions {
			fmt.Print(f.PLA())
		}
	}
	if *verilog {
		fmt.Println()
		fmt.Print(c.Verilog())
	}
	if *verify {
		if bad := c.Verify(g, 200000, 0); len(bad) != 0 {
			fmt.Println("\nconformance VIOLATIONS:")
			for _, v := range bad {
				fmt.Printf("  %s\n", v)
			}
			os.Exit(1)
		}
		fmt.Println("\nconformance check passed (exhaustive closed-loop simulation)")
	}
	if *verbose {
		if len(c.Modules) > 0 {
			fmt.Println("\nper-output modules:")
			for _, m := range c.Modules {
				fmt.Printf("  %-10s merged %4d states, %3d conflicts, +%d signals, inputs %v\n",
					m.Output, m.MergedStates, m.Conflicts, m.NewSignals, m.InputSet)
			}
		}
		fmt.Println("\nSAT formulas:")
		for _, f := range c.Formulas {
			out := f.Output
			if out == "" {
				out = "(global)"
			}
			fmt.Printf("  %-10s m=%d  %5d vars %7d clauses  %s  %v\n",
				out, f.Signals, f.Vars, f.Clauses, f.Status, f.Time)
		}
	}
}

// runProject drives the incremental suite mode and prints the
// per-entry report plus the summary line CI greps
// ("project: N entries, S skipped, R resynthesized").
func runProject(dir, dbDir string, opt asyncsyn.Options, recheck bool) {
	if dbDir == "" {
		dbDir = filepath.Join(dir, ".rundb")
	}
	db, err := rundb.Open(dbDir)
	if err != nil {
		fatalErr("rundb", err)
	}
	fmt.Printf("project %s  (rundb %s, method %s)\n", dir, dbDir, opt.Method)
	res, err := rundb.RunProject(context.Background(), db, dir, opt, recheck, func(format string, args ...any) {
		fmt.Printf(format+"\n", args...)
	})
	if res != nil {
		fmt.Printf("project: %d entries, %d skipped, %d resynthesized\n",
			len(res.Entries), res.Skipped, res.Resynthesized)
	}
	if errors.Is(err, rundb.ErrDivergence) {
		fatalClass(synerr.ClassInternal, "%v", err)
	}
	if err != nil {
		fatalErr("project", err)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "modsyn: "+format+"\n", args...)
	os.Exit(1)
}

// fatalClass exits with the class's exit code (2 = parse/usage,
// 3 = timeout, 4 = unsolvable/budget, 1 = internal).
func fatalClass(class synerr.Class, format string, args ...any) {
	fmt.Fprintf(os.Stderr, "modsyn: "+format+"\n", args...)
	os.Exit(class.ExitCode())
}

// fatalErr classifies err through the shared taxonomy and exits with
// the class's code.
func fatalErr(stage string, err error) {
	fatalClass(synerr.ClassOf(err), "%s: %v", stage, err)
}
