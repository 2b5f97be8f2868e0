package benchrec

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// testRecord builds a small but fully populated record.
func testRecord() *Record {
	return &Record{
		Schema: SchemaVersion,
		Env: Env{
			GoVersion: "go1.22", GOOS: "linux", GOARCH: "amd64",
			NumCPU: 4, GOMAXPROCS: 4, Workers: 0, MaxBacktracks: 300000,
		},
		Rows: []Row{
			{
				Name: "mr0", InitialStates: 302, InitialSignals: 11,
				Modular: MethodResult{
					States: 667, Signals: 17, StateSignals: 6, Area: 186,
					Seconds: 0.33, Digest: "abc123def456",
					Counters: map[string]int64{"sg_states": 969, "sat_clauses": 4200, "modules": 6},
					Stages:   []StageTiming{{Name: "elaborate", Seconds: 0.01}, {Name: "logic", Seconds: 0.2}},
					Modules:  []ModuleStat{{Output: "a", States: 48, Conflicts: 11, Clauses: 420, Vars: 96}},
				},
				Direct: MethodResult{
					States: 722, Signals: 15, StateSignals: 4, Area: 537,
					Seconds: 16.5, Digest: "0011223344aa",
				},
				Lavagno: MethodResult{Aborted: true, Seconds: 30.0},
			},
			{
				Name: "vbe-ex1", InitialStates: 5, InitialSignals: 2,
				Modular: MethodResult{States: 7, Signals: 3, Area: 7, Seconds: 0.001, Digest: "d1"},
				Direct:  MethodResult{States: 7, Signals: 3, Area: 7, Seconds: 0.001, Digest: "d1"},
				Lavagno: MethodResult{States: 7, Signals: 3, Area: 7, Seconds: 0.001, Digest: "d1"},
			},
		},
		Clauses: []ClauseRow{
			{Name: "mmu0", DirectClauses: 157504, DirectVars: 1424,
				Modular: []ClauseFormula{{2448, 132}, {11328, 264}}},
		},
		Scaling: []ScalingRow{
			{K: 3, States: 252,
				Modular:     ScalCell{Seconds: 0.068, Area: 45, ModuleSeconds: 0.05},
				Direct:      ScalCell{Seconds: 1.438, Area: 42},
				Lavagno:     ScalCell{Aborted: true, Seconds: 2.0},
				ModularSpec: &ScalCell{Seconds: 0.04, Area: 45, ModuleSeconds: 0.02}},
		},
	}
}

func TestJSONRoundTrip(t *testing.T) {
	rec := testRecord()
	var buf bytes.Buffer
	if err := rec.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Read(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var buf2 bytes.Buffer
	if err := got.Encode(&buf2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Errorf("round trip not byte-stable:\n--- first ---\n%s\n--- second ---\n%s", buf.Bytes(), buf2.Bytes())
	}
	// Spot-check structured content survived.
	row, ok := got.Row("mr0")
	if !ok {
		t.Fatal("mr0 row lost in round trip")
	}
	if row.Modular.Counters["sat_clauses"] != 4200 || len(row.Modular.Modules) != 1 ||
		row.Modular.Modules[0].Output != "a" || row.Direct.Area != 537 {
		t.Errorf("round-tripped row lost fields: %+v", row)
	}
}

func TestReadRejectsBadSchema(t *testing.T) {
	rec := testRecord()
	rec.Schema = SchemaVersion + 1
	var buf bytes.Buffer
	rec.Encode(&buf)
	if _, err := Read(&buf); err == nil {
		t.Fatal("Read accepted a record with a future schema version")
	}
	if err := (&Record{Schema: SchemaVersion}).Validate(); err == nil {
		t.Fatal("Validate accepted a record with no rows")
	}
}

func TestCompareCleanBaseline(t *testing.T) {
	rep := Compare(testRecord(), testRecord(), CompareOptions{})
	if rep.Failed() {
		t.Fatalf("identical records reported hard drift: %v", rep.Hard)
	}
	if len(rep.Soft) != 0 {
		t.Fatalf("identical records reported soft drift: %v", rep.Soft)
	}
	if rep.Compared == 0 {
		t.Fatal("comparator checked nothing")
	}
}

func TestCompareCatchesAreaRegression(t *testing.T) {
	fresh := testRecord()
	fresh.Rows[0].Modular.Area = 190 // injected drift: 186 → 190
	rep := Compare(testRecord(), fresh, CompareOptions{})
	if !rep.Failed() {
		t.Fatal("area drift not reported as hard failure")
	}
	found := false
	for _, h := range rep.Hard {
		if strings.Contains(h, "mr0/modular") && strings.Contains(h, "area") {
			found = true
		}
	}
	if !found {
		t.Fatalf("hard findings %v do not name the area drift", rep.Hard)
	}
}

func TestCompareCatchesStateAndDigestDrift(t *testing.T) {
	fresh := testRecord()
	fresh.Rows[0].Direct.States = 700
	fresh.Rows[0].Direct.Digest = "ffffffffffff"
	rep := Compare(testRecord(), fresh, CompareOptions{})
	if len(rep.Hard) < 2 {
		t.Fatalf("expected state and digest hard findings, got %v", rep.Hard)
	}
}

func TestCompareTimeRegressionIsSoft(t *testing.T) {
	fresh := testRecord()
	fresh.Rows[0].Direct.Seconds = 30.0 // 16.5 → 30.0: >25% slower
	rep := Compare(testRecord(), fresh, CompareOptions{})
	if rep.Failed() {
		t.Fatalf("time regression must be soft, got hard: %v", rep.Hard)
	}
	found := false
	for _, s := range rep.Soft {
		if strings.Contains(s, "mr0/direct") && strings.Contains(s, "regression") {
			found = true
		}
	}
	if !found {
		t.Fatalf("soft findings %v do not name the time regression", rep.Soft)
	}

	// Below the floor, timing noise must not warn at all.
	fresh2 := testRecord()
	fresh2.Rows[1].Modular.Seconds = 0.04 // baseline 0.001 < floor
	if rep := Compare(testRecord(), fresh2, CompareOptions{}); len(rep.Soft) != 0 {
		t.Fatalf("sub-floor timing produced warnings: %v", rep.Soft)
	}
}

func TestCompareSkipsRowsMissingFromBaseline(t *testing.T) {
	fresh := testRecord()
	fresh.Rows = append(fresh.Rows, Row{Name: "brand-new", InitialStates: 1, InitialSignals: 1})
	rep := Compare(testRecord(), fresh, CompareOptions{})
	if rep.Failed() {
		t.Fatalf("extra fresh row caused failure: %v", rep.Hard)
	}
}

func TestCompareAbortFlip(t *testing.T) {
	fresh := testRecord()
	fresh.Rows[0].Lavagno = MethodResult{States: 100, Signals: 9, Area: 50, Seconds: 1}
	rep := Compare(testRecord(), fresh, CompareOptions{})
	if !rep.Failed() {
		t.Fatal("abort→complete flip not reported as hard drift")
	}
}

const docSkeleton = `# Title

prose before

<!-- BEGIN GENERATED: table1 (do not hand-edit; regenerate with go run ./cmd/bench -render) -->
stale
<!-- END GENERATED: table1 -->

middle prose

<!-- BEGIN GENERATED: aggregate (do not hand-edit; regenerate with go run ./cmd/bench -render) -->
stale
<!-- END GENERATED: aggregate -->

<!-- BEGIN GENERATED: clauses (do not hand-edit; regenerate with go run ./cmd/bench -render) -->
stale
<!-- END GENERATED: clauses -->

<!-- BEGIN GENERATED: scaling (do not hand-edit; regenerate with go run ./cmd/bench -render) -->
stale
<!-- END GENERATED: scaling -->

prose after
`

func TestRenderDeterministic(t *testing.T) {
	rec := testRecord()
	a, err := RenderDoc([]byte(docSkeleton), rec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RenderDoc([]byte(docSkeleton), rec)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("two renders of the same record differ")
	}
	// Idempotence: rendering an already-rendered doc changes nothing.
	c, err := RenderDoc(a, rec)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, c) {
		t.Fatal("re-rendering a rendered doc changed it")
	}
	out := string(a)
	for _, want := range []string{
		"| mr0 | 302/11 | 667/17/186/0.33 | 722/15/537/16.50 | **abort** (30.00) |",
		"157,504 cls / 1,424 vars",
		"benchmarks where both modular and direct complete: 2",
		"abort", "prose before", "prose after", "middle prose",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered doc missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "stale") {
		t.Error("stale generated content survived the render")
	}
}

func TestRenderMissingMarkerFails(t *testing.T) {
	if _, err := RenderDoc([]byte("# no markers\n"), testRecord()); err == nil {
		t.Fatal("RenderDoc accepted a doc with no markers")
	}
}

func TestDigestStable(t *testing.T) {
	a := Digest([]string{"b = a", "csc0 = b'"})
	b := Digest([]string{"csc0 = b'", "b = a"}) // order independent
	if a != b {
		t.Fatalf("digest order-dependent: %s vs %s", a, b)
	}
	if len(a) != 12 {
		t.Fatalf("digest length %d, want 12", len(a))
	}
	if Digest([]string{"b = a"}) == a {
		t.Fatal("different inputs produced equal digests")
	}
}

// TestResolveBaseline: a directory resolves to its highest-numbered
// record, numbers comparing numerically; a file passes through; a
// directory without records is an error.
func TestResolveBaseline(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{"BENCH_2.json", "BENCH_10.json", "BENCH_9.json", "BENCH_x.json", "other.json"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("{}"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	got, err := ResolveBaseline(dir)
	if err != nil || got != filepath.Join(dir, "BENCH_10.json") {
		t.Fatalf("ResolveBaseline(dir) = %q, %v; want BENCH_10.json", got, err)
	}
	file := filepath.Join(dir, "other.json")
	if got, err := ResolveBaseline(file); err != nil || got != file {
		t.Fatalf("ResolveBaseline(file) = %q, %v; want the file itself", got, err)
	}
	if _, err := ResolveBaseline(t.TempDir()); err == nil {
		t.Fatal("an empty directory resolved to a record")
	}
}
