package core

import (
	"context"
	"testing"

	"asyncsyn/internal/stg"
)

var deriveLogicSink []Function

// BenchmarkDeriveLogic measures the logic stage alone — function-table
// extraction and ESPRESSO for every non-input signal — on the k=4
// handshake at Workers 1. Set-up runs the stages before it as
// Synthesize does (modules, residual prune, streaming expansion) and
// checks the derived area against a full Synthesize run.
func BenchmarkDeriveLogic(b *testing.B) {
	spec, err := stg.Handshakes("", 4, 2)
	if err != nil {
		b.Fatal(err)
	}
	opt := Options{Workers: 1}.withDefaults()
	ctx := context.Background()
	view, full, supports, passSigs := logicInputs(b, spec, opt)
	want, err := Synthesize(ctx, spec, opt)
	if err != nil {
		b.Fatal(err)
	}
	fns, err := DeriveLogic(ctx, view, full, supports, passSigs, opt)
	if err != nil {
		b.Fatal(err)
	}
	area := 0
	for _, f := range fns {
		area += f.Literals()
	}
	if area != want.Area {
		b.Fatalf("set-up derives area %d, Synthesize %d", area, want.Area)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if deriveLogicSink, err = DeriveLogic(ctx, view, full, supports, passSigs, opt); err != nil {
			b.Fatal(err)
		}
	}
}
