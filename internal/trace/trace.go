// Package trace provides the synthesis pipeline's instrumentation
// interface: a Tracer receives StageStart/StageEnd events from the
// pipeline driver and FormulaSolved events from the SAT layer, giving
// machine-readable evidence of what every run did per stage and per
// formula. The tracer rides on the context.Context that already
// threads through every layer for cancellation, so no internal
// signature carries a tracer explicitly; the default is a no-op.
package trace

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"time"
)

// StageEvent describes a pipeline stage boundary.
type StageEvent struct {
	Model    string
	Method   string
	Stage    string
	Duration time.Duration // StageEnd only
	Err      string        // StageEnd only; "" on success
}

// FormulaEvent describes one solved SAT instance.
type FormulaEvent struct {
	Model    string
	Method   string
	Stage    string
	Output   string // output whose modular graph produced it; "" = global
	Signals  int    // state signals attempted (the formula's m)
	Vars     int
	Clauses  int
	Literals int
	Status   string
	Engine   string
	Duration time.Duration
}

// Tracer receives pipeline events. Implementations must be safe for
// concurrent use: runs that share one tracer (cmd/table1's row pool,
// for one) emit from multiple goroutines.
type Tracer interface {
	StageStart(e StageEvent)
	StageEnd(e StageEvent)
	FormulaSolved(e FormulaEvent)
}

// scope is the per-run labelling carried alongside the tracer in the
// context: events emitted deep in the stack inherit the run's model,
// method, current stage and current output.
type scope struct {
	tracer Tracer
	model  string
	method string
	stage  string
	output string
}

type ctxKey struct{}

func scopeOf(ctx context.Context) (scope, bool) {
	s, ok := ctx.Value(ctxKey{}).(scope)
	return s, ok && s.tracer != nil
}

// With attaches a tracer plus the run's model and method labels.
func With(ctx context.Context, t Tracer, model, method string) context.Context {
	if t == nil {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, scope{tracer: t, model: model, method: method})
}

// WithStage returns a context whose emitted events carry the stage name.
func WithStage(ctx context.Context, stage string) context.Context {
	s, ok := scopeOf(ctx)
	if !ok {
		return ctx
	}
	s.stage = stage
	return context.WithValue(ctx, ctxKey{}, s)
}

// WithOutput returns a context whose formula events carry the output
// signal whose modular pass produced them.
func WithOutput(ctx context.Context, output string) context.Context {
	s, ok := scopeOf(ctx)
	if !ok {
		return ctx
	}
	s.output = output
	return context.WithValue(ctx, ctxKey{}, s)
}

// Enabled reports whether a tracer is attached (lets hot paths skip
// building events).
func Enabled(ctx context.Context) bool {
	_, ok := scopeOf(ctx)
	return ok
}

// StageStart emits a stage_start event for the named stage.
func StageStart(ctx context.Context, stage string) {
	if s, ok := scopeOf(ctx); ok {
		s.tracer.StageStart(StageEvent{Model: s.model, Method: s.method, Stage: stage})
	}
}

// StageEnd emits a stage_end event.
func StageEnd(ctx context.Context, stage string, d time.Duration, err error) {
	if s, ok := scopeOf(ctx); ok {
		e := StageEvent{Model: s.model, Method: s.method, Stage: stage, Duration: d}
		if err != nil {
			e.Err = err.Error()
		}
		s.tracer.StageEnd(e)
	}
}

// Formula emits a formula event, filling the run labels from the
// context scope.
func Formula(ctx context.Context, e FormulaEvent) {
	if s, ok := scopeOf(ctx); ok {
		e.Model, e.Method, e.Stage, e.Output = s.model, s.method, s.stage, s.output
		s.tracer.FormulaSolved(e)
	}
}

// jsonEvent is the wire form of every event: one JSON object per line.
type jsonEvent struct {
	Type     string  `json:"type"`
	Model    string  `json:"model,omitempty"`
	Method   string  `json:"method,omitempty"`
	Stage    string  `json:"stage,omitempty"`
	Output   string  `json:"output,omitempty"`
	Signals  int     `json:"signals,omitempty"`
	Vars     int     `json:"vars,omitempty"`
	Clauses  int     `json:"clauses,omitempty"`
	Literals int     `json:"literals,omitempty"`
	Status   string  `json:"status,omitempty"`
	Engine   string  `json:"engine,omitempty"`
	MS       float64 `json:"ms,omitempty"`
	Err      string  `json:"err,omitempty"`
}

// JSONTracer writes one JSON line per event, safe for concurrent use.
type JSONTracer struct {
	mu sync.Mutex
	w  io.Writer
}

// NewJSON returns a tracer emitting JSON lines to w.
func NewJSON(w io.Writer) *JSONTracer { return &JSONTracer{w: w} }

func (t *JSONTracer) emit(e jsonEvent) {
	b, err := json.Marshal(e)
	if err != nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.w.Write(append(b, '\n'))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func (t *JSONTracer) StageStart(e StageEvent) {
	t.emit(jsonEvent{Type: "stage_start", Model: e.Model, Method: e.Method, Stage: e.Stage})
}

func (t *JSONTracer) StageEnd(e StageEvent) {
	t.emit(jsonEvent{Type: "stage_end", Model: e.Model, Method: e.Method, Stage: e.Stage,
		MS: ms(e.Duration), Err: e.Err})
}

func (t *JSONTracer) FormulaSolved(e FormulaEvent) {
	t.emit(jsonEvent{Type: "formula", Model: e.Model, Method: e.Method, Stage: e.Stage,
		Output: e.Output, Signals: e.Signals, Vars: e.Vars, Clauses: e.Clauses,
		Literals: e.Literals, Status: e.Status, Engine: e.Engine, MS: ms(e.Duration)})
}

// BufferTracer collects events in memory as marshalled JSON objects —
// the same wire form JSONTracer writes as lines — for callers that
// return a run's trace inside a larger response (the daemon's ?trace=1
// section). Safe for concurrent use.
type BufferTracer struct {
	mu     sync.Mutex
	events []json.RawMessage
}

// NewBuffer returns an empty buffering tracer.
func NewBuffer() *BufferTracer { return &BufferTracer{} }

func (t *BufferTracer) add(e jsonEvent) {
	b, err := json.Marshal(e)
	if err != nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.events = append(t.events, b)
}

// Events returns the collected events in emission order. The returned
// slice is a copy; the tracer may keep collecting.
func (t *BufferTracer) Events() []json.RawMessage {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]json.RawMessage(nil), t.events...)
}

func (t *BufferTracer) StageStart(e StageEvent) {
	t.add(jsonEvent{Type: "stage_start", Model: e.Model, Method: e.Method, Stage: e.Stage})
}

func (t *BufferTracer) StageEnd(e StageEvent) {
	t.add(jsonEvent{Type: "stage_end", Model: e.Model, Method: e.Method, Stage: e.Stage,
		MS: ms(e.Duration), Err: e.Err})
}

func (t *BufferTracer) FormulaSolved(e FormulaEvent) {
	t.add(jsonEvent{Type: "formula", Model: e.Model, Method: e.Method, Stage: e.Stage,
		Output: e.Output, Signals: e.Signals, Vars: e.Vars, Clauses: e.Clauses,
		Literals: e.Literals, Status: e.Status, Engine: e.Engine, MS: ms(e.Duration)})
}

// LogTracer writes human-readable lines, safe for concurrent use.
type LogTracer struct {
	mu sync.Mutex
	w  io.Writer
}

// NewLog returns a tracer writing readable lines to w.
func NewLog(w io.Writer) *LogTracer { return &LogTracer{w: w} }

func (t *LogTracer) line(format string, args ...any) {
	t.mu.Lock()
	defer t.mu.Unlock()
	fmt.Fprintf(t.w, format+"\n", args...)
}

func (t *LogTracer) StageStart(e StageEvent) {
	t.line("trace: %s/%s stage %s start", e.Model, e.Method, e.Stage)
}

func (t *LogTracer) StageEnd(e StageEvent) {
	if e.Err != "" {
		t.line("trace: %s/%s stage %s end %.2fms err=%s", e.Model, e.Method, e.Stage, ms(e.Duration), e.Err)
		return
	}
	t.line("trace: %s/%s stage %s end %.2fms", e.Model, e.Method, e.Stage, ms(e.Duration))
}

func (t *LogTracer) FormulaSolved(e FormulaEvent) {
	out := e.Output
	if out == "" {
		out = "(global)"
	}
	t.line("trace: %s/%s stage %s formula %s m=%d %dv/%dc %s %s %.2fms",
		e.Model, e.Method, e.Stage, out, e.Signals, e.Vars, e.Clauses, e.Status, e.Engine, ms(e.Duration))
}
