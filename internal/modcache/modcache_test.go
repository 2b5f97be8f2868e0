package modcache

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"

	"asyncsyn/internal/metrics"
	"asyncsyn/internal/sat"
	"asyncsyn/internal/sg"
)

func testKey(layout string) Key {
	return Key{Layout: layout, M: 1, Engine: 3,
		MaxBacktracks: 1000, WarmHash: "-"}
}

func testEntry() *Entry {
	return &Entry{
		Cols:    [][]sg.Phase{{sg.P0, sg.P1}, {sg.PUp, sg.PDown}},
		Signals: 1, Vars: 8, Clauses: 12, Literals: 30,
		Status: sat.Sat, Engine: "dpll",
		Warm: [][]sat.Lit{{sat.PosLit(0), sat.NegLit(1)}},
	}
}

func TestDoMissThenHit(t *testing.T) {
	c := New()
	ctx := context.Background()
	calls := 0
	solve := func() (*Entry, error) { calls++; return testEntry(), nil }

	e1, hit, err := c.Do(ctx, testKey("a"), solve)
	if err != nil || hit {
		t.Fatalf("first Do: hit=%v err=%v", hit, err)
	}
	e2, hit, err := c.Do(ctx, testKey("a"), solve)
	if err != nil || !hit {
		t.Fatalf("second Do: hit=%v err=%v", hit, err)
	}
	if calls != 1 {
		t.Fatalf("solve ran %d times, want 1", calls)
	}
	if c.Len() != 1 {
		t.Fatalf("Len = %d, want 1", c.Len())
	}
	// The hit must be a private deep copy: mutating one result must not
	// leak into the other or into the cache.
	e2.Cols[0][0] = sg.P1
	e2.Warm[0][0] = sat.PosLit(9)
	if e1.Cols[0][0] != sg.P0 || e1.Warm[0][0] != sat.PosLit(0) {
		t.Fatal("hit shares slices with the producer's entry")
	}
	e3, _, _ := c.Do(ctx, testKey("a"), solve)
	if e3.Cols[0][0] != sg.P0 {
		t.Fatal("mutating a returned entry corrupted the cache")
	}
}

func TestDoSingleflight(t *testing.T) {
	c := New()
	ctx := context.Background()
	var calls atomic.Int64
	release := make(chan struct{})
	solve := func() (*Entry, error) {
		calls.Add(1)
		<-release
		return testEntry(), nil
	}

	const waiters = 8
	var wg sync.WaitGroup
	started := make(chan struct{}, waiters)
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			started <- struct{}{}
			e, _, err := c.Do(ctx, testKey("sf"), solve)
			if err != nil || e == nil || e.Status != sat.Sat {
				t.Errorf("Do: e=%v err=%v", e, err)
			}
		}()
	}
	for i := 0; i < waiters; i++ {
		<-started
	}
	close(release)
	wg.Wait()
	if n := calls.Load(); n != 1 {
		t.Fatalf("solve ran %d times under contention, want 1", n)
	}
}

func TestDoErrorNotCached(t *testing.T) {
	c := New()
	ctx := context.Background()
	boom := errors.New("boom")
	calls := 0
	_, _, err := c.Do(ctx, testKey("e"), func() (*Entry, error) { calls++; return nil, boom })
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if c.Len() != 0 {
		t.Fatal("error was cached")
	}
	e, hit, err := c.Do(ctx, testKey("e"), func() (*Entry, error) { calls++; return testEntry(), nil })
	if err != nil || hit || e == nil {
		t.Fatalf("retry after error: hit=%v err=%v", hit, err)
	}
	if calls != 2 {
		t.Fatalf("solve ran %d times, want 2 (error must not be cached)", calls)
	}
}

func TestDoCanceledWait(t *testing.T) {
	c := New()
	release := make(chan struct{})
	defer close(release)
	go c.Do(context.Background(), testKey("c"), func() (*Entry, error) {
		<-release
		return testEntry(), nil
	})
	// Wait until the flight is registered.
	for {
		c.mu.Lock()
		n := len(c.inflight)
		c.mu.Unlock()
		if n == 1 {
			break
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := c.Do(ctx, testKey("c"), nil); err == nil {
		t.Fatal("canceled waiter returned no error")
	}
}

func TestDiskRoundTrip(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	c1, err := NewDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	want := testEntry()
	if _, hit, err := c1.Do(ctx, testKey("d"), func() (*Entry, error) { return want, nil }); err != nil || hit {
		t.Fatalf("populate: hit=%v err=%v", hit, err)
	}

	// A fresh cache over the same directory must hit without solving.
	c2, err := NewDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	e, hit, err := c2.Do(ctx, testKey("d"), func() (*Entry, error) {
		t.Fatal("solve ran despite a disk record")
		return nil, nil
	})
	if err != nil || !hit {
		t.Fatalf("disk lookup: hit=%v err=%v", hit, err)
	}
	if e.Status != want.Status || e.Clauses != want.Clauses ||
		len(e.Cols) != len(want.Cols) || e.Cols[1][1] != want.Cols[1][1] ||
		len(e.Warm) != 1 || e.Warm[0][1] != want.Warm[0][1] {
		t.Fatalf("disk round trip mangled the entry: %+v", e)
	}

	// A different key must miss: the content address covers every field.
	k2 := testKey("d")
	k2.MaxBacktracks++
	ran := false
	if _, hit, _ := c2.Do(ctx, k2, func() (*Entry, error) { ran = true; return testEntry(), nil }); hit || !ran {
		t.Fatal("budget change did not miss")
	}
}

func TestDoCounters(t *testing.T) {
	c := New()
	m := metrics.New()
	ctx := metrics.With(context.Background(), m)
	c.Do(ctx, testKey("m"), func() (*Entry, error) { return testEntry(), nil })
	c.Do(ctx, testKey("m"), nil)
	d := m.Snapshot()
	if d[metrics.CacheMisses] != 1 || d[metrics.CacheHits] != 1 {
		t.Fatalf("counters hits=%d misses=%d, want 1/1", d[metrics.CacheHits], d[metrics.CacheMisses])
	}
}
