package metrics

import (
	"runtime"
	"sync/atomic"
	"time"
)

// HeapWatch samples runtime.MemStats.HeapInuse on a fixed interval and
// keeps the high-water mark. cmd/bench brackets every benchmark row with
// one to record per-row peak heap (benchrec schema 4), and the streaming
// microbenchmarks report the same number as a custom metric for the
// cmd/allocheck gate. Sampling is deliberately coarse — ReadMemStats
// stops the world for microseconds — so the watch measures the workload
// without distorting it; short-lived spikes between samples are missed,
// which is fine for the ≥2× materialization regressions the gate exists
// to catch.
type HeapWatch struct {
	peak atomic.Uint64
	stop chan struct{}
	done chan struct{}
}

// WatchHeap starts sampling HeapInuse every interval (minimum 1ms,
// default 5ms when interval <= 0) until Stop is called. One sample is
// taken synchronously before returning, so even a workload shorter than
// the interval records a baseline.
func WatchHeap(interval time.Duration) *HeapWatch {
	if interval <= 0 {
		interval = 5 * time.Millisecond
	}
	if interval < time.Millisecond {
		interval = time.Millisecond
	}
	w := &HeapWatch{stop: make(chan struct{}), done: make(chan struct{})}
	w.sample()
	go func() {
		defer close(w.done)
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-w.stop:
				return
			case <-t.C:
				w.sample()
			}
		}
	}()
	return w
}

func (w *HeapWatch) sample() {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	for {
		cur := w.peak.Load()
		if ms.HeapInuse <= cur || w.peak.CompareAndSwap(cur, ms.HeapInuse) {
			return
		}
	}
}

// Stop takes a final sample, ends the sampling goroutine and returns the
// high-water mark in bytes. Stop is idempotent.
func (w *HeapWatch) Stop() uint64 {
	select {
	case <-w.stop:
	default:
		close(w.stop)
	}
	<-w.done
	w.sample()
	return w.peak.Load()
}
