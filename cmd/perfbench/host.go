package main

import (
	"fmt"
	"math"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// The benchmark runs on shared virtual machines whose speed drifts by
// tens of percent within minutes. Two things drift. Other guests take
// the VM's processors away (steal), which lengthens wall time but not
// the CPU time the time metrics are made of. And they share the host's
// caches and cores, which slows every instruction and so lengthens CPU
// time too: on the 2-vCPU VM of the README baselines the median item CPU
// time of one binary spread by up to 28% (interquartile range) over ten
// runs.
// The time metrics on the result line are therefore scaled to a
// reference host speed. From set-up to the end of the last phase a probe
// goroutine times short chunks of fixed, benchmark-owned work, and each
// set-up and item CPU time is multiplied by the scale of the probe ticks
// that ran alongside it (hostSpeed.scaleOver).
//
// Each chunk is timed on its own, so a chunk that the Go scheduler or a
// collection interrupts is an outlier the median ignores: the probe
// tracks the host, not the goroutines and collections of the code it
// measures. For the same reason it ignores steal, which is why it
// scales CPU time and not wall time: at GOMAXPROCS 2, scaled wall time
// still moved by 78% when a competing process took one of the VM's two
// processors. Its tables live outside the Go heap, so they neither count
// in the measured heap nor move the collector's pacing.

const (
	// probeElasticity is how much more the synthesis slows than the
	// probe when the host slows: a tick's scale is the probe's speed
	// ratio to this power. On the baseline VM the item CPU time moved
	// about 1.5 times as far as the probe's chunk time, in logarithms,
	// and over ten runs the spread of the scaled median was smallest at
	// 1.4 to 1.75 on table1-cold, table1-warm and handshake-k5.
	probeElasticity = 1.5
	// probeEvery is the probe's period; each tick times probeChunks
	// chunks on each table, about 1.5 ms of work on the reference host,
	// and takes each table's median chunk time.
	probeEvery  = 50 * time.Millisecond
	probeChunks = 16
	// probeMargin widens the interval whose ticks scale a time.
	probeMargin = 500 * time.Millisecond
	// probeLookups is the work of one chunk.
	probeLookups = 2000
)

// probeTable is a half-full open-addressing hash table of random keys.
type probeTable struct {
	keys []uint64
	// refUS is the table's median chunk time on the reference host,
	// the VM of the README baselines when it is quiet.
	refUS float64
}

// probeTables are three tables of 256 KiB, 1 MiB and 8 MiB: one fits
// the second-level cache, one fills it, one lives in the last-level
// cache. The synthesis' scattered reads of its state graphs and clause
// lists hit all three levels, and on the baseline VM no single table
// tracked every workload's drift as well as the three together.
var probeTables = sync.OnceValues(func() ([]probeTable, error) {
	var out []probeTable
	for _, t := range []struct {
		entries int
		refUS   float64
	}{{1 << 15, 21}, {1 << 17, 28}, {1 << 20, 43}} {
		keys, err := offHeap(t.entries)
		if err != nil {
			return nil, fmt.Errorf("host probe table: %w", err)
		}
		fillProbeTable(keys)
		out = append(out, probeTable{keys: keys, refUS: t.refUS})
	}
	return out, nil
})

// offHeap returns n zeroed uint64s of anonymous memory mapped outside
// the Go heap. The memory is never unmapped: the tables live as long as
// the process.
func offHeap(n int) ([]uint64, error) {
	b, err := syscall.Mmap(-1, 0, n*8, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, err
	}
	return unsafe.Slice((*uint64)(unsafe.Pointer(&b[0])), n), nil
}

func fillProbeTable(t []uint64) {
	mask := uint64(len(t) - 1)
	x := uint64(0x9E3779B97F4A7C15)
	for i := 0; i < len(t)/2; i++ {
		x = xorshift(x)
		h := probeHash(x, mask)
		for t[h] != 0 {
			h = (h + 1) & mask
		}
		t[h] = x
	}
}

func xorshift(x uint64) uint64 {
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	return x
}

func probeHash(x, mask uint64) uint64 { return (x * 0x9E3779B97F4A7C15) >> 20 & mask }

// probeSink keeps the compiler from removing the lookups.
var probeSink int

// probeChunk looks up probeLookups pseudo-random keys in t, continuing
// the key sequence from *x, and returns the time it took in µs.
func probeChunk(t []uint64, x *uint64) float64 {
	mask := uint64(len(t) - 1)
	found := 0
	k := *x
	start := time.Now()
	for i := 0; i < probeLookups; i++ {
		k = xorshift(k)
		for h := probeHash(k, mask); t[h] != 0; h = (h + 1) & mask {
			if t[h] == k {
				found++
				break
			}
		}
	}
	d := time.Since(start)
	*x = k
	probeSink += found
	return float64(d) / float64(time.Microsecond)
}

// probe is a running host probe.
type probe struct {
	tables     []probeTable
	quit, done chan struct{}
	ticks      []tick // written by the probe goroutine until done is closed
}

// tick is what one probe tick saw.
type tick struct {
	at       time.Time
	medianUS []float64 // each table's median chunk time
	// scale takes a time measured at this tick to the reference host
	// speed: the geometric mean over the tables of refUS over medianUS,
	// to the power probeElasticity.
	scale float64
}

func startProbe() (*probe, error) {
	tables, err := probeTables()
	if err != nil {
		return nil, err
	}
	p := &probe{tables: tables, quit: make(chan struct{}), done: make(chan struct{})}
	go p.run()
	return p, nil
}

func (p *probe) run() {
	defer close(p.done)
	t := time.NewTicker(probeEvery)
	defer t.Stop()
	x := uint64(88172645463325252)
	chunks := make([]float64, probeChunks)
	for {
		select {
		case <-p.quit:
			return
		case <-t.C:
			tk := tick{at: time.Now()}
			logSum := 0.0
			for _, tb := range p.tables {
				for c := range chunks {
					chunks[c] = probeChunk(tb.keys, &x)
				}
				m := median(chunks)
				tk.medianUS = append(tk.medianUS, m)
				logSum += math.Log(tb.refUS / m)
			}
			tk.scale = math.Exp(probeElasticity * logSum / float64(len(p.tables)))
			p.ticks = append(p.ticks, tk)
		}
	}
}

// hostSpeed is what one probe saw.
type hostSpeed struct {
	Ticks int `json:"ticks"`
	// MedianUS is each table's median over the ticks of its median chunk
	// time, and Scale the median tick scale.
	MedianUS []float64 `json:"median_chunk_us,omitempty"`
	Scale    float64   `json:"scale"`
	ticks    []tick
}

// stop ends the probe, waits for its goroutine and returns what it saw.
func (p *probe) stop() hostSpeed {
	close(p.quit)
	<-p.done
	h := hostSpeed{Ticks: len(p.ticks), Scale: 1, ticks: p.ticks}
	if len(p.ticks) == 0 {
		return h
	}
	scales := make([]float64, len(p.ticks))
	for i, tk := range p.ticks {
		scales[i] = tk.scale
	}
	h.Scale = median(scales)
	for i := range p.tables {
		for j, tk := range p.ticks {
			scales[j] = tk.medianUS[i]
		}
		h.MedianUS = append(h.MedianUS, median(scales))
	}
	return h
}

// interval is when something timed ran.
type interval struct{ start, end time.Time }

// scale multiplies each time by the scale over its interval and returns
// the scales and the median of the scaled times.
func (h hostSpeed) scale(times []float64, ivs []interval) ([]float64, float64) {
	scales := make([]float64, len(times))
	scaled := make([]float64, len(times))
	for i, iv := range ivs {
		scales[i] = h.scaleOver(iv)
		scaled[i] = times[i] * scales[i]
	}
	return scales, median(scaled)
}

// scaleOver is the scale for a time measured over iv: the median scale
// of the ticks from probeMargin before iv to probeMargin after it, or the
// median tick scale of the run when none fell there. The host's speed
// drifts within one run, so each time is scaled by the speed around it;
// the margin spans enough ticks that the median ignores single ticks the
// host disturbed.
func (h hostSpeed) scaleOver(iv interval) float64 {
	from, to := iv.start.Add(-probeMargin), iv.end.Add(probeMargin)
	var near []float64
	for _, tk := range h.ticks {
		if !tk.at.Before(from) && !tk.at.After(to) {
			near = append(near, tk.scale)
		}
	}
	if len(near) == 0 {
		return h.Scale
	}
	return median(near)
}
