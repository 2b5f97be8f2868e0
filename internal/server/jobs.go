package server

import (
	"context"
	"fmt"
	"net/http"
	"sync"

	"asyncsyn"
)

// jobState tracks a job through its lifecycle.
type jobState int32

const (
	jobQueued jobState = iota
	jobRunning
	jobDone
)

func (st jobState) String() string {
	switch st {
	case jobQueued:
		return "queued"
	case jobRunning:
		return "running"
	}
	return "done"
}

// job is one admitted synthesis run. Several requests may share a job
// (dedup); exactly one goroutine executes it.
type job struct {
	id string
	parsedRequest

	mu    sync.Mutex
	state jobState
	// resp and status are the outcome, valid once done is closed.
	resp   *Response
	status int
	done   chan struct{}
}

func (j *job) setState(st jobState) {
	j.mu.Lock()
	j.state = st
	j.mu.Unlock()
}

func (j *job) getState() jobState {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

func (j *job) finish(resp *Response, status int) {
	j.mu.Lock()
	j.state = jobDone
	j.resp = resp
	j.status = status
	j.mu.Unlock()
	close(j.done)
}

// outcome returns the finished job's response and status (call only
// after done is closed).
func (j *job) outcome() (*Response, int) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.resp, j.status
}

// admit registers a new job for req or joins an identical in-flight
// one. On success the returned job is (or will be) executing and the
// caller waits on job.done. A zero httpStatus means admitted; 429
// means the queue is full (Retry-After applies), 503 means the daemon
// is draining. deduped reports that an existing job was joined.
func (s *Server) admit(req *parsedRequest) (j *job, deduped bool, httpStatus int) {
	if s.draining() {
		return nil, false, http.StatusServiceUnavailable
	}

	s.mu.Lock()
	if live, ok := s.flights[req.key]; ok {
		s.mu.Unlock()
		s.stats.deduped.Add(1)
		return live, true, 0
	}

	// Admission control under s.mu (serialized with other admissions):
	// take a running slot if one is free, otherwise a queue position if
	// the queue has room, otherwise reject.
	running := false
	select {
	case s.slots <- struct{}{}:
		running = true
	default:
		if int(s.stats.queued.Load()) >= s.cfg.QueueDepth {
			s.mu.Unlock()
			s.stats.rejected.Add(1)
			return nil, false, http.StatusTooManyRequests
		}
		s.stats.queued.Add(1)
	}

	s.seq++
	j = &job{
		id:            fmt.Sprintf("j%06d-%s", s.seq, req.key[:8]),
		parsedRequest: *req,
		done:          make(chan struct{}),
	}
	if running {
		j.state = jobRunning
	}
	s.flights[req.key] = j
	s.jobs.put(j)
	s.stats.admitted.Add(1)
	s.wg.Add(1)
	s.mu.Unlock()

	go s.execute(j, running)
	return j, false, 0
}

// execute drives one admitted job: wait for a slot if queued, run,
// publish the outcome, release the slot.
func (s *Server) execute(j *job, haveSlot bool) {
	defer s.wg.Done()
	if !haveSlot {
		select {
		case s.slots <- struct{}{}:
			s.stats.queued.Add(-1)
			j.setState(jobRunning)
		case <-s.baseCtx.Done():
			// Forced shutdown while still queued.
			s.stats.queued.Add(-1)
			s.unflight(j)
			j.finish(errorResponse(asyncsyn.ErrCanceled), http.StatusServiceUnavailable)
			return
		}
	}
	s.stats.inflight.Add(1)
	resp, status := s.run(s.baseCtx, j)
	s.unflight(j)
	j.finish(resp, status)
	s.stats.inflight.Add(-1)
	<-s.slots
}

// unflight removes the job from the dedup table; later identical
// requests start fresh runs (answered cheaply by the solve cache).
func (s *Server) unflight(j *job) {
	s.mu.Lock()
	delete(s.flights, j.key)
	s.mu.Unlock()
}

// wait blocks until the job finishes or the waiter's context ends.
// A waiter abandoning a shared job does not cancel it: other waiters —
// and the cache warm-up — still profit from the run.
func (j *job) wait(ctx context.Context) (*Response, int, error) {
	select {
	case <-j.done:
		resp, status := j.outcome()
		return resp, status, nil
	case <-ctx.Done():
		return nil, 0, ctx.Err()
	}
}

// jobStore retains jobs for GET /v1/jobs/{id}: all live jobs plus the
// most recent cap finished ones (older finished jobs are evicted in
// insertion order).
type jobStore struct {
	mu    sync.Mutex
	cap   int
	byID  map[string]*job
	order []*job
}

func newJobStore(cap int) *jobStore {
	return &jobStore{cap: cap, byID: make(map[string]*job)}
}

func (st *jobStore) put(j *job) {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.byID[j.id] = j
	st.order = append(st.order, j)
	for len(st.order) > st.cap {
		evicted := false
		for i, old := range st.order {
			if old.getState() == jobDone {
				delete(st.byID, old.id)
				st.order = append(st.order[:i], st.order[i+1:]...)
				evicted = true
				break
			}
		}
		if !evicted {
			break // every retained job still live; keep them all
		}
	}
}

func (st *jobStore) get(id string) (*job, bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	j, ok := st.byID[id]
	return j, ok
}
