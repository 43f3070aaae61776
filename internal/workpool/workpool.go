// Package workpool provides the process-wide worker pool the crypto
// batch APIs fan out over. One GOMAXPROCS-sized set of persistent
// workers serves every caller, so concurrent protocol rounds share the
// machine instead of each spawning its own goroutine herd (a batch
// that spawns GOMAXPROCS goroutines per call multiplies, under a
// multi-node in-process deployment, into hundreds of runnable
// goroutines fighting over the same cores).
//
// The submitting goroutine always participates in its own batch, so
// Map makes progress even when every worker is busy with other batches
// — saturation degrades to the serial loop, it never deadlocks. On a
// single-CPU machine the pool contributes nothing and Map is exactly
// the serial loop plus one atomic.
package workpool

import (
	"runtime"
	"sync"
	"sync/atomic"

	"confaudit/internal/telemetry"
)

// task is one batch's work-stealing state: workers and the submitter
// pull indices from next until n is exhausted.
type task struct {
	next atomic.Int64
	n    int
	fn   func(int) error

	mu  sync.Mutex
	err error
	wg  sync.WaitGroup // open worker claims on this task
}

// run drains indices until the range is exhausted or a call fails.
// The first error wins and stops further index claims for every
// participant (already-running calls finish).
func (t *task) run() {
	for {
		i := int(t.next.Add(1)) - 1
		if i >= t.n || t.failed() {
			return
		}
		if err := t.fn(i); err != nil {
			t.mu.Lock()
			if t.err == nil {
				t.err = err
			}
			t.mu.Unlock()
			return
		}
	}
}

func (t *task) failed() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.err != nil
}

// Pool is a fixed set of persistent workers fed through a small queue.
type Pool struct {
	workers int
	queue   chan *task
	busy    atomic.Int64

	startOnce sync.Once
}

// New creates a pool with the given worker count (minimum 1).
func New(workers int) *Pool {
	if workers < 1 {
		workers = 1
	}
	return &Pool{workers: workers, queue: make(chan *task, workers)}
}

// Shared is the process-wide default pool, sized to GOMAXPROCS at
// first use. Its workers start lazily so importing the package costs
// nothing.
var Shared = New(runtime.GOMAXPROCS(0))

// start launches the persistent workers once.
func (p *Pool) start() {
	p.startOnce.Do(func() {
		for w := 0; w < p.workers; w++ {
			go p.worker()
		}
	})
}

func (p *Pool) worker() {
	for t := range p.queue {
		p.busy.Add(1)
		telemetry.M.Gauge(telemetry.GaugeWorkpoolBusy).Set(p.busy.Load())
		t.run()
		p.busy.Add(-1)
		telemetry.M.Gauge(telemetry.GaugeWorkpoolBusy).Set(p.busy.Load())
		t.wg.Done()
	}
}

// Map runs fn(i) for every i in [0, n), preserving nothing about
// execution order but guaranteeing all calls complete (or stop early
// on the first error) before Map returns. The caller's goroutine works
// through the batch alongside up to workers-1 pool workers; offers the
// pool cannot accept immediately are simply skipped, so a saturated —
// or single-CPU — pool degrades to the caller's serial loop.
func (p *Pool) Map(n int, fn func(int) error) error {
	if n <= 0 {
		return nil
	}
	t := &task{n: n, fn: fn}
	if n > 1 && p.workers > 1 {
		p.start()
		// Offer at most enough claims to cover the batch; never block
		// on a busy pool (nested or concurrent Maps keep making
		// progress through the submitting goroutine).
		offers := p.workers - 1
		if offers > n-1 {
			offers = n - 1
		}
	offer:
		for k := 0; k < offers; k++ {
			t.wg.Add(1)
			select {
			case p.queue <- t:
			default:
				t.wg.Done()
				break offer // queue full; the caller still runs the batch
			}
		}
	}
	t.run()
	t.wg.Wait()
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.err
}

// Map runs fn over [0, n) on the shared pool.
func Map(n int, fn func(int) error) error { return Shared.Map(n, fn) }
