package cluster

import (
	"context"
	"errors"
	"sync"
	"time"

	"confaudit/internal/logmodel"
	"confaudit/internal/telemetry"
)

// ErrAppenderClosed is returned by Append after Close has begun.
var ErrAppenderClosed = errors.New("cluster: appender closed")

// Store-round constants. A staged batch seals once its estimated
// payload reaches maxBatchBytes, far under the transport's 16 MiB frame
// limit. A per-node send or ack wait that fails transiently is resent up
// to maxStoreRetries times; the wait before a resend starts at
// storeRetryBackoff and doubles per attempt up to 250ms. An admission
// refusal backs off the same way, without bound: only the context
// stops it.
const (
	maxBatchBytes     = 256 << 10
	maxStoreRetries   = 8
	storeRetryBackoff = 2 * time.Millisecond
)

// AppendOptions tune an Appender. The zero value gives a small,
// low-latency configuration; raise the batch bounds for firehose
// ingest. Client.LogBatch stores under the zero value's AckTimeout.
type AppendOptions struct {
	// MaxBatchRecords seals a staged batch at this many records
	// (default 128, capped at the sequencer's per-round maximum).
	MaxBatchRecords int
	// Linger seals a non-empty staged batch after this much time even
	// if underfull, bounding per-record latency (default 2ms).
	Linger time.Duration
	// MaxInflight bounds the sealed-but-unacked batches in the pipeline;
	// Append blocks once the window is full (default 4).
	MaxInflight int
	// AckTimeout bounds one store round-trip attempt (default 10s).
	AckTimeout time.Duration
}

func (o AppendOptions) withDefaults() AppendOptions {
	if o.MaxBatchRecords <= 0 {
		o.MaxBatchRecords = 128
	}
	if o.MaxBatchRecords > maxGLSNBatch {
		o.MaxBatchRecords = maxGLSNBatch
	}
	if o.Linger <= 0 {
		o.Linger = 2 * time.Millisecond
	}
	if o.MaxInflight <= 0 {
		o.MaxInflight = 4
	}
	if o.AckTimeout <= 0 {
		o.AckTimeout = 10 * time.Second
	}
	return o
}

// Ack is the per-record future an Append returns: it resolves exactly
// once, either with the record's assigned glsn or with the error that
// kept the record from being stored.
type Ack struct {
	done chan struct{}
	glsn logmodel.GLSN
	err  error
}

// Done is closed when the ack has resolved.
func (a *Ack) Done() <-chan struct{} { return a.done }

// GLSN blocks until the ack resolves and returns the record's glsn or
// the terminal error. Use Wait to bound the block with a context.
func (a *Ack) GLSN() (logmodel.GLSN, error) {
	<-a.done
	return a.glsn, a.err
}

// Wait is GLSN with a context bound.
func (a *Ack) Wait(ctx context.Context) (logmodel.GLSN, error) {
	select {
	case <-ctx.Done():
		return 0, ctx.Err()
	case <-a.done:
		return a.glsn, a.err
	}
}

func (a *Ack) resolve(g logmodel.GLSN, err error) {
	a.glsn, a.err = g, err
	close(a.done)
	telemetry.M.Counter(telemetry.CtrIngestAcks).Add(1)
}

// pendingRec is one staged record and its unresolved ack.
type pendingRec struct {
	values map[logmodel.Attr]logmodel.Value
	ack    *Ack
}

// stagedBatch is a sealed batch on its way through the pipeline.
type stagedBatch struct {
	recs   []pendingRec
	reason string // telemetry counter name of the seal reason
}

// Appender is the streaming write path: Append stages records into a
// client-side buffer sealed by count, size, or linger time; sealed
// batches reserve their glsn range in seal order (so glsns are monotone
// in append order) and then run their per-node store rounds
// concurrently, up to MaxInflight batches in the pipeline. Each record
// gets an Ack future resolving to its glsn. An admission refusal
// (ErrOverloaded) is backed off and retried, so it turns into
// backpressure on Append through the bounded inflight window.
//
// Append, Flush, and Close are safe for concurrent use. Close drains:
// every staged record's ack resolves — with a glsn or an error — before
// Close returns.
type Appender struct {
	c      *Client
	opts   AppendOptions
	ctx    context.Context
	cancel context.CancelFunc

	mu          sync.Mutex
	cur         []pendingRec
	curBytes    int
	curStart    time.Time // first Append of the open batch, for seal-wait
	gen         uint64    // staging generation; invalidates stale linger timers
	queue       []*stagedBatch
	outstanding int // sealed batches not yet fully acked
	notifyCh    chan struct{}
	closed      bool

	wakeCh chan struct{} // dispatcher doorbell, capacity 1
	wg     sync.WaitGroup
}

// NewAppender opens a streaming appender over the client. The context
// bounds the appender's lifetime: cancelling it aborts inflight batches
// (their acks resolve with the cancellation error).
func (c *Client) NewAppender(ctx context.Context, opts AppendOptions) (*Appender, error) {
	actx, cancel := context.WithCancel(ctx)
	a := &Appender{
		c:        c,
		opts:     opts.withDefaults(),
		ctx:      actx,
		cancel:   cancel,
		notifyCh: make(chan struct{}),
		wakeCh:   make(chan struct{}, 1),
	}
	a.wg.Add(1)
	go func() {
		defer a.wg.Done()
		a.dispatch()
	}()
	return a, nil
}

// Append stages one record and returns its ack future. It blocks —
// that is the backpressure — while the pipeline already holds
// MaxInflight sealed batches, and fails once Close has begun or the
// appender context has ended.
func (a *Appender) Append(ctx context.Context, values map[logmodel.Attr]logmodel.Value) (*Ack, error) {
	// Wait for window room before staging, so staged memory stays
	// bounded by one open batch + MaxInflight sealed ones.
	for {
		ch := a.signal()
		a.mu.Lock()
		if a.closed {
			a.mu.Unlock()
			return nil, ErrAppenderClosed
		}
		if a.outstanding < a.opts.MaxInflight {
			break // still holding a.mu
		}
		a.mu.Unlock()
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-a.ctx.Done():
			return nil, a.ctx.Err()
		case <-ch:
		}
	}
	ack := &Ack{done: make(chan struct{})}
	a.cur = append(a.cur, pendingRec{values: values, ack: ack})
	if len(a.cur) == 1 {
		a.curStart = time.Now()
	}
	a.curBytes += estimateRecordBytes(values)
	telemetry.M.Counter(telemetry.CtrIngestAppends).Add(1)
	telemetry.M.Gauge(telemetry.GaugeIngestStaged).Set(int64(len(a.cur)))
	switch {
	case len(a.cur) >= a.opts.MaxBatchRecords:
		a.sealLocked(telemetry.CtrIngestFlushSize)
	case a.curBytes >= maxBatchBytes:
		a.sealLocked(telemetry.CtrIngestFlushBytes)
	case len(a.cur) == 1:
		// First record of a fresh batch arms the linger timer.
		gen := a.gen
		time.AfterFunc(a.opts.Linger, func() { a.lingerSeal(gen) })
	}
	a.mu.Unlock()
	return ack, nil
}

// estimateRecordBytes approximates a record's wire size for the
// byte-bound seal; exactness does not matter, stability does.
func estimateRecordBytes(values map[logmodel.Attr]logmodel.Value) int {
	n := 16
	for k, v := range values {
		n += len(k) + len(v.S) + 24
	}
	return n
}

// lingerSeal seals the staged batch the timer was armed for; a stale
// generation means the batch already sealed by count or bytes.
func (a *Appender) lingerSeal(gen uint64) {
	a.mu.Lock()
	if a.gen == gen && len(a.cur) > 0 {
		a.sealLocked(telemetry.CtrIngestFlushLinger)
	}
	a.mu.Unlock()
}

// sealLocked moves the staged records into the dispatch queue. Caller
// holds a.mu.
func (a *Appender) sealLocked(reason string) {
	if len(a.cur) == 0 {
		return
	}
	telemetry.M.Histogram(telemetry.HistIngestSealWait).Since(a.curStart)
	bt := &stagedBatch{recs: a.cur, reason: reason}
	a.cur = nil
	a.curBytes = 0
	a.gen++
	a.queue = append(a.queue, bt)
	a.outstanding++
	telemetry.M.Gauge(telemetry.GaugeIngestStaged).Set(0)
	telemetry.M.Gauge(telemetry.GaugeIngestInflight).Set(int64(a.outstanding))
	select {
	case a.wakeCh <- struct{}{}:
	default:
	}
}

// signal returns a channel closed at the next pipeline state change
// (batch completion). Grab it before checking the condition.
func (a *Appender) signal() <-chan struct{} {
	a.mu.Lock()
	ch := a.notifyCh
	a.mu.Unlock()
	return ch
}

// finishBatch retires one batch from the window and wakes waiters.
func (a *Appender) finishBatch() {
	a.mu.Lock()
	a.outstanding--
	telemetry.M.Gauge(telemetry.GaugeIngestInflight).Set(int64(a.outstanding))
	close(a.notifyCh)
	a.notifyCh = make(chan struct{})
	a.mu.Unlock()
}

// dispatch is the single ordering stage of the pipeline: it pops sealed
// batches in seal order and reserves each one's contiguous glsn range
// before the next — so glsns are monotone in append order — then hands
// the batch's store fan-out to its own goroutine. Store rounds from up
// to MaxInflight batches proceed concurrently over the quorum
// machinery; only the (cheap) range reservation is serialized.
func (a *Appender) dispatch() {
	for {
		a.mu.Lock()
		var bt *stagedBatch
		if len(a.queue) > 0 {
			bt = a.queue[0]
			a.queue = a.queue[1:]
		}
		a.mu.Unlock()
		if bt == nil {
			select {
			case <-a.ctx.Done():
				// Drain anything sealed after the last wake so every ack
				// still resolves.
				a.mu.Lock()
				rest := a.queue
				a.queue = nil
				a.mu.Unlock()
				for _, bt := range rest {
					a.failBatch(bt, a.ctx.Err())
				}
				return
			case <-a.wakeCh:
			}
			continue
		}
		telemetry.M.Counter(bt.reason).Add(1)
		telemetry.M.Counter(telemetry.CtrIngestBatches).Add(1)
		reserveStart := time.Now()
		first, err := a.c.RequestGLSNRange(a.ctx, len(bt.recs))
		telemetry.M.Histogram(telemetry.HistIngestReserve).Since(reserveStart)
		if err != nil {
			a.failBatch(bt, err)
			continue
		}
		a.wg.Add(1)
		go func(bt *stagedBatch, first logmodel.GLSN) {
			defer a.wg.Done()
			a.storeBatch(bt, first)
		}(bt, first)
	}
}

// failBatch resolves every ack in the batch with err.
func (a *Appender) failBatch(bt *stagedBatch, err error) {
	for _, r := range bt.recs {
		r.ack.resolve(0, err)
	}
	a.finishBatch()
}

// storeBatch runs one batch's store round (Client.storeRange) and
// resolves its acks.
func (a *Appender) storeBatch(bt *stagedBatch, first logmodel.GLSN) {
	records := make([]map[logmodel.Attr]logmodel.Value, len(bt.recs))
	for i, r := range bt.recs {
		records[i] = r.values
	}
	glsns, err := a.c.storeRange(a.ctx, first, records, a.opts)
	if err != nil {
		telemetry.M.Counter(telemetry.CtrIngestDropped).Add(int64(len(bt.recs)))
		a.failBatch(bt, err)
		return
	}
	for i, r := range bt.recs {
		r.ack.resolve(glsns[i], nil)
	}
	a.finishBatch()
}

// Flush seals the staged batch and blocks until every batch sealed so
// far has resolved its acks (successfully or not).
func (a *Appender) Flush(ctx context.Context) error {
	a.mu.Lock()
	a.sealLocked(telemetry.CtrIngestFlushDrain)
	a.mu.Unlock()
	return a.waitDrained(ctx)
}

func (a *Appender) waitDrained(ctx context.Context) error {
	for {
		ch := a.signal()
		a.mu.Lock()
		drained := a.outstanding == 0 && len(a.cur) == 0
		a.mu.Unlock()
		if drained {
			return nil
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-ch:
		}
	}
}

// Close seals and drains the pipeline: no record is silently lost —
// every staged ack resolves before Close returns. If ctx expires first,
// Close aborts the inflight batches (their acks resolve with the
// appender's cancellation) and returns the context error. Close is
// idempotent; Append fails with ErrAppenderClosed afterwards.
func (a *Appender) Close(ctx context.Context) error {
	a.mu.Lock()
	already := a.closed
	a.closed = true
	a.sealLocked(telemetry.CtrIngestFlushDrain)
	a.mu.Unlock()
	if already {
		a.wg.Wait()
		return nil
	}
	err := a.waitDrained(ctx)
	a.cancel() // stop the dispatcher; abort inflight work on error paths
	if err != nil {
		// The cancel above unblocks every send/expect; their batches
		// resolve acks with the cancellation error. Wait for that.
		a.waitDrained(context.Background()) //nolint:errcheck // cannot fail without a deadline
	}
	a.wg.Wait()
	return err
}
