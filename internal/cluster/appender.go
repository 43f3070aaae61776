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
	// Append blocks once the window is full (default 4). The window's
	// capacity, MaxInflight × MaxBatchRecords, also bounds the glsn
	// lease the Appender takes from the sequencer in one round.
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
// kept the record from being stored. The acks of one batch live in one
// slab and share one done channel, since they resolve together.
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

// stagedBatch is one batch of records and their acks, open while
// Append stages into it and then sealed on its way through the
// pipeline. acks is a slab of MaxBatchRecords that never regrows,
// because Append hands out pointers into it.
type stagedBatch struct {
	values []map[logmodel.Attr]logmodel.Value
	acks   []Ack
	done   chan struct{} // every ack's done
	bytes  int           // estimated payload, for the byte-bound seal
	start  time.Time     // first Append, for seal-wait
	reason string        // telemetry counter name of the seal reason
}

// resolve settles every ack of the batch, with glsns (one per record)
// on success or with err.
func (bt *stagedBatch) resolve(glsns []logmodel.GLSN, err error) {
	for i := range bt.acks {
		if err != nil {
			bt.acks[i].err = err
		} else {
			bt.acks[i].glsn = glsns[i]
		}
	}
	close(bt.done)
	telemetry.M.Counter(telemetry.CtrIngestAcks).Add(int64(len(bt.acks)))
}

// Appender is the streaming write path: Append stages records into a
// client-side buffer sealed by count, size, or linger time; sealed
// batches take their glsn range in seal order (so glsns are monotone
// in append order) and then run their per-node store rounds
// concurrently, up to MaxInflight batches in the pipeline. The ranges
// come from a glsn lease: one sequencer round grants a range that
// serves the following batches with no further message (see reserve).
// Each record gets an Ack future resolving to its glsn. An admission
// refusal (ErrOverloaded) is backed off and retried, so it turns into
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
	cur         *stagedBatch // open batch; nil when nothing is staged
	queue       []*stagedBatch
	outstanding int // sealed batches not yet fully acked
	notifyCh    chan struct{}
	closed      bool

	// The glsn lease: [leaseNext, leaseEnd) is what is left of the last
	// grant, which was leaseSize glsns. Only the dispatcher touches it.
	leaseNext, leaseEnd logmodel.GLSN
	leaseSize           int

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
	bt := a.cur
	if bt == nil {
		bt = &stagedBatch{
			values: make([]map[logmodel.Attr]logmodel.Value, 0, a.opts.MaxBatchRecords),
			acks:   make([]Ack, 0, a.opts.MaxBatchRecords),
			done:   make(chan struct{}),
			start:  time.Now(),
		}
		a.cur = bt
	}
	bt.values = append(bt.values, values)
	bt.acks = append(bt.acks, Ack{done: bt.done})
	ack := &bt.acks[len(bt.acks)-1]
	bt.bytes += estimateRecordBytes(values)
	telemetry.M.Counter(telemetry.CtrIngestAppends).Add(1)
	telemetry.M.Gauge(telemetry.GaugeIngestStaged).Set(int64(len(bt.values)))
	switch {
	case len(bt.values) >= a.opts.MaxBatchRecords:
		a.sealLocked(telemetry.CtrIngestFlushSize)
	case bt.bytes >= maxBatchBytes:
		a.sealLocked(telemetry.CtrIngestFlushBytes)
	case len(bt.values) == 1:
		// First record of a fresh batch arms the linger timer.
		time.AfterFunc(a.opts.Linger, func() { a.lingerSeal(bt) })
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

// lingerSeal seals the batch the timer was armed for, unless it
// already sealed by count or bytes.
func (a *Appender) lingerSeal(bt *stagedBatch) {
	a.mu.Lock()
	if a.cur == bt {
		a.sealLocked(telemetry.CtrIngestFlushLinger)
	}
	a.mu.Unlock()
}

// sealLocked moves the open batch into the dispatch queue. Caller
// holds a.mu.
func (a *Appender) sealLocked(reason string) {
	bt := a.cur
	if bt == nil {
		return
	}
	telemetry.M.Histogram(telemetry.HistIngestSealWait).Since(bt.start)
	bt.reason = reason
	a.cur = nil
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
// batches in seal order and gives each one its contiguous glsn range
// before the next — so glsns are monotone in append order — then hands
// the batch's store fan-out to its own goroutine. Store rounds from up
// to MaxInflight batches proceed concurrently over the quorum
// machinery; only the range reservation is serialized, and most
// batches take theirs from the lease without a message.
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
		first, err := a.reserve(len(bt.values))
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

// reserve returns the first of n glsns for the next sealed batch. A
// batch that fits in the lease takes the lease's next n glsns with no
// message. One that does not asks the sequencer for a new lease, and
// the old lease's remainder is abandoned: granted, never written. The
// first lease is exactly the first batch, so a one-batch Appender
// wastes nothing; each later one is twice the last, capped by the
// pipeline's capacity MaxInflight × MaxBatchRecords and the
// sequencer's maxGLSNBatch, and never smaller than the batch.
func (a *Appender) reserve(n int) (logmodel.GLSN, error) {
	if a.leaseEnd-a.leaseNext < logmodel.GLSN(n) {
		size := n
		if a.leaseSize > 0 {
			size = max(n, min(2*a.leaseSize, a.opts.MaxInflight*a.opts.MaxBatchRecords, maxGLSNBatch))
		}
		first, err := a.c.RequestGLSNRange(a.ctx, size)
		if err != nil {
			return 0, err
		}
		a.leaseNext, a.leaseEnd, a.leaseSize = first, first+logmodel.GLSN(size), size
	}
	first := a.leaseNext
	a.leaseNext += logmodel.GLSN(n)
	return first, nil
}

// failBatch resolves every ack in the batch with err.
func (a *Appender) failBatch(bt *stagedBatch, err error) {
	bt.resolve(nil, err)
	a.finishBatch()
}

// storeBatch runs one batch's store round (Client.storeRange) and
// resolves its acks.
func (a *Appender) storeBatch(bt *stagedBatch, first logmodel.GLSN) {
	glsns, err := a.c.storeRange(a.ctx, first, bt.values, a.opts)
	if err != nil {
		telemetry.M.Counter(telemetry.CtrIngestDropped).Add(int64(len(bt.values)))
		a.failBatch(bt, err)
		return
	}
	bt.resolve(glsns, nil)
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
		drained := a.outstanding == 0 && a.cur == nil
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
