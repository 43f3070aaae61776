package main

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"confaudit/pkg/dla"
)

// segments is how many equal record-count slices an ingest window is
// cut into: the first and last tenth show how the rate moves as the log
// grows, and beside the paced writer each slice yields one median ack
// latency.
const segments = 20

// segClock stamps the moment each 1/segments of the window's records
// has been acked, across producers.
type segClock struct {
	start time.Time
	step  int64
	acked atomic.Int64
	wall  [segments]atomic.Int64 // ns since start
}

func newSegClock(start time.Time, total int) *segClock {
	return &segClock{start: start, step: int64(max(total/segments, 1))}
}

func (c *segClock) tick(now time.Time) {
	n := c.acked.Add(1)
	if n%c.step == 0 && n/c.step <= segments {
		c.wall[n/c.step-1].Store(int64(now.Sub(c.start)))
	}
}

// writerOut is one producer's view of its share of the stream.
type writerOut struct {
	acked    []dla.GLSN
	failed   int
	firstErr error
	ackMs    []float64 // start of the operation (Append call, or due time when paced) → ack resolved
	waitMs   []float64 // Append returned → ack resolved
	lateMs   []float64 // paced only: due time → Append called
	appendNs int64     // total time inside Append
	lastAck  time.Time
}

type pendingAck struct {
	ack      *dla.Ack
	from     time.Time
	appended time.Time
	wait     *openSpan
}

// runWriter pushes recs through one Appender on sess. With pace == 0 it
// is a closed loop: the next Append is issued as soon as the previous
// returns, and backpressure is the Appender's inflight window. With
// pace > 0 it is an open loop: record i is due at start + i·pace whether
// or not the system keeps up, and its latency is timed from that due
// time, so a stall charges every record it delays.
func runWriter(ctx context.Context, tr *tracer, parent *openSpan, name string, sess session, recs []values,
	start time.Time, pace time.Duration, clock *segClock) *writerOut {
	out := &writerOut{
		acked: make([]dla.GLSN, 0, len(recs)),
		ackMs: make([]float64, 0, len(recs)), waitMs: make([]float64, 0, len(recs)),
	}
	ap, err := sess.Appender(ctx, dla.AppendOptions{MaxBatchRecords: appendBatch, MaxInflight: appendInflight, Linger: appendLinger})
	if err != nil {
		out.failed, out.firstErr = len(recs), err
		return out
	}
	// Sized to the Appender's own window (inflight batches plus the open
	// one), so the consumer never becomes the producer's backpressure.
	pend := make(chan pendingAck, (appendInflight+1)*appendBatch)
	var consumer sync.WaitGroup
	consumer.Add(1)
	go func() {
		defer consumer.Done()
		for p := range pend {
			g, err := p.ack.GLSN()
			now := time.Now()
			p.wait.end()
			if err != nil {
				out.failed++
				if out.firstErr == nil {
					out.firstErr = err
				}
				continue
			}
			clock.tick(now)
			out.acked = append(out.acked, g)
			out.ackMs = append(out.ackMs, ms(now.Sub(p.from)))
			out.waitMs = append(out.waitMs, ms(now.Sub(p.appended)))
			out.lastAck = now
		}
	}()
	// The consumer owns out until it exits; the producer's own failures
	// are merged in afterwards.
	var appendFailed int
	var appendErr error
	var appendNs int64
	var lateMs []float64
	for i, rec := range recs {
		from := time.Now()
		if pace > 0 {
			due := start.Add(time.Duration(i) * pace)
			if d := due.Sub(from); d > 0 {
				time.Sleep(d)
			}
			from = due
			lateMs = append(lateMs, ms(time.Since(due)))
		}
		var id string // spans of one sealed batch share an id
		if tr != nil {
			id = fmt.Sprintf("%s.b%d", name, i/appendBatch)
		}
		sp := tr.begin(parent, "dla", "Append", id)
		t0 := time.Now()
		ack, err := ap.Append(ctx, rec)
		appended := time.Now()
		sp.end()
		appendNs += int64(appended.Sub(t0))
		if err != nil {
			appendFailed++
			if appendErr == nil {
				appendErr = err
			}
			continue
		}
		pend <- pendingAck{ack: ack, from: from, appended: appended, wait: tr.begin(parent, "driver", "ack_wait", id)}
	}
	sp := tr.begin(parent, "dla", "Appender.Close", name)
	closeErr := ap.Close(ctx)
	sp.end()
	close(pend)
	consumer.Wait()
	out.failed += appendFailed
	out.appendNs, out.lateMs = appendNs, lateMs
	for _, err := range []error{appendErr, closeErr} {
		if out.firstErr == nil {
			out.firstErr = err
		}
	}
	return out
}

// ingestResult merges the producers of one window.
type ingestResult struct {
	acked    []dla.GLSN
	failed   int
	firstErr error
	ackMs    []float64
	waitMs   []float64
	lateMs   []float64
	appendUs float64 // mean time inside one Append call
	wall     time.Duration
	// Per segment: the wall ms it took, and the median ack latency of
	// the records at that position of each producer's share.
	segMs, segAckP50 []float64
}

// runIngest splits recs over the sessions (one producer goroutine and
// one Appender each) and returns when the last ack has resolved.
func runIngest(ctx context.Context, tr *tracer, parent *openSpan, sessions []session, recs []values, pace time.Duration) *ingestResult {
	start := time.Now()
	res, clock := &ingestResult{}, newSegClock(start, len(recs))
	outs := make([]*writerOut, len(sessions))
	per := (len(recs) + len(sessions) - 1) / len(sessions)
	var wg sync.WaitGroup
	for p, sess := range sessions {
		lo, hi := min(p*per, len(recs)), min((p+1)*per, len(recs))
		wg.Add(1)
		go func() {
			defer wg.Done()
			outs[p] = runWriter(ctx, tr, parent, fmt.Sprintf("p%d", p), sess, recs[lo:hi], start, pace, clock)
		}()
	}
	wg.Wait()
	end := start
	var appendNs int64
	for _, o := range outs {
		res.acked = append(res.acked, o.acked...)
		res.failed += o.failed
		if res.firstErr == nil {
			res.firstErr = o.firstErr
		}
		res.ackMs = append(res.ackMs, o.ackMs...)
		res.waitMs = append(res.waitMs, o.waitMs...)
		res.lateMs = append(res.lateMs, o.lateMs...)
		appendNs += o.appendNs
		if o.lastAck.After(end) {
			end = o.lastAck
		}
	}
	res.wall = end.Sub(start)
	res.appendUs = float64(appendNs) / 1e3 / float64(max(len(recs), 1))
	if res.failed > 0 {
		return res // positions no longer line up; the run is incorrect anyway
	}
	prev := int64(0)
	for k := 0; k < segments; k++ {
		w := clock.wall[k].Load()
		res.segMs = append(res.segMs, float64(w-prev)/1e6)
		prev = w
		var lat []float64
		for _, o := range outs {
			n := len(o.ackMs)
			lat = append(lat, o.ackMs[k*n/segments:(k+1)*n/segments]...)
		}
		res.segAckP50 = append(res.segAckP50, percentile(lat, 0.5))
	}
	return res
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
