// Streaming: the firehose write path. A producer streams events
// through a Session.Appender — records batch client-side (sealed by
// count, bytes, or linger time), several batches pipeline through the
// quorum machinery at once, and each record's Ack future resolves with
// its glsn. The cluster is deployed with ingest admission bounds, so an
// overloaded node refuses a batch and the appender backs off and
// retries it: overload becomes backpressure instead of an unbounded
// queue.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"confaudit/pkg/dla"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	schema, err := dla.ECommerceSchema(2)
	if err != nil {
		return err
	}
	part, err := dla.RoundRobinPartition(schema, 3)
	if err != nil {
		return err
	}
	// Admission bounds: each node admits at most 50k records/sec and
	// 4 MiB of store payload in flight; beyond that it refuses a batch
	// and the appender backs off.
	cl, err := dla.Deploy(dla.ClusterOptions{
		Partition: part,
		Admission: dla.AdmissionConfig{RecordsPerSec: 50_000, MaxInflightBytes: 4 << 20},
	})
	if err != nil {
		return err
	}
	defer cl.Close() //nolint:errcheck

	producer, err := dla.Connect(ctx, cl, dla.SessionConfig{ID: "sensor-0", TicketID: "T-S0"})
	if err != nil {
		return err
	}
	defer producer.Close() //nolint:errcheck

	// The appender: up to 64-record batches, sealed after 2ms linger at
	// the latest, four batches in the pipeline; a refused batch is
	// retried, so overload blocks Append rather than dropping records.
	ap, err := producer.Appender(ctx, dla.AppendOptions{
		MaxBatchRecords: 64,
		Linger:          2 * time.Millisecond,
		MaxInflight:     4,
	})
	if err != nil {
		return err
	}

	// Stream 500 synthetic events; keep every ack so we can prove the
	// stream landed.
	gen := dla.NewWorkload(7)
	events := gen.Transactions(schema, 500, 8)
	acks := make([]*dla.Ack, 0, len(events))
	start := time.Now()
	for _, e := range events {
		ack, err := ap.Append(ctx, e)
		if err != nil {
			return err
		}
		acks = append(acks, ack)
	}
	// Close drains: every staged record's ack resolves before it
	// returns — success with a glsn, or the error that stopped it.
	if err := ap.Close(ctx); err != nil {
		return err
	}
	elapsed := time.Since(start)

	firstGLSN, err := acks[0].GLSN()
	if err != nil {
		return err
	}
	lastGLSN, err := acks[len(acks)-1].GLSN()
	if err != nil {
		return err
	}
	fmt.Printf("streamed %d events in %v (%.0f events/sec)\n",
		len(acks), elapsed.Round(time.Millisecond), float64(len(acks))/elapsed.Seconds())
	fmt.Printf("glsns %s..%s — monotone in append order\n", firstGLSN, lastGLSN)

	// The stream is immediately auditable.
	auditor, err := dla.Connect(ctx, cl, dla.SessionConfig{
		ID: "auditor", TicketID: "T-AUD", Ops: []dla.Op{dla.OpRead},
	})
	if err != nil {
		return err
	}
	defer auditor.Close() //nolint:errcheck
	n, err := auditor.Aggregate(ctx, "*", dla.AggCount, "")
	if err != nil {
		return err
	}
	fmt.Printf("auditor counts %v events across the cluster\n", n)
	return nil
}
