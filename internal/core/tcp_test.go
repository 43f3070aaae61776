package core

import (
	"context"
	"fmt"
	"testing"
	"time"

	"confaudit/internal/audit"
	"confaudit/internal/logmodel"
	"confaudit/internal/ticket"
	"confaudit/internal/transport"
)

// TestDeploymentOverTCP runs the full system over real TCP loopback:
// the same integration as the in-memory tests, through actual sockets.
func TestDeploymentOverTCP(t *testing.T) {
	ex, err := logmodel.NewPaperExample()
	if err != nil {
		t.Fatal(err)
	}
	addrs := map[string]string{
		"P0": "127.0.0.1:0", "P1": "127.0.0.1:0",
		"P2": "127.0.0.1:0", "P3": "127.0.0.1:0",
		"u0": "127.0.0.1:0", "aud": "127.0.0.1:0",
	}
	net := transport.NewTCPNetwork(addrs)
	d, err := Deploy(Options{Partition: ex.Partition, Network: net})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close() //nolint:errcheck

	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()

	user := connect(t, d, "u0", "T1")
	// A batch first, so every peer's first frames carry store-batch,
	// glsn-range, agreement and ack bodies. The records have no C1 and
	// no "U1" id, so the query and sum below see only the paper rows.
	batch := make([]map[logmodel.Attr]logmodel.Value, 16)
	for i := range batch {
		batch[i] = map[logmodel.Attr]logmodel.Value{
			"time":    logmodel.String(fmt.Sprintf("00:00:%02d/01/01/2003", i)),
			"id":      logmodel.String(fmt.Sprintf("B%d", i)),
			"protocl": logmodel.String("TCP"),
			"Tid":     logmodel.String("TB"),
			"C2":      logmodel.Float(float64(i) + 0.5),
		}
	}
	batchGLSNs, err := user.LogBatch(ctx, batch)
	if err != nil {
		t.Fatalf("log batch over TCP: %v", err)
	}
	for i, g := range batchGLSNs {
		rec, err := user.Read(ctx, g)
		if err != nil {
			t.Fatalf("read batch record %d over TCP: %v", i, err)
		}
		for a, v := range batch[i] {
			if !rec.Values[a].Equal(v) {
				t.Fatalf("batch record %d: %s = %v, want %v", i, a, rec.Values[a], v)
			}
		}
	}
	var glsns []logmodel.GLSN
	for _, rec := range ex.Records {
		g, err := user.Log(ctx, rec.Values)
		if err != nil {
			t.Fatalf("log over TCP: %v", err)
		}
		glsns = append(glsns, g)
	}
	rec, err := user.Read(ctx, glsns[0])
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Values) != len(ex.Records[0].Values) {
		t.Fatalf("read back %d attrs", len(rec.Values))
	}

	auditor := connect(t, d, "aud", "TA", ticket.OpRead).Auditor()
	got, err := auditor.Query(ctx, `protocl = "UDP" AND id = "U1"`)
	if err != nil {
		t.Fatalf("query over TCP: %v", err)
	}
	if len(got) != 2 {
		t.Fatalf("query = %v", got)
	}
	sum, err := auditor.Aggregate(ctx, "*", audit.AggSum, "C1")
	if err != nil {
		t.Fatal(err)
	}
	if sum != 170 {
		t.Fatalf("sum = %v", sum)
	}
	rep, err := d.CheckIntegrity(ctx, "P0")
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean() {
		t.Fatalf("integrity over TCP: %+v", rep)
	}
}
