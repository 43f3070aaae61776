package integrity

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"confaudit/internal/logmodel"
	"confaudit/internal/transport"
)

// remoteRig extends the base rig with ServeRequests loops and a client.
func newRemoteRig(t *testing.T) (*rig, *transport.Mailbox) {
	t.Helper()
	r := newRig(t, 4)
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	for _, id := range r.ring {
		store := r.stores[id]
		mb := r.mbs[id]
		list := func() []logmodel.GLSN {
			store.mu.RLock()
			defer store.mu.RUnlock()
			out := make([]logmodel.GLSN, 0, len(store.frags))
			for g := range store.frags {
				out = append(out, g)
			}
			return out
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			ServeRequests(ctx, mb, r.ring, r.params, store, list) //nolint:errcheck
		}()
	}
	t.Cleanup(func() { cancel(); wg.Wait() })

	// Client mailbox on the same network as the rig nodes: attach via a
	// fresh endpoint. The rig's network is private, so reuse P0's net by
	// dialing through the existing transport: newRig owns the network,
	// so we add the client inside it.
	client := r.clientMailbox(t)
	return r, client
}

func TestRemoteCheckClean(t *testing.T) {
	ex, err := logmodel.NewPaperExample()
	if err != nil {
		t.Fatal(err)
	}
	r, client := newRemoteRig(t)
	ctx := testCtx(t)
	for _, rec := range ex.Records {
		r.logRecord(t, ex, rec)
	}
	rep, err := RequestCheck(ctx, client, r.ring[0], "rc-1", nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Checked != 5 || !rep.Clean() {
		t.Fatalf("report %+v", rep)
	}
}

func TestRemoteCheckFindsCorruption(t *testing.T) {
	ex, err := logmodel.NewPaperExample()
	if err != nil {
		t.Fatal(err)
	}
	r, client := newRemoteRig(t)
	ctx := testCtx(t)
	for _, rec := range ex.Records {
		r.logRecord(t, ex, rec)
	}
	s := r.stores["P1"]
	s.mu.Lock()
	frag := s.frags[ex.Records[2].GLSN]
	frag.Values["id"] = logmodel.String("FORGED")
	s.frags[ex.Records[2].GLSN] = frag
	s.mu.Unlock()

	rep, err := RequestCheck(ctx, client, r.ring[0], "rc-2", nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Clean() || len(rep.Corrupted) != 1 || rep.Corrupted[0] != ex.Records[2].GLSN {
		t.Fatalf("report %+v", rep)
	}
}

func TestRemoteCheckSubset(t *testing.T) {
	ex, err := logmodel.NewPaperExample()
	if err != nil {
		t.Fatal(err)
	}
	r, client := newRemoteRig(t)
	ctx := testCtx(t)
	for _, rec := range ex.Records {
		r.logRecord(t, ex, rec)
	}
	rep, err := RequestCheck(ctx, client, r.ring[0], "rc-3", []logmodel.GLSN{ex.Records[0].GLSN, ex.Records[1].GLSN})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Checked != 2 {
		t.Fatalf("checked %d, want 2", rep.Checked)
	}
}

// checkGoroutines counts the goroutines running a sweep or one of its
// circulations, and returns their stacks.
func checkGoroutines() (int, string) {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	var n int
	var out bytes.Buffer
	for _, g := range bytes.Split(buf, []byte("\n\n")) {
		if bytes.Contains(g, []byte("integrity.Check")) {
			n++
			out.Write(g)
			out.WriteString("\n\n")
		}
	}
	return n, out.String()
}

// TestRemoteCheckStopsWithRequester sends a sweep request with a 300 ms
// deadline while P2 is down, so no circulation can complete. The
// serving node must stop the sweep when its requester stops waiting,
// although its own serving context is still live.
func TestRemoteCheckStopsWithRequester(t *testing.T) {
	ex, err := logmodel.NewPaperExample()
	if err != nil {
		t.Fatal(err)
	}
	r, client := newRemoteRig(t)
	for _, rec := range ex.Records {
		r.logRecord(t, ex, rec)
	}
	r.mbs["P2"].Close() //nolint:errcheck
	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
	defer cancel()
	// The report may beat the requester's deadline; it then files every
	// record under Errors, as a dead peer, never as corrupted.
	if rep, err := RequestCheck(ctx, client, r.ring[0], "rc-dead", nil); err == nil && (len(rep.Corrupted) > 0 || len(rep.Errors) != len(ex.Records)) {
		t.Fatalf("check with P2 down reported %+v", rep)
	}
	for stop := time.Now().Add(time.Second); ; time.Sleep(10 * time.Millisecond) {
		n, stacks := checkGoroutines()
		if n == 0 {
			break
		}
		if time.Now().After(stop) {
			t.Fatalf("%d check goroutines still running 1 s after the requester's deadline:\n%s", n, stacks)
		}
	}
}

// TestRemoteCheckReportBeatsDeadline sends sweep requests with a 300 ms
// deadline while P2 is down, so no circulation can complete. The node
// must stop the sweep early enough for its report to reach the
// requester in time: every request gets a report, with every record
// under Errors, as a dead peer, and none under Corrupted.
func TestRemoteCheckReportBeatsDeadline(t *testing.T) {
	ex, err := logmodel.NewPaperExample()
	if err != nil {
		t.Fatal(err)
	}
	r, client := newRemoteRig(t)
	for _, rec := range ex.Records {
		r.logRecord(t, ex, rec)
	}
	r.mbs["P2"].Close() //nolint:errcheck
	for i := range 10 {
		ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
		rep, err := RequestCheck(ctx, client, r.ring[0], fmt.Sprintf("rc-deadline-%d", i), nil)
		cancel()
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		if len(rep.Corrupted) > 0 || len(rep.Errors) != len(ex.Records) {
			t.Fatalf("request %d: check with P2 down reported %+v", i, rep)
		}
	}
}
