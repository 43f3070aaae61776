package resilience

import (
	"context"
	"os"
	"path/filepath"
	"testing"
	"time"

	"confaudit/internal/transport"
)

func testCtx(t *testing.T) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	t.Cleanup(cancel)
	return ctx
}

// --- detector ---

func fastDetectorConfig() DetectorConfig {
	return DetectorConfig{
		Interval:     10 * time.Millisecond,
		SuspectAfter: 40 * time.Millisecond,
		DeadAfter:    80 * time.Millisecond,
	}
}

func TestDetectorMarksCrashedPeerDeadAndRecovered(t *testing.T) {
	ctx, cancel := context.WithCancel(testCtx(t))
	var waiters []func()
	defer func() {
		cancel()
		for _, w := range waiters {
			w()
		}
	}()
	net := transport.NewMemNetwork()
	epA, err := net.Endpoint("A")
	if err != nil {
		t.Fatal(err)
	}
	mbA := transport.NewMailbox(epA)
	defer mbA.Close() //nolint:errcheck
	epB, err := net.Endpoint("B")
	if err != nil {
		t.Fatal(err)
	}
	mbB := transport.NewMailbox(epB)

	detA := NewDetector(mbA, []string{"A", "B"}, fastDetectorConfig())
	// The detector drops only what a full subscriber buffer cannot take,
	// and this one has far more slots than one run publishes, so
	// alive↔suspect flapping under load never crowds out the transitions
	// asserted on. The assertions are on published transitions, never on
	// the computed Status, which can read dead before pingLoop has
	// published it.
	trs := detA.Subscribe(1024)
	detA.Start(ctx)
	waiters = append(waiters, detA.Wait)
	detB := NewDetector(mbB, []string{"A", "B"}, fastDetectorConfig())
	bCtx, bCancel := context.WithCancel(ctx)
	detB.Start(bCtx)

	awaitTransition := func(want Status, desc string) {
		t.Helper()
		for {
			select {
			case tr := <-trs:
				if tr.Peer == "B" && tr.To == want {
					return
				}
			case <-ctx.Done():
				t.Fatalf("B never transitioned to %s (%s); view %v", want, desc, detA.View())
			}
		}
	}

	// Crash B, forgetting any flapping published while it was up.
	for len(trs) > 0 {
		<-trs
	}
	bCancel()
	detB.Wait()
	mbB.Close() //nolint:errcheck
	awaitTransition(StatusDead, "after crash")

	// Restart B only once its death has been published.
	epB2, err := net.Endpoint("B")
	if err != nil {
		t.Fatal(err)
	}
	mbB2 := transport.NewMailbox(epB2)
	defer mbB2.Close() //nolint:errcheck
	detB2 := NewDetector(mbB2, []string{"A"}, fastDetectorConfig())
	detB2.Start(ctx)
	waiters = append(waiters, detB2.Wait)
	awaitTransition(StatusAlive, "after restart")

	// Recovery is visible in the view too, allowing for a loaded box
	// where one ping round runs late.
	deadline := time.Now().Add(5 * time.Second)
	for len(detA.View().Dead()) != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("dead peers after recovery: %v", detA.View().Dead())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// --- outbox ---

func TestOutboxAppendLoadRemove(t *testing.T) {
	path := filepath.Join(t.TempDir(), "client.outbox")
	o, err := OpenOutbox(path)
	if err != nil {
		t.Fatal(err)
	}
	s1, err := o.Append(OutboxEntry{To: "P1", Type: "log.store", Payload: []byte(`{"a":1}`), Tag: "g1"})
	if err != nil {
		t.Fatal(err)
	}
	s2, err := o.Append(OutboxEntry{To: "P2", Type: "log.store", Payload: []byte(`{"a":2}`)})
	if err != nil {
		t.Fatal(err)
	}
	if s2 != s1+1 {
		t.Fatalf("sequence not monotonic: %d then %d", s1, s2)
	}
	if err := o.Close(); err != nil {
		t.Fatal(err)
	}

	// A new process sees both entries.
	o2, err := OpenOutbox(path)
	if err != nil {
		t.Fatal(err)
	}
	defer o2.Close() //nolint:errcheck
	if o2.Len() != 2 {
		t.Fatalf("loaded %d entries, want 2", o2.Len())
	}
	got := o2.For("P1")
	if len(got) != 1 || got[0].Tag != "g1" || string(got[0].Payload) != `{"a":1}` {
		t.Fatalf("P1 entries = %+v", got)
	}
	if p2 := o2.For("P2"); len(p2) != 1 || p2[0].Seq != s2 {
		t.Fatalf("P2 entries = %+v", p2)
	}
	if err := o2.Remove(got[0].Seq); err != nil {
		t.Fatal(err)
	}
	if o2.Len() != 1 {
		t.Fatalf("after remove: %d entries", o2.Len())
	}
	// New appends after a rewrite keep advancing the sequence.
	s3, err := o2.Append(OutboxEntry{To: "P3", Type: "log.store", Payload: []byte(`{}`)})
	if err != nil {
		t.Fatal(err)
	}
	if s3 <= s2 {
		t.Fatalf("sequence reused after rewrite: %d after %d", s3, s2)
	}
	// One Remove takes several entries out in one rewrite, and a new
	// process does not see them again.
	if err := o2.Remove(s2, s3); err != nil {
		t.Fatal(err)
	}
	if err := o2.Close(); err != nil {
		t.Fatal(err)
	}
	o3, err := OpenOutbox(path)
	if err != nil {
		t.Fatal(err)
	}
	defer o3.Close() //nolint:errcheck
	if o3.Len() != 0 {
		t.Fatalf("after removing %d and %d: %d entries reloaded", s2, s3, o3.Len())
	}
}

func TestOutboxToleratesTornFinalAppend(t *testing.T) {
	path := filepath.Join(t.TempDir(), "client.outbox")
	o, err := OpenOutbox(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := o.Append(OutboxEntry{To: "P1", Type: "t", Payload: []byte(`{"a":1}`)}); err != nil {
		t.Fatal(err)
	}
	if _, err := o.Append(OutboxEntry{To: "P2", Type: "t", Payload: []byte(`{"a":2}`)}); err != nil {
		t.Fatal(err)
	}
	if err := o.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Tear the final append at every byte offset of the last line.
	last := len(data) - 1 // index of trailing newline
	firstLineEnd := 0
	for i, b := range data {
		if b == '\n' {
			firstLineEnd = i + 1
			break
		}
	}
	for cut := firstLineEnd + 1; cut < last; cut++ {
		if err := os.WriteFile(path, data[:cut], 0o600); err != nil {
			t.Fatal(err)
		}
		o2, err := OpenOutbox(path)
		if err != nil {
			t.Fatalf("cut at %d: %v", cut, err)
		}
		if o2.Len() != 1 {
			t.Fatalf("cut at %d: loaded %d entries, want 1", cut, o2.Len())
		}
		o2.Close() //nolint:errcheck
	}
}
