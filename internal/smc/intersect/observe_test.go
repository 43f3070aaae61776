package intersect

import (
	"context"
	"testing"
	"time"

	"confaudit/internal/mathx"
	"confaudit/internal/smc/smctest"
	"confaudit/internal/transport"
)

// TestObserveCardinality checks the size-only variant: an observer that
// holds no raw data learns |S1 ∩ S2 ∩ S3| and nothing else.
func TestObserveCardinality(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	cfg := Config{
		Group:     mathx.Oakley768,
		Ring:      []string{"P1", "P2", "P3"},
		Receivers: []string{"P1"},
		Observers: []string{"O"},
		Session:   "obs",
	}
	sets := map[string][][]byte{
		"P1": {[]byte("c"), []byte("d"), []byte("e")},
		"P2": {[]byte("d"), []byte("e"), []byte("f")},
		"P3": {[]byte("e"), []byte("f"), []byte("g"), []byte("d")},
	}
	results, err := smctest.RunParties(ctx, []string{"P1", "P2", "P3", "O"}, func(ctx context.Context, id string, mb *transport.Mailbox) (int, error) {
		if id == "O" {
			return Observe(ctx, mb, cfg)
		}
		_, err := Run(ctx, mb, cfg, sets[id])
		return 0, err
	})
	if err != nil {
		t.Fatal(err)
	}
	// {d, e} is common to all three sets.
	if size := results["O"]; size != 2 {
		t.Fatalf("observed cardinality %d, want 2", size)
	}
}

func TestObserveRejectsNonObserver(t *testing.T) {
	net := transport.NewMemNetwork()
	defer net.Close() //nolint:errcheck
	ep, err := net.Endpoint("X")
	if err != nil {
		t.Fatal(err)
	}
	mb := transport.NewMailbox(ep)
	defer mb.Close() //nolint:errcheck
	cfg := Config{
		Group:     mathx.Oakley768,
		Ring:      []string{"P1", "P2"},
		Receivers: []string{"P1"},
		Observers: []string{"O"},
		Session:   "obs2",
	}
	if _, err := Observe(context.Background(), mb, cfg); err == nil {
		t.Fatal("non-observer accepted")
	}
}
