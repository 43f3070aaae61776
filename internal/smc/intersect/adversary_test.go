package intersect

import (
	"context"
	"sync"
	"testing"
	"time"

	"confaudit/internal/mathx"
	"confaudit/internal/smc"
	"confaudit/internal/transport"
)

// TestForgedFinalRejected has a malicious non-member publish a final
// set, claiming either a ring member's origin or its own; the receiver
// must reject it instead of folding forged data into the intersection
// (or counting a non-member's set in place of a member's).
func TestForgedFinalRejected(t *testing.T) {
	for _, origin := range []string{"P2", "M"} {
		t.Run("origin "+origin, func(t *testing.T) {
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			net := transport.NewMemNetwork()
			defer net.Close() //nolint:errcheck

			cfg := Config{
				Group:     mathx.Oakley768,
				Ring:      []string{"P1", "P2"},
				Receivers: []string{"P1"},
				Session:   "forge",
			}
			mbs := make(map[string]*transport.Mailbox)
			for _, id := range []string{"P1", "P2", "M"} {
				ep, err := net.Endpoint(id)
				if err != nil {
					t.Fatal(err)
				}
				mbs[id] = transport.NewMailbox(ep)
				defer mbs[id].Close() //nolint:errcheck
			}

			// Mallory's forged "final" set is queued at P1 before either
			// party starts, so P1 always reads it ahead of P2's genuine
			// one and must refuse it.
			forged, err := smc.NewRelayWire(origin, 0, [][]byte{[]byte("forged-block")}, 0, 1)
			if err != nil {
				t.Fatal(err)
			}
			if err := mbs["M"].SendBody(ctx, "P1", "intersect.final", "forge", &forged); err != nil {
				t.Fatal(err)
			}
			var (
				wg    sync.WaitGroup
				p1Err error
			)
			wg.Add(2)
			go func() {
				defer wg.Done()
				_, p1Err = Run(ctx, mbs["P1"], cfg, [][]byte{[]byte("a")})
			}()
			go func() {
				defer wg.Done()
				if _, err := Run(ctx, mbs["P2"], cfg, [][]byte{[]byte("a")}); err != nil {
					t.Errorf("P2: %v", err)
				}
			}()
			wg.Wait()
			if p1Err == nil {
				t.Fatalf("receiver accepted a final set from M claiming origin %s", origin)
			}
		})
	}
}

// TestWrongHopCountRejected delivers a relay that claims to have been
// fully encrypted after too few hops; the origin must reject it.
func TestWrongHopCountRejected(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	net := transport.NewMemNetwork()
	defer net.Close() //nolint:errcheck
	mbs := make(map[string]*transport.Mailbox)
	for _, id := range []string{"P1", "M"} {
		ep, err := net.Endpoint(id)
		if err != nil {
			t.Fatal(err)
		}
		mbs[id] = transport.NewMailbox(ep)
		defer mbs[id].Close() //nolint:errcheck
	}
	cfg := Config{
		Group:     mathx.Oakley768,
		Ring:      []string{"P1", "M"},
		Receivers: []string{"P1"},
		Session:   "hops",
	}
	errc := make(chan error, 1)
	go func() {
		_, err := Run(ctx, mbs["P1"], cfg, [][]byte{[]byte("x")})
		errc <- err
	}()
	// Mallory (the ring peer) "returns" P1's set claiming only 1 hop.
	msg, err := mbs["M"].Expect(ctx, "intersect.relay", "hops")
	if err != nil {
		t.Fatal(err)
	}
	var body smc.RelayWire
	if err := transport.Unmarshal(msg.Payload, &body); err != nil {
		t.Fatal(err)
	}
	// Hops not incremented: claims full circle too early.
	if err := mbs["M"].SendBody(ctx, "P1", "intersect.relay", "hops", &body); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-errc:
		if err == nil {
			t.Fatal("origin accepted an under-encrypted returning set")
		}
	case <-time.After(8 * time.Second):
		t.Fatal("origin never decided")
	}
}
