package smc_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"confaudit/internal/crypto/commutative"
	"confaudit/internal/mathx"
	"confaudit/internal/smc"
	"confaudit/internal/smc/intersect"
	"confaudit/internal/smc/smctest"
	"confaudit/internal/smc/union"
	"confaudit/internal/telemetry"
	"confaudit/internal/transport"
)

func relayChunks() int64 {
	return telemetry.M.Snapshot().Histograms[telemetry.HistRelayChunk].Count
}

// TestCirculate runs the bare ring pass on rings of 2-4 parties with
// sets on both sides of the 64-block chunk boundary: every party gets
// back exactly its own blocks encrypted under every party's key, and
// every chunk of every origin is observed once per hop.
func TestCirculate(t *testing.T) {
	g := mathx.Oakley768
	for _, n := range []int{2, 3, 4} {
		for _, size := range []int{0, 1, 64, 65, 130} {
			t.Run(fmt.Sprintf("ring%d/set%d", n, size), func(t *testing.T) {
				ring := make([]string, n)
				keys := make(map[string]*commutative.PHKey, n)
				sets := make(map[string][][]byte, n)
				for i := range ring {
					id := fmt.Sprintf("P%d", i)
					key, err := commutative.NewSessionKey(g)
					if err != nil {
						t.Fatal(err)
					}
					ring[i], keys[id] = id, key
					for j := 0; j < size; j++ {
						sets[id] = append(sets[id], key.EncodeElement([]byte(fmt.Sprintf("%s-%d", id, j))))
					}
				}
				ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
				defer cancel()
				before := relayChunks()
				got, err := smctest.RunParties(ctx, ring, func(ctx context.Context, id string, mb *transport.Mailbox) ([][]byte, error) {
					return smc.Circulate(ctx, mb, "test.relay", "circulate", ring, keys[id], sets[id])
				})
				if err != nil {
					t.Fatal(err)
				}
				chunks := max(1, (size+63)/64)
				if d := relayChunks() - before; d != int64(n*n*chunks) {
					t.Errorf("smc.relay_chunk observed %d times, want %d (%d hops x %d origins x %d chunks)", d, n*n*chunks, n, n, chunks)
				}
				for _, id := range ring {
					want := sets[id]
					for _, k := range ring {
						if want, err = keys[k].EncryptBlocks(want); err != nil {
							t.Fatal(err)
						}
					}
					if len(got[id]) != len(want) {
						t.Fatalf("%s: got %d blocks back, want %d", id, len(got[id]), len(want))
					}
					for j := range want {
						if !bytes.Equal(got[id][j], want[j]) {
							t.Fatalf("%s: block %d is not its plaintext under all %d keys", id, j, n)
						}
					}
				}
			})
		}
	}
}

// ringProtocol is one protocol whose ring pass runs through Circulate,
// played by an honest P1 in the ring [P1, M] against a scripted M.
type ringProtocol struct {
	name, relay string
	// run is P1's role with the set {"honest"}; it returns P1's result.
	run func(ctx context.Context, mb *transport.Mailbox) ([][]byte, error)
	// finish is what M sends after the ring pass so that P1 could
	// complete the protocol had it accepted M's chunks.
	finish func(ctx context.Context, mb *transport.Mailbox) error
}

const hostileSession = "hostile"

var hostileRing = []string{"P1", "M"}

var ringProtocols = []ringProtocol{
	{
		name:  "intersect",
		relay: "intersect.relay",
		run: func(ctx context.Context, mb *transport.Mailbox) ([][]byte, error) {
			cfg := intersect.Config{Group: mathx.Oakley768, Ring: hostileRing, Receivers: hostileRing[:1], Session: hostileSession}
			res, err := intersect.Run(ctx, mb, cfg, [][]byte{[]byte("honest")})
			if err != nil {
				return nil, err
			}
			return res.Plaintext, nil
		},
		finish: func(ctx context.Context, mb *transport.Mailbox) error {
			final, err := smc.NewRelayWire("M", 0, nil, 0, 1)
			if err != nil {
				return err
			}
			return mb.SendBody(ctx, "P1", "intersect.final", hostileSession, &final)
		},
	},
	{
		name:  "union",
		relay: "union.relay",
		run: func(ctx context.Context, mb *transport.Mailbox) ([][]byte, error) {
			cfg := union.Config{Group: mathx.Oakley768, Ring: hostileRing, Receivers: hostileRing[:1], Session: hostileSession}
			return union.Run(ctx, mb, cfg, [][]byte{[]byte("honest")})
		},
		finish: func(ctx context.Context, mb *transport.Mailbox) error {
			collect, err := smc.NewRelayWire("", 0, nil, 0, 1)
			if err != nil {
				return err
			}
			if err := mb.SendBody(ctx, "P1", "union.collect", hostileSession, &collect); err != nil {
				return err
			}
			msg, err := mb.Expect(ctx, "union.decrypt", hostileSession)
			if err != nil {
				return err
			}
			var body smc.RelayWire
			if err := transport.Unmarshal(msg.Payload, &body); err != nil {
				return err
			}
			body.Hops++
			return mb.SendBody(ctx, "P1", "union.decrypt", hostileSession, &body)
		},
	},
}

// mailboxes attaches one mailbox per id to a fresh in-memory network.
func mailboxes(t *testing.T, ids ...string) map[string]*transport.Mailbox {
	t.Helper()
	net := transport.NewMemNetwork()
	t.Cleanup(func() { net.Close() }) //nolint:errcheck
	mbs := make(map[string]*transport.Mailbox, len(ids))
	for _, id := range ids {
		ep, err := net.Endpoint(id)
		if err != nil {
			t.Fatal(err)
		}
		mbs[id] = transport.NewMailbox(ep)
		t.Cleanup(func() { mbs[id].Close() }) //nolint:errcheck
	}
	return mbs
}

// sendChunk sends a complete one-chunk set claiming origin after one
// encryption.
func sendChunk(ctx context.Context, mb *transport.Mailbox, to, typ, origin string) error {
	block := make([]byte, (mathx.Oakley768.P.BitLen()+7)/8)
	block[len(block)-1] = 4
	body, err := smc.NewRelayWire(origin, 1, [][]byte{block}, 0, 1)
	if err != nil {
		return err
	}
	return mb.SendBody(ctx, to, typ, hostileSession, &body)
}

// TestForeignOriginRejected feeds an honest P1 relay chunks it must
// refuse, for both protocols that share the ring pass: complete sets
// under made-up origins from its ring predecessor (which would end the
// ring pass without P1's own set), and a set claiming a ring member's
// origin from a mailbox outside the ring (which P1 would re-encrypt and
// forward as that member's set).
func TestForeignOriginRejected(t *testing.T) {
	for _, p := range ringProtocols {
		t.Run(p.name+"/made-up origins", func(t *testing.T) {
			mbs := mailboxes(t, "P1", "M")
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			mctx, stopM := context.WithCancel(ctx)
			done := make(chan struct{})
			go func() {
				defer close(done)
				for _, origin := range []string{"X1", "X2"} {
					if err := sendChunk(mctx, mbs["M"], "P1", p.relay, origin); err != nil {
						return
					}
				}
				p.finish(mctx, mbs["M"]) //nolint:errcheck // cut short once P1 has answered
			}()
			res, err := p.run(ctx, mbs["P1"])
			stopM()
			<-done
			if !errors.Is(err, smc.ErrProtocol) {
				t.Fatalf("P1 returned %q, %v; want ErrProtocol", res, err)
			}
		})
		t.Run(p.name+"/non-member sender", func(t *testing.T) {
			mbs := mailboxes(t, "P1", "M", "X")
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			if err := sendChunk(ctx, mbs["X"], "P1", p.relay, "M"); err != nil {
				t.Fatal(err)
			}
			mctx, stopM := context.WithCancel(ctx)
			// M records the origin of every relay chunk P1 sends it.
			seen := make(chan []string, 1)
			go func() {
				var origins []string
				for {
					msg, err := mbs["M"].Expect(mctx, p.relay, hostileSession)
					if err != nil {
						seen <- origins
						return
					}
					var body smc.RelayWire
					if transport.Unmarshal(msg.Payload, &body) == nil {
						origins = append(origins, body.Origin)
					}
				}
			}()
			_, err := p.run(ctx, mbs["P1"])
			stopM()
			for _, origin := range <-seen {
				if origin == "M" {
					t.Error("P1 forwarded a non-member's chunk to M as M's own set")
				}
			}
			if !errors.Is(err, smc.ErrProtocol) {
				t.Fatalf("P1 returned %v; want ErrProtocol", err)
			}
		})
	}
}
