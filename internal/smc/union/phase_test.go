package union

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"confaudit/internal/crypto/commutative"
	"confaudit/internal/mathx"
	"confaudit/internal/smc"
	"confaudit/internal/smc/smctest"
	"confaudit/internal/transport"
)

// TestUnionDecryptPhase taps every union.decrypt message of a Figure 4
// run. The collector P1 holds c, d, e, so only f and g go round the
// ring: three hops of two blocks each. No non-collector ever forwards
// an element's plaintext embedding, because the collector strips the
// last layer. No decrypt block equals a ring-pass ciphertext either:
// every member holds fully encrypted sets from the ring pass (its own
// and its successor's), and the collector blinds the batch so they
// cannot be matched against it.
func TestUnionDecryptPhase(t *testing.T) {
	type sent struct {
		from   string
		blocks [][]byte
	}
	var (
		mu     sync.Mutex
		tapped []sent
		relay  = make(map[string]bool) // every union.relay block
		finals int                     // relay blocks sent back to their origin
	)
	tap := func(m transport.Message) bool {
		if m.Type != msgDecrypt && m.Type != msgRelay {
			return false
		}
		var body smc.RelayWire
		if err := transport.Unmarshal(m.Payload, &body); err != nil {
			t.Errorf("tapped %s: %v", m.Type, err)
			return false
		}
		bs, err := body.Unpack()
		if err != nil {
			t.Errorf("tapped %s: %v", m.Type, err)
			return false
		}
		mu.Lock()
		defer mu.Unlock()
		if m.Type == msgDecrypt {
			tapped = append(tapped, sent{from: m.From, blocks: bs})
			return false
		}
		for _, b := range bs {
			relay[string(b)] = true
		}
		if m.To == body.Origin {
			finals += len(bs)
		}
		return false
	}

	cfg := Config{
		Group:     mathx.Oakley768,
		Ring:      []string{"P1", "P2", "P3"},
		Receivers: []string{"P1", "P2", "P3"},
		Session:   "decrypt-phase",
	}
	sets := map[string][][]byte{
		"P1": {[]byte("c"), []byte("d"), []byte("e")},
		"P2": {[]byte("d"), []byte("e"), []byte("f")},
		"P3": {[]byte("e"), []byte("f"), []byte("g")},
	}
	want := []string{"c", "d", "e", "f", "g"}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	results, err := smctest.RunParties(ctx, cfg.Ring, func(ctx context.Context, id string, mb *transport.Mailbox) ([][]byte, error) {
		return Run(ctx, mb, cfg, sets[id])
	}, func(n *transport.MemNetwork) { n.SetDropFn(tap) })
	if err != nil {
		t.Fatal(err)
	}
	for node, res := range results {
		if fmt.Sprint(asStrings(res)) != fmt.Sprint(want) {
			t.Fatalf("%s union = %v, want %v", node, asStrings(res), want)
		}
	}

	embedded := make([][]byte, len(want))
	for i, el := range want {
		if embedded[i], err = EmbedElement(cfg.Group, []byte(el)); err != nil {
			t.Fatal(err)
		}
	}
	// Each of the three sets returns to its origin fully encrypted.
	if finals != 9 {
		t.Fatalf("tapped %d fully encrypted relay blocks, want 9", finals)
	}
	total := 0
	for _, s := range tapped {
		total += len(s.blocks)
		for _, b := range s.blocks {
			if relay[string(b)] {
				t.Errorf("%s sent a decrypt block equal to a ring-pass ciphertext", s.from)
			}
		}
		if s.from == cfg.Ring[0] {
			continue
		}
		for _, b := range s.blocks {
			for i, e := range embedded {
				if bytes.Equal(b, e) {
					t.Errorf("non-collector %s forwarded the plaintext embedding of %q", s.from, want[i])
				}
			}
		}
	}
	// n × |∪ \ S_P1| = 3 × |{f, g}|.
	if total != 6 {
		t.Errorf("decrypt phase carried %d blocks in %d messages, want 6 (3 hops x 2 foreign elements)", total, len(tapped))
	}
}

// TestUnionRefusesForgedPhaseMessages plays one honest party against
// ring members that run the ring pass honestly and then forge a phase
// message; the honest party must refuse it with ErrProtocol.
func TestUnionRefusesForgedPhaseMessages(t *testing.T) {
	const session = "forged-phase"
	empty := func(ctx context.Context, mb *transport.Mailbox, to, typ string) error {
		return sendBatch(ctx, mb, to, typ, session, 0, nil)
	}
	cases := []struct {
		name      string
		ring      []string
		receivers []string
		// victim is the honest party; every other ring member only
		// runs the ring pass, and X is outside the ring.
		victim string
		forge  func(ctx context.Context, mbs map[string]*transport.Mailbox) error
	}{
		{
			name:      "duplicate collect",
			ring:      []string{"P1", "M", "P3"},
			receivers: []string{"P1"},
			victim:    "P1",
			forge: func(ctx context.Context, mbs map[string]*transport.Mailbox) error {
				for range 2 {
					if err := empty(ctx, mbs["M"], "P1", msgCollect); err != nil {
						return err
					}
				}
				return nil
			},
		},
		{
			name:      "non-member collect",
			ring:      []string{"P1", "M", "P3"},
			receivers: []string{"P1"},
			victim:    "P1",
			forge: func(ctx context.Context, mbs map[string]*transport.Mailbox) error {
				return empty(ctx, mbs["X"], "P1", msgCollect)
			},
		},
		{
			name:      "decrypt from non-predecessor",
			ring:      []string{"P1", "P2", "M"},
			receivers: []string{"P1"},
			victim:    "P2",
			forge: func(ctx context.Context, mbs map[string]*transport.Mailbox) error {
				return empty(ctx, mbs["M"], "P2", msgDecrypt)
			},
		},
		{
			name:      "result from non-member",
			ring:      []string{"P1", "P2"},
			receivers: []string{"P1", "P2"},
			victim:    "P2",
			forge: func(ctx context.Context, mbs map[string]*transport.Mailbox) error {
				if err := empty(ctx, mbs["P1"], "P2", msgDecrypt); err != nil {
					return err
				}
				forged, err := EmbedElement(mathx.Oakley768, []byte("forged"))
				if err != nil {
					return err
				}
				return sendBatch(ctx, mbs["X"], "P2", msgResult, session, 0, [][]byte{forged})
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			net := transport.NewMemNetwork()
			defer net.Close() //nolint:errcheck
			mbs := make(map[string]*transport.Mailbox)
			for _, id := range append([]string{"X"}, tc.ring...) {
				ep, err := net.Endpoint(id)
				if err != nil {
					t.Fatal(err)
				}
				mbs[id] = transport.NewMailbox(ep)
				defer mbs[id].Close() //nolint:errcheck
			}

			var wg sync.WaitGroup
			for _, id := range tc.ring {
				if id == tc.victim {
					continue
				}
				wg.Add(1)
				go func(id string) {
					defer wg.Done()
					key, err := commutative.NewSessionKey(mathx.Oakley768)
					if err == nil {
						_, err = smc.Circulate(ctx, mbs[id], msgRelay, session, tc.ring, key, nil)
					}
					if err != nil {
						t.Errorf("%s ring pass: %v", id, err)
					}
				}(id)
			}
			forged := make(chan error, 1)
			go func() {
				wg.Wait()
				forged <- tc.forge(ctx, mbs)
			}()

			cfg := Config{Group: mathx.Oakley768, Ring: tc.ring, Receivers: tc.receivers, Session: session}
			res, err := Run(ctx, mbs[tc.victim], cfg, [][]byte{[]byte("a")})
			if ferr := <-forged; ferr != nil {
				t.Fatalf("forging: %v", ferr)
			}
			if !errors.Is(err, smc.ErrProtocol) {
				t.Fatalf("%s returned %q, %v; want ErrProtocol", tc.victim, asStrings(res), err)
			}
		})
	}
}
