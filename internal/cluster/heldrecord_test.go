package cluster

import (
	"math/big"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"confaudit/internal/logmodel"
	"confaudit/internal/ticket"
)

// TestMaterializeRacesOverwriteAndDelete runs Digest and Witness on one
// glsn from several goroutines while the writer overwrites it version by
// version and then deletes it. Once an overwrite is acked, every answer
// must be the new content's digest or witness (or a later version's,
// since the next overwrite may already be landing), never an element
// cached for older content. Once the delete is acked, none may be
// returned. Run under -race it also checks the lock discipline of the
// shared materialize helper.
func TestMaterializeRacesOverwriteAndDelete(t *testing.T) {
	tc := startCluster(t)
	ctx := testCtx(t)
	c := tc.client(t, "mat-u", "TMAT", ticket.OpWrite, ticket.OpRead, ticket.OpDelete)
	if err := c.RegisterTicket(ctx); err != nil {
		t.Fatal(err)
	}
	g, err := c.RequestGLSNRange(ctx, 1)
	if err != nil {
		t.Fatal(err)
	}

	const versions = 8
	nodes := c.part.Nodes()
	// want[v].digest is version v's record digest; want[v].witness[i] is
	// nodes[i]'s witness in it, both by the accumulator's definition.
	type expected struct {
		digest  *big.Int
		witness []*big.Int
	}
	want := make([]expected, versions)
	for v := range want {
		items := recordItems(c, logmodel.Record{GLSN: g, Values: appendRecord(v)})
		want[v].digest = c.acc.AccumulateAll(items)
		for i := range nodes {
			w, err := c.acc.Witness(items, i)
			if err != nil {
				t.Fatal(err)
			}
			want[v].witness = append(want[v].witness, w)
		}
	}
	// matches reports the first version >= from whose element equals got.
	matches := func(from int, got *big.Int, elem func(int) *big.Int) bool {
		for v := from; v < versions; v++ {
			if elem(v).Cmp(got) == 0 {
				return true
			}
		}
		return false
	}

	// acked is the last version every node has acked; versions marks the
	// delete as acked. deleting is set before the delete is sent, so a
	// reader that finds the glsn gone before that ack can tell why.
	var acked atomic.Int64
	var deleting atomic.Bool
	acked.Store(-1)
	store := func(v int) {
		t.Helper()
		if _, err := c.storeRange(ctx, g, []map[logmodel.Attr]logmodel.Value{appendRecord(v)}, AppendOptions{}.withDefaults()); err != nil {
			t.Fatalf("version %d: %v", v, err)
		}
		acked.Store(int64(v))
	}
	store(0)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	var answers atomic.Int64
	for r := 0; r < 4; r++ {
		for i, id := range nodes {
			wg.Add(1)
			go func(r, i int, node *Node) {
				defer wg.Done()
				for {
					select {
					case <-stop:
						return
					default:
					}
					from := int(acked.Load())
					var got *big.Int
					var ok bool
					var elem func(int) *big.Int
					if r%2 == 0 {
						got, ok = node.Digest(g)
						elem = func(v int) *big.Int { return want[v].digest }
					} else {
						got, ok = node.Witness(g)
						elem = func(v int) *big.Int { return want[v].witness[i] }
					}
					answers.Add(1)
					switch {
					case from == versions && ok:
						t.Errorf("%s: answered for %s after its delete was acked", node.id, g)
						return
					case from < versions && !ok && !deleting.Load():
						t.Errorf("%s: no answer for %s at acked version %d", node.id, g, from)
						return
					case ok && !matches(from, got, elem):
						t.Errorf("%s: answer for %s matches no version >= acked %d", node.id, g, from)
						return
					}
				}
			}(r, i, tc.nodes[id])
		}
	}

	defer func() {
		close(stop)
		wg.Wait()
	}()
	// Let the readers answer a while under each acked state (bounded, in
	// case they all stopped on an error).
	settle := func() {
		deadline := time.Now().Add(5 * time.Second)
		for base := answers.Load(); answers.Load() < base+200 && time.Now().Before(deadline); {
			time.Sleep(time.Millisecond)
		}
	}
	settle()
	for v := 1; v < versions; v++ {
		store(v)
		settle()
	}
	deleting.Store(true)
	if err := c.Delete(ctx, g); err != nil {
		t.Fatal(err)
	}
	acked.Store(versions)
	settle()
}
