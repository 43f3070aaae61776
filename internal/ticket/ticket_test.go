package ticket

import (
	"bytes"
	"crypto/ed25519"
	"errors"
	"math/rand/v2"
	"slices"
	"sync"
	"testing"

	"confaudit/internal/logmodel"
)

func issuer(t testing.TB) *Issuer {
	t.Helper()
	iss, err := NewIssuer(nil)
	if err != nil {
		t.Fatal(err)
	}
	return iss
}

func table(t testing.TB, pub ed25519.PublicKey) *AccessTable {
	t.Helper()
	tbl, err := NewAccessTable(pub)
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}

func TestIssueAndVerify(t *testing.T) {
	iss := issuer(t)
	tk, err := iss.Issue("T1", "u0", OpWrite, OpRead)
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(iss.Public(), tk); err != nil {
		t.Fatalf("Verify: %v", err)
	}
	if tk.OpsString() != "W/R" {
		t.Fatalf("OpsString = %q, want W/R (Table 6 format)", tk.OpsString())
	}
	if !tk.Allows(OpRead) || !tk.Allows(OpWrite) || tk.Allows(OpDelete) {
		t.Fatal("Allows misreports the operation set")
	}
}

func TestIssueValidation(t *testing.T) {
	iss := issuer(t)
	if _, err := iss.Issue("", "u0", OpRead); err == nil {
		t.Fatal("empty ID accepted")
	}
	if _, err := iss.Issue("T1", "", OpRead); err == nil {
		t.Fatal("empty holder accepted")
	}
	if _, err := iss.Issue("T1", "u0"); err == nil {
		t.Fatal("no-op ticket accepted")
	}
}

func TestVerifyRejectsTampering(t *testing.T) {
	iss := issuer(t)
	tk, err := iss.Issue("T1", "u0", OpRead)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name   string
		mutate func(*Ticket)
	}{
		{"nil ticket", nil},
		{"changed ID", func(x *Ticket) { x.ID = "T9" }},
		{"changed holder", func(x *Ticket) { x.Holder = "attacker" }},
		{"escalated ops", func(x *Ticket) { x.Ops = append(x.Ops, OpDelete) }},
		{"mauled sig", func(x *Ticket) { x.Sig = append([]byte(nil), x.Sig...); x.Sig[0] ^= 1 }},
		{"short sig", func(x *Ticket) { x.Sig = x.Sig[:ed25519.SignatureSize-1] }},
		{"nil sig", func(x *Ticket) { x.Sig = nil }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if tc.mutate == nil {
				if err := Verify(iss.Public(), nil); !errors.Is(err, ErrForged) {
					t.Fatalf("err = %v, want ErrForged", err)
				}
				return
			}
			bad := *tk
			bad.Ops = append([]Op(nil), tk.Ops...)
			tc.mutate(&bad)
			if err := Verify(iss.Public(), &bad); !errors.Is(err, ErrForged) {
				t.Fatalf("err = %v, want ErrForged", err)
			}
		})
	}
}

func TestOpString(t *testing.T) {
	if OpRead.String() != "R" || OpWrite.String() != "W" || OpDelete.String() != "D" {
		t.Fatal("Op strings do not match Table 6 abbreviations")
	}
	if Op(0).String() != "?" {
		t.Fatal("zero Op should render as unknown")
	}
}

func TestAccessTableLifecycle(t *testing.T) {
	iss := issuer(t)
	tbl := table(t, iss.Public())
	tk, err := iss.Issue("T1", "u0", OpWrite, OpRead)
	if err != nil {
		t.Fatal(err)
	}
	if err := tbl.Register(tk); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Register(tk); !errors.Is(err, ErrDuplicateTicket) {
		t.Fatalf("duplicate register err = %v", err)
	}

	// Write is allowed before any grant (glsn is assigned during write).
	if err := tbl.Authorize("T1", OpWrite, 0); err != nil {
		t.Fatalf("write authorize: %v", err)
	}
	// Read requires a grant.
	if err := tbl.Authorize("T1", OpRead, 0x139aef78); !errors.Is(err, ErrNotAuthorized) {
		t.Fatalf("ungranted read err = %v", err)
	}
	if err := tbl.Grant("T1", 0x139aef78, 1); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Authorize("T1", OpRead, 0x139aef78); err != nil {
		t.Fatalf("granted read: %v", err)
	}
	// Delete not in the ticket's ops.
	if err := tbl.Authorize("T1", OpDelete, 0x139aef78); !errors.Is(err, ErrNotAuthorized) {
		t.Fatalf("delete err = %v", err)
	}
	// Unknown ticket.
	if err := tbl.Authorize("TX", OpRead, 1); !errors.Is(err, ErrUnknownTicket) {
		t.Fatalf("unknown ticket err = %v", err)
	}
	if err := tbl.Grant("TX", 1, 1); !errors.Is(err, ErrUnknownTicket) {
		t.Fatalf("grant unknown ticket err = %v", err)
	}
}

func TestAccessTableRejectsForgedTicket(t *testing.T) {
	iss := issuer(t)
	tbl := table(t, iss.Public())
	forged := &Ticket{ID: "T9", Holder: "mallory", Ops: []Op{OpRead, OpWrite, OpDelete}, Sig: make([]byte, ed25519.SignatureSize)}
	if err := tbl.Register(forged); !errors.Is(err, ErrForged) {
		t.Fatalf("err = %v, want ErrForged", err)
	}
}

func TestGlsnsSortedAndTable6(t *testing.T) {
	iss := issuer(t)
	tbl := table(t, iss.Public())
	ex, err := logmodel.NewPaperExample()
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"T1", "T2", "T3"} {
		tk, err := iss.Issue(id, "u-"+id, OpWrite, OpRead)
		if err != nil {
			t.Fatal(err)
		}
		if err := tbl.Register(tk); err != nil {
			t.Fatal(err)
		}
		for _, g := range ex.TicketGrants[id] {
			if err := tbl.Grant(id, g, 1); err != nil {
				t.Fatal(err)
			}
		}
	}
	got := tbl.Glsns("T1")
	if len(got) != 2 || got[0].String() != "139aef78" || got[1].String() != "139aef80" {
		t.Fatalf("T1 glsns = %v, want Table 6 row", got)
	}
	ids := tbl.TicketIDs()
	if len(ids) != 3 || ids[0] != "T1" || ids[2] != "T3" {
		t.Fatalf("TicketIDs = %v", ids)
	}
	if _, ok := tbl.Ticket("T2"); !ok {
		t.Fatal("Ticket(T2) missing")
	}
	if _, ok := tbl.Ticket("T9"); ok {
		t.Fatal("Ticket(T9) should be absent")
	}
}

func TestConsistencyElements(t *testing.T) {
	iss := issuer(t)
	mk := func() *AccessTable {
		tbl := table(t, iss.Public())
		tk, err := iss.Issue("T1", "u0", OpWrite)
		if err != nil {
			t.Fatal(err)
		}
		if err := tbl.Register(tk); err != nil {
			t.Fatal(err)
		}
		return tbl
	}
	a, b := mk(), mk()
	for _, g := range []logmodel.GLSN{5, 3, 9} {
		if err := a.Grant("T1", g, 1); err != nil {
			t.Fatal(err)
		}
		if err := b.Grant("T1", g, 1); err != nil {
			t.Fatal(err)
		}
	}
	ea, eb := a.ConsistencyElements(), b.ConsistencyElements()
	if len(ea) != 3 || len(eb) != 3 {
		t.Fatalf("element counts %d, %d", len(ea), len(eb))
	}
	for i := range ea {
		if string(ea[i]) != string(eb[i]) {
			t.Fatalf("consistent tables produced different elements: %s vs %s", ea[i], eb[i])
		}
	}
	// Diverge one table; elements must differ.
	if err := b.Grant("T1", 77, 1); err != nil {
		t.Fatal(err)
	}
	if len(b.ConsistencyElements()) == len(ea) {
		t.Fatal("diverged table produced same element count")
	}
}

func TestAccessTableConcurrency(t *testing.T) {
	iss := issuer(t)
	tbl := table(t, iss.Public())
	tk, err := iss.Issue("T1", "u0", OpWrite, OpRead)
	if err != nil {
		t.Fatal(err)
	}
	if err := tbl.Register(tk); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(base int) {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				g := logmodel.GLSN(base*1000 + j)
				if err := tbl.Grant("T1", g, 1); err != nil {
					t.Errorf("Grant: %v", err)
					return
				}
				if err := tbl.Authorize("T1", OpRead, g); err != nil {
					t.Errorf("Authorize: %v", err)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	if got := len(tbl.Glsns("T1")); got != 800 {
		t.Fatalf("granted %d glsns, want 800", got)
	}
}

// TestIssuerKeyLengths pins the hostile-key boundary: issuer material of
// the wrong length is refused with ErrBadKey wherever it enters, never a
// panic inside ed25519, and a seed round trip keeps the issuer's key.
func TestIssuerKeyLengths(t *testing.T) {
	iss := issuer(t)
	tk, err := iss.Issue("T1", "u0", OpRead)
	if err != nil {
		t.Fatal(err)
	}
	short := iss.Public()[:ed25519.PublicKeySize-1]
	if err := Verify(short, tk); !errors.Is(err, ErrBadKey) {
		t.Fatalf("Verify under a 31-byte key: err = %v, want ErrBadKey", err)
	}
	if _, err := NewAccessTable(short); !errors.Is(err, ErrBadKey) {
		t.Fatalf("NewAccessTable with a 31-byte key: err = %v, want ErrBadKey", err)
	}
	if _, err := NewIssuerFromSeed(iss.Seed()[1:]); !errors.Is(err, ErrBadKey) {
		t.Fatalf("NewIssuerFromSeed with a 31-byte seed: err = %v, want ErrBadKey", err)
	}
	back, err := NewIssuerFromSeed(iss.Seed())
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(back.Public(), tk); err != nil {
		t.Fatalf("ticket rejected under the restored issuer's key: %v", err)
	}
}

// TestGrantRangesAgainstModel drives the range-held grants with random
// grants, in and out of order, overlapping, touching, repeated and
// empty, over two tickets and glsns near 0 and near 2^62, and compares
// every reader with a map of granted glsns per ticket: HasGrant and
// Authorize on and around every range edge, Glsns, and
// ConsistencyElements. The ranges themselves must stay sorted,
// disjoint and apart.
func TestGrantRangesAgainstModel(t *testing.T) {
	iss := issuer(t)
	ids := []string{"T1", "T2"}
	for seed := uint64(1); seed <= 3; seed++ {
		rng := rand.New(rand.NewPCG(seed, 7))
		tbl := table(t, iss.Public())
		model := map[string]map[logmodel.GLSN]bool{}
		for _, id := range ids {
			tk, err := iss.Issue(id, "u-"+id, OpWrite, OpRead)
			if err != nil {
				t.Fatal(err)
			}
			if err := tbl.Register(tk); err != nil {
				t.Fatal(err)
			}
			model[id] = map[logmodel.GLSN]bool{}
		}
		var probes []logmodel.GLSN
		next := logmodel.GLSN(0)
		for op := 0; op < 600; op++ {
			id := ids[rng.IntN(len(ids))]
			first := next // the sequencer's ascending grants
			switch rng.IntN(3) {
			case 0:
				first = logmodel.GLSN(rng.IntN(400))
			case 1:
				first = 1<<62 + logmodel.GLSN(rng.IntN(400))
			}
			count := rng.IntN(12)
			if rng.IntN(20) == 0 {
				count = 100
			}
			next = first + logmodel.GLSN(count)
			if err := tbl.Grant(id, first, count); err != nil {
				t.Fatalf("seed %d: Grant(%s, %d, %d): %v", seed, id, first, count, err)
			}
			for g := first; g < next; g++ {
				model[id][g] = true
			}
			probes = append(probes, first-1, first, next-1, next)

			for _, id := range ids {
				rs := tbl.grants[id]
				for k := 1; k < len(rs); k++ {
					if rs[k-1].first >= rs[k-1].end || rs[k-1].end >= rs[k].first {
						t.Fatalf("seed %d op %d: %s ranges %v not sorted, disjoint and apart", seed, op, id, rs)
					}
				}
				check := probes[len(probes)-4:]
				if op%25 == 0 || op == 599 {
					check = probes
				}
				for _, g := range check {
					want := model[id][g]
					if got := tbl.HasGrant(id, g); got != want {
						t.Fatalf("seed %d op %d: HasGrant(%s, %d) = %v, want %v", seed, op, id, g, got, want)
					}
					if err := tbl.Authorize(id, OpRead, g); (err == nil) != want {
						t.Fatalf("seed %d op %d: Authorize(%s, %d) = %v, want granted %v", seed, op, id, g, err, want)
					}
				}
			}
		}
		var elems [][]byte
		for _, id := range ids {
			var want []logmodel.GLSN
			for g := range model[id] {
				want = append(want, g)
			}
			slices.Sort(want)
			got := tbl.Glsns(id)
			if !slices.Equal(got, want) {
				t.Fatalf("seed %d: Glsns(%s) = %d glsns, model %d", seed, id, len(got), len(want))
			}
			for _, g := range want {
				elems = append(elems, []byte(id+"|"+g.String()))
			}
		}
		if got := tbl.ConsistencyElements(); !slices.EqualFunc(got, elems, bytes.Equal) {
			t.Fatalf("seed %d: ConsistencyElements differ from the model's", seed)
		}
	}
	tbl := table(t, iss.Public())
	if got := tbl.Glsns("T1"); got == nil || len(got) != 0 {
		t.Fatalf("Glsns of an unknown ticket = %#v, want an empty slice", got)
	}
	tk, err := iss.Issue("T1", "u0", OpWrite)
	if err != nil {
		t.Fatal(err)
	}
	if err := tbl.Register(tk); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Grant("T1", 5, -1); err == nil {
		t.Fatal("negative count accepted")
	}
	if err := tbl.Grant("T1", ^logmodel.GLSN(0), 2); err == nil {
		t.Fatal("range past the largest glsn accepted")
	}
}
