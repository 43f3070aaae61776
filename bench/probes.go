package main

import (
	"context"
	"crypto/rand"
	"fmt"
	"math/big"
	"os"
	"sync"
	"time"

	"confaudit/internal/cluster"
	"confaudit/internal/crypto/commutative"
	"confaudit/internal/logmodel"
	"confaudit/internal/mathx"
	"confaudit/internal/query"
	"confaudit/internal/smc/compare"
	"confaudit/internal/smc/intersect"
	"confaudit/internal/smc/sum"
	"confaudit/internal/smc/union"
	"confaudit/internal/storage"
	"confaudit/internal/ticket"
	"confaudit/internal/transport"
)

// Probe sizes. Each probe calls one layer's public functions directly,
// from outside, on inputs shaped like the run's; none takes more than
// about a second.
const (
	probeRecords  = 2000 // records for the per-record client-side probes
	probeSetMax   = 800  // SMC probe sets are the base log's size, up to the forensic suite's
	probeBlocks   = 128  // blocks encrypted one by one
	probePings    = 200  // round trips per transport probe
	storeBatches  = 16   // 128-record batches appended to the segment store
	storeDataSize = 256  // bytes per journaled record, about one node's share of a bin3 record
)

// runProbes measures every layer below the facade in isolation. Each
// probe is a span under one "probe" root.
func runProbes(ctx context.Context, tr *tracer, boot *cluster.Bootstrap, sched *schedule, workdir string) (map[string]float64, error) {
	out := make(map[string]float64)
	root := tr.begin(nil, "driver", "probe", "probe")
	defer root.end()
	probe := func(layer, name string, fn func() error) error {
		sp := tr.begin(root, layer, name, "probe")
		defer sp.end()
		if err := fn(); err != nil {
			return fmt.Errorf("%s.%s: %w", layer, name, err)
		}
		return nil
	}
	recs := append(append([]values(nil), sched.Stream...), sched.Base...)
	recs = recs[:min(len(recs), probeRecords)]

	steps := []struct {
		layer, name string
		fn          func() error
	}{
		{"logmodel", "Split+Canonical", func() error { return probeRecord(boot, recs, out) }},
		{"ticket", "Issue+Verify", func() error { return probeTicket(boot, out) }},
		{"storage", "AppendBatch+Replay", func() error { return probeStorage(boot, workdir, out) }},
		{"transport", "memnet ping-pong", func() error {
			net := transport.NewMemNetwork()
			defer net.Close() //nolint:errcheck // probe network
			return probeRTT(ctx, net, "transport.memnet_rtt_us", out)
		}},
		{"transport", "tcp ping-pong", func() error {
			net := transport.NewTCPNetwork(map[string]string{"ping": "127.0.0.1:0", "pong": "127.0.0.1:0"})
			return probeRTT(ctx, net, "transport.tcp_rtt_us", out)
		}},
		{"query", "Parse+Normalize+Classify", func() error { return probeQuery(boot, sched, out) }},
		{"mathx", "modexp", func() error { return probeMath(boot.Group, out) }},
		{"commutative", "Encrypt+Decrypt", func() error { return probeCipher(boot.Group, out) }},
		{"smc", "intersect/union/compare/sum", func() error {
			return probeSMC(ctx, boot.Group, min(max(len(sched.Base), 16), probeSetMax), out)
		}},
	}
	for _, s := range steps {
		if err := probe(s.layer, s.name, s.fn); err != nil {
			return nil, err
		}
	}
	return out, nil
}

func perOp(d time.Duration, n int) float64 { return float64(d) / 1e3 / float64(max(n, 1)) } // µs

// probeRecord times what the client does to one record before it
// leaves: split by partition, canonical encoding of every fragment,
// the digest/witness exponents, and (lazily, node side) X0^e.
func probeRecord(boot *cluster.Bootstrap, recs []values, out map[string]float64) error {
	nodeIDs := boot.Partition.Nodes()
	frags := make([]map[string]logmodel.Fragment, len(recs))
	t0 := time.Now()
	for i, v := range recs {
		frags[i] = boot.Partition.Split(logmodel.Record{GLSN: logmodel.GLSN(i + 1), Values: v})
	}
	out["logmodel.split_us_per_record"] = perOp(time.Since(t0), len(recs))

	items := make([][][]byte, len(recs))
	t0 = time.Now()
	for i, f := range frags {
		items[i] = make([][]byte, 0, len(nodeIDs))
		for _, id := range nodeIDs {
			items[i] = append(items[i], f[id].Canonical())
		}
	}
	out["logmodel.canonical_us_per_record"] = perOp(time.Since(t0), len(recs))

	totals := make([]*big.Int, len(recs))
	t0 = time.Now()
	for i, it := range items {
		_, totals[i] = boot.AccParams.WitnessExponents(it)
	}
	out["accumulator.digest_exp_us_per_record"] = perOp(time.Since(t0), len(recs))

	n := min(len(totals), 200)
	boot.AccParams.PowX0(totals[0]) // builds the wide fixed-base table
	t0 = time.Now()
	for _, e := range totals[:n] {
		boot.AccParams.PowX0(e)
	}
	out["accumulator.powx0_us"] = perOp(time.Since(t0), n)
	return nil
}

func probeTicket(boot *cluster.Bootstrap, out map[string]float64) error {
	const n = 20
	t0 := time.Now()
	for i := 0; i < n; i++ {
		tk, err := boot.Issuer.Issue(fmt.Sprintf("T-probe%d", i), "probe", ticket.OpRead, ticket.OpWrite)
		if err != nil {
			return err
		}
		if err := ticket.Verify(boot.IssuerPub, tk); err != nil {
			return err
		}
	}
	out["ticket.issue_verify_us"] = perOp(time.Since(t0), n)
	return nil
}

// probeStorage drives the segment store — the journal the facade does
// not use today — the way a node would: 128-record group commits, each
// followed by an fsync (timed apart from the append), then a reopen and
// a full replay.
func probeStorage(boot *cluster.Bootstrap, workdir string, out map[string]float64) error {
	dir, err := os.MkdirTemp(workdir, "probe-storage-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir) //nolint:errcheck // scratch
	opts := storage.Options{Backend: storage.BackendDisk, Dir: dir, Sync: storage.SyncNever}
	st, err := storage.Open(opts, boot.AccParams, nil)
	if err != nil {
		return err
	}
	data := make([]byte, storeDataSize)
	rand.Read(data) //nolint:errcheck // content is irrelevant
	batch := make([]storage.Record, appendBatch)
	var appendT, syncT time.Duration
	for b := 0; b < storeBatches && err == nil; b++ {
		for i := range batch {
			batch[i] = storage.Record{Kind: "frag", GLSN: uint64(b*appendBatch + i + 1), Data: data}
		}
		t0 := time.Now()
		err = st.AppendBatch(batch)
		t1 := time.Now()
		if err == nil {
			err = st.Sync()
		}
		appendT, syncT = appendT+t1.Sub(t0), syncT+time.Since(t1)
	}
	if cerr := st.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	n := storeBatches * appendBatch
	out["storage.append_us_per_record"] = perOp(appendT, n)
	out["storage.sync_ms"] = ms(syncT) / storeBatches
	size, err := dirBytes(dir)
	if err != nil {
		return err
	}
	out["storage.bytes_per_record"] = float64(size) / float64(n)
	t0 := time.Now()
	if st, err = storage.Open(opts, boot.AccParams, nil); err != nil {
		return err
	}
	replayed := 0
	err = st.Replay(func(storage.Record) error { replayed++; return nil })
	out["storage.replay_us_per_record"] = perOp(time.Since(t0), replayed)
	if cerr := st.Close(); err == nil {
		err = cerr
	}
	if err == nil && replayed != n {
		err = fmt.Errorf("replayed %d of %d records", replayed, n)
	}
	return err
}

// probeRTT bounces a 1 KiB and a 64 KiB payload between two mailboxes.
func probeRTT(ctx context.Context, net transport.Network, metric string, out map[string]float64) error {
	var mbs [2]*transport.Mailbox
	for i, id := range []string{"ping", "pong"} {
		ep, err := net.Endpoint(id)
		if err != nil {
			return err
		}
		mbs[i] = transport.NewMailbox(ep)
		defer mbs[i].Close() //nolint:errcheck // probe endpoints
	}
	for _, size := range []struct {
		label string
		n     int
	}{{"1k", 1 << 10}, {"64k", 64 << 10}} {
		payload := make([]byte, size.n)
		var wg sync.WaitGroup
		var echoErr error
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < probePings; i++ {
				msg, err := mbs[1].Expect(ctx, "bench.ping", size.label)
				if err == nil {
					err = mbs[1].Send(ctx, transport.Message{To: "ping", Type: "bench.pong", Session: size.label, Payload: msg.Payload})
				}
				if err != nil {
					echoErr = err
					return
				}
			}
		}()
		t0 := time.Now()
		var err error
		for i := 0; i < probePings && err == nil; i++ {
			if err = mbs[0].Send(ctx, transport.Message{To: "pong", Type: "bench.ping", Session: size.label, Payload: payload}); err == nil {
				_, err = mbs[0].Expect(ctx, "bench.pong", size.label)
			}
		}
		elapsed := time.Since(t0)
		if err != nil {
			return err
		}
		wg.Wait()
		if echoErr != nil {
			return echoErr
		}
		out[metric+"."+size.label] = perOp(elapsed, probePings)
	}
	return nil
}

// probeQuery times the coordinator's front end over the run's own
// criteria, and one pass of the suite on the centralized oracle.
func probeQuery(boot *cluster.Bootstrap, sched *schedule, out map[string]float64) error {
	var crit []string
	for _, round := range sched.Rounds[:min(len(sched.Rounds), 16)] {
		for _, q := range round {
			crit = append(crit, q.Criteria)
		}
	}
	if len(crit) == 0 {
		crit = []string{`id = "A1" AND Tid = "B1"`, `C1 < 5 OR id = "A2"`, `C1 = C2`}
	}
	norms := make([]*query.Normalized, len(crit))
	t0 := time.Now()
	for i, c := range crit {
		expr, err := query.Parse(c)
		if err != nil {
			return err
		}
		if norms[i], err = query.Normalize(expr); err != nil {
			return err
		}
	}
	out["query.parse_normalize_us"] = perOp(time.Since(t0), len(crit))
	t0 = time.Now()
	for _, n := range norms {
		if _, err := query.Classify(n, boot.Partition); err != nil {
			return err
		}
	}
	out["query.classify_us"] = perOp(time.Since(t0), len(crit))

	if len(sched.Rounds) > 0 {
		o := newOracle()
		for i, v := range sched.Base {
			o.store(logmodel.GLSN(i+1), v)
		}
		t0 = time.Now()
		for _, q := range sched.Rounds[0] {
			if a := o.answer(q); a.err != nil {
				return a.err
			}
		}
		out["audit.centralized_round_ms"] = ms(time.Since(t0))
	}
	return nil
}

func probeMath(g *mathx.Group, out map[string]float64) error {
	const n = 50
	base := g.HashToQR([]byte("bench"))
	e, err := mathx.RandScalar(rand.Reader, g.P)
	if err != nil {
		return err
	}
	t0 := time.Now()
	for i := 0; i < n; i++ {
		new(big.Int).Exp(base, e, g.P)
	}
	out["mathx.modexp768_us"] = perOp(time.Since(t0), n)
	fb := mathx.NewFixedBase(base, g.P, g.Bits())
	t0 = time.Now()
	for i := 0; i < n; i++ {
		if fb.Exp(e) == nil {
			return fmt.Errorf("fixed-base table does not cover a %d-bit exponent", e.BitLen())
		}
	}
	out["mathx.fixedbase768_us"] = perOp(time.Since(t0), n)
	return nil
}

// probeCipher encrypts block by block on one goroutine, so the figure
// is the CPU one block costs and multiplies by a block count; the relay
// itself fans a batch over every core.
func probeCipher(g *mathx.Group, out map[string]float64) error {
	k, err := commutative.NewPHKey(rand.Reader, g)
	if err != nil {
		return err
	}
	blocks := make([][]byte, probeBlocks)
	for i := range blocks {
		blocks[i] = k.EncodeElement([]byte(fmt.Sprintf("g%d|v%d", i, i%100)))
	}
	enc := make([][]byte, len(blocks))
	t0 := time.Now()
	for i, b := range blocks {
		if enc[i], err = k.Encrypt(b); err != nil {
			return err
		}
	}
	out["commutative.encrypt_us_per_block"] = perOp(time.Since(t0), probeBlocks)
	t0 = time.Now()
	for _, b := range enc {
		if _, err := k.Decrypt(b); err != nil {
			return err
		}
	}
	out["commutative.decrypt_us_per_block"] = perOp(time.Since(t0), probeBlocks)
	return nil
}

// parties runs fn once per party, each on its own mailbox of a private
// memnet; every endpoint exists before any party starts.
func parties(ids []string, fn func(id string, mb *transport.Mailbox) error) (time.Duration, error) {
	net := transport.NewMemNetwork()
	defer net.Close() //nolint:errcheck // probe network
	mbs := make([]*transport.Mailbox, len(ids))
	for i, id := range ids {
		ep, err := net.Endpoint(id)
		if err != nil {
			return 0, err
		}
		mbs[i] = transport.NewMailbox(ep)
		defer mbs[i].Close() //nolint:errcheck // probe endpoints
	}
	errs := make([]error, len(ids))
	var wg sync.WaitGroup
	t0 := time.Now()
	for i, id := range ids {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = fn(id, mbs[i])
		}()
	}
	wg.Wait()
	elapsed := time.Since(t0)
	for _, err := range errs {
		if err != nil {
			return 0, err
		}
	}
	return elapsed, nil
}

func probeSMC(ctx context.Context, g *mathx.Group, setSize int, out map[string]float64) error {
	set := func(party int) [][]byte { // half shared with every other party, half private
		s := make([][]byte, setSize)
		for i := range s {
			if i%2 == 0 {
				s[i] = []byte(fmt.Sprintf("g%d|v%d", i, i%100))
			} else {
				s[i] = []byte(fmt.Sprintf("g%d|p%d", i, party))
			}
		}
		return s
	}
	index := map[string]int{"P0": 0, "P1": 1, "P2": 2, "P3": 3}
	for _, n := range []int{2, 3} {
		ring := []string{"P0", "P1", "P2"}[:n]
		cfg := intersect.Config{Group: g, Ring: ring, Receivers: ring[:1], Session: "probe-intersect"}
		d, err := parties(ring, func(id string, mb *transport.Mailbox) error {
			_, err := intersect.Run(ctx, mb, cfg, set(index[id]))
			return err
		})
		if err != nil {
			return err
		}
		out[fmt.Sprintf("smc.intersect%d_ms", n)] = ms(d)
	}

	ring := []string{"P0", "P1"}
	ucfg := union.Config{Group: g, Ring: ring, Receivers: ring[:1], Session: "probe-union"}
	d, err := parties(ring, func(id string, mb *transport.Mailbox) error {
		_, err := union.Run(ctx, mb, ucfg, set(index[id]))
		return err
	})
	if err != nil {
		return err
	}
	out["smc.union2_ms"] = ms(d)

	keys := make([]string, setSize)
	vals := make([]*big.Int, setSize)
	for i := range keys {
		keys[i], vals[i] = fmt.Sprintf("g%d", i), big.NewInt(int64(i%100))
	}
	ccfg := compare.BatchConfig{Holders: [2]string{"P0", "P1"}, TTP: "P2", MaxAbs: big.NewInt(1 << 20), Session: "probe-compare"}
	d, err = parties([]string{"P0", "P1", "P2"}, func(id string, mb *transport.Mailbox) error {
		if id == ccfg.TTP {
			return compare.ServeBatchCompare(ctx, mb, ccfg)
		}
		_, err := compare.BatchCompare(ctx, mb, ccfg, keys, vals)
		return err
	})
	if err != nil {
		return err
	}
	out["smc.compare_batch_ms"] = ms(d)

	all := []string{"P0", "P1", "P2", "P3"}
	scfg := sum.Config{P: big.NewInt(2305843009213693951), Parties: all, K: 3, Receivers: all[:1], Session: "probe-sum"}
	d, err = parties(all, func(id string, mb *transport.Mailbox) error {
		_, err := sum.Run(ctx, mb, scfg, big.NewInt(int64(index[id]+1)))
		return err
	})
	if err != nil {
		return err
	}
	out["smc.sum_ms"] = ms(d)
	return nil
}
