package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand/v2"
	"strconv"

	"confaudit/internal/logmodel"
	"confaudit/pkg/dla"
)

// Key ranges. Base records carry ids A1..A200 and Tids B0..B499 by
// index arithmetic, so a selective query over base keys has the same
// result size whatever the seed; stream and warm-up records carry ids
// U1..U64 and unique Tids S<i>/W<i>, so they can never match a
// base-only criterion however far the log grows.
const (
	baseIDs    = 200
	baseTids   = 500
	streamIDs  = 64
	epoch      = 1_100_000_000
	monitorSet = 64 // distinct constant draws the monitor suite cycles through
)

var protocols = []string{"TCP", "UDP", "ICMP"}

type values = map[dla.Attr]dla.Value

// querySpec is one scheduled audit operation.
type querySpec struct {
	Shape    string
	Criteria string
	Agg      dla.AggKind // non-empty: Session.Aggregate over Attr
	Attr     dla.Attr
	Cert     bool // QueryCertified + VerifyResult
}

func (q querySpec) String() string {
	return fmt.Sprintf("%s|%s|%s|%s|%t", q.Shape, q.Criteria, q.Agg, q.Attr, q.Cert)
}

// schedule is everything a run feeds the program, fixed by the seed.
type schedule struct {
	Base   []values
	Warm   []values
	Stream []values
	// WarmRounds and Rounds are suite passes. The paced workload has no
	// fixed round count, so Rounds is then a long cycle the auditor walks
	// until the writer's clock runs out.
	WarmRounds [][]querySpec
	Rounds     [][]querySpec
}

func generate(w workloadSpec, seed uint64) *schedule {
	rng := rand.New(rand.NewPCG(seed, 0xd1a))
	s := &schedule{
		Base:   make([]values, w.Base),
		Warm:   make([]values, w.Warm),
		Stream: make([]values, w.Stream),
	}
	for i := range s.Base {
		s.Base[i] = record(rng, i, "A"+strconv.Itoa(i%baseIDs+1), "B"+strconv.Itoa(i%baseTids))
	}
	for i := range s.Warm {
		s.Warm[i] = record(rng, w.Base+i, "U"+strconv.Itoa(rng.IntN(streamIDs)+1), "W"+strconv.Itoa(i))
	}
	for i := range s.Stream {
		s.Stream[i] = record(rng, w.Base+w.Warm+i, "U"+strconv.Itoa(rng.IntN(streamIDs)+1), "S"+strconv.Itoa(i))
	}
	rounds := w.Rounds
	if w.PacedRPS > 0 {
		rounds = 4 * monitorSet
	}
	var all [][]querySpec
	switch w.Suite {
	case "forensic":
		all = forensicRounds(rng, w.WarmRounds+rounds)
	case "monitor":
		all = monitorRounds(rng, w.WarmRounds+rounds)
	}
	if all != nil {
		s.WarmRounds, s.Rounds = all[:w.WarmRounds], all[w.WarmRounds:]
	}
	return s
}

func record(rng *rand.Rand, i int, id, tid string) values {
	return values{
		"time":    dla.Int(int64(epoch + i)),
		"id":      dla.String(id),
		"protocl": dla.String(protocols[rng.IntN(len(protocols))]),
		"Tid":     dla.String(tid),
		"C1":      dla.Int(int64(rng.IntN(100))),
		"C2":      dla.Int(int64(rng.IntN(100))),
		"C3":      dla.Int(int64(rng.IntN(100))),
	}
}

// rotor draws ints in [lo, hi) never equal to the previous draw, so no
// two consecutive rounds repeat a criterion.
type rotor struct {
	rng  *rand.Rand
	last map[string]int
}

func (r *rotor) next(key string, lo, hi int) int {
	for {
		v := lo + r.rng.IntN(hi-lo)
		if prev, ok := r.last[key]; !ok || prev != v {
			r.last[key] = v
			return v
		}
	}
}

var crossPairs = [][2]string{{"C1", "C2"}, {"C2", "C3"}, {"C1", "C3"}, {"C2", "C1"}, {"C3", "C2"}, {"C3", "C1"}}

// forensicRounds builds the nine-shape suite of audit-cross. Every
// criterion spans the whole base log: conjunction and cross-equality
// sets grow with it, which is what makes commutative encryption and
// ring relay dominate the round.
func forensicRounds(rng *rand.Rand, n int) [][]querySpec {
	rot := &rotor{rng: rng, last: map[string]int{}}
	id := func(key string) string { return fmt.Sprintf(`id = "A%d"`, rot.next(key, 1, baseIDs+1)) }
	proto := func(key string) string {
		return fmt.Sprintf(`protocl = "%s"`, protocols[rot.next(key, 0, len(protocols))])
	}
	out := make([][]querySpec, n)
	for r := range out {
		eq := crossPairs[rot.next("crosseq", 0, len(crossPairs))]
		cmp := crossPairs[rot.next("crosscmp", 0, len(crossPairs))]
		out[r] = []querySpec{
			{Shape: "local", Criteria: fmt.Sprintf(`C1 > %d`, rot.next("local", 40, 60))},
			{Shape: "conj2", Criteria: proto("conj2.p") + " AND " + id("conj2.u")},
			{Shape: "conj3", Criteria: proto("conj3.p") + " AND " + id("conj3.u") + fmt.Sprintf(` AND C1 < %d`, rot.next("conj3.x", 40, 60))},
			{Shape: "union", Criteria: fmt.Sprintf(`C1 < %d OR `, rot.next("union.x", 2, 8)) + id("union.u")},
			{Shape: "not", Criteria: fmt.Sprintf(`NOT (C1 > %d)`, rot.next("not", 5, 15))},
			{Shape: "crosseq", Criteria: eq[0] + " = " + eq[1]},
			{Shape: "crosscmp", Criteria: cmp[0] + " < " + cmp[1]},
			{Shape: "aggsum", Criteria: proto("aggsum"), Agg: dla.AggSum, Attr: "C2"},
			{Shape: "certified", Criteria: proto("cert.p") + " AND " + id("cert.u"), Cert: true},
		}
	}
	return out
}

// monitorRounds builds the four-shape suite of mixed-tcp-durable over
// base-only keys. Constants come from a pool of monitorSet draws, each a
// record index j so that id A(j%200+1) and Tid B(j%500) co-occur: the
// conjunction is never empty and every result size is a constant of the
// base log.
func monitorRounds(rng *rand.Rand, n int) [][]querySpec {
	// lcm(200, 500) = 1000 index classes. Neighbours in the pool (and its
	// two ends, since it is walked as a cycle) differ in both id and Tid,
	// so no two consecutive rounds repeat a criterion.
	var pool []int
	differ := func(a, b int) bool { return a%baseIDs != b%baseIDs && a%baseTids != b%baseTids }
	for _, j := range rng.Perm(baseIDs * baseTids / 100) {
		if len(pool) == monitorSet {
			break
		}
		last := len(pool) == monitorSet-1
		if len(pool) == 0 || differ(j, pool[len(pool)-1]) && (!last || differ(j, pool[0])) {
			pool = append(pool, j)
		}
	}
	out := make([][]querySpec, n)
	for r := range out {
		j := pool[r%len(pool)]
		id := fmt.Sprintf(`id = "A%d"`, j%baseIDs+1)
		tid := fmt.Sprintf(`Tid = "B%d"`, j%baseTids)
		out[r] = []querySpec{
			{Shape: "eq", Criteria: id},
			{Shape: "conj-small", Criteria: id + " AND " + tid},
			{Shape: "union-small", Criteria: id + " OR " + tid},
			{Shape: "aggcount", Criteria: id, Agg: dla.AggCount, Attr: "C1"},
		}
	}
	return out
}

// digest is a stable fingerprint of the whole schedule: same seed, same
// bytes. Records hash through logmodel's canonical encoding.
func (s *schedule) digest() string {
	h := sha256.New()
	for _, part := range [][]values{s.Base, s.Warm, s.Stream} {
		for _, v := range part {
			h.Write(logmodel.Record{Values: v}.Canonical())
			h.Write([]byte{'\n'})
		}
		h.Write([]byte{0})
	}
	for _, part := range [][][]querySpec{s.WarmRounds, s.Rounds} {
		for _, round := range part {
			for _, q := range round {
				h.Write([]byte(q.String()))
				h.Write([]byte{'\n'})
			}
		}
		h.Write([]byte{0})
	}
	return hex.EncodeToString(h.Sum(nil))
}
