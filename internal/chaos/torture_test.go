//go:build torture

package chaos

import (
	"context"
	"crypto/rand"
	"errors"
	"fmt"
	mrand "math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"confaudit/internal/audit"
	"confaudit/internal/logmodel"
	"confaudit/internal/resilience"
	"confaudit/internal/storage"
	"confaudit/internal/storage/faultfs"
	"confaudit/internal/ticket"
	"confaudit/internal/transport"
	"confaudit/internal/workload"
)

// injectorPool hands each node a fresh Injector on every (re)start and
// remembers the current one so the schedule can arm faults mid-cycle.
type injectorPool struct {
	mu      sync.Mutex
	current map[string]*faultfs.Injector
}

func (p *injectorPool) NewFS(id string) faultfs.FS {
	p.mu.Lock()
	defer p.mu.Unlock()
	inj := faultfs.NewInjector(nil)
	p.current[id] = inj
	return inj
}

func (p *injectorPool) get(id string) *faultfs.Injector {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.current[id]
}

// TestTortureClusterCrashLoop is the recovery torture suite: a 3-node
// cluster on the crash-safe segment store crash-loops one follower per
// cycle — with seeded torn-tail and failed-fsync injection riding the
// live write path — for ≥50 cycles, asserting after every restart:
//
//   - zero acked LogBatch loss: every glsn a successful LogBatch
//     returned is in the restarted node's storage (no cluster re-sync
//     needed — the journal alone must carry it);
//   - restart work is bounded by checkpoint distance, not history size;
//   - a final at-rest corruption round is detected, quarantined, named
//     by glsn extent, and taints audit results through the
//     PartialResultError path.
func TestTortureClusterCrashLoop(t *testing.T) {
	const cycles = 52
	seed := int64(7)
	if env := os.Getenv("TORTURE_SEED"); env != "" {
		fmt.Sscanf(env, "%d", &seed) //nolint:errcheck
	}
	rng := mrand.New(mrand.NewSource(seed))
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Minute)
	defer cancel()

	pool := &injectorPool{current: make(map[string]*faultfs.Injector)}
	// Fast detector settings on the fastOptions pattern from the
	// chaos suite (not shared: that helper lives behind the chaos tag).
	opts := Options{
		Nodes:    3,
		Seed:     seed,
		Jitter:   time.Millisecond,
		DataRoot: t.TempDir(),
		Health: resilience.DetectorConfig{
			Interval:     15 * time.Millisecond,
			SuspectAfter: 60 * time.Millisecond,
			DeadAfter:    120 * time.Millisecond,
		},
	}
	opts.Disk = storage.Options{
		Sync:            storage.SyncAlways,
		SegmentBytes:    4096,
		CheckpointEvery: 2,
		CompactSegments: 4,
	}
	opts.NewFS = pool.NewFS

	c, err := New(rand.Reader, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.StartAll(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.StopAll)

	cl, err := c.NewClient(ctx, "u0", "T1", ticket.OpWrite, ticket.OpRead)
	if err != nil {
		t.Fatal(err)
	}
	gen := workload.New(uint64(seed))

	followers := []string{"P1", "P2"}
	var acked []logmodel.GLSN
	journaledPerNode := make(map[string]int) // lower bound on journal entries

	for cycle := 0; cycle < cycles; cycle++ {
		target := followers[cycle%len(followers)]

		// Arm this cycle's storage fault on the target's live injector.
		// Faults fire inside the node's append path while the cluster is
		// serving traffic — exactly the window where a lying ack would
		// lose data.
		inj := pool.get(target)
		fault := cycle % 3
		switch fault {
		case 0:
			inj.ArmCrash(int64(1+rng.Intn(8)), rng.Float64())
		case 1:
			inj.ArmFsyncFailure(int64(1 + rng.Intn(8)))
		case 2:
			// Clean cycle: crash without a storage fault.
		}

		// Work phase: small batches; a batch only counts as acked if
		// LogBatch succeeded end-to-end.
		for b := 0; b < 3; b++ {
			txs := gen.Transactions(c.Schema, 2, 2)
			glsns, err := cl.LogBatch(ctx, txs)
			if err != nil {
				// The fault fired mid-batch: the cluster refused the ack,
				// so these glsns carry no durability promise.
				break
			}
			acked = append(acked, glsns...)
			for _, id := range c.Boot.Roster {
				journaledPerNode[id] += 2 * len(glsns) // ≥ grant + frag per glsn
			}
		}

		// Power off the target (the injector may already consider it
		// crashed) and reboot it from disk.
		inj.CrashNow()
		if err := c.Crash(target); err != nil {
			t.Fatalf("cycle %d: crash %s: %v", cycle, target, err)
		}
		if err := c.Restart(target); err != nil {
			t.Fatalf("cycle %d: restart %s: %v (seed %d)", cycle, target, err, seed)
		}
		node := c.Node(target)
		if node == nil {
			t.Fatalf("cycle %d: %s not running after restart", cycle, target)
		}

		// Zero acked loss, from the journal alone.
		held := make(map[logmodel.GLSN]bool)
		for _, g := range node.GLSNs() {
			held[g] = true
		}
		for _, g := range acked {
			if !held[g] {
				t.Fatalf("cycle %d: acked glsn %v missing on %s after restart (seed %d)", cycle, g, target, seed)
			}
		}

		st := node.StorageStatus()
		// No spurious quarantine: torn tails and failed fsyncs are crash
		// artifacts, not corruption.
		if len(st.Quarantined) != 0 {
			t.Fatalf("cycle %d: spurious quarantine on %s: %+v (seed %d)", cycle, target, st.Quarantined, seed)
		}
		// Restart bounded by checkpoint distance: once real history has
		// accumulated, recovery must not be record-scanning all of it.
		if total := int64(journaledPerNode[target]); total > 120 && st.RecoveryScannedRecords > total/2 {
			t.Fatalf("cycle %d: %s recovery scanned %d of ≥%d journaled records — checkpoint not bounding restart (seed %d)",
				cycle, target, st.RecoveryScannedRecords, total, seed)
		}
	}

	if len(acked) < cycles {
		t.Fatalf("only %d acked batches across %d cycles; workload too faulty to be meaningful", len(acked), cycles)
	}

	// --- at-rest corruption round ---
	// Stop P1 cleanly, flip a bit inside a sealed checkpointed segment,
	// and restart: recovery must quarantine the segment, name the lost
	// extent, and audit answers must surface it as a partial result.
	target := "P1"
	if err := c.Crash(target); err != nil {
		t.Fatal(err)
	}
	segDir := filepath.Join(opts.DataRoot, target)
	entries, err := os.ReadDir(segDir)
	if err != nil {
		t.Fatal(err)
	}
	// Damage the newest sealed segment (the highest seq .log is the
	// active tail; the one before it is sealed recent history). The
	// oldest segment would work too, but it holds the ticket
	// registration — losing that denies queries outright at auth, which
	// is correct but not the degraded-answer path under test here.
	var segs []string
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), "seg-") && strings.HasSuffix(e.Name(), ".log") {
			segs = append(segs, e.Name())
		}
	}
	if len(segs) < 2 {
		t.Fatalf("need ≥2 segments on %s to corrupt a sealed one, have %v", target, segs)
	}
	victim := segs[len(segs)-2]
	if err := faultfs.FlipBit(filepath.Join(segDir, victim), 64, 5); err != nil {
		t.Fatal(err)
	}
	if err := c.Restart(target); err != nil {
		t.Fatalf("restart after corruption: %v", err)
	}
	tnode := c.Node(target)
	quarantined := tnode.QuarantinedExtents()
	if len(quarantined) == 0 {
		t.Fatalf("injected corruption in %s not quarantined (seed %d)", victim, seed)
	}
	for _, q := range quarantined {
		if !strings.HasPrefix(q, target+": ") {
			t.Fatalf("quarantine extent %q not attributed to %s", q, target)
		}
	}

	// The degraded node, acting as coordinator, must taint its answers.
	aep, err := c.Net.Endpoint("aud0")
	if err != nil {
		t.Fatal(err)
	}
	amb := transport.NewMailbox(aep)
	t.Cleanup(func() { amb.Close() }) //nolint:errcheck
	auditor := audit.NewAuditor(amb, target, "T1")
	_, qerr := auditor.Query(ctx, "*")
	var pr *audit.PartialResultError
	if !errors.As(qerr, &pr) {
		t.Fatalf("query via degraded node returned %v, want PartialResultError naming quarantined storage", qerr)
	}
	if len(pr.Quarantined) == 0 {
		t.Fatalf("PartialResultError has no quarantined extents: %+v", pr)
	}
	found := false
	for _, q := range pr.Quarantined {
		if strings.HasPrefix(q, target+": glsn ") {
			found = true
		}
	}
	if !found {
		t.Fatalf("quarantined extents %v name no glsn range for %s", pr.Quarantined, target)
	}

	// Aggregates refuse over quarantined history rather than under-count.
	if _, aerr := auditor.Aggregate(ctx, "*", audit.AggCount, ""); aerr == nil {
		t.Fatal("aggregate over quarantined history succeeded; want refusal")
	}

	// The same guarantees must hold when the coordinator is a HEALTHY
	// node: the degraded node then participates only in the wildcard
	// glsn intersection — never the certification ring — so its
	// quarantine must ride the involved-node report path to reach the
	// coordinator. (A wildcard count through a healthy coordinator once
	// silently returned the degraded node's shrunken intersection.)
	var healthy string
	for _, id := range c.Boot.Roster {
		if id != target {
			healthy = id
			break
		}
	}
	hauditor := audit.NewAuditor(amb, healthy, "T1")
	_, hqerr := hauditor.Query(ctx, "*")
	var hpr *audit.PartialResultError
	if !errors.As(hqerr, &hpr) {
		t.Fatalf("query via healthy coordinator %s returned %v, want PartialResultError naming %s's quarantined storage", healthy, hqerr, target)
	}
	found = false
	for _, q := range hpr.Quarantined {
		if strings.HasPrefix(q, target+": glsn ") {
			found = true
		}
	}
	if !found {
		t.Fatalf("healthy-coordinator query quarantine %v names no glsn range for %s", hpr.Quarantined, target)
	}
	if val, aerr := hauditor.Aggregate(ctx, "*", audit.AggCount, ""); aerr == nil {
		t.Fatalf("aggregate via healthy coordinator %s returned %v over quarantined history; want refusal", healthy, val)
	}
}
