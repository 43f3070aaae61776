//go:build torture

package storage

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"confaudit/internal/storage/faultfs"
)

// TestTortureCrashLoop crash-loops one store through many seeded
// fault/restart cycles and asserts the durability contract after every
// reboot:
//
//   - every acknowledged record is replayed (zero acked loss),
//   - records the store never acknowledged may be missing but are never
//     half-served (replay yields whole records only),
//   - injected at-rest corruption is detected and quarantined, with the
//     lost glsn extent named,
//   - recovery record-scans only the delta past the last checkpoint.
//
// Faults rotate deterministically from the seed: torn-tail crashes at
// varying fractions, failed fsyncs, and hard crashes with nothing torn.
func TestTortureCrashLoop(t *testing.T) {
	const cycles = 60
	seed := int64(1)
	if env := os.Getenv("TORTURE_SEED"); env != "" {
		fmt.Sscanf(env, "%d", &seed) //nolint:errcheck
	}
	rng := rand.New(rand.NewSource(seed))
	dir := t.TempDir()
	opts := diskOpts(dir)
	opts.SegmentBytes = 1024

	acked := map[uint64]bool{} // glsn -> known-durable
	next := uint64(1)

	for cycle := 0; cycle < cycles; cycle++ {
		inj := faultfs.NewInjector(nil)
		s, err := Open(opts, testParams, inj)
		if err != nil {
			t.Fatalf("cycle %d: open: %v", cycle, err)
		}

		// Recovery contract first: everything acked must be back.
		seen := map[uint64]bool{}
		if err := s.Replay(func(r Record) error {
			seen[r.GLSN] = true
			return nil
		}); err != nil {
			t.Fatalf("cycle %d: replay: %v", cycle, err)
		}
		for g := range acked {
			if !seen[g] {
				t.Fatalf("cycle %d: acked glsn %d lost after restart (seed %d)", cycle, g, seed)
			}
		}
		// Checkpoint distance bounds restart work: the record-level scan
		// never exceeds what the engine could not have checkpointed —
		// CheckpointEvery segments plus the active tail plus one sealed-
		// but-unscanned straggler.
		st := s.Status()
		recsPerSeg := int64(40) // ≥ records fitting a 1 KiB segment of ~26-byte frames
		if bound := int64(opts.CheckpointEvery+2) * recsPerSeg; st.RecoveryScannedRecords > bound {
			t.Fatalf("cycle %d: recovery scanned %d records, checkpoint bound %d (seed %d)",
				cycle, st.RecoveryScannedRecords, bound, seed)
		}

		// Work phase: append until the scheduled fault fires (or a quota
		// runs out), tracking which appends were acknowledged.
		fault := cycle % 3
		switch fault {
		case 0:
			inj.ArmCrash(int64(1+rng.Intn(20)), rng.Float64())
		case 1:
			inj.ArmFsyncFailure(int64(1 + rng.Intn(20)))
		case 2:
			// Clean-ish cycle: hard crash with no torn write.
		}
		for n := 0; n < 30; n++ {
			g := next
			err := s.AppendBatch([]Record{{Kind: "frag", GLSN: g, Data: []byte(fmt.Sprintf("payload-%08d", g))}})
			if err == nil {
				acked[g] = true
				next++
				continue
			}
			// Any error means no acknowledgement; the glsn may or may not
			// be durable and must not be counted either way.
			next++
			if !errors.Is(err, faultfs.ErrCrashed) && !errors.Is(err, ErrFailed) &&
				!errors.Is(err, faultfs.ErrInjected) {
				t.Fatalf("cycle %d: unexpected append error: %v", cycle, err)
			}
			break
		}
		if fault == 2 {
			inj.CrashNow()
		}
		s.Close() //nolint:errcheck // post-crash close errors expected
	}

	// Final corruption round: flip a bit in a sealed segment at rest and
	// prove detection + quarantine + extent naming.
	s, err := Open(opts, testParams, nil)
	if err != nil {
		t.Fatalf("corruption round: open: %v", err)
	}
	var target *SegmentInfo
	for i, seg := range s.Status().Segments {
		if seg.Sealed && seg.Records > 0 {
			target = &s.Status().Segments[i]
			break
		}
	}
	if target == nil {
		t.Fatal("corruption round: no sealed segment to damage")
	}
	tseq, tlo, thi := target.Seq, target.GLSNLo, target.GLSNHi
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, fmt.Sprintf("seg-%016x.log", tseq))
	if err := faultfs.FlipBit(path, 64, uint(rng.Intn(8))); err != nil {
		t.Fatalf("FlipBit: %v", err)
	}
	s2, err := Open(opts, testParams, nil)
	if err != nil {
		t.Fatalf("post-corruption open: %v", err)
	}
	defer s2.Close() //nolint:errcheck
	st := s2.Status()
	if len(st.Quarantined) == 0 {
		t.Fatalf("injected corruption not quarantined (seed %d): %+v", seed, st)
	}
	q := st.Quarantined[0]
	if q.Seq != tseq || q.GLSNLo != tlo || q.GLSNHi != thi {
		t.Fatalf("quarantine names seq %d extent %d-%d, want seq %d extent %d-%d",
			q.Seq, q.GLSNLo, q.GLSNHi, tseq, tlo, thi)
	}
	// Everything outside the quarantined extent still replays.
	if err := s2.Replay(func(r Record) error {
		if r.GLSN >= q.GLSNLo && r.GLSN <= q.GLSNHi {
			return fmt.Errorf("glsn %d served from quarantined extent", r.GLSN)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}
