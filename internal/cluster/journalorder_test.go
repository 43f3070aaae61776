package cluster

// Regression tests for journal/apply ordering. The invariant under
// test: once a mutation's records are STAGED (which Node.mutate does
// while still holding n.mu, right after the in-memory apply), every
// later mutation's records — a delete tombstone, an overwriting batch —
// land AFTER them, even though the staged bytes reach the store only in
// the off-lock commit. Without that ordering, crash replay could apply
// delete-then-frag and resurrect a fragment whose deletion was
// acknowledged.

import (
	"errors"
	"testing"

	"confaudit/internal/logmodel"
	"confaudit/internal/storage"
	"confaudit/internal/storage/faultfs"
	"confaudit/internal/telemetry"
	"confaudit/internal/ticket"
	"confaudit/internal/transport"
)

// stagedFragEntries builds a batch of n frag entries from glsn 10 up.
func stagedFragEntries(n int) []walEntry {
	entries := make([]walEntry, n)
	for i := range entries {
		entries[i] = walEntry{Kind: "frag", Item: &batchItem{Fragment: logmodel.Fragment{
			GLSN: logmodel.GLSN(10 + i), Node: "P1",
			Values: map[logmodel.Attr]logmodel.Value{"C1": logmodel.Int(int64(i))},
		}}}
	}
	return entries
}

// TestWALStagedBatchOrdersBeforeLaterAppend pins the resurrection
// scenario at the journal: a batch staged before a delete append must
// replay, after a restart, before it, even though the batch's commit
// runs after the delete's append completed.
func TestWALStagedBatchOrdersBeforeLaterAppend(t *testing.T) {
	dir := t.TempDir()
	j := &storeJournal{s: openStore(t, dir)}
	entries := stagedFragEntries(ingestFanoutThreshold)
	recs, err := j.encode(entries)
	if err != nil {
		t.Fatal(err)
	}
	j.stage(recs)
	// The conflicting mutator journals while the batch commit is still
	// pending — unstaged, this delete would hit the disk first.
	if err := journalWrite(j, walEntry{Kind: "delete", GLSN: 12}); err != nil {
		t.Fatal(err)
	}
	if err := j.commit(); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	got := journalEntries(t, dir)
	if len(got) != len(entries)+1 {
		t.Fatalf("replayed %d records, want %d", len(got), len(entries)+1)
	}
	for i := range entries {
		if got[i].Kind != "frag" {
			t.Fatalf("record %d is %q; staged batch did not keep its reserved position", i, got[i].Kind)
		}
	}
	if got[len(got)-1].Kind != "delete" {
		t.Fatal("delete journaled before staged batch: replay would resurrect the fragment")
	}
}

// TestStoreJournalStagedBatchOrdersBeforeLaterAppend covers the same
// invariant on the live store: replay from the still-open handle, with
// no restart in between, already sees the staged batch ahead of the
// delete.
func TestStoreJournalStagedBatchOrdersBeforeLaterAppend(t *testing.T) {
	s := openStore(t, t.TempDir())
	j := &storeJournal{s: s}
	entries := stagedFragEntries(ingestFanoutThreshold)
	recs, err := j.encode(entries)
	if err != nil {
		t.Fatal(err)
	}
	j.stage(recs)
	if err := journalWrite(j, walEntry{Kind: "delete", GLSN: 12}); err != nil {
		t.Fatal(err)
	}
	if err := j.commit(); err != nil {
		t.Fatal(err)
	}

	var kinds []string
	if err := replayStore(s, func(e walEntry) error {
		kinds = append(kinds, e.Kind)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if len(kinds) != len(entries)+1 || kinds[len(kinds)-1] != "delete" {
		t.Fatalf("store journal order %v: staged batch must precede the later delete", kinds)
	}
}

// fsyncFailingJournal is a journal over a segment store whose next
// fsync fails. The store is opened first, so the failure lands on the
// first append.
func fsyncFailingJournal(t *testing.T) *storeJournal {
	t.Helper()
	inj := faultfs.NewInjector(nil)
	st, err := storage.Open(storage.Options{Backend: storage.BackendDisk, Dir: t.TempDir()}, sharedBootstrap(t).AccParams, inj)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() }) //nolint:errcheck // poisoned by design
	inj.ArmFsyncFailure(1)
	return &storeJournal{s: st}
}

// TestWALStagedCommitFailurePoisons verifies that a staged batch whose
// commit cannot reach disk poisons the journal: the batch was already
// applied in memory, so every later mutation must be refused rather
// than letting memory silently run ahead of the journal.
func TestWALStagedCommitFailurePoisons(t *testing.T) {
	j := fsyncFailingJournal(t)
	recs, err := j.encode(stagedFragEntries(ingestFanoutThreshold))
	if err != nil {
		t.Fatal(err)
	}
	j.stage(recs)
	if err := j.commit(); err == nil {
		t.Fatal("commit with a failed fsync succeeded")
	}
	if err := journalWrite(j, walEntry{Kind: "delete", GLSN: 12}); !errors.Is(err, storage.ErrFailed) {
		t.Fatalf("append after failed staged commit = %v; want poisoned journal (storage.ErrFailed)", err)
	}
}

// countPoisonEvents tallies journal.poison events in the process-wide
// flight recorder.
func countPoisonEvents() int {
	n := 0
	for _, e := range telemetry.F.Snapshot().Events {
		if e.Kind == telemetry.FlightJournalPoison {
			n++
		}
	}
	return n
}

// TestWALPoisonRecordsFlightEvent verifies the incident is in the
// flight recorder by the time the poisoning commit returns — before
// the node has refused a single later write — so the recorder shows
// the cause ahead of the symptoms, and that it is recorded once.
func TestWALPoisonRecordsFlightEvent(t *testing.T) {
	// The recorder is a bounded ring shared by the whole test binary:
	// once earlier tests fill it, the event this commit records evicts
	// another and the count cannot rise. Start from an empty ring.
	telemetry.F.Reset()
	j := fsyncFailingJournal(t)
	recs, err := j.encode(stagedFragEntries(ingestFanoutThreshold))
	if err != nil {
		t.Fatal(err)
	}
	j.stage(recs)
	before := countPoisonEvents()
	if err := j.commit(); err == nil {
		t.Fatal("commit with a failed fsync succeeded")
	}
	// The event must already be retained here, before any later write
	// observes the poisoned journal.
	if got := countPoisonEvents(); got != before+1 {
		t.Fatalf("poison events after failed commit = %d, want %d: event must precede the first refused write", got, before+1)
	}
	if err := journalWrite(j, walEntry{Kind: "delete", GLSN: 12}); !errors.Is(err, storage.ErrFailed) {
		t.Fatalf("append after poisoning = %v; want storage.ErrFailed", err)
	}
	if got := countPoisonEvents(); got != before+1 {
		t.Fatalf("refused writes must not re-record the poisoning: %d events", got)
	}
}

// failingStore forces AppendBatch errors to exercise storeJournal's
// own poisoning; everything else delegates to the segment store.
type failingStore struct {
	storage.Store
	fail bool
}

func (f *failingStore) AppendBatch(recs []storage.Record) error {
	if f.fail {
		return errors.New("injected append failure")
	}
	return f.Store.AppendBatch(recs)
}

func TestStoreJournalStagedCommitFailurePoisons(t *testing.T) {
	fs := &failingStore{Store: openStore(t, t.TempDir()), fail: true}
	j := &storeJournal{s: fs}
	recs, err := j.encode(stagedFragEntries(ingestFanoutThreshold))
	if err != nil {
		t.Fatal(err)
	}
	j.stage(recs)
	if err := j.commit(); err == nil {
		t.Fatal("commit over a failing store succeeded")
	}
	fs.fail = false
	if err := journalWrite(j, walEntry{Kind: "delete", GLSN: 12}); err == nil {
		t.Fatal("append after failed staged commit succeeded; journal must stay poisoned")
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestPipelinedBatchThenDeleteSurvivesRestart drives the scenario end
// to end: a pipelined-size batch, a delete of one of its records, a
// restart from the journal. The deleted record must stay deleted — a
// frag record replaying after its delete tombstone is exactly the
// resurrection the staged ordering forbids.
func TestPipelinedBatchThenDeleteSurvivesRestart(t *testing.T) {
	root := t.TempDir()
	ctx := testCtx(t)

	tc, stop := durableCluster(t, root)
	c := tc.client(t, "ord-u", "TORD", ticket.OpWrite, ticket.OpRead, ticket.OpDelete)
	if err := c.RegisterTicket(ctx); err != nil {
		t.Fatal(err)
	}
	records := make([]map[logmodel.Attr]logmodel.Value, ingestFanoutThreshold+2)
	for i := range records {
		records[i] = map[logmodel.Attr]logmodel.Value{"C1": logmodel.Int(int64(i))}
	}
	gs, err := c.LogBatch(ctx, records)
	if err != nil {
		t.Fatal(err)
	}
	victim := gs[len(gs)/2]
	if err := c.Delete(ctx, victim); err != nil {
		t.Fatal(err)
	}
	stop()

	tc2, stop2 := durableCluster(t, root)
	defer stop2()
	ep, err := tc2.net.Endpoint("ord-u")
	if err != nil {
		t.Fatal(err)
	}
	mb := transport.NewMailbox(ep)
	defer mb.Close() //nolint:errcheck
	tk, err := tc2.boot.Issuer.Issue("TORD", "ord-u", ticket.OpWrite, ticket.OpRead, ticket.OpDelete)
	if err != nil {
		t.Fatal(err)
	}
	orig, err := OpenClient(mb, ClientConfig{Roster: tc2.boot.Roster, Partition: tc2.boot.Partition, Accumulator: tc2.boot.AccParams, Ticket: tk})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := orig.Read(ctx, victim); err == nil {
		t.Fatalf("deleted batch record %s resurrected by restart", victim)
	}
	for i, g := range gs {
		if g == victim {
			continue
		}
		rec, err := orig.Read(ctx, g)
		if err != nil {
			t.Fatalf("surviving batch record %d lost across restart: %v", i, err)
		}
		if rec.Values["C1"].I != int64(i) {
			t.Fatalf("record %d restored as %v", i, rec.Values)
		}
	}
}
