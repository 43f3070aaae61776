package telemetry

import (
	"sync"
	"time"
)

// Flight is a bounded in-memory ring of structured anomaly events — the
// ingest plane's black box. When a breaker trips, a journal poisons
// itself, or admission starts shedding load, the sequence of events
// leading up to the incident is usually gone from any counter by the
// time an operator looks; the flight recorder keeps the last
// DefaultFlightCapacity of them, timestamped and ordered, queryable
// via /debug/dla/flight and `dlactl flight` without plaintext logs.
//
// Confidentiality contract. FlightEvent is a fixed schema drawn from
// the same Definition 1 secondary information as the metrics layer:
// the Kind is a compile-time constant, Node/Peer are node IDs, GLSN
// and Count are positions/sizes, DurMS is a timing, and Outcome is an
// ErrClass-coarse flag. Attribute values, index keys, criteria, and
// ciphertext bytes have no field to land in — raw error strings must
// be reduced with ErrClass before recording.

// Flight event kinds. One constant per anomaly class; like metric
// names, these are the only kinds the system emits.
const (
	FlightBreakerOpen   = "breaker.open"       // circuit opened against a peer
	FlightBreakerClose  = "breaker.close"      // half-open probe succeeded, circuit closed
	FlightOverload      = "ingest.overload"    // admission refused a store round (ErrOverloaded)
	FlightResend        = "ingest.resend"      // appender re-sent a batch after overload/timeout
	FlightJournalPoison = "journal.poison"     // journal poisoned; node refuses later mutations
	FlightFsyncStall    = "wal.fsync_stall"    // WAL fsync exceeded the stall threshold
	FlightDegraded      = "audit.degraded"     // audit plan degraded around dead peers
	FlightPeerDead      = "health.peer_dead"   // failure detector declared a peer dead
	FlightPeerAlive     = "health.peer_alive"  // previously dead peer heartbeating again
	FlightQuarantine    = "storage.quarantine" // recovery quarantined corrupt segments
	FlightSeqSync       = "seq.sync"           // follower pulled missed grants from the leader
)

// FlightEvent is one recorded anomaly. The schema is fixed; every
// field is optional except Kind, and Seq/Time are stamped by Record.
type FlightEvent struct {
	Seq     uint64    `json:"seq"`
	Time    time.Time `json:"time"`
	Kind    string    `json:"kind"`
	Node    string    `json:"node,omitempty"`    // node observing the event
	Peer    string    `json:"peer,omitempty"`    // remote party, if any
	GLSN    uint64    `json:"glsn,omitempty"`    // first glsn of the affected range
	Count   int       `json:"count,omitempty"`   // records / segments / clauses affected
	DurMS   float64   `json:"dur_ms,omitempty"`  // duration that triggered the event
	Outcome string    `json:"outcome,omitempty"` // ErrClass-coarse outcome flag
}

// DefaultFlightCapacity bounds the process-wide recorder F.
const DefaultFlightCapacity = 512

// Flight is the bounded event ring. Oldest events are evicted FIFO at
// capacity; eviction is counted in flight.dropped so a reader knows
// the window is partial.
type Flight struct {
	mu      sync.Mutex
	buf     []FlightEvent // ring storage, len == capacity
	start   int           // index of oldest event
	n       int           // live events
	seq     uint64        // next sequence number (1-based)
	dropped uint64
	node    string           // default Node stamp (one dlad == one node)
	clock   func() time.Time // test seam
}

// NewFlight creates a recorder holding at most capacity events.
func NewFlight(capacity int) *Flight {
	if capacity < 1 {
		capacity = 1
	}
	return &Flight{buf: make([]FlightEvent, capacity), clock: time.Now}
}

// F is the process-wide flight recorder, mirroring M and T. One dlad
// process is one node; in-process multi-node test deployments share
// it, which the Node field disambiguates where the recording site
// knows its node.
var F = NewFlight(DefaultFlightCapacity)

// SetClock replaces the time source (tests).
func (f *Flight) SetClock(fn func() time.Time) {
	f.mu.Lock()
	f.clock = fn
	f.mu.Unlock()
}

// SetDefaultNode sets the Node stamped onto events recorded without
// one — recording sites deep in the journal don't know their node ID, but
// a dlad process does.
func (f *Flight) SetDefaultNode(node string) {
	f.mu.Lock()
	f.node = node
	f.mu.Unlock()
}

// Record appends one event, stamping Seq and Time (and Node, if the
// event carries none and a default is set). At capacity the oldest
// event is evicted and counted in flight.dropped.
func (f *Flight) Record(e FlightEvent) {
	if f == nil || !enabled.Load() {
		return
	}
	M.Counter(CtrFlightEvents).Add(1)
	f.mu.Lock()
	f.seq++
	e.Seq = f.seq
	e.Time = f.clock()
	if e.Node == "" {
		e.Node = f.node
	}
	if f.n == len(f.buf) {
		f.buf[f.start] = e
		f.start = (f.start + 1) % len(f.buf)
		f.dropped++
		f.mu.Unlock()
		M.Counter(CtrFlightDropped).Add(1)
		return
	}
	f.buf[(f.start+f.n)%len(f.buf)] = e
	f.n++
	f.mu.Unlock()
}

// FlightSnapshot is the recorder's exported state: the retained
// events oldest-first, plus how many older ones the ring has dropped.
type FlightSnapshot struct {
	Capacity int           `json:"capacity"`
	Dropped  uint64        `json:"dropped"`
	Events   []FlightEvent `json:"events"`
}

// Snapshot copies out the retained events, oldest first.
func (f *Flight) Snapshot() FlightSnapshot {
	return f.SnapshotSince(time.Time{})
}

// SnapshotSince copies out the retained events recorded strictly
// after t, oldest first. The zero time returns everything.
func (f *Flight) SnapshotSince(t time.Time) FlightSnapshot {
	f.mu.Lock()
	defer f.mu.Unlock()
	s := FlightSnapshot{Capacity: len(f.buf), Dropped: f.dropped, Events: make([]FlightEvent, 0, f.n)}
	for i := 0; i < f.n; i++ {
		e := f.buf[(f.start+i)%len(f.buf)]
		if t.IsZero() || e.Time.After(t) {
			s.Events = append(s.Events, e)
		}
	}
	return s
}

// Reset drops every event and the drop count (tests).
func (f *Flight) Reset() {
	f.mu.Lock()
	f.start, f.n, f.seq, f.dropped = 0, 0, 0, 0
	f.mu.Unlock()
}
