package resilience

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sync"
)

// Outbox is a durable spool of messages addressed to peers that were
// unreachable at send time. Entries are JSON lines appended (and
// flushed) in order, mirroring the cluster journal's discipline;
// acknowledged entries are removed by atomically rewriting the file
// (write temp, fsync, rename). A torn final line — a crash mid-append —
// is tolerated on load: replay stops there instead of failing.
type Outbox struct {
	mu      sync.Mutex
	path    string
	f       *os.File
	bw      *bufio.Writer
	nextSeq uint64
	entries []OutboxEntry
	closed  bool
}

// OutboxEntry is one spooled message. The (Type, Payload) pair is
// replayed verbatim to the peer under a fresh session.
type OutboxEntry struct {
	// Seq orders entries and names them for removal.
	Seq uint64 `json:"seq"`
	// To is the unreachable destination node.
	To string `json:"to"`
	// Type is the message type to replay under.
	Type string `json:"type"`
	// Payload is the spooled message payload, replayed byte for byte
	// (binary payloads are opaque to the JSON line, which carries them
	// base64-encoded).
	Payload []byte `json:"payload"`
	// Tag is caller bookkeeping (e.g. the glsn a fragment belongs to).
	Tag string `json:"tag,omitempty"`
}

// OpenOutbox opens (creating if necessary) the spool at path, loading
// any entries a previous process left behind.
func OpenOutbox(path string) (*Outbox, error) {
	if dir := filepath.Dir(path); dir != "." {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("resilience: creating outbox dir: %w", err)
		}
	}
	o := &Outbox{path: path, nextSeq: 1}
	if err := o.load(); err != nil {
		return nil, err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o600)
	if err != nil {
		return nil, fmt.Errorf("resilience: opening outbox: %w", err)
	}
	o.f = f
	o.bw = bufio.NewWriter(f)
	return o, nil
}

// load reads surviving entries, tolerating a torn final line.
func (o *Outbox) load() error {
	f, err := os.Open(o.path)
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("resilience: opening outbox for load: %w", err)
	}
	defer f.Close() //nolint:errcheck
	br := bufio.NewReader(f)
	for {
		line, err := br.ReadBytes('\n')
		atEOF := errors.Is(err, io.EOF)
		if err != nil && !atEOF {
			return fmt.Errorf("resilience: reading outbox: %w", err)
		}
		if len(line) > 0 {
			var e OutboxEntry
			if jsonErr := json.Unmarshal(line, &e); jsonErr != nil {
				if atEOF {
					break // torn final append; drop it
				}
				return fmt.Errorf("resilience: corrupt outbox entry: %w", jsonErr)
			}
			o.entries = append(o.entries, e)
			if e.Seq >= o.nextSeq {
				o.nextSeq = e.Seq + 1
			}
		}
		if atEOF {
			return nil
		}
	}
	return nil
}

// Append spools one message, journaling it before returning. The
// assigned sequence number is returned.
func (o *Outbox) Append(e OutboxEntry) (uint64, error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.closed {
		return 0, ErrOutboxClosed
	}
	e.Seq = o.nextSeq
	data, err := json.Marshal(e)
	if err != nil {
		return 0, fmt.Errorf("resilience: encoding outbox entry: %w", err)
	}
	if _, err := o.bw.Write(append(data, '\n')); err != nil {
		return 0, fmt.Errorf("resilience: appending outbox entry: %w", err)
	}
	if err := o.bw.Flush(); err != nil {
		return 0, err
	}
	// The spool is the only durability promise a message to a dead peer
	// has; flushing to the OS is not enough if the machine dies too.
	if err := o.f.Sync(); err != nil {
		return 0, fmt.Errorf("resilience: syncing outbox: %w", err)
	}
	o.nextSeq++
	o.entries = append(o.entries, e)
	return e.Seq, nil
}

// For returns the spooled entries addressed to peer, oldest first.
func (o *Outbox) For(peer string) []OutboxEntry {
	o.mu.Lock()
	defer o.mu.Unlock()
	var out []OutboxEntry
	for _, e := range o.entries {
		if e.To == peer {
			out = append(out, e)
		}
	}
	return out
}

// Len returns the number of spooled entries.
func (o *Outbox) Len() int {
	o.mu.Lock()
	defer o.mu.Unlock()
	return len(o.entries)
}

// Remove deletes acknowledged entries and rewrites the spool
// atomically, once for all of them, so a crash never resurrects one.
func (o *Outbox) Remove(seqs ...uint64) error {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.closed {
		return ErrOutboxClosed
	}
	kept := o.entries[:0]
	for _, e := range o.entries {
		if !slices.Contains(seqs, e.Seq) {
			kept = append(kept, e)
		}
	}
	o.entries = kept
	return o.rewriteLocked()
}

// rewriteLocked replaces the spool file with the in-memory entries.
// Caller holds o.mu.
func (o *Outbox) rewriteLocked() error {
	tmpPath := o.path + ".tmp"
	tmp, err := os.OpenFile(tmpPath, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o600)
	if err != nil {
		return fmt.Errorf("resilience: creating outbox snapshot: %w", err)
	}
	bw := bufio.NewWriter(tmp)
	for _, e := range o.entries {
		data, err := json.Marshal(e)
		if err != nil {
			tmp.Close() //nolint:errcheck
			return fmt.Errorf("resilience: encoding outbox snapshot: %w", err)
		}
		if _, err := bw.Write(append(data, '\n')); err != nil {
			tmp.Close() //nolint:errcheck
			return fmt.Errorf("resilience: writing outbox snapshot: %w", err)
		}
	}
	if err := bw.Flush(); err != nil {
		tmp.Close() //nolint:errcheck
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close() //nolint:errcheck
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmpPath, o.path); err != nil {
		return fmt.Errorf("resilience: swapping outbox snapshot: %w", err)
	}
	// The rename is only durable once the directory is synced; without
	// this a crash can resurrect entries the caller saw acknowledged.
	if d, err := os.Open(filepath.Dir(o.path)); err == nil {
		syncErr := d.Sync()
		closeErr := d.Close()
		if syncErr != nil {
			return fmt.Errorf("resilience: syncing outbox dir: %w", syncErr)
		}
		if closeErr != nil {
			return fmt.Errorf("resilience: syncing outbox dir: %w", closeErr)
		}
	}
	o.bw.Flush() //nolint:errcheck // old file is obsolete
	o.f.Close()  //nolint:errcheck
	f, err := os.OpenFile(o.path, os.O_APPEND|os.O_WRONLY, 0o600)
	if err != nil {
		return fmt.Errorf("resilience: reopening outbox: %w", err)
	}
	o.f = f
	o.bw = bufio.NewWriter(f)
	return nil
}

// Close flushes and closes the spool. Entries stay on disk for the
// next process.
func (o *Outbox) Close() error {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.closed {
		return nil
	}
	o.closed = true
	if err := o.bw.Flush(); err != nil {
		return err
	}
	if err := o.f.Sync(); err != nil {
		return err
	}
	return o.f.Close()
}
