// Package resilience is the fault-tolerance layer of the DLA cluster:
// it keeps the auditing protocols of the paper available while
// individual semi-trusted nodes crash, stall, or partition.
//
// Two cooperating pieces:
//
//   - Detector is a heartbeat failure detector: it pings the roster on
//     the "health.ping" message type and classifies every peer as
//     alive, suspect, or dead, publishing transitions to subscribers;
//   - Outbox is a durable spool for messages addressed to an
//     unreachable peer, replayed when the detector marks the peer
//     alive again.
//
// Each send is bounded, retried and fast-failed below this package, in
// transport.Mailbox.Send.
package resilience

import "errors"

// ErrOutboxClosed indicates use of a closed outbox.
var ErrOutboxClosed = errors.New("resilience: outbox closed")
