// Package smc holds what the relaxed secure-multiparty computing
// protocols of paper §3 (Definition 1) share: the one ring pass
// (Circulate) through which ∩s and ∪s circulate every node's set until
// it is encrypted under every key, the one relay body (RelayWire) and
// its sender (Send), run validation (ValidateRun), big-integer wire
// encoding, and the ring-ordering utilities.
//
// The concrete primitives live in subpackages:
//
//	intersect — secure set intersection ∩s (§3.1)
//	union     — secure set union ∪s (§3.4)
//	sum       — secure sum Σs and weighted sum (§3.5)
//	compare   — secure equality =s (§3.2) and Max/Min/Rank (§3.3)
//	ot        — 1-of-2 oblivious transfer (baseline substrate)
//	circuit   — boolean circuits (baseline substrate)
//	garbled   — Yao garbled-circuit 2PC (the classical zero-disclosure
//	            baseline the paper argues is too expensive)
package smc

import (
	"errors"
	"fmt"
	"math/big"

	"confaudit/internal/mathx"
)

// Errors shared by protocol implementations.
var (
	// ErrNotInRing indicates a node ID absent from the ring ordering.
	ErrNotInRing = errors.New("smc: node not in ring")
	// ErrBadWireValue indicates an unparseable big integer on the wire.
	ErrBadWireValue = errors.New("smc: bad wire value")
	// ErrProtocol indicates a peer deviating from the protocol.
	ErrProtocol = errors.New("smc: protocol violation")
)

// EncodeBig renders a big integer for a JSON payload.
func EncodeBig(v *big.Int) string {
	if v == nil {
		return ""
	}
	return v.Text(62)
}

// DecodeBig parses a big integer from a JSON payload.
func DecodeBig(s string) (*big.Int, error) {
	if s == "" {
		return nil, fmt.Errorf("%w: empty", ErrBadWireValue)
	}
	v, ok := new(big.Int).SetString(s, 62)
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrBadWireValue, s)
	}
	return v, nil
}

// IndexOf locates a node in the ring.
func IndexOf(ring []string, node string) (int, error) {
	for i, n := range ring {
		if n == node {
			return i, nil
		}
	}
	return 0, fmt.Errorf("%w: %q", ErrNotInRing, node)
}

// NextInRing returns the successor of node in ring order.
func NextInRing(ring []string, node string) (string, error) {
	i, err := IndexOf(ring, node)
	if err != nil {
		return "", err
	}
	return ring[(i+1)%len(ring)], nil
}

// ValidateRing checks that the ring has at least min distinct members.
func ValidateRing(ring []string, min int) error {
	if len(ring) < min {
		return fmt.Errorf("%w: ring of %d nodes, need at least %d", ErrProtocol, len(ring), min)
	}
	seen := make(map[string]struct{}, len(ring))
	for _, n := range ring {
		if n == "" {
			return fmt.Errorf("%w: empty node ID in ring", ErrProtocol)
		}
		if _, dup := seen[n]; dup {
			return fmt.Errorf("%w: duplicate node %q in ring", ErrProtocol, n)
		}
		seen[n] = struct{}{}
	}
	return nil
}

// ValidateRun checks the settings every ring protocol run shares: a
// group, a ring of at least two distinct members, at least one
// receiver, every receiver a ring member, and a session.
func ValidateRun(g *mathx.Group, ring, receivers []string, session string) error {
	if g == nil {
		return fmt.Errorf("%w: nil group", ErrProtocol)
	}
	if err := ValidateRing(ring, 2); err != nil {
		return err
	}
	if len(receivers) == 0 {
		return fmt.Errorf("%w: no receivers", ErrProtocol)
	}
	for _, r := range receivers {
		if !Contains(ring, r) {
			return fmt.Errorf("%w: receiver %q is not a ring member", ErrProtocol, r)
		}
	}
	if session == "" {
		return fmt.Errorf("%w: empty session", ErrProtocol)
	}
	return nil
}

// Contains reports whether the node list contains the node.
func Contains(nodes []string, node string) bool {
	for _, n := range nodes {
		if n == node {
			return true
		}
	}
	return false
}
