package commutative

import (
	"crypto/rand"
	"fmt"
	"math/big"
	"sync"

	"confaudit/internal/mathx"
)

// NewSessionKey samples a Pohlig-Hellman key with a short encryption
// exponent (mathx.Group.ShortExpBits), the form the pool pregenerates.
// The key is drawn from crypto/rand; use NewPHKey with an explicit
// reader for deterministic full-width keys.
func NewSessionKey(g *mathx.Group) (*PHKey, error) {
	pm1 := new(big.Int).Sub(g.P, big.NewInt(1))
	e, err := mathx.RandCoprimeBits(rand.Reader, pm1, g.ShortExpBits())
	if err != nil {
		return nil, fmt.Errorf("commutative: sampling pooled exponent: %w", err)
	}
	d, err := mathx.InverseMod(e, pm1)
	if err != nil {
		return nil, fmt.Errorf("commutative: inverting pooled exponent: %w", err)
	}
	return &PHKey{group: g, e: e, d: d}, nil
}

// Pool pregenerates session keys per group on background goroutines so
// protocol hot paths draw a ready key in O(1). It is safe for
// concurrent use. Keys are handed out exactly once; a drained pool
// generates inline and triggers an asynchronous refill.
type Pool struct {
	target int

	mu      sync.Mutex
	ready   map[string][]*PHKey // modulus (decimal) -> ready keys
	filling map[string]bool
}

// NewPool creates a pool that keeps up to target ready keys per group.
func NewPool(target int) *Pool {
	if target < 1 {
		target = 1
	}
	return &Pool{
		target:  target,
		ready:   make(map[string][]*PHKey),
		filling: make(map[string]bool),
	}
}

// SharedPool is the process-wide key pool every ring protocol session
// draws its key from.
var SharedPool = NewPool(8)

// Key pops a pregenerated key for the group, generating inline if the
// pool is empty, and kicks off an asynchronous refill either way. Keys
// must never be reused across protocol sessions; each one is handed
// out once.
func (p *Pool) Key(g *mathx.Group) (*PHKey, error) {
	id := g.P.Text(10)
	p.mu.Lock()
	var key *PHKey
	if q := p.ready[id]; len(q) > 0 {
		key = q[len(q)-1]
		q[len(q)-1] = nil
		p.ready[id] = q[:len(q)-1]
	}
	p.maybeRefillLocked(id, g)
	p.mu.Unlock()
	if key != nil {
		return key, nil
	}
	return NewSessionKey(g)
}

// maybeRefillLocked starts one transient refill goroutine for the group
// unless one is already running or the pool is full. Caller holds p.mu.
func (p *Pool) maybeRefillLocked(id string, g *mathx.Group) {
	if p.filling[id] || len(p.ready[id]) >= p.target {
		return
	}
	p.filling[id] = true
	go p.refill(id, g)
}

// refill tops the group's queue up to target and exits; the goroutine
// is transient so an idle process holds no background workers.
func (p *Pool) refill(id string, g *mathx.Group) {
	for {
		p.mu.Lock()
		if len(p.ready[id]) >= p.target {
			p.filling[id] = false
			p.mu.Unlock()
			return
		}
		p.mu.Unlock()
		key, err := NewSessionKey(g)
		if err != nil {
			// Out of entropy is unrecoverable here; leave the pool
			// empty and let the next draw surface the error inline.
			p.mu.Lock()
			p.filling[id] = false
			p.mu.Unlock()
			return
		}
		p.mu.Lock()
		p.ready[id] = append(p.ready[id], key)
		p.mu.Unlock()
	}
}

// Len reports the number of ready keys for the group (tests).
func (p *Pool) Len(g *mathx.Group) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.ready[g.P.Text(10)])
}
