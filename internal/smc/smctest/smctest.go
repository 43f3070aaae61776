// Package smctest runs SMC protocol parties against each other over an
// in-memory network, for tests and benchmarks.
package smctest

import (
	"context"
	"fmt"
	"sync"

	"confaudit/internal/transport"
)

// Party runs one node's role on its own mailbox.
type Party[R any] func(ctx context.Context, id string, mb *transport.Mailbox) (R, error)

// RunParties attaches every id to a fresh in-memory network, built with
// opts, before any party starts — so no party can send to a peer that is not registered
// yet — then runs all parties concurrently. The first party error
// cancels the shared context, so the others fail fast instead of
// waiting out their deadlines; that error is returned. Otherwise it
// returns each party's result by id.
func RunParties[R any](ctx context.Context, ids []string, party Party[R], opts ...transport.MemOption) (map[string]R, error) {
	net := transport.NewMemNetwork(opts...)
	defer net.Close() //nolint:errcheck
	mbs := make(map[string]*transport.Mailbox, len(ids))
	for _, id := range ids {
		ep, err := net.Endpoint(id)
		if err != nil {
			return nil, err
		}
		mbs[id] = transport.NewMailbox(ep)
		defer mbs[id].Close() //nolint:errcheck
	}

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		mu       sync.Mutex
		wg       sync.WaitGroup
		firstErr error
	)
	results := make(map[string]R, len(ids))
	for _, id := range ids {
		wg.Add(1)
		go func(id string) {
			defer wg.Done()
			res, err := party(ctx, id, mbs[id])
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				if firstErr == nil {
					firstErr = fmt.Errorf("party %s: %w", id, err)
					cancel()
				}
				return
			}
			results[id] = res
		}(id)
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	return results, nil
}
