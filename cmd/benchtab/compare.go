package main

import (
	"context"
	"fmt"
	"math/big"
	"time"

	"confaudit/internal/mathx"
	"confaudit/internal/smc/circuit"
	"confaudit/internal/smc/compare"
	"confaudit/internal/smc/garbled"
	"confaudit/internal/smc/intersect"
	"confaudit/internal/smc/smctest"
	"confaudit/internal/smc/sum"
	"confaudit/internal/transport"
)

// runCompare measures the paper's central quantitative claims:
//
//	C1: classical zero-disclosure SMC (Yao garbled circuits over OT) is
//	    orders of magnitude more expensive than the relaxed primitives;
//	C2: blind-TTP coordination makes equality/comparison cheap;
//	C3: the secret-sharing secure sum scales mildly with party count.
func runCompare() error {
	section("CLAIM C1/C2 — RELAXED (blind-TTP) vs CLASSICAL (garbled circuit) SECURE EQUALITY")
	relaxed, err := timeRelaxedEquality(64)
	if err != nil {
		return err
	}
	classical, err := timeGarbledEquality(8)
	if err != nil {
		return err
	}
	fmt.Printf("%-44s %14s\n", "protocol", "per equality")
	fmt.Printf("%-44s %14s\n", "relaxed =s (randomized mapping + blind TTP)", relaxed)
	fmt.Printf("%-44s %14s\n", "classical (32-bit garbled circuit + OT)", classical)
	fmt.Printf("cost ratio classical/relaxed: %.0fx\n", float64(classical)/float64(relaxed))

	section("CLAIM C1 — SECURE SET INTERSECTION COST vs SET SIZE (3 nodes, 768-bit group)")
	fmt.Printf("%-10s %14s %16s\n", "set size", "total time", "per element")
	for _, size := range []int{4, 16, 64} {
		d, err := timeIntersect(3, size)
		if err != nil {
			return err
		}
		fmt.Printf("%-10d %14s %16s\n", size, d, d/time.Duration(size))
	}

	section("CLAIM C3 — SECURE SUM COST vs PARTY COUNT (k = majority)")
	fmt.Printf("%-10s %14s\n", "parties", "total time")
	for _, n := range []int{3, 5, 9} {
		d, err := timeSecureSum(n)
		if err != nil {
			return err
		}
		fmt.Printf("%-10d %14s\n", n, d)
	}
	return nil
}

// timeParties runs one SMC party per id through smctest.RunParties and
// returns the slowest party's elapsed time: the protocol's wall time,
// without the network setup.
func timeParties(ctx context.Context, ids []string, party func(ctx context.Context, id string, mb *transport.Mailbox) error) (time.Duration, error) {
	elapsed, err := smctest.RunParties(ctx, ids, func(ctx context.Context, id string, mb *transport.Mailbox) (time.Duration, error) {
		start := time.Now()
		err := party(ctx, id, mb)
		return time.Since(start), err
	})
	if err != nil {
		return 0, err
	}
	var slowest time.Duration
	for _, d := range elapsed {
		slowest = max(slowest, d)
	}
	return slowest, nil
}

func timeRelaxedEquality(iters int) (time.Duration, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	v := big.NewInt(123456)
	d, err := timeParties(ctx, []string{"A", "B", "T"}, func(ctx context.Context, id string, mb *transport.Mailbox) error {
		for i := 0; i < iters; i++ {
			cfg := compare.EqualityConfig{
				P:       big.NewInt(2305843009213693951),
				Holders: [2]string{"A", "B"},
				TTP:     "T",
				Session: fmt.Sprintf("eq-%d", i),
			}
			var err error
			if id == "T" {
				err = compare.ServeEqual(ctx, mb, cfg)
			} else {
				_, err = compare.Equal(ctx, mb, cfg, v)
			}
			if err != nil {
				return err
			}
		}
		return nil
	})
	return d / time.Duration(iters), err
}

func timeGarbledEquality(iters int) (time.Duration, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()
	c := circuit.Equality(32)
	x := circuit.Uint64ToBits(123456, 32)
	d, err := timeParties(ctx, []string{"G", "E"}, func(ctx context.Context, id string, mb *transport.Mailbox) error {
		for i := 0; i < iters; i++ {
			cfg := garbled.Config{
				Group:     mathx.Oakley768,
				Garbler:   "G",
				Evaluator: "E",
				Session:   fmt.Sprintf("gc-%d", i),
			}
			var err error
			if id == "G" {
				_, err = garbled.Garble(ctx, mb, cfg, c, x)
			} else {
				_, err = garbled.Evaluate(ctx, mb, cfg, c, x)
			}
			if err != nil {
				return err
			}
		}
		return nil
	})
	return d / time.Duration(iters), err
}

func timeIntersect(parties, setSize int) (time.Duration, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()
	ring := make([]string, parties)
	for i := range ring {
		ring[i] = fmt.Sprintf("P%d", i)
	}
	set := make([][]byte, setSize)
	for j := range set {
		set[j] = []byte(fmt.Sprintf("element-%05d", j))
	}
	cfg := intersect.Config{
		Group:     mathx.Oakley768,
		Ring:      ring,
		Receivers: []string{ring[0]},
		Session:   "bench",
	}
	return timeParties(ctx, ring, func(ctx context.Context, _ string, mb *transport.Mailbox) error {
		_, err := intersect.Run(ctx, mb, cfg, set)
		return err
	})
}

func timeSecureSum(parties int) (time.Duration, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	ids := make([]string, parties)
	values := make(map[string]*big.Int, parties)
	for i := range ids {
		ids[i] = fmt.Sprintf("P%d", i)
		values[ids[i]] = big.NewInt(int64(i * 100))
	}
	cfg := sum.Config{
		P:         big.NewInt(2305843009213693951),
		Parties:   ids,
		K:         parties/2 + 1,
		Receivers: []string{ids[0]},
		Session:   "bench",
	}
	return timeParties(ctx, ids, func(ctx context.Context, id string, mb *transport.Mailbox) error {
		_, err := sum.Run(ctx, mb, cfg, values[id])
		return err
	})
}
