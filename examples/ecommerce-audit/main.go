// E-commerce audit: the paper's §2 motivating workload. Multiple
// independent merchants log business-to-business transaction events to
// a shared DLA cluster; a regulator audits cross-merchant activity —
// transaction counts, volume totals, per-merchant extremes — without
// any party revealing raw business records:
//
//   - the DLA query engine answers criteria over fragmented logs;
//   - the §3.5 secure sum aggregates private per-merchant revenue with
//     (k,n) secret sharing, so the total is known but no addend is;
//   - the §3.3 blind-TTP ranking finds the largest merchant without
//     disclosing any revenue figure.
package main

import (
	"context"
	"fmt"
	"log"
	"math/big"
	"sync"
	"time"

	"confaudit/pkg/dla"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()

	// Schema with four undefined (application-private) attributes,
	// partitioned over four DLA nodes.
	schema, err := dla.ECommerceSchema(4)
	if err != nil {
		return err
	}
	part, err := dla.RoundRobinPartition(schema, 4)
	if err != nil {
		return err
	}
	cl, err := dla.Deploy(dla.ClusterOptions{Partition: part})
	if err != nil {
		return err
	}
	defer cl.Close() //nolint:errcheck

	// Three merchants log synthetic transaction streams.
	gen := dla.NewWorkload(2026)
	for i, merchant := range []string{"acme", "globex", "initech"} {
		user, err := dla.Connect(ctx, cl, dla.SessionConfig{ID: merchant, TicketID: fmt.Sprintf("T-%s", merchant)})
		if err != nil {
			return err
		}
		if _, err := user.LogBatch(ctx, gen.Transactions(schema, 30, 4)); err != nil {
			return err
		}
		fmt.Printf("merchant %d (%s): 30 transaction events logged\n", i+1, merchant)
	}

	// The regulator audits the combined activity.
	reg, err := dla.Connect(ctx, cl, dla.SessionConfig{ID: "regulator", TicketID: "T-REG", Ops: []dla.Op{dla.OpRead}})
	if err != nil {
		return err
	}
	defer reg.Close() //nolint:errcheck
	n, err := reg.Aggregate(ctx, "*", dla.AggCount, "")
	if err != nil {
		return err
	}
	fmt.Printf("\nregulator: %v events across all merchants\n", n)

	udpVolume, err := reg.Aggregate(ctx, `protocl = "UDP"`, dla.AggSum, "C2")
	if err != nil {
		return err
	}
	fmt.Printf("regulator: total C2 volume over UDP: %.2f\n", udpVolume)

	heavy, err := reg.Query(ctx, `C1 > 9500`)
	if err != nil {
		return err
	}
	fmt.Printf("regulator: %d suspiciously large C1 events: %v\n", len(heavy), heavy)

	// Cross-organization secure sum (§3.5): the merchants jointly
	// compute their combined private revenue; nobody learns an
	// individual figure, and only the regulator-designated receiver
	// learns the total.
	fmt.Println("\nsecure sum of private per-merchant revenue:")
	revenues := map[string]*big.Int{
		"m-acme":    big.NewInt(1_250_000),
		"m-globex":  big.NewInt(2_830_000),
		"m-initech": big.NewInt(640_000),
	}
	parties := []string{"m-acme", "m-globex", "m-initech"}
	net := dla.NewMemNetwork()
	defer net.Close() //nolint:errcheck
	mbs := make(map[string]*dla.Mailbox, len(parties)+1)
	for _, p := range append([]string{}, parties...) {
		ep, err := net.Endpoint(p)
		if err != nil {
			return err
		}
		mbs[p] = dla.NewMailbox(ep)
		defer mbs[p].Close() //nolint:errcheck
	}
	cfg := dla.SumConfig{
		P:         big.NewInt(2305843009213693951), // 2^61-1
		Parties:   parties,
		K:         2,
		Receivers: []string{"m-acme"},
		Session:   "revenue-2026",
	}
	var (
		wg    sync.WaitGroup
		total *big.Int
	)
	for _, p := range parties {
		wg.Add(1)
		go func(p string) {
			defer wg.Done()
			res, err := dla.SecureSum(ctx, mbs[p], cfg, revenues[p])
			if err != nil {
				log.Printf("%s: %v", p, err)
				return
			}
			if res != nil {
				total = res
			}
		}(p)
	}
	wg.Wait()
	fmt.Printf("combined revenue (individuals stay private): %v\n", total)

	// Blind-TTP ranking (§3.3): who is the largest merchant? A fourth
	// node acts as blind TTP; it sees only monotone-transformed values.
	fmt.Println("\nblind ranking of merchants by revenue:")
	ttpEp, err := net.Endpoint("ttp")
	if err != nil {
		return err
	}
	ttpMB := dla.NewMailbox(ttpEp)
	defer ttpMB.Close() //nolint:errcheck
	rankCfg := dla.RankConfig{
		Holders:  parties,
		TTP:      "ttp",
		MaxValue: big.NewInt(10_000_000),
		Session:  "rank-2026",
	}
	var rankRes *dla.RankResult
	wg.Add(1)
	go func() {
		defer wg.Done()
		if err := dla.ServeRank(ctx, ttpMB, rankCfg); err != nil {
			log.Printf("ttp: %v", err)
		}
	}()
	for _, p := range parties {
		wg.Add(1)
		go func(p string) {
			defer wg.Done()
			res, err := dla.Rank(ctx, mbs[p], rankCfg, revenues[p])
			if err != nil {
				log.Printf("%s: %v", p, err)
				return
			}
			if p == "m-acme" {
				rankRes = res
			}
		}(p)
	}
	wg.Wait()
	if rankRes != nil {
		fmt.Printf("largest merchant: %s, smallest: %s, ranks: %v\n",
			rankRes.MaxHolder, rankRes.MinHolder, rankRes.Rank)
	}
	return nil
}
