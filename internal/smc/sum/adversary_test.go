package sum

import (
	"context"
	"math/big"
	"testing"
	"time"

	"confaudit/internal/smc"
	"confaudit/internal/transport"
)

// TestWrongAbscissaShareRejected has a malicious dealer send a share
// evaluated at the wrong abscissa; the receiving party must reject it
// (folding it in would silently corrupt the sum).
func TestWrongAbscissaShareRejected(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	net := transport.NewMemNetwork()
	defer net.Close() //nolint:errcheck

	cfg := Config{
		P:         testPrime,
		Parties:   []string{"A", "M"},
		K:         2,
		Receivers: []string{"A"},
		Session:   "adv",
	}
	aEp, err := net.Endpoint("A")
	if err != nil {
		t.Fatal(err)
	}
	mEp, err := net.Endpoint("M")
	if err != nil {
		t.Fatal(err)
	}
	aMB, mMB := transport.NewMailbox(aEp), transport.NewMailbox(mEp)
	defer aMB.Close() //nolint:errcheck
	defer mMB.Close() //nolint:errcheck

	errc := make(chan error, 1)
	go func() {
		_, err := Run(ctx, aMB, cfg, big.NewInt(5))
		errc <- err
	}()
	// Mallory skips the protocol and sends A a share at the wrong x
	// (A's abscissa is 1; Mallory claims x=7).
	bad := shareBody{X: smc.EncodeBig(big.NewInt(7)), Y: smc.EncodeBig(big.NewInt(123))}
	if err := mMB.SendBody(ctx, "A", "sum.share", "adv", bad); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-errc:
		if err == nil {
			t.Fatal("wrong-abscissa share accepted")
		}
	case <-time.After(8 * time.Second):
		t.Fatal("party never decided")
	}
}

// TestGarbageShareRejected sends an undecodable share.
func TestGarbageShareRejected(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	net := transport.NewMemNetwork()
	defer net.Close() //nolint:errcheck
	cfg := Config{
		P:         testPrime,
		Parties:   []string{"A", "M"},
		K:         2,
		Receivers: []string{"A"},
		Session:   "garbage",
	}
	aEp, err := net.Endpoint("A")
	if err != nil {
		t.Fatal(err)
	}
	mEp, err := net.Endpoint("M")
	if err != nil {
		t.Fatal(err)
	}
	aMB, mMB := transport.NewMailbox(aEp), transport.NewMailbox(mEp)
	defer aMB.Close() //nolint:errcheck
	defer mMB.Close() //nolint:errcheck

	errc := make(chan error, 1)
	go func() {
		_, err := Run(ctx, aMB, cfg, big.NewInt(5))
		errc <- err
	}()
	if err := mMB.SendBody(ctx, "A", "sum.share", "garbage", shareBody{X: "", Y: "!!"}); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-errc:
		if err == nil {
			t.Fatal("garbage share accepted")
		}
	case <-time.After(8 * time.Second):
		t.Fatal("party never decided")
	}
}
