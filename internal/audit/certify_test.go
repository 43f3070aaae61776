package audit

import (
	"crypto/ed25519"
	"encoding/hex"
	"errors"
	"testing"

	"confaudit/internal/logmodel"
)

// TestCertifiedQuery verifies the trusted-auditing path: every node
// responsible for a subquery countersigns the result, and the auditor
// can verify the certificate against the cluster public keys.
func TestCertifiedQuery(t *testing.T) {
	r := newRig(t)
	ctx := testCtx(t)
	glsns, session, cert, err := r.auditor.QueryCertified(ctx, `protocl = "UDP" AND id = "U1"`)
	if err != nil {
		t.Fatal(err)
	}
	if len(glsns) != 2 {
		t.Fatalf("glsns = %v", glsns)
	}
	if cert == nil {
		t.Fatal("no certificate returned")
	}
	// The criteria spans P1 (id) and P3 (protocl): both must have signed.
	if len(cert.Ring) != 2 || len(cert.Sigs) != 2 {
		t.Fatalf("cert ring %v, %d sigs", cert.Ring, len(cert.Sigs))
	}
	if err := VerifyResult(r.boot.PeerKeys, session, glsns, cert); err != nil {
		t.Fatalf("VerifyResult: %v", err)
	}
}

func TestCertifiedQuerySingleNode(t *testing.T) {
	r := newRig(t)
	ctx := testCtx(t)
	glsns, session, cert, err := r.auditor.QueryCertified(ctx, `C1 > 30`)
	if err != nil {
		t.Fatal(err)
	}
	if cert == nil || len(cert.Ring) != 1 {
		t.Fatalf("cert = %+v", cert)
	}
	if err := VerifyResult(r.boot.PeerKeys, session, glsns, cert); err != nil {
		t.Fatal(err)
	}
}

// TestCertifiedQueryAcrossGLSNWidth certifies a result whose glsns
// straddle a hex-width boundary (0xfffffffc..0x100000000). Ring nodes
// and the auditor must list them in the same order, or no signature
// verifies.
func TestCertifiedQueryAcrossGLSNWidth(t *testing.T) {
	boot := *sharedBootstrap(t)
	boot.FirstGLSN = 0xfffffffc
	r := newRigWith(t, &boot)
	ctx := testCtx(t)
	glsns, session, cert, err := r.auditor.QueryCertified(ctx, "C1 > 0")
	if err != nil {
		t.Fatal(err)
	}
	assertGLSNs(t, glsns, []logmodel.GLSN{0xfffffffc, 0xfffffffd, 0xfffffffe, 0xffffffff, 0x100000000})
	if err := VerifyResult(r.boot.PeerKeys, session, glsns, cert); err != nil {
		t.Fatal(err)
	}
}

// TestCertStatementPinned pins the signed statement's bytes: the glsns
// in ascending order, in hex, comma-separated. A list of one hex width
// signs the same statement as when the list was sorted as text, so
// certificates issued then still verify.
func TestCertStatementPinned(t *testing.T) {
	for _, tc := range []struct {
		session string
		glsns   []logmodel.GLSN
		want    string // sha256 of "auditres|<session>|<hex>,<hex>,..."
	}{
		{"q/auditor/7", glsnsOf(0, 1, 4), "8481b1b7b2e8179aa5a872669a183f6b7199e059fdeb589225299a09b689eb11"},
		{"s", []logmodel.GLSN{0xfffffffe, 0xffffffff, 0x100000000}, "03300249a70097bf2ff18b492b90b1fa0bc5e999b39ea123746aeaf0b763f206"},
	} {
		if got := hex.EncodeToString(certStatement(tc.session, tc.glsns)); got != tc.want {
			t.Errorf("certStatement(%q, %v) = %s, want %s", tc.session, tc.glsns, got, tc.want)
		}
	}
}

func TestVerifyResultRejectsForgery(t *testing.T) {
	r := newRig(t)
	ctx := testCtx(t)
	glsns, session, cert, err := r.auditor.QueryCertified(ctx, `protocl = "UDP"`)
	if err != nil {
		t.Fatal(err)
	}

	t.Run("tampered result", func(t *testing.T) {
		forged := append([]logmodel.GLSN(nil), glsns...)
		forged = append(forged, 0xdeadbeef)
		if err := VerifyResult(r.boot.PeerKeys, session, forged, cert); err == nil {
			t.Fatal("tampered glsn list verified")
		}
	})
	t.Run("dropped result", func(t *testing.T) {
		if len(glsns) == 0 {
			t.Skip("empty result")
		}
		if err := VerifyResult(r.boot.PeerKeys, session, glsns[:len(glsns)-1], cert); err == nil {
			t.Fatal("truncated glsn list verified")
		}
	})
	t.Run("wrong session", func(t *testing.T) {
		if err := VerifyResult(r.boot.PeerKeys, "other-session", glsns, cert); err == nil {
			t.Fatal("replayed certificate verified under a different session")
		}
	})
	t.Run("mauled signature", func(t *testing.T) {
		bad := &ResultCert{Ring: cert.Ring, Sigs: map[string][]byte{}}
		for n, s := range cert.Sigs {
			bad.Sigs[n] = append([]byte(nil), s...)
			bad.Sigs[n][5] ^= 0x80
		}
		if err := VerifyResult(r.boot.PeerKeys, session, glsns, bad); err == nil {
			t.Fatal("mauled signatures verified")
		}
	})
	t.Run("short signature", func(t *testing.T) {
		bad := &ResultCert{Ring: cert.Ring, Sigs: map[string][]byte{}}
		for n, s := range cert.Sigs {
			bad.Sigs[n] = s[:ed25519.SignatureSize-1]
		}
		if err := VerifyResult(r.boot.PeerKeys, session, glsns, bad); !errors.Is(err, ErrBadResultCert) {
			t.Fatalf("63-byte signatures: err = %v, want ErrBadResultCert", err)
		}
	})
	t.Run("truncated key", func(t *testing.T) {
		keys := map[string]ed25519.PublicKey{}
		for n, k := range r.boot.PeerKeys {
			keys[n] = k[:ed25519.PublicKeySize-1]
		}
		if err := VerifyResult(keys, session, glsns, cert); !errors.Is(err, ErrBadResultCert) {
			t.Fatalf("31-byte keys: err = %v, want ErrBadResultCert", err)
		}
	})
	t.Run("missing signer", func(t *testing.T) {
		bad := &ResultCert{Ring: cert.Ring, Sigs: map[string][]byte{}}
		if err := VerifyResult(r.boot.PeerKeys, session, glsns, bad); err == nil {
			t.Fatal("certificate without signatures verified")
		}
	})
	t.Run("nil cert", func(t *testing.T) {
		if err := VerifyResult(r.boot.PeerKeys, session, glsns, nil); err == nil {
			t.Fatal("nil certificate verified")
		}
	})
	t.Run("unknown signer", func(t *testing.T) {
		bad := &ResultCert{Ring: []string{"mallory"}, Sigs: map[string][]byte{"mallory": make([]byte, ed25519.SignatureSize)}}
		if err := VerifyResult(r.boot.PeerKeys, session, glsns, bad); err == nil {
			t.Fatal("unknown signer verified")
		}
	})
}
