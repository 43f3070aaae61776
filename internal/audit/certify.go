package audit

import (
	"crypto/ed25519"
	"crypto/sha256"
	"errors"
	"fmt"
	"strconv"

	"confaudit/internal/logmodel"
)

// Result certification: the paper has DLA nodes use "threshold
// signature and distributed majority agreement to provide trusted and
// reliable auditing". In this engine, every node responsible for a
// subquery also receives the final conjunction (they are all ∩s
// receivers) and signs a digest of the result. The auditor can then
// verify that every responsible node — not just the one that answered —
// stands behind the glsn list, so a single compromised responder cannot
// forge audit results.

// ErrBadResultCert indicates a certificate that fails verification.
var ErrBadResultCert = errors.New("audit: invalid result certificate")

// ResultCert certifies a query result.
type ResultCert struct {
	// Ring lists the nodes that were responsible for subqueries (and
	// therefore know the result).
	Ring []string `json:"ring"`
	// Sigs maps each ring node to its Ed25519 signature over the result
	// digest.
	Sigs map[string][]byte `json:"sigs"`
}

// certStatement is the byte string ring nodes sign: a hash of the
// session and the ascending glsn list, each glsn in hex, comma-separated.
func certStatement(session string, glsns []logmodel.GLSN) []byte {
	b := append([]byte("auditres|"), session...)
	b = append(b, '|')
	for i, g := range glsns {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendUint(b, uint64(g), 16)
	}
	sum := sha256.Sum256(b)
	return sum[:]
}

// VerifyResult checks a certified query result: every ring node signed
// the digest of exactly these glsns. A key of the wrong length fails
// with ErrBadResultCert rather than panicking inside ed25519.
func VerifyResult(keys map[string]ed25519.PublicKey, session string, glsns []logmodel.GLSN, cert *ResultCert) error {
	if cert == nil || len(cert.Ring) == 0 {
		return fmt.Errorf("%w: missing certificate", ErrBadResultCert)
	}
	stmt := certStatement(session, glsns)
	for _, node := range cert.Ring {
		sig, ok := cert.Sigs[node]
		if !ok {
			return fmt.Errorf("%w: node %s did not sign", ErrBadResultCert, node)
		}
		pub, ok := keys[node]
		if !ok || len(pub) != ed25519.PublicKeySize {
			return fmt.Errorf("%w: unknown signer %s", ErrBadResultCert, node)
		}
		if !ed25519.Verify(pub, stmt, sig) {
			return fmt.Errorf("%w: signature of %s rejected", ErrBadResultCert, node)
		}
	}
	return nil
}
