// Package commutative implements the commutative encryption schemes the
// paper builds its relaxed secure-multiparty primitives on (§3): the
// Pohlig-Hellman exponentiation cipher over a safe-prime group (paper
// reference [21]), satisfying eq. (6) order independence and the
// eq. (7) collision bound. The paper's other example, the XOR one-time
// pad, commutes too but is single-use, so nothing here implements it.
//
// A cipher E is commutative when, for keys K1..Kn and any permutations
// i, j of 1..n:
//
//	E_Ki1(...E_Kin(M)) = E_Kj1(...E_Kjn(M))            (eq. 6)
//
// which lets a group of DLA nodes route an encrypted message in any
// order and still compare or decrypt the result.
package commutative

import (
	"crypto/rand"
	"errors"
	"fmt"
	"io"
	"math/big"

	"confaudit/internal/mathx"
	"confaudit/internal/workpool"
)

// Errors reported by cipher operations.
var (
	// ErrBlockSize indicates an input block of the wrong width.
	ErrBlockSize = errors.New("commutative: wrong block size")
	// ErrNotInGroup indicates a block whose integer value is outside
	// [1, p-1] and therefore not a valid group element.
	ErrNotInGroup = errors.New("commutative: block is not a group element")
)

// PHKey is a Pohlig-Hellman key pair (e, d) over a safe-prime group:
// encryption is M^e mod p, decryption M^d mod p, with e*d = 1 mod p-1.
// The construct mirrors RSA but with a public prime modulus and both
// exponents secret.
type PHKey struct {
	group *mathx.Group
	e, d  *big.Int
}

// NewPHKey samples a fresh Pohlig-Hellman key over the group. The
// encryption exponent is drawn coprime to p-1 so the inverse exponent
// exists (d = e^-1 mod p-1).
func NewPHKey(rng io.Reader, g *mathx.Group) (*PHKey, error) {
	return newKey(g, func(pm1 *big.Int) (*big.Int, error) { return mathx.RandCoprime(rng, pm1) })
}

// NewSessionKey samples the key one ring-protocol session uses: fresh
// from crypto/rand, with a short encryption exponent
// (mathx.Group.ShortExpBits) and a full-width decryption exponent.
// Every session draws its own and never reuses it. Use NewPHKey with
// an explicit reader for deterministic full-width keys.
func NewSessionKey(g *mathx.Group) (*PHKey, error) {
	return newKey(g, func(pm1 *big.Int) (*big.Int, error) {
		return mathx.RandCoprimeBits(rand.Reader, pm1, g.ShortExpBits())
	})
}

// newKey draws e coprime to p-1 with sample and pairs it with its
// inverse d = e^-1 mod p-1.
func newKey(g *mathx.Group, sample func(pm1 *big.Int) (*big.Int, error)) (*PHKey, error) {
	pm1 := new(big.Int).Sub(g.P, big.NewInt(1))
	e, err := sample(pm1)
	if err != nil {
		return nil, fmt.Errorf("commutative: sampling exponent: %w", err)
	}
	d, err := mathx.InverseMod(e, pm1)
	if err != nil {
		return nil, fmt.Errorf("commutative: inverting exponent: %w", err)
	}
	return &PHKey{group: g, e: e, d: d}, nil
}

// Group returns the group the key operates in.
func (k *PHKey) Group() *mathx.Group { return k.group }

// Compose returns the key whose encryption applies k and o together
// (exponent e_k·e_o mod p-1), so its decryption strips both layers in
// one exponentiation. Both keys must be over the same group.
func (k *PHKey) Compose(o *PHKey) (*PHKey, error) {
	if k.group.P.Cmp(o.group.P) != 0 {
		return nil, errors.New("commutative: composing keys over different groups")
	}
	pm1 := new(big.Int).Sub(k.group.P, big.NewInt(1))
	mulMod := func(a, b *big.Int) *big.Int { return new(big.Int).Mod(new(big.Int).Mul(a, b), pm1) }
	return &PHKey{group: k.group, e: mulMod(k.e, o.e), d: mulMod(k.d, o.d)}, nil
}

// EncryptInt computes M^e mod p for a group element M in [1, p-1]. It
// never consults the fixed-base cache; only EncryptFirstHop does.
func (k *PHKey) EncryptInt(m *big.Int) (*big.Int, error) {
	if err := k.checkElement(m); err != nil {
		return nil, err
	}
	return new(big.Int).Exp(m, k.e, k.group.P), nil
}

// DecryptInt computes C^d mod p, inverting EncryptInt.
func (k *PHKey) DecryptInt(c *big.Int) (*big.Int, error) {
	if err := k.checkElement(c); err != nil {
		return nil, err
	}
	return new(big.Int).Exp(c, k.d, k.group.P), nil
}

func (k *PHKey) checkElement(m *big.Int) error {
	if m == nil || m.Sign() <= 0 || m.Cmp(k.group.P) >= 0 {
		return ErrNotInGroup
	}
	return nil
}

// BlockSize returns the byte width of a serialized group element.
func (k *PHKey) BlockSize() int { return (k.group.P.BitLen() + 7) / 8 }

// Encrypt encrypts one fixed-width big-endian group element.
func (k *PHKey) Encrypt(block []byte) ([]byte, error) {
	m, err := k.parseBlock(block)
	if err != nil {
		return nil, err
	}
	c, err := k.EncryptInt(m)
	if err != nil {
		return nil, err
	}
	return k.marshalBlock(c), nil
}

// Decrypt inverts Encrypt for the same key.
func (k *PHKey) Decrypt(block []byte) ([]byte, error) {
	c, err := k.parseBlock(block)
	if err != nil {
		return nil, err
	}
	m, err := k.DecryptInt(c)
	if err != nil {
		return nil, err
	}
	return k.marshalBlock(m), nil
}

func (k *PHKey) parseBlock(block []byte) (*big.Int, error) {
	if len(block) != k.BlockSize() {
		return nil, fmt.Errorf("%w: got %d bytes, want %d", ErrBlockSize, len(block), k.BlockSize())
	}
	m := new(big.Int).SetBytes(block)
	if err := k.checkElement(m); err != nil {
		return nil, err
	}
	return m, nil
}

func (k *PHKey) marshalBlock(v *big.Int) []byte {
	return v.FillBytes(make([]byte, k.BlockSize()))
}

// EncodeElement maps arbitrary bytes into the cipher's block space by
// hashing into the quadratic-residue subgroup. Two DLA nodes encoding
// the same plaintext obtain the same block, which is what makes the
// secure set-intersection comparison of eq. (6)/(7) sound.
func (k *PHKey) EncodeElement(data []byte) []byte {
	return k.marshalBlock(k.group.HashToQR(data))
}

// parallelThreshold is the batch size above which the batch APIs fan
// out over the shared worker pool. Modular exponentiation dominates
// every relayed set in the DLA protocols, so batches parallelize almost
// perfectly; tiny batches stay sequential to avoid scheduling overhead.
const parallelThreshold = 4

// pool is the worker pool the batch APIs fan out over. Package-level so
// the equivalence tests can substitute pools of fixed worker counts.
var pool = workpool.Shared

// EncryptBlocks encrypts every block under the key, preserving order:
// the relay path, which re-encrypts another party's ciphertexts and so
// never consults the fixed-base cache. Batches above parallelThreshold
// are fanned out over the shared GOMAXPROCS-sized worker pool; the
// output is byte-identical to a serial Encrypt loop for any worker
// count (pinned by the equivalence tests).
func (k *PHKey) EncryptBlocks(blocks [][]byte) ([][]byte, error) {
	return mapBlocks(blocks, k.Encrypt, "encrypting")
}

// DecryptBlocks decrypts every block under the key, preserving order;
// the batch counterpart of Decrypt.
func (k *PHKey) DecryptBlocks(blocks [][]byte) ([][]byte, error) {
	return mapBlocks(blocks, k.Decrypt, "decrypting")
}

func mapBlocks(blocks [][]byte, op func([]byte) ([]byte, error), verb string) ([][]byte, error) {
	out := make([][]byte, len(blocks))
	if len(blocks) <= parallelThreshold {
		for i, b := range blocks {
			res, err := op(b)
			if err != nil {
				return nil, fmt.Errorf("commutative: %s block %d: %w", verb, i, err)
			}
			out[i] = res
		}
		return out, nil
	}
	err := pool.Map(len(blocks), func(i int) error {
		res, err := op(blocks[i])
		if err != nil {
			return fmt.Errorf("commutative: %s block %d: %w", verb, i, err)
		}
		out[i] = res
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
