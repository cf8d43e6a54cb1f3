package yao

import (
	"crypto/rand"
	"errors"
	"fmt"
	"io"
	"math/big"
	"sort"

	"repro/internal/paillier"
	"repro/internal/transport"
)

// The YMPP wire protocol follows Algorithm 1 step by step (batch.go runs
// `count` instances in the same three frames; a one-element batch is
// exactly one invocation):
//
//	Bob → Alice: n0 ‖ (k − j + 1 mod N)         where k = Ea(x)
//	Alice → Bob: p ‖ w_1 … w_n0                  w_u = z_u (+1 if u > i) mod p
//	Bob → Alice: result bit (step 7: "Bob tells Alice what the conclusion is")
//
// Communication is O(c2·n0) bits with c2 = |p| = N/2 bits, matching the
// complexity the paper charges per YMPP invocation.

// MaxDomain caps n0 to keep a corrupted header from forcing absurd
// allocations. The paper's analysis already makes n0 the dominant cost, so
// legitimate domains stay far below this.
const MaxDomain = 1 << 22

// maxPrimeAttempts bounds the retry loop of Algorithm 1 step 4.
const maxPrimeAttempts = 256

// ErrDomainMismatch reports that the two parties disagreed on n0.
var ErrDomainMismatch = errors.New("yao: parties disagree on comparison domain n0")

func checkDomain(v, n0 int64) error {
	if n0 < 1 || n0 > MaxDomain {
		return fmt.Errorf("yao: domain n0=%d out of range [1,%d]", n0, int64(MaxDomain))
	}
	if v < 1 || v > n0 {
		return fmt.Errorf("yao: input %d outside [1,%d]", v, n0)
	}
	return nil
}

// decryptRange computes Da(base + t mod N) for t = 0..count−1 on the
// shared crypto pool (nil pool: GOMAXPROCS fan-out).
func decryptRange(pool *paillier.Pool, key *RSAKey, base *big.Int, count int) []*big.Int {
	ys := make([]*big.Int, count)
	_ = paillier.ParallelFor(pool, count, func(t int) error {
		v := new(big.Int).Add(base, big.NewInt(int64(t)))
		if v.Cmp(key.N) >= 0 {
			v.Sub(v, key.N)
		}
		ys[t] = key.Decrypt(v)
		return nil
	})
	return ys
}

// findSeparatingPrime implements step 4: draw random primes of the given
// bit length until all y_u mod p differ pairwise by at least 2 in the
// mod-p (circular) sense.
func findSeparatingPrime(random io.Reader, bits int, ys []*big.Int) (*big.Int, []*big.Int, error) {
	if bits < 16 {
		bits = 16
	}
	zs := make([]*big.Int, len(ys))
	sorted := make([]*big.Int, len(ys))
	for attempt := 0; attempt < maxPrimeAttempts; attempt++ {
		p, err := rand.Prime(random, bits)
		if err != nil {
			return nil, nil, fmt.Errorf("yao: generating prime: %w", err)
		}
		ok := true
		for i, y := range ys {
			zs[i] = new(big.Int).Mod(y, p)
		}
		copy(sorted, zs)
		sort.Slice(sorted, func(a, b int) bool { return sorted[a].Cmp(sorted[b]) < 0 })
		gap := new(big.Int)
		for i := 1; i < len(sorted); i++ {
			gap.Sub(sorted[i], sorted[i-1])
			if gap.Cmp(two) < 0 {
				ok = false
				break
			}
		}
		if ok && len(sorted) > 1 {
			// circular wrap gap: (min + p) − max ≥ 2
			gap.Add(sorted[0], p)
			gap.Sub(gap, sorted[len(sorted)-1])
			if gap.Cmp(two) < 0 {
				ok = false
			}
		}
		if ok {
			return p, zs, nil
		}
	}
	return nil, nil, fmt.Errorf("yao: no separating prime found after %d attempts (domain too dense for %d-bit primes)", maxPrimeAttempts, bits)
}

var two = big.NewInt(2)

// SendPublicKey transmits Alice's RSA public key to Bob at session setup.
func SendPublicKey(conn transport.Conn, pub *RSAPublicKey) error {
	nb, eb := MarshalRSAPublicKey(pub)
	return transport.SendMsg(conn, transport.NewBuilder().PutBytes(nb).PutBytes(eb))
}

// RecvPublicKey receives the RSA public key sent by SendPublicKey.
func RecvPublicKey(conn transport.Conn) (*RSAPublicKey, error) {
	r, err := transport.RecvMsg(conn)
	if err != nil {
		return nil, err
	}
	nb := r.Bytes()
	eb := r.Bytes()
	if r.Err() != nil {
		return nil, r.Err()
	}
	return UnmarshalRSAPublicKey(nb, eb)
}
