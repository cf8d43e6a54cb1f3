package mpc

import (
	"crypto/rand"
	"math/big"
	"testing"

	"repro/internal/paillier"
	"repro/internal/transport"
)

// The Paillier plaintext space bounds every masked product: x·y + v must
// stay below n/2 in absolute value. These tests pin the failure mode when
// a caller violates that contract — a clean error from the encryption
// layer, not silent wraparound.

func TestSenderMaskBeyondPlaintextSpaceFails(t *testing.T) {
	k := testKey(t)
	huge := new(big.Int).Set(k.PlaintextBound()) // exactly n/2: out of range
	if _, err := multiply(k, []int64{3}, []int64{4}, []*big.Int{huge}); err == nil {
		t.Fatal("mask at n/2 accepted")
	}
}

func TestLargeButLegalValuesRoundTrip(t *testing.T) {
	k := testKey(t)
	// Values near int64 limits are far below n/2 for a 256-bit key and
	// must work exactly.
	x := int64(1) << 31
	y := int64(1) << 31
	v := new(big.Int).Lsh(big.NewInt(1), 70) // bigger than any int64 product
	us, err := multiply(k, []int64{x}, []int64{y}, []*big.Int{v})
	if err != nil {
		t.Fatal(err)
	}
	want := new(big.Int).Mul(big.NewInt(x), big.NewInt(y))
	want.Add(want, v)
	if us[0].Cmp(want) != 0 {
		t.Errorf("u = %v, want %v", us[0], want)
	}
}

func TestNegativeMasksCancelExactly(t *testing.T) {
	k := testKey(t)
	// A full zero-sum mask cycle at scale: 16 coordinates, masks spanning
	// the documented ±2^62 range.
	masks, err := ZeroSumMasks(rand.Reader, 16, new(big.Int).Lsh(big.NewInt(1), 62))
	if err != nil {
		t.Fatal(err)
	}
	xs := make([]int64, 16)
	ys := make([]int64, 16)
	var wantDot int64
	for i := range xs {
		xs[i] = int64(i * 13)
		ys[i] = int64(100 - i*7)
		wantDot += xs[i] * ys[i]
	}
	var us []*big.Int
	err = transport.Run2(
		func(c transport.Conn) error {
			var err error
			us, err = ReceiverBatchMultiply(c, k, xs, rand.Reader, nil)
			return err
		},
		func(c transport.Conn) error {
			return SenderBatchMultiply(c, &k.PublicKey, ys, masks, rand.Reader, nil)
		},
	)
	if err != nil {
		t.Fatal(err)
	}
	sum := new(big.Int)
	for _, u := range us {
		sum.Add(sum, u)
	}
	if sum.Int64() != wantDot {
		t.Errorf("masked sum = %v, want %d", sum, wantDot)
	}
}

func BenchmarkBatchMultiply8(b *testing.B) {
	k, err := paillier.GenerateKey(rand.Reader, 256)
	if err != nil {
		b.Fatal(err)
	}
	xs := make([]int64, 8)
	ys := make([]int64, 8)
	vs := make([]*big.Int, 8)
	for i := range xs {
		xs[i] = int64(i + 1)
		ys[i] = int64(i * 3)
		vs[i] = big.NewInt(int64(i))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		err := transport.Run2(
			func(c transport.Conn) error {
				_, err := ReceiverBatchMultiply(c, k, xs, rand.Reader, nil)
				return err
			},
			func(c transport.Conn) error {
				return SenderBatchMultiply(c, &k.PublicKey, ys, vs, rand.Reader, nil)
			},
		)
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDotMany16(b *testing.B) {
	k, err := paillier.GenerateKey(rand.Reader, 256)
	if err != nil {
		b.Fatal(err)
	}
	a := []int64{100, -2, -4, 1}
	bs := make([][]int64, 16)
	vs := make([]*big.Int, 16)
	for i := range bs {
		bs[i] = []int64{1, int64(i), int64(i * 2), int64(i * i)}
		vs[i] = big.NewInt(int64(i * 10))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		err := transport.Run2(
			func(c transport.Conn) error {
				_, err := ReceiverDotMany(c, k, a, 16, rand.Reader, nil)
				return err
			},
			func(c transport.Conn) error {
				return SenderDotMany(c, &k.PublicKey, bs, vs, rand.Reader, nil)
			},
		)
		if err != nil {
			b.Fatal(err)
		}
	}
}
