package yao

import (
	"crypto/rand"
	"errors"
	"math/big"
	mrand "math/rand"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/transport"
)

var (
	keyOnce sync.Once
	key     *RSAKey
)

func testRSAKey(t testing.TB) *RSAKey {
	t.Helper()
	keyOnce.Do(func() {
		k, err := GenerateRSAKey(rand.Reader, 256)
		if err != nil {
			t.Fatalf("GenerateRSAKey: %v", err)
		}
		key = k
	})
	return key
}

func TestRSAKeyRejectsSmall(t *testing.T) {
	if _, err := GenerateRSAKey(rand.Reader, 128); err == nil {
		t.Error("want error for tiny key")
	}
}

func TestRSAEncryptDecryptInverse(t *testing.T) {
	k := testRSAKey(t)
	for i := 0; i < 25; i++ {
		x, err := rand.Int(rand.Reader, k.N)
		if err != nil {
			t.Fatal(err)
		}
		y := k.Encrypt(x)
		if got := k.Decrypt(y); got.Cmp(x) != 0 {
			t.Fatalf("Da(Ea(%v)) = %v", x, got)
		}
	}
}

func TestRSACRTMatchesSlowPath(t *testing.T) {
	k := testRSAKey(t)
	for i := 0; i < 10; i++ {
		y, err := rand.Int(rand.Reader, k.N)
		if err != nil {
			t.Fatal(err)
		}
		if k.Decrypt(y).Cmp(k.decryptSlow(y)) != 0 {
			t.Fatal("CRT decryption diverges from plain exponentiation")
		}
	}
}

func TestRSAPublicKeyMarshalRoundTrip(t *testing.T) {
	k := testRSAKey(t)
	nb, eb := MarshalRSAPublicKey(&k.RSAPublicKey)
	pk, err := UnmarshalRSAPublicKey(nb, eb)
	if err != nil {
		t.Fatal(err)
	}
	x := big.NewInt(987654321)
	if k.Decrypt(pk.Encrypt(x)).Cmp(x) != 0 {
		t.Error("unmarshaled key does not round trip")
	}
}

func TestUnmarshalRSAPublicKeyRejects(t *testing.T) {
	if _, err := UnmarshalRSAPublicKey(big.NewInt(99).Bytes(), big.NewInt(65537).Bytes()); err == nil {
		t.Error("want error for tiny modulus")
	}
	k := testRSAKey(t)
	nb, _ := MarshalRSAPublicKey(&k.RSAPublicKey)
	if _, err := UnmarshalRSAPublicKey(nb, big.NewInt(1).Bytes()); err == nil {
		t.Error("want error for exponent 1")
	}
}

// runYMPPBatch executes one batch of Algorithm 1 instances in-process
// (is[t] against js[t]) and returns both parties' conclusions.
func runYMPPBatch(t testing.TB, is, js []int64, n0 int64) (aliceGot, bobGot []bool) {
	t.Helper()
	k := testRSAKey(t)
	err := transport.Run2(
		func(c transport.Conn) error {
			var err error
			aliceGot, err = AliceCompareBatch(c, k, is, n0, rand.Reader, nil)
			return err
		},
		func(c transport.Conn) error {
			var err error
			bobGot, err = BobCompareBatch(c, &k.RSAPublicKey, js, n0, rand.Reader)
			return err
		},
	)
	if err != nil {
		t.Fatalf("YMPP(is=%v, js=%v, n0=%d): %v", is, js, n0, err)
	}
	if len(aliceGot) != len(is) || len(bobGot) != len(js) {
		t.Fatalf("YMPP: %d/%d results for %d instances", len(aliceGot), len(bobGot), len(is))
	}
	return aliceGot, bobGot
}

// runYMPP executes one protocol instance — a one-element batch — and
// returns both parties' conclusions.
func runYMPP(t testing.TB, i, j, n0 int64) (aliceGot, bobGot bool) {
	t.Helper()
	a, b := runYMPPBatch(t, []int64{i}, []int64{j}, n0)
	return a[0], b[0]
}

// lessEq decides a ≤ b over [0, bound] through the batch predicate
// wrappers and returns both parties' views.
func lessEq(t testing.TB, as, bs []int64, bound int64) (aliceGot, bobGot []bool, err error) {
	t.Helper()
	k := testRSAKey(t)
	err = transport.Run2(
		func(c transport.Conn) error {
			var err error
			aliceGot, err = AliceLessEqBatch(c, k, as, bound, rand.Reader, nil)
			return err
		},
		func(c transport.Conn) error {
			var err error
			bobGot, err = BobLessEqBatch(c, &k.RSAPublicKey, bs, bound, rand.Reader)
			return err
		},
	)
	return aliceGot, bobGot, err
}

func TestYMPPExhaustiveSmallDomain(t *testing.T) {
	const n0 = 9
	var is, js []int64
	for i := int64(1); i <= n0; i++ {
		for j := int64(1); j <= n0; j++ {
			a, b := runYMPP(t, i, j, n0)
			want := i < j
			if a != want || b != want {
				t.Fatalf("YMPP(i=%d, j=%d): alice=%v bob=%v want %v", i, j, a, b, want)
			}
			is, js = append(is, i), append(js, j)
		}
	}
	// The whole domain again as one n0²-element batch.
	as, bs := runYMPPBatch(t, is, js, n0)
	for x := range is {
		if want := is[x] < js[x]; as[x] != want || bs[x] != want {
			t.Fatalf("batched YMPP(i=%d, j=%d): alice=%v bob=%v want %v", is[x], js[x], as[x], bs[x], want)
		}
	}
}

func TestYMPPBoundaries(t *testing.T) {
	cases := []struct {
		i, j, n0 int64
		want     bool
	}{
		{1, 1, 1, false},
		{1, 2, 2, true},
		{2, 1, 2, false},
		{1, 64, 64, true},
		{64, 64, 64, false},
		{64, 1, 64, false},
	}
	for _, tc := range cases {
		a, b := runYMPP(t, tc.i, tc.j, tc.n0)
		if a != tc.want || b != tc.want {
			t.Errorf("YMPP(%d,%d,n0=%d) = (%v,%v), want %v", tc.i, tc.j, tc.n0, a, b, tc.want)
		}
	}
}

func TestYMPPInputValidation(t *testing.T) {
	k := testRSAKey(t)
	conn, peer := transport.Pipe()
	defer conn.Close()
	defer peer.Close()
	if _, err := AliceCompareBatch(conn, k, []int64{0}, 10, rand.Reader, nil); err == nil {
		t.Error("i=0 accepted")
	}
	if _, err := AliceCompareBatch(conn, k, []int64{3, 11}, 10, rand.Reader, nil); err == nil {
		t.Error("i>n0 accepted")
	}
	if _, err := BobCompareBatch(conn, &k.RSAPublicKey, []int64{5}, MaxDomain+1, rand.Reader); err == nil {
		t.Error("n0 over cap accepted")
	}
}

func TestYMPPDomainMismatchDetected(t *testing.T) {
	k := testRSAKey(t)
	err := transport.Run2(
		func(c transport.Conn) error {
			_, err := AliceCompareBatch(c, k, []int64{3}, 10, rand.Reader, nil)
			return err
		},
		func(c transport.Conn) error {
			_, err := BobCompareBatch(c, &k.RSAPublicKey, []int64{3}, 12, rand.Reader)
			return err
		},
	)
	if !errors.Is(err, ErrDomainMismatch) {
		t.Errorf("err = %v, want ErrDomainMismatch", err)
	}
}

func TestLessEqWrappers(t *testing.T) {
	const bound = 12
	var as, bs []int64
	for a := int64(0); a <= bound; a += 3 {
		for b := int64(0); b <= bound; b += 3 {
			aGot, bGot, err := lessEq(t, []int64{a}, []int64{b}, bound)
			if err != nil {
				t.Fatal(err)
			}
			want := a <= b
			if aGot[0] != want || bGot[0] != want {
				t.Errorf("LessEq(%d,%d) = (%v,%v), want %v", a, b, aGot[0], bGot[0], want)
			}
			as, bs = append(as, a), append(bs, b)
		}
	}
	aGot, bGot, err := lessEq(t, as, bs, bound)
	if err != nil {
		t.Fatal(err)
	}
	for x := range as {
		if want := as[x] <= bs[x]; aGot[x] != want || bGot[x] != want {
			t.Errorf("batched LessEq(%d,%d) = (%v,%v), want %v", as[x], bs[x], aGot[x], bGot[x], want)
		}
	}
}

func TestLessWrappers(t *testing.T) {
	k := testRSAKey(t)
	const bound = 10
	pairs := [][2]int64{{0, 0}, {0, 1}, {1, 0}, {5, 5}, {4, 5}, {10, 10}, {9, 10}, {10, 9}}
	less := func(as, bs []int64) []bool {
		t.Helper()
		var aGot []bool
		err := transport.Run2(
			func(c transport.Conn) error {
				var err error
				aGot, err = AliceLessBatch(c, k, as, bound, rand.Reader, nil)
				return err
			},
			func(c transport.Conn) error {
				_, err := BobLessBatch(c, &k.RSAPublicKey, bs, bound, rand.Reader)
				return err
			},
		)
		if err != nil {
			t.Fatal(err)
		}
		return aGot
	}
	var as, bs []int64
	for _, pair := range pairs {
		a, b := pair[0], pair[1]
		if got := less([]int64{a}, []int64{b}); got[0] != (a < b) {
			t.Errorf("Less(%d,%d) = %v", a, b, got[0])
		}
		as, bs = append(as, a), append(bs, b)
	}
	for x, got := range less(as, bs) {
		if got != (as[x] < bs[x]) {
			t.Errorf("batched Less(%d,%d) = %v", as[x], bs[x], got)
		}
	}
}

func TestWrapperInputValidation(t *testing.T) {
	k := testRSAKey(t)
	conn, peer := transport.Pipe()
	defer conn.Close()
	defer peer.Close()
	if _, err := AliceLessEqBatch(conn, k, []int64{-1}, 10, rand.Reader, nil); err == nil {
		t.Error("negative value accepted")
	}
	if _, err := BobLessEqBatch(conn, &k.RSAPublicKey, []int64{11}, 10, rand.Reader); err == nil {
		t.Error("out-of-bound value accepted")
	}
	if _, err := AliceLessBatch(conn, k, []int64{11}, 10, rand.Reader, nil); err == nil {
		t.Error("out-of-bound value accepted by AliceLessBatch")
	}
	if _, err := BobLessBatch(conn, &k.RSAPublicKey, []int64{-2}, 10, rand.Reader); err == nil {
		t.Error("negative value accepted by BobLessBatch")
	}
}

// Property test: random (a, b, bound) triples agree with plaintext ≤.
func TestYMPPProperty(t *testing.T) {
	rng := mrand.New(mrand.NewSource(7))
	f := func() bool {
		bound := int64(rng.Intn(40) + 1)
		a := int64(rng.Intn(int(bound + 1)))
		b := int64(rng.Intn(int(bound + 1)))
		got, _, err := lessEq(t, []int64{a}, []int64{b}, bound)
		return err == nil && got[0] == (a <= b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// The communication pattern must match the paper's O(c2·n0) accounting:
// Alice's round-2 message carries exactly n0 residues mod a (N/2)-bit
// prime per instance, and a batch of any size still takes three frames.
func TestYMPPCommunicationShape(t *testing.T) {
	k := testRSAKey(t)
	const n0 = 50
	for _, count := range []int{1, 4} {
		is := make([]int64, count)
		for x := range is {
			is[x] = 25
		}
		ca, cb := transport.Pipe()
		ma, mb := transport.NewMeter(ca), transport.NewMeter(cb)
		err := transport.RunPair(ma, mb,
			func(c transport.Conn) error {
				_, err := AliceCompareBatch(c, k, is, n0, rand.Reader, nil)
				return err
			},
			func(c transport.Conn) error {
				_, err := BobCompareBatch(c, &k.RSAPublicKey, is, n0, rand.Reader)
				return err
			},
		)
		if err != nil {
			t.Fatal(err)
		}
		// Alice sends one message (p + n0 residues per instance); Bob sends
		// two (round 1, result bits).
		if got := ma.Stats().MessagesSent; got != 1 {
			t.Errorf("count %d: alice sent %d messages, want 1", count, got)
		}
		if got := mb.Stats().MessagesSent; got != 2 {
			t.Errorf("count %d: bob sent %d messages, want 2", count, got)
		}
		// Residues are ≤ N/2 bits = 16 bytes for the 256-bit test key; with
		// framing overhead the Alice message must stay within
		// ~count·(n0+1)·(16+3).
		maxBytes := int64(count * (n0 + 1) * (16 + 3))
		if got := ma.Stats().BytesSent; got > maxBytes {
			t.Errorf("count %d: alice sent %d bytes, want ≤ %d (O(c2·n0))", count, got, maxBytes)
		}
	}
}

func BenchmarkYMPPDomain256(b *testing.B) {
	k := testRSAKey(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		err := transport.Run2(
			func(c transport.Conn) error {
				_, err := AliceCompareBatch(c, k, []int64{100}, 256, rand.Reader, nil)
				return err
			},
			func(c transport.Conn) error {
				_, err := BobCompareBatch(c, &k.RSAPublicKey, []int64{200}, 256, rand.Reader)
				return err
			},
		)
		if err != nil {
			b.Fatal(err)
		}
	}
}
