package compare

import (
	"crypto/rand"
	"errors"
	"sync"
	"testing"

	"repro/internal/paillier"
	"repro/internal/transport"
	"repro/internal/yao"
)

var (
	setupOnce sync.Once
	rsaKey    *yao.RSAKey
	paiKey    *paillier.PrivateKey
)

func keys(t testing.TB) (*yao.RSAKey, *paillier.PrivateKey) {
	t.Helper()
	setupOnce.Do(func() {
		var err error
		rsaKey, err = yao.GenerateRSAKey(rand.Reader, 256)
		if err != nil {
			t.Fatal(err)
		}
		paiKey, err = paillier.GenerateKey(rand.Reader, 256)
		if err != nil {
			t.Fatal(err)
		}
	})
	return rsaKey, paiKey
}

func enginePair(t testing.TB, kind EngineKind, bound int64) (Alice, Bob) {
	t.Helper()
	rk, pk := keys(t)
	switch kind {
	case EngineYMPP:
		return &YMPPAlice{Key: rk, Max: bound}, &YMPPBob{Pub: &rk.RSAPublicKey, Max: bound}
	case EngineMasked:
		a, b, err := NewMaskedPair(pk, bound, 32)
		if err != nil {
			t.Fatal(err)
		}
		return a, b
	}
	t.Fatalf("unknown engine %q", kind)
	return nil, nil
}

// runLessEq decides a ≤ b as a one-element batch — the paper's single
// comparison — and returns what each party observed.
func runLessEq(t testing.TB, ae Alice, be Bob, a, b int64) (bool, bool) {
	t.Helper()
	var ra, rb []bool
	err := transport.Run2(
		func(c transport.Conn) error {
			var err error
			ra, err = ae.BatchLessEq(c, []int64{a})
			return err
		},
		func(c transport.Conn) error {
			var err error
			rb, err = be.BatchLessEq(c, []int64{b})
			return err
		},
	)
	if err != nil {
		t.Fatalf("%s LessEq(%d,%d): %v", ae.Name(), a, b, err)
	}
	if len(ra) != 1 || len(rb) != 1 {
		t.Fatalf("%s LessEq(%d,%d): %d/%d results, want 1", ae.Name(), a, b, len(ra), len(rb))
	}
	return ra[0], rb[0]
}

// runLess is runLessEq for the strict predicate; it returns Alice's view.
func runLess(t testing.TB, ae Alice, be Bob, a, b int64) bool {
	t.Helper()
	got := runBatchLess(t, ae, be, []int64{a}, []int64{b})
	if len(got) != 1 {
		t.Fatalf("%s Less(%d,%d): %d results, want 1", ae.Name(), a, b, len(got))
	}
	return got[0]
}

func TestEnginesExhaustiveSmallDomain(t *testing.T) {
	const bound = 6
	for _, kind := range []EngineKind{EngineYMPP, EngineMasked} {
		ae, be := enginePair(t, kind, bound)
		for a := int64(0); a <= bound; a++ {
			for b := int64(0); b <= bound; b++ {
				ra, rb := runLessEq(t, ae, be, a, b)
				if want := a <= b; ra != want || rb != want {
					t.Errorf("%s: LessEq(%d,%d) = (%v,%v), want %v", kind, a, b, ra, rb, want)
				}
				if got := runLess(t, ae, be, a, b); got != (a < b) {
					t.Errorf("%s: Less(%d,%d) = %v", kind, a, b, got)
				}
			}
		}
	}
}

func TestEnginesAgreeOnRandomPairs(t *testing.T) {
	const bound = 1000
	y1, y2 := enginePair(t, EngineYMPP, bound)
	m1, m2 := enginePair(t, EngineMasked, bound)
	pairs := [][2]int64{{0, 1000}, {1000, 0}, {500, 500}, {499, 500}, {500, 499}, {0, 0}, {1000, 1000}, {7, 993}}
	for _, p := range pairs {
		ry, _ := runLessEq(t, y1, y2, p[0], p[1])
		rm, _ := runLessEq(t, m1, m2, p[0], p[1])
		if ry != rm {
			t.Errorf("engines disagree on (%d,%d): ympp=%v masked=%v", p[0], p[1], ry, rm)
		}
	}
}

func TestInputValidation(t *testing.T) {
	for _, kind := range []EngineKind{EngineYMPP, EngineMasked} {
		ae, be := enginePair(t, kind, 10)
		conn, peer := transport.Pipe()
		if _, err := ae.BatchLessEq(conn, []int64{-1}); err == nil {
			t.Errorf("%s: negative accepted", kind)
		}
		if _, err := ae.BatchLessEq(conn, []int64{11}); err == nil {
			t.Errorf("%s: overflow accepted", kind)
		}
		if _, err := be.BatchLessEq(conn, []int64{11}); err == nil {
			t.Errorf("%s: bob overflow accepted", kind)
		}
		conn.Close()
		peer.Close()
	}
}

func TestMaskedPredicateMismatchDetected(t *testing.T) {
	ae, be := enginePair(t, EngineMasked, 10)
	err := transport.Run2(
		func(c transport.Conn) error {
			_, err := ae.BatchLessEq(c, []int64{5})
			return err
		},
		func(c transport.Conn) error {
			_, err := be.BatchLess(c, []int64{5})
			return err
		},
	)
	if !errors.Is(err, ErrPredicateMismatch) {
		t.Errorf("err = %v, want ErrPredicateMismatch", err)
	}
}

func TestNewMaskedPairBoundValidation(t *testing.T) {
	_, pk := keys(t)
	if _, _, err := NewMaskedPair(pk, -1, 32); err == nil {
		t.Error("negative bound accepted")
	}
	// 256-bit key: plaintext bound ~2^255; a bound of 2^62 with 200 mask
	// bits overflows.
	if _, _, err := NewMaskedPair(pk, 1<<62, 200); err == nil {
		t.Error("overflowing mask configuration accepted")
	}
	if _, _, err := NewMaskedPair(pk, 1<<20, 0); err != nil {
		t.Errorf("default mask bits rejected: %v", err)
	}
}

func TestMaskedLargeDomain(t *testing.T) {
	// The masked engine's whole point: domains far beyond YMPP reach.
	_, pk := keys(t)
	const bound = int64(1) << 40
	ae, be, err := NewMaskedPair(pk, bound, 40)
	if err != nil {
		t.Fatal(err)
	}
	cases := [][2]int64{{bound, bound - 1}, {bound - 1, bound}, {bound, bound}, {0, bound}, {1 << 39, 1<<39 + 1}}
	for _, c := range cases {
		ra, rb := runLessEq(t, ae, be, c[0], c[1])
		if want := c[0] <= c[1]; ra != want || rb != want {
			t.Errorf("LessEq(%d,%d) = (%v,%v), want %v", c[0], c[1], ra, rb, want)
		}
	}
}

func TestParseEngine(t *testing.T) {
	if k, err := ParseEngine("ympp"); err != nil || k != EngineYMPP {
		t.Errorf("ParseEngine(ympp) = %v, %v", k, err)
	}
	if k, err := ParseEngine("masked"); err != nil || k != EngineMasked {
		t.Errorf("ParseEngine(masked) = %v, %v", k, err)
	}
	if _, err := ParseEngine("bogus"); err == nil {
		t.Error("bogus engine accepted")
	}
}

func TestEngineNames(t *testing.T) {
	ae, be := enginePair(t, EngineYMPP, 5)
	if ae.Name() != "ympp" || be.Name() != "ympp" {
		t.Error("ympp names wrong")
	}
	ma, mb := enginePair(t, EngineMasked, 5)
	if ma.Name() != "masked" || mb.Name() != "masked" {
		t.Error("masked names wrong")
	}
	if ae.Bound() != 5 || mb.Bound() != 5 {
		t.Error("bounds wrong")
	}
}

// The E8 ablation claim in miniature: the masked engine must move fewer
// bytes than YMPP for any non-trivial domain.
func TestMaskedCheaperThanYMPP(t *testing.T) {
	const bound = 500
	ya, yb := enginePair(t, EngineYMPP, bound)
	ma, mb := enginePair(t, EngineMasked, bound)

	measure := func(ae Alice, be Bob) int64 {
		ca, cb := transport.Pipe()
		mca, mcb := transport.NewMeter(ca), transport.NewMeter(cb)
		err := transport.RunPair(mca, mcb,
			func(c transport.Conn) error { _, err := ae.BatchLessEq(c, []int64{250}); return err },
			func(c transport.Conn) error { _, err := be.BatchLessEq(c, []int64{300}); return err },
		)
		if err != nil {
			t.Fatal(err)
		}
		return mca.Stats().Total()
	}
	yBytes := measure(ya, yb)
	mBytes := measure(ma, mb)
	if mBytes >= yBytes {
		t.Errorf("masked engine (%d bytes) not cheaper than YMPP (%d bytes)", mBytes, yBytes)
	}
}

// TestSequentialSingletons pins the sequential adapter: a k-element batch
// through Sequential decides the same predicates as the plain engine, in
// k one-element sub-protocols of three frames each, and an empty batch
// still touches no network.
func TestSequentialSingletons(t *testing.T) {
	as := []int64{0, 3, 7, 10, 5, 5}
	bs := []int64{10, 3, 2, 0, 6, 4}
	for _, kind := range []EngineKind{EngineYMPP, EngineMasked} {
		t.Run(string(kind), func(t *testing.T) {
			ae, be := enginePair(t, kind, 10)
			sa, sb := Sequential(ae, be)
			if sa.Name() != ae.Name() || sb.Bound() != be.Bound() {
				t.Errorf("adapter renamed the engine: %s/%d", sa.Name(), sb.Bound())
			}
			for _, n := range []int{0, len(as)} {
				ca, cb := transport.Pipe()
				ma, mb := transport.NewMeter(ca), transport.NewMeter(cb)
				var le, lt []bool
				err := transport.RunPair(ma, mb,
					func(transport.Conn) error {
						var err error
						if le, err = sa.BatchLessEq(ma, as[:n]); err != nil {
							return err
						}
						lt, err = sa.BatchLess(ma, as[:n])
						return err
					},
					func(transport.Conn) error {
						if _, err := sb.BatchLessEq(mb, bs[:n]); err != nil {
							return err
						}
						_, err := sb.BatchLess(mb, bs[:n])
						return err
					},
				)
				if err != nil {
					t.Fatal(err)
				}
				if len(le) != n || len(lt) != n {
					t.Fatalf("n=%d: got %d/%d results", n, len(le), len(lt))
				}
				for i := 0; i < n; i++ {
					if le[i] != (as[i] <= bs[i]) || lt[i] != (as[i] < bs[i]) {
						t.Errorf("instance %d (%d vs %d): LessEq=%v Less=%v", i, as[i], bs[i], le[i], lt[i])
					}
				}
				if got, want := ma.Stats().MessagesSent+mb.Stats().MessagesSent, int64(2*3*n); got != want {
					t.Errorf("n=%d: %d frames, want %d (3 per predicate)", n, got, want)
				}
			}
		})
	}
}

// TestSequentialStopsAtFirstError checks that an out-of-range value fails
// its own instance: the earlier instances have already run, as they did
// one comparison at a time, and no later one starts.
func TestSequentialStopsAtFirstError(t *testing.T) {
	ae, be := enginePair(t, EngineMasked, 10)
	sa, sb := Sequential(ae, be)
	ca, cb := transport.Pipe()
	ma, mb := transport.NewMeter(ca), transport.NewMeter(cb)
	err := transport.RunPair(ma, mb,
		func(transport.Conn) error { _, err := sa.BatchLessEq(ma, []int64{1, 11, 2}); return err },
		func(transport.Conn) error { _, err := sb.BatchLessEq(mb, []int64{4, 4, 4}); return err },
	)
	if err == nil {
		t.Fatal("out-of-range instance accepted")
	}
	if n := ma.Stats().MessagesSent; n != 2 {
		t.Errorf("alice sent %d frames, want the 2 of instance 0 only", n)
	}
}
