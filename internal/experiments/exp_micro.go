package experiments

import (
	"crypto/rand"
	"fmt"
	"io"
	"math/big"
	mrand "math/rand"
	"time"

	"repro/internal/compare"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/paillier"
	"repro/internal/partition"
	"repro/internal/transport"
	"repro/internal/yao"
)

// runE8 measures one secure comparison under each engine across domain
// sizes: YMPP's O(n0) bits and decryptions versus the masked engine's
// constant two ciphertexts.
func runE8(w io.Writer, opt Options) error {
	rsaKey, err := yao.GenerateRSAKey(rand.Reader, 256)
	if err != nil {
		return err
	}
	paiKey, err := paillier.GenerateKey(rand.Reader, 256)
	if err != nil {
		return err
	}
	domains := []int64{64, 256, 1024, 4096}
	if opt.Quick {
		domains = []int64{64, 256}
	}
	reps := 5

	measure := func(a compare.Alice, b compare.Bob, bound int64) (int64, time.Duration, error) {
		var bytes int64
		start := time.Now()
		for r := 0; r < reps; r++ {
			ca, cb := transport.Pipe()
			ma, mb := transport.NewMeter(ca), transport.NewMeter(cb)
			err := transport.RunPair(ma, mb,
				func(transport.Conn) error {
					_, err := a.BatchLessEq(ma, []int64{bound / 3})
					return err
				},
				func(transport.Conn) error {
					_, err := b.BatchLessEq(mb, []int64{bound / 2})
					return err
				},
			)
			if err != nil {
				return 0, 0, err
			}
			bytes += ma.Stats().BytesSent + mb.Stats().BytesSent
		}
		return bytes / int64(reps), time.Since(start) / time.Duration(reps), nil
	}

	var t table
	t.add("domain(n0)", "ymppBytes", "ymppLatency", "maskedBytes", "maskedLatency")
	for _, d := range domains {
		ya := &compare.YMPPAlice{Key: rsaKey, Max: d}
		yb := &compare.YMPPBob{Pub: &rsaKey.RSAPublicKey, Max: d}
		yBytes, yLat, err := measure(ya, yb, d)
		if err != nil {
			return err
		}
		ma, mb, err := compare.NewMaskedPair(paiKey, d, 40)
		if err != nil {
			return err
		}
		mBytes, mLat, err := measure(ma, mb, d)
		if err != nil {
			return err
		}
		t.add(fmt.Sprint(d),
			fmt.Sprint(yBytes), fmt.Sprint(yLat.Round(time.Microsecond)),
			fmt.Sprint(mBytes), fmt.Sprint(mLat.Round(time.Microsecond)))
	}
	t.write(w)
	fmt.Fprintln(w, "YMPP bytes grow linearly in the domain (the paper's c2·n0); the masked engine is flat.")
	return nil
}

// runE9 counts secure comparisons consumed by the two §5 selection
// strategies as k grows — each comparison is a full sub-protocol, so the
// count IS the communication cost.
func runE9(w io.Writer, opt Options) error {
	ns := []int{32, 128}
	if opt.Quick {
		ns = []int{32}
	}
	var t table
	t.add("n", "k", "scanComparisons", "quickselectComparisons", "cheaper")
	for _, n := range ns {
		vals := make([]int64, n)
		rng := mrand.New(mrand.NewSource(opt.seed()))
		for i := range vals {
			vals[i] = rng.Int63n(1 << 30)
		}
		for _, k := range []int{1, 2, 4, n / 4, n / 2, n - 1} {
			if k < 1 || k > n {
				continue
			}
			scanC, err := core.CountSelectionComparisons(k, core.SelectionScan, vals)
			if err != nil {
				return err
			}
			quickC, err := core.CountSelectionComparisons(k, core.SelectionQuick, vals)
			if err != nil {
				return err
			}
			cheaper := "scan"
			if quickC < scanC {
				cheaper = "quickselect"
			}
			t.add(fmt.Sprint(n), fmt.Sprint(k), fmt.Sprint(scanC), fmt.Sprint(quickC), cheaper)
		}
	}
	t.write(w)
	fmt.Fprintln(w, "the paper: the O(kn) scan \"is a good time complexity for a small k\"; quickselect otherwise.")
	return nil
}

// runE10 times the primitive operations across key sizes.
func runE10(w io.Writer, opt Options) error {
	sizes := []int{256, 512, 1024}
	if opt.Quick {
		sizes = []int{256, 512}
	}
	reps := 20
	var t table
	t.add("bits", "paillierEnc", "paillierDec", "paillierKeygen", "rsaRawDec", "rsaKeygen")
	for _, bits := range sizes {
		kgStart := time.Now()
		pk, err := paillier.GenerateKey(rand.Reader, bits)
		if err != nil {
			return err
		}
		paiKg := time.Since(kgStart)

		m := big.NewInt(123456789)
		start := time.Now()
		var ct *big.Int
		for i := 0; i < reps; i++ {
			ct, err = pk.Encrypt(rand.Reader, m)
			if err != nil {
				return err
			}
		}
		enc := time.Since(start) / time.Duration(reps)
		start = time.Now()
		for i := 0; i < reps; i++ {
			if _, err := pk.Decrypt(ct); err != nil {
				return err
			}
		}
		dec := time.Since(start) / time.Duration(reps)

		kgStart = time.Now()
		rk, err := yao.GenerateRSAKey(rand.Reader, bits)
		if err != nil {
			return err
		}
		rsaKg := time.Since(kgStart)
		y := rk.Encrypt(big.NewInt(987654321))
		start = time.Now()
		for i := 0; i < reps; i++ {
			rk.Decrypt(y)
		}
		rsaDec := time.Since(start) / time.Duration(reps)

		t.add(fmt.Sprint(bits),
			fmt.Sprint(enc.Round(time.Microsecond)),
			fmt.Sprint(dec.Round(time.Microsecond)),
			fmt.Sprint(paiKg.Round(time.Millisecond)),
			fmt.Sprint(rsaDec.Round(time.Microsecond)),
			fmt.Sprint(rsaKg.Round(time.Millisecond)))
	}
	t.write(w)
	fmt.Fprintln(w, "rsaRawDec bounds YMPP cost: one comparison performs n0 of these.")
	return nil
}

// runE11 measures end-to-end wall time and traffic versus n for all three
// protocols under the masked engine (the engine that scales).
func runE11(w io.Writer, opt Options) error {
	ns := []int{16, 32, 64}
	if opt.Quick {
		ns = []int{12, 24}
	}
	var t table
	t.add("protocol", "n", "wall", "totalKB", "pairsModel")
	for _, n := range ns {
		d := dataset.Blobs(n, 3, 0.4, opt.seed())
		q, scaleEps := dataset.Quantize(d, 64)
		cfg := qualityCfg(scaleEps(0.6), 4, 63, opt.seed())

		hs, err := partition.HorizontalRandom(q.Points, 0.5, opt.seed())
		if err != nil {
			return err
		}
		run, err := runMeteredHorizontal(cfg, core.HorizontalAlice, core.HorizontalBob, hs.Alice, hs.Bob)
		if err != nil {
			return err
		}
		l := len(hs.Alice)
		t.add("horizontal", fmt.Sprint(n), fmt.Sprint(run.wall.Round(time.Millisecond)),
			fmt.Sprintf("%.0f", float64(run.bytes)/1024), fmt.Sprintf("2·l·(n−l)=%d", 2*l*(n-l)))

		erun, err := runMeteredHorizontal(cfg, core.EnhancedHorizontalAlice, core.EnhancedHorizontalBob, hs.Alice, hs.Bob)
		if err != nil {
			return err
		}
		t.add("enhanced", fmt.Sprint(n), fmt.Sprint(erun.wall.Round(time.Millisecond)),
			fmt.Sprintf("%.0f", float64(erun.bytes)/1024), "≈k·n per core query")

		vs, err := partition.Vertical(q.Points, 1)
		if err != nil {
			return err
		}
		vrun, err := runMeteredPair(
			func(c transport.Conn) (*core.Result, error) { return core.VerticalAlice(c, cfg, vs.Alice) },
			func(c transport.Conn) (*core.Result, error) { return core.VerticalBob(c, cfg, vs.Bob) },
		)
		if err != nil {
			return err
		}
		t.add("vertical", fmt.Sprint(n), fmt.Sprint(vrun.wall.Round(time.Millisecond)),
			fmt.Sprintf("%.0f", float64(vrun.bytes)/1024), fmt.Sprintf("n(n−1)/2=%d", n*(n-1)/2))
	}
	t.write(w)
	return nil
}
