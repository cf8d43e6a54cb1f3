package main

import (
	"fmt"
	"math/rand"

	"repro/internal/compare"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/fixedpoint"
	"repro/internal/metrics"
)

// blobs draws one dataset of the E20/E21 shape from seed: Gaussian blobs
// quantized onto a grid, with the raw Eps scaled onto the same grid.
func blobs(p params, n int, seed int64) ([][]float64, float64) {
	d := dataset.Blobs(n, p.Blobs, p.Std, seed)
	q, scaleEps := dataset.Quantize(d, p.Grid)
	return q.Points, scaleEps(p.RawEps)
}

// coreConfig is the Config every workload session uses: the workload's
// density parameters, key size and scheduler width, the masked engine,
// and core's defaults for every other field. Protocol randomness stays
// on crypto/rand (Seed 0, Random nil).
func coreConfig(p params, eps float64) core.Config {
	return core.Config{
		Eps:          eps,
		MinPts:       p.MinPts,
		PaillierBits: p.PaillierBits,
		RSABits:      p.RSABits,
		Engine:       compare.EngineMasked,
		Parallel:     p.Parallel,
	}
}

// encoder turns raw points into the fixed-point grid the protocols
// compare on, for the plaintext oracles.
type encoder struct {
	codec *fixedpoint.Codec
	epsSq int64
}

func newEncoder(cfg core.Config) (encoder, error) {
	codec, err := cfg.Codec()
	if err != nil {
		return encoder{}, err
	}
	epsSq, err := codec.EpsSquared(cfg.Eps)
	if err != nil {
		return encoder{}, err
	}
	return encoder{codec, epsSq}, nil
}

func (e encoder) encode(points [][]float64) ([][]int64, error) {
	return e.codec.EncodePoints(points)
}

// horizontalOracle runs both passes of the horizontal protocol in the
// clear.
func (e encoder) horizontalOracle(alice, bob [][]float64, minPts int) (wantA, wantB []int, err error) {
	ea, err := e.encode(alice)
	if err != nil {
		return nil, nil, err
	}
	eb, err := e.encode(bob)
	if err != nil {
		return nil, nil, err
	}
	wantA, _, wantB, _ = core.SimulateHorizontal(ea, eb, e.epsSq, minPts)
	return wantA, wantB, nil
}

// splitRandom deals the points out to k parties in a random order, so
// every party holds an equal share (to within one point) drawn from
// every cluster. Equal shares keep the work per op from swinging with
// the luck of the split.
func splitRandom(rng *rand.Rand, points [][]float64, k int) [][][]float64 {
	out := make([][][]float64, k)
	for i, j := range rng.Perm(len(points)) {
		out[i%k] = append(out[i%k], points[j])
	}
	return out
}

// checkLabels compares a party's labels with the oracle's, up to
// renumbering of the clusters.
func checkLabels(who string, got, want []int) error {
	if !metrics.ExactMatch(got, want) {
		return fmt.Errorf("%s labels differ from the plaintext oracle", who)
	}
	return nil
}
