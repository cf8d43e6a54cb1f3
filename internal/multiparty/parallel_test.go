package multiparty

import (
	"testing"

	"repro/internal/compare"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/metrics"
)

// Parallel equivalence for the multiparty extensions: the ring's
// per-worker batch circulations and the mesh's concurrent peer fan-out
// must reproduce the W = 1 schedule's labels and disclosure counts
// exactly.

func TestRingParallelEquivalence(t *testing.T) {
	d, _ := dataset.Quantize(dataset.BlobsDim(18, 2, 3, 0.3, 5), 16)
	slices := splitColumns(d.Points, 3)

	for _, pruning := range []core.PruneMode{core.PruneGrid, core.PruneOff} {
		t.Run(string(pruning), func(t *testing.T) {
			base := testCfg(compare.EngineMasked)
			base.Pruning = pruning
			seqResults, err := runRing(t, base, slices)
			if err != nil {
				t.Fatal(err)
			}
			seqRuns := runRingSessionN(t, base, slices, 2, nil)
			for _, w := range []int{2, 4} {
				cfg := base
				cfg.Parallel = w
				parResults, err := runRing(t, cfg, slices)
				if err != nil {
					t.Fatalf("W=%d: %v", w, err)
				}
				for p := range parResults {
					if !metrics.ExactMatch(parResults[p].Labels, seqResults[p].Labels) {
						t.Errorf("W=%d: party %d labels diverge: %v vs %v", w, p, parResults[p].Labels, seqResults[p].Labels)
					}
					if parResults[p].NumClusters != seqResults[p].NumClusters {
						t.Errorf("W=%d: party %d cluster count %d vs %d", w, p, parResults[p].NumClusters, seqResults[p].NumClusters)
					}
					if parResults[p].PairDecisions != seqResults[p].PairDecisions {
						t.Errorf("W=%d: party %d pair decisions %d vs %d", w, p, parResults[p].PairDecisions, seqResults[p].PairDecisions)
					}
					if parResults[p].IndexCellCoords != seqResults[p].IndexCellCoords {
						t.Errorf("W=%d: party %d index coords %d vs %d", w, p, parResults[p].IndexCellCoords, seqResults[p].IndexCellCoords)
					}
				}
				// Two-run sessions: the second run is answered from the
				// cross-run pair cache, and the cache hits — like the
				// circulated (secure) pairs, counted by the ciphertexts
				// they cost — must not depend on W.
				parRuns := runRingSessionN(t, cfg, slices, 2, nil)
				for p := range parRuns {
					for run := range parRuns[p] {
						got, want := parRuns[p][run], seqRuns[p][run]
						if !metrics.ExactMatch(got.Labels, want.Labels) || got.NumClusters != want.NumClusters {
							t.Errorf("W=%d run %d: party %d labels diverge: %v vs %v", w, run+1, p, got.Labels, want.Labels)
						}
						if got.PairDecisions != want.PairDecisions {
							t.Errorf("W=%d run %d: party %d pair decisions %d vs %d", w, run+1, p, got.PairDecisions, want.PairDecisions)
						}
						if got.CachedPairs != want.CachedPairs {
							t.Errorf("W=%d run %d: party %d cached pairs %d vs %d", w, run+1, p, got.CachedPairs, want.CachedPairs)
						}
						if got.CiphertextsSent != want.CiphertextsSent {
							t.Errorf("W=%d run %d: party %d ciphertexts %d vs %d", w, run+1, p, got.CiphertextsSent, want.CiphertextsSent)
						}
					}
				}
			}
		})
	}
}

// runMeshOne runs the mesh with one shared config and fails on any error.
func runMeshOne(t *testing.T, cfg Config, slices [][][]float64) ([]*HorizontalResult, error) {
	t.Helper()
	results, errs := runMesh(t, sameCfgs(len(slices), cfg), slices)
	for _, err := range errs {
		if err != nil {
			return results, err
		}
	}
	return results, nil
}

func TestMeshParallelEquivalence(t *testing.T) {
	d, _ := dataset.Quantize(dataset.Blobs(18, 2, 0.3, 9), 16)
	split, err := partitionHorizontal3(d.Points)
	if err != nil {
		t.Fatal(err)
	}

	base := testCfg(compare.EngineMasked)
	seqResults, err := runMeshOne(t, base, split)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{2, 4} {
		cfg := base
		cfg.Parallel = w
		parResults, err := runMeshOne(t, cfg, split)
		if err != nil {
			t.Fatalf("W=%d: %v", w, err)
		}
		for p := range parResults {
			if !metrics.ExactMatch(parResults[p].Labels, seqResults[p].Labels) {
				t.Errorf("W=%d: party %d labels diverge: %v vs %v", w, p, parResults[p].Labels, seqResults[p].Labels)
			}
			if parResults[p].RegionQueries != seqResults[p].RegionQueries {
				t.Errorf("W=%d: party %d region queries %d vs %d", w, p, parResults[p].RegionQueries, seqResults[p].RegionQueries)
			}
			// The wave scheduler may reorder frames but never changes the
			// query multiset, so the ciphertext account is exact.
			if parResults[p].CiphertextsSent != seqResults[p].CiphertextsSent {
				t.Errorf("W=%d: party %d ciphertexts %d vs %d", w, p, parResults[p].CiphertextsSent, seqResults[p].CiphertextsSent)
			}
		}
	}
}

// partitionHorizontal3 deals points round-robin into three parties.
func partitionHorizontal3(points [][]float64) ([][][]float64, error) {
	out := make([][][]float64, 3)
	for i, pt := range points {
		out[i%3] = append(out[i%3], pt)
	}
	return out, nil
}
