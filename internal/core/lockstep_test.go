package core

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/dbscan"
	"repro/internal/metrics"
)

// lockstepWidths are the worker widths every LockstepCluster unit test
// runs at: the single-channel schedule and two wave widths.
var lockstepWidths = []int{1, 2, 4}

// plainBatchOracle builds a lockstep batch oracle over plaintext points.
func plainBatchOracle(pts [][]int64, epsSq int64) func(ch int, pairs [][2]int) ([]bool, error) {
	return PairwiseBatch(func(i, j int) (bool, error) {
		var d2 int64
		for k := range pts[i] {
			d := pts[i][k] - pts[j][k]
			d2 += d * d
		}
		return d2 <= epsSq, nil
	})
}

// TestLockstepMinPtsBoundary pins the self-inclusive MinPts semantics at
// the exact boundary: a 3-point clique is all-core at MinPts=3 and
// all-noise at MinPts=4.
func TestLockstepMinPtsBoundary(t *testing.T) {
	pts := [][]int64{{0, 0}, {1, 0}, {0, 1}}
	oracle := plainBatchOracle(pts, 2)
	for _, w := range lockstepWidths {
		labels, k, err := LockstepCluster(len(pts), 3, w, nil, nil, nil, oracle)
		if err != nil {
			t.Fatal(err)
		}
		if k != 1 {
			t.Fatalf("W=%d MinPts=3 on a 3-clique: got %d clusters, want 1", w, k)
		}
		for i, l := range labels {
			if l != 1 {
				t.Errorf("W=%d MinPts=3 point %d labelled %d, want 1", w, i, l)
			}
		}
		labels, k, err = LockstepCluster(len(pts), 4, w, nil, nil, nil, oracle)
		if err != nil {
			t.Fatal(err)
		}
		if k != 0 {
			t.Fatalf("W=%d MinPts=4 on a 3-clique: got %d clusters, want 0", w, k)
		}
		for i, l := range labels {
			if l != dbscan.Noise {
				t.Errorf("W=%d MinPts=4 point %d labelled %d, want noise", w, i, l)
			}
		}
	}
}

// TestLockstepAllNoise: mutually distant points never form a cluster.
func TestLockstepAllNoise(t *testing.T) {
	pts := [][]int64{{0, 0}, {100, 0}, {0, 100}, {100, 100}}
	for _, w := range lockstepWidths {
		labels, k, err := LockstepCluster(len(pts), 2, w, nil, nil, nil, func(_ int, pairs [][2]int) ([]bool, error) {
			return make([]bool, len(pairs)), nil // nothing is within Eps
		})
		if err != nil {
			t.Fatal(err)
		}
		if k != 0 {
			t.Fatalf("W=%d: got %d clusters, want 0", w, k)
		}
		for i, l := range labels {
			if l != dbscan.Noise {
				t.Errorf("W=%d: point %d labelled %d, want noise", w, i, l)
			}
		}
	}
}

// TestLockstepTinyInputs: n=0 and n=1 terminate without touching the
// oracle.
func TestLockstepTinyInputs(t *testing.T) {
	for _, w := range lockstepWidths {
		var calls atomic.Int64
		oracle := func(_ int, pairs [][2]int) ([]bool, error) {
			calls.Add(1)
			return make([]bool, len(pairs)), nil
		}
		labels, k, err := LockstepCluster(0, 2, w, nil, nil, nil, oracle)
		if err != nil || len(labels) != 0 || k != 0 {
			t.Fatalf("W=%d n=0: labels=%v clusters=%d err=%v", w, labels, k, err)
		}
		labels, k, err = LockstepCluster(1, 2, w, nil, nil, nil, oracle)
		if err != nil || k != 0 {
			t.Fatalf("W=%d n=1: clusters=%d err=%v", w, k, err)
		}
		if len(labels) != 1 || labels[0] != dbscan.Noise {
			t.Fatalf("W=%d n=1: labels=%v, want a single noise point", w, labels)
		}
		if calls.Load() != 0 {
			t.Errorf("W=%d: oracle consulted %d times for trivial inputs, want 0", w, calls.Load())
		}
		// n=1 with MinPts=1: the singleton is its own cluster.
		labels, k, err = LockstepCluster(1, 1, w, nil, nil, nil, oracle)
		if err != nil || k != 1 || labels[0] != 1 {
			t.Fatalf("W=%d n=1 MinPts=1: labels=%v clusters=%d err=%v", w, labels, k, err)
		}
		if _, _, err := LockstepCluster(3, 0, w, nil, nil, nil, oracle); err == nil {
			t.Errorf("W=%d: MinPts=0 accepted", w)
		}
	}
	if _, _, err := LockstepCluster(3, 2, 0, nil, nil, nil, nil); err == nil {
		t.Error("worker width 0 accepted")
	}
}

// TestLockstepShortBatchSliceErrors: a batch oracle that returns fewer
// results than pairs must surface an error, never panic or mislabel.
func TestLockstepShortBatchSliceErrors(t *testing.T) {
	for _, w := range lockstepWidths {
		for _, short := range []int{0, 1} {
			_, _, err := LockstepCluster(4, 2, w, nil, nil, nil, func(_ int, pairs [][2]int) ([]bool, error) {
				return make([]bool, short), nil
			})
			if err == nil {
				t.Fatalf("W=%d: short oracle slice (%d results) accepted", w, short)
			}
		}
		// Errors from the oracle propagate unchanged.
		boom := errors.New("boom")
		_, _, err := LockstepCluster(4, 2, w, nil, nil, nil, func(_ int, pairs [][2]int) ([]bool, error) {
			return nil, boom
		})
		if !errors.Is(err, boom) {
			t.Fatalf("W=%d: oracle error not propagated: %v", w, err)
		}
	}
}

// TestPrunedOracleShortSliceErrors: under the pruning shortcut
// (PrunedLocalDecider) the driver still re-validates the oracle's result
// length for the live pairs, and a neighborhood whose pairs are all
// pruned never reaches the oracle.
func TestPrunedOracleShortSliceErrors(t *testing.T) {
	cells := [][]int64{{0, 0}, {0, 1}, {9, 9}}
	for _, w := range lockstepWidths {
		_, _, err := LockstepCluster(len(cells), 2, w, nil, nil, PrunedLocalDecider(cells, nil),
			func(_ int, pairs [][2]int) ([]bool, error) {
				return make([]bool, len(pairs)+1), nil
			})
		if err == nil {
			t.Fatalf("W=%d: oversized oracle result accepted", w)
		}
		// Pruned-only neighborhoods never reach the oracle.
		far := [][]int64{{0, 0}, {5, 5}, {9, 9}}
		var pruned atomic.Int64
		labels, k, err := LockstepCluster(len(far), 2, w, nil, nil,
			PrunedLocalDecider(far, func([2]int) { pruned.Add(1) }),
			func(_ int, pairs [][2]int) ([]bool, error) {
				return nil, fmt.Errorf("oracle must not run")
			})
		if err != nil {
			t.Fatalf("W=%d: %v", w, err)
		}
		if k != 0 {
			t.Errorf("W=%d: pruned pairs formed %d clusters", w, k)
		}
		for i, l := range labels {
			if l != dbscan.Noise {
				t.Errorf("W=%d: point %d labelled %d, want noise", w, i, l)
			}
		}
		if pruned.Load() != 3 {
			t.Errorf("W=%d: %d pruned-pair budget entries, want 3", w, pruned.Load())
		}
	}
}

// TestLockstepPrunedPairsStayOutOfPairCache pins the cross-run cache
// contract under pruning: only oracle-decided pairs enter the PairCache,
// so a second run reports exactly those as cache hits — pruned pairs are
// re-decided locally, never counted as cached — at every width.
func TestLockstepPrunedPairsStayOutOfPairCache(t *testing.T) {
	pts := [][]int64{{0, 0}, {1, 0}, {0, 1}, {8, 8}, {9, 8}, {8, 9}}
	cells := [][]int64{{0, 0}, {0, 0}, {0, 0}, {4, 4}, {4, 4}, {4, 4}}
	for _, w := range lockstepWidths {
		prior := NewPairCache()
		var live atomic.Int64
		oracle := plainBatchOracle(pts, 2)
		counting := func(ch int, pairs [][2]int) ([]bool, error) {
			live.Add(int64(len(pairs)))
			return oracle(ch, pairs)
		}
		if _, _, err := LockstepCluster(len(pts), 3, w, prior, nil, PrunedLocalDecider(cells, nil), counting); err != nil {
			t.Fatal(err)
		}
		if prior.Len() != int(live.Load()) {
			t.Fatalf("W=%d: cache holds %d pairs, oracle decided %d", w, prior.Len(), live.Load())
		}
		var hits atomic.Int64
		labels, k, err := LockstepCluster(len(pts), 3, w, prior, func([2]int, bool) { hits.Add(1) },
			PrunedLocalDecider(cells, nil), func(int, [][2]int) ([]bool, error) {
				return nil, fmt.Errorf("second run must be fully cached")
			})
		if err != nil {
			t.Fatalf("W=%d: %v", w, err)
		}
		if hits.Load() != live.Load() {
			t.Errorf("W=%d: second run counted %d cache hits, want the %d oracle-decided pairs", w, hits.Load(), live.Load())
		}
		if k != 2 || !metrics.ExactMatch(labels, []int{1, 1, 1, 2, 2, 2}) {
			t.Errorf("W=%d: labels %v (%d clusters), want two 3-cliques", w, labels, k)
		}
	}
}

// TestLockstepClusterMatchesPlainDBSCAN drives the lockstep scheduler
// against a local oracle: labels must equal plaintext DBSCAN's exactly at
// every width, every pair is decided at most once, and the decided-pair
// set is the same at every width.
func TestLockstepClusterMatchesPlainDBSCAN(t *testing.T) {
	pts := [][]int64{{0, 0}, {1, 0}, {0, 1}, {5, 5}, {6, 5}, {5, 6}, {3, 3}, {9, 9}, {9, 8}, {8, 9}}
	const epsSq, minPts = 2, 3
	want, err := dbscan.ClusterInt(pts, epsSq, minPts)
	if err != nil {
		t.Fatal(err)
	}
	oracle := plainBatchOracle(pts, epsSq)
	var base map[[2]int]int
	for _, w := range []int{1, 2, 3, 8} {
		decided := map[[2]int]int{}
		var mu sync.Mutex // batchOn runs on concurrent workers
		labels, clusters, err := LockstepCluster(len(pts), minPts, w, nil, nil, nil,
			func(ch int, pairs [][2]int) ([]bool, error) {
				mu.Lock()
				for _, pr := range pairs {
					decided[pr]++
				}
				mu.Unlock()
				return oracle(ch, pairs)
			})
		if err != nil {
			t.Fatal(err)
		}
		if !metrics.ExactMatch(labels, want.Labels) || clusters != want.NumClusters {
			t.Errorf("W=%d: labels %v (%d clusters) vs plain DBSCAN %v (%d)", w, labels, clusters, want.Labels, want.NumClusters)
		}
		for pr, n := range decided {
			if n != 1 {
				t.Errorf("W=%d: pair %v decided %d times", w, pr, n)
			}
		}
		if base == nil {
			base = decided
			continue
		}
		if len(decided) != len(base) {
			t.Errorf("W=%d: decided %d distinct pairs, W=1 %d", w, len(decided), len(base))
		}
		for pr := range decided {
			if base[pr] != 1 {
				t.Errorf("W=%d: pair %v not in the W=1 decision set", w, pr)
			}
		}
	}
}
