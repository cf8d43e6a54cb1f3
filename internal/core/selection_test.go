package core

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

// plainOracle builds a lessEqBatchOracle over concrete values.
func plainOracle(vals []int64) lessEqBatchOracle {
	return func(pairs [][2]int) ([]bool, error) {
		out := make([]bool, len(pairs))
		for t, pr := range pairs {
			out[t] = vals[pr[0]] <= vals[pr[1]]
		}
		return out, nil
	}
}

// scanComparisons is the paper's O(kn) scan cost: Σ_{r<k}(n−1−r).
func scanComparisons(n, k int) int {
	c := 0
	for r := 0; r < k; r++ {
		c += n - 1 - r
	}
	return c
}

func TestParseSelection(t *testing.T) {
	if k, err := ParseSelection("scan"); err != nil || k != SelectionScan {
		t.Errorf("ParseSelection(scan) = %v, %v", k, err)
	}
	if k, err := ParseSelection("quickselect"); err != nil || k != SelectionQuick {
		t.Errorf("ParseSelection(quickselect) = %v, %v", k, err)
	}
	if _, err := ParseSelection("nope"); err == nil {
		t.Error("bogus strategy accepted")
	}
}

func TestKthSmallestValidation(t *testing.T) {
	le := plainOracle([]int64{1, 2, 3})
	if _, _, err := kthSmallestBatch(3, 0, SelectionScan, le); err == nil {
		t.Error("k=0 accepted")
	}
	if _, _, err := kthSmallestBatch(3, 4, SelectionScan, le); err == nil {
		t.Error("k>n accepted")
	}
	if _, _, err := kthSmallestBatch(3, 1, SelectionKind("bogus"), le); err == nil {
		t.Error("bogus kind accepted")
	}
	short := func(pairs [][2]int) ([]bool, error) { return nil, nil }
	for _, kind := range []SelectionKind{SelectionScan, SelectionQuick} {
		if _, _, err := kthSmallestBatch(3, 1, kind, short); err == nil {
			t.Errorf("%s: short oracle reply accepted", kind)
		}
	}
}

func TestKthSmallestExhaustiveSmall(t *testing.T) {
	vals := []int64{50, 10, 40, 20, 30}
	sorted := append([]int64{}, vals...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	for _, kind := range []SelectionKind{SelectionScan, SelectionQuick} {
		for k := 1; k <= len(vals); k++ {
			idx, comps, err := kthSmallestBatch(len(vals), k, kind, plainOracle(vals))
			if err != nil {
				t.Fatalf("%s k=%d: %v", kind, k, err)
			}
			if vals[idx] != sorted[k-1] {
				t.Errorf("%s k=%d: got vals[%d]=%d, want %d", kind, k, idx, vals[idx], sorted[k-1])
			}
			if comps < 1 {
				t.Errorf("%s k=%d: comparisons = %d", kind, k, comps)
			}
			if want := scanComparisons(len(vals), k); kind == SelectionScan && comps != want {
				t.Errorf("scan k=%d: %d comparisons, want %d", k, comps, want)
			}
		}
	}
}

func TestKthSmallestSingleton(t *testing.T) {
	for _, kind := range []SelectionKind{SelectionScan, SelectionQuick} {
		idx, comps, err := kthSmallestBatch(1, 1, kind, plainOracle([]int64{7}))
		if err != nil || idx != 0 {
			t.Errorf("%s: idx=%d err=%v", kind, idx, err)
		}
		if comps != 0 {
			t.Errorf("%s: singleton needed %d comparisons", kind, comps)
		}
	}
}

// Ties are checked by value: among equal hidden values any index may win.
func TestKthSmallestWithTies(t *testing.T) {
	vals := []int64{5, 5, 5, 1, 1}
	for _, kind := range []SelectionKind{SelectionScan, SelectionQuick} {
		// 2nd smallest of {1,1,5,5,5} is 1; 3rd is 5.
		idx, _, err := kthSmallestBatch(len(vals), 2, kind, plainOracle(vals))
		if err != nil || vals[idx] != 1 {
			t.Errorf("%s k=2: vals[%d]=%d, want 1 (err=%v)", kind, idx, vals[idx], err)
		}
		idx, _, err = kthSmallestBatch(len(vals), 3, kind, plainOracle(vals))
		if err != nil || vals[idx] != 5 {
			t.Errorf("%s k=3: vals[%d]=%d, want 5 (err=%v)", kind, idx, vals[idx], err)
		}
	}
}

// Property: both strategies return an index holding the k-th order
// statistic for random inputs, and the scan's comparison count matches its
// O(kn) formula exactly: Σ_{r=0}^{k−1}(n−1−r).
func TestKthSmallestProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(30)
		k := 1 + rng.Intn(n)
		vals := make([]int64, n)
		for i := range vals {
			vals[i] = int64(rng.Intn(20)) // duplicates likely
		}
		sorted := append([]int64{}, vals...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
		want := sorted[k-1]

		idxScan, compsScan, err := kthSmallestBatch(n, k, SelectionScan, plainOracle(vals))
		if err != nil || vals[idxScan] != want {
			return false
		}
		if compsScan != scanComparisons(n, k) {
			return false
		}
		idxQ, _, err := kthSmallestBatch(n, k, SelectionQuick, plainOracle(vals))
		return err == nil && vals[idxQ] == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Quickselect must use fewer comparisons than the scan for large k — the
// paper's rationale for offering both (E9's ablation in miniature).
func TestQuickselectBeatsScanForLargeK(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	n := 200
	vals := make([]int64, n)
	for i := range vals {
		vals[i] = rng.Int63n(1000000)
	}
	k := n / 2
	_, compsScan, err := kthSmallestBatch(n, k, SelectionScan, plainOracle(vals))
	if err != nil {
		t.Fatal(err)
	}
	if want := scanComparisons(n, k); compsScan != want {
		t.Errorf("scan: %d comparisons, want %d", compsScan, want)
	}
	_, compsQuick, err := kthSmallestBatch(n, k, SelectionQuick, plainOracle(vals))
	if err != nil {
		t.Fatal(err)
	}
	if compsQuick >= compsScan {
		t.Errorf("quickselect %d comparisons ≥ scan %d at k=n/2", compsQuick, compsScan)
	}
}

// TestCountSelectionComparisonsPinned pins the E9 cost model: the counts
// on E9's own vectors (seed 1) and on a tie-heavy one, as the scalar
// one-comparison-at-a-time selection reported them, so E9's table does
// not depend on how the comparisons are grouped into batches.
func TestCountSelectionComparisonsPinned(t *testing.T) {
	cases := []struct {
		n    int
		mod  int64
		want map[int][2]int // k → {scan, quickselect}
	}{
		{32, 1 << 30, map[int][2]int{1: {31, 41}, 2: {61, 41}, 4: {118, 61}, 8: {220, 54}, 16: {376, 79}, 31: {496, 51}}},
		{128, 1 << 30, map[int][2]int{1: {127, 207}, 2: {253, 208}, 4: {502, 205}, 32: {3568, 439}, 64: {6112, 551}, 127: {8128, 263}}},
		{40, 8, map[int][2]int{1: {39, 211}, 2: {77, 211}, 4: {150, 208}, 10: {345, 235}, 20: {590, 154}, 39: {780, 61}}},
	}
	for _, tc := range cases {
		vals := make([]int64, tc.n)
		rng := rand.New(rand.NewSource(1))
		for i := range vals {
			vals[i] = rng.Int63n(tc.mod)
		}
		for k, want := range tc.want {
			scan, err := CountSelectionComparisons(k, SelectionScan, vals)
			if err != nil {
				t.Fatal(err)
			}
			quick, err := CountSelectionComparisons(k, SelectionQuick, vals)
			if err != nil {
				t.Fatal(err)
			}
			if scan != want[0] || quick != want[1] {
				t.Errorf("n=%d mod=%d k=%d: scan=%d quickselect=%d, want %d/%d", tc.n, tc.mod, k, scan, quick, want[0], want[1])
			}
		}
	}
}
