package core

import (
	"fmt"
)

// SelectionKind chooses the §5 k-th order statistic algorithm. The paper
// describes both: a scan that extracts the minimum k times (O(kn)
// comparisons, "appropriate when the k is small") and a quicksort-based
// selection (expected O(n), worst case O(n²)).
type SelectionKind string

// The two selection strategies of §5.
const (
	SelectionScan  SelectionKind = "scan"
	SelectionQuick SelectionKind = "quickselect"
)

// ParseSelection validates a selection strategy name.
func ParseSelection(s string) (SelectionKind, error) {
	switch SelectionKind(s) {
	case SelectionScan, SelectionQuick:
		return SelectionKind(s), nil
	}
	return "", fmt.Errorf("core: unknown selection strategy %q (want %q or %q)", s, SelectionScan, SelectionQuick)
}

// lessEqBatchOracle answers a whole vector of independent "value(a) ≤
// value(b)?" questions in one constant-round sub-protocol (one
// compare.BatchLessEq underneath). Both parties observe the same answers,
// so running the same deterministic selection code keeps their batches
// identical.
type lessEqBatchOracle func(pairs [][2]int) ([]bool, error)

// CountSelectionComparisons runs a selection strategy over plaintext
// values and reports how many comparisons it consumed. In the enhanced
// protocol every comparison is a full secure sub-protocol, so this count
// is the communication cost model for experiment E9.
func CountSelectionComparisons(k int, kind SelectionKind, vals []int64) (int, error) {
	leb := func(pairs [][2]int) ([]bool, error) {
		out := make([]bool, len(pairs))
		for t, pr := range pairs {
			out[t] = vals[pr[0]] <= vals[pr[1]]
		}
		return out, nil
	}
	_, comparisons, err := kthSmallestBatch(len(vals), k, kind, leb)
	return comparisons, err
}

// kthSmallestBatch returns the index (0-based, into the original n items)
// of the k-th smallest hidden value (k is 1-based) plus the number of
// comparisons consumed. It runs the paper's two strategies with the
// independent comparisons of one step submitted together:
//
//   - scan: each of the k minimum-extraction rounds is a knockout
//     tournament — ⌈log₂ n⌉ batches of pairwise comparisons. Round r
//     still costs n−1−r comparisons over its n−r remaining items, so
//     Σ_{r<k}(n−1−r) in all, exactly the paper's O(kn) scan.
//   - quickselect: all comparisons against one pivot (the last item of
//     the sub-range — deterministic, so both parties partition
//     identically) form a single batch, one batch per partition step.
//
// Under sequential rounds the engines split each batch into one-element
// batches, in order, so the comparison count — and the OrderBits Ledger
// entry — does not depend on the round structure. Among items with equal
// hidden values the tournament may return any one of them, so only the
// k-th order VALUE is specified; it is all either party acts on.
func kthSmallestBatch(n, k int, kind SelectionKind, leb lessEqBatchOracle) (idx, comparisons int, err error) {
	if k < 1 || k > n {
		return 0, 0, fmt.Errorf("core: selection k=%d outside [1,%d]", k, n)
	}
	counted := func(pairs [][2]int) ([]bool, error) {
		comparisons += len(pairs)
		return leb(pairs)
	}
	switch kind {
	case SelectionScan:
		idx, err = kthSmallestScanBatch(n, k, counted)
	case SelectionQuick:
		items := make([]int, n)
		for i := range items {
			items[i] = i
		}
		idx, err = quickselectBatch(items, k, counted)
	default:
		return 0, 0, fmt.Errorf("core: unknown selection strategy %q", kind)
	}
	return idx, comparisons, err
}

// kthSmallestScanBatch extracts the minimum k times, each time by a
// knockout tournament of batched pairwise comparisons.
func kthSmallestScanBatch(n, k int, leb lessEqBatchOracle) (int, error) {
	remaining := make([]int, n)
	for i := range remaining {
		remaining[i] = i
	}
	var last int
	for round := 0; round < k; round++ {
		cand := append([]int(nil), remaining...)
		for len(cand) > 1 {
			pairs := make([][2]int, 0, len(cand)/2)
			for t := 0; t+1 < len(cand); t += 2 {
				pairs = append(pairs, [2]int{cand[t], cand[t+1]})
			}
			res, err := leb(pairs)
			if err != nil {
				return 0, err
			}
			if len(res) != len(pairs) {
				return 0, fmt.Errorf("core: selection batch returned %d results for %d pairs", len(res), len(pairs))
			}
			next := make([]int, 0, (len(cand)+1)/2)
			for t, pr := range pairs {
				if res[t] {
					next = append(next, pr[0])
				} else {
					next = append(next, pr[1])
				}
			}
			if len(cand)%2 == 1 {
				next = append(next, cand[len(cand)-1])
			}
			cand = next
		}
		last = cand[0]
		for pos, it := range remaining {
			if it == last {
				remaining = append(remaining[:pos], remaining[pos+1:]...)
				break
			}
		}
	}
	return last, nil
}

// quickselectBatch is the paper's second algorithm (quicksort-based
// selection, [21]) with each partition round's pivot comparisons
// submitted as one batch.
func quickselectBatch(items []int, k int, leb lessEqBatchOracle) (int, error) {
	for {
		if len(items) == 1 {
			return items[0], nil
		}
		pivot := items[len(items)-1]
		pairs := make([][2]int, len(items)-1)
		for t, it := range items[:len(items)-1] {
			pairs[t] = [2]int{it, pivot}
		}
		res, err := leb(pairs)
		if err != nil {
			return 0, err
		}
		if len(res) != len(pairs) {
			return 0, fmt.Errorf("core: selection batch returned %d results for %d pairs", len(res), len(pairs))
		}
		var lows, highs []int
		for t, it := range items[:len(items)-1] {
			if res[t] {
				lows = append(lows, it)
			} else {
				highs = append(highs, it)
			}
		}
		switch {
		case k <= len(lows):
			items = lows
		case k == len(lows)+1:
			return pivot, nil
		default:
			k -= len(lows) + 1
			items = highs
		}
	}
}
