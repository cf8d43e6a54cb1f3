package core

import (
	"fmt"

	"repro/internal/dbscan"
)

// LockstepCluster is the shared DBSCAN driver of Algorithms 5–6: every
// participant executes this exact code with a jointly computed pairwise
// decision oracle, so their control flow — and therefore the sequence of
// sub-protocol invocations — is identical, and all end with the same
// labelling. The two-party vertical and arbitrary protocols use it, as
// does the multiparty ring (internal/multiparty).
//
// Each neighborhood query submits its still-undecided pairs, normalized
// (i < j) and deduplicated, as one batch; decideLocal, when non-nil,
// settles a pair without the oracle first (the grid-pruning shortcut,
// see PrunedLocalDecider). batchOn(ch, pairs) decides one batch on
// worker channel ch; an oracle backed by compare.BatchLess resolves it
// in a constant number of round trips, and a per-pair loop over it is
// the sequential round structure. With w > 1 the batches of up to w
// upcoming queue items are built into one wave and decided concurrently,
// one worker channel per item; at w = 1 every wave is a single query on
// channel 0. Every participant derives identical waves, batches, and
// channel assignments from the shared deterministic state, so the jointly
// computed oracles stay in lock step, and the decided-pair multiset — and
// with it the labels and every count-based Ledger class — is the same at
// every width.
//
// prior is the session's cross-run PairCache (nil for none). A pair
// already in prior never reaches the oracle: the first time a run
// consults it, onCached fires (the hook records the decision-level
// Ledger budget and the cached-comparison counter) and the cached bit
// enters the per-run view. Oracle-decided pairs are written back into
// prior, so the next run of the same session starts warmer; locally
// decided pairs are not, because the shortcut re-derives them for free
// (and must not be counted as cache hits). Because every participant
// holds an identical prior (pair bits are public to all lockstep
// participants), the batch boundaries stay identical on all sides. Prior
// hits are folded in while batches are built and oracle results are
// written back after each wave, both on the scheduling goroutine, so the
// cache needs no locking.
//
// Unlike WaveDrive, lockstep waves keep a hard barrier: the next wave's
// batches are built from the decided-pair cache the current wave writes,
// so pipelining wave k+1's batches before wave k settles would re-decide
// already-settled pairs and break the decided-pair multiset. Both
// participants must also assemble identical batches, which they can only
// do from identical post-wave cache state.
func LockstepCluster(n, minPts, w int,
	prior *PairCache, onCached func(pr [2]int, in bool),
	decideLocal func(pr [2]int) (value, decided bool),
	batchOn func(ch int, pairs [][2]int) ([]bool, error)) ([]int, int, error) {
	if minPts < 1 {
		return nil, 0, fmt.Errorf("core: MinPts %d < 1", minPts)
	}
	if w < 1 {
		return nil, 0, fmt.Errorf("core: worker width %d < 1", w)
	}
	cache := make(map[[2]int]bool)

	// buildBatch collects point p's still-undecided pairs, settling
	// locally-decidable ones and skipping pairs already claimed by an
	// earlier batch of the same wave.
	claimed := make(map[[2]int]bool)
	buildBatch := func(p int) [][2]int {
		var live [][2]int
		for j := 0; j < n; j++ {
			if j == p {
				continue
			}
			a, b := p, j
			if a > b {
				a, b = b, a
			}
			key := [2]int{a, b}
			if _, ok := cache[key]; ok || claimed[key] {
				continue
			}
			if decideLocal != nil {
				if v, ok := decideLocal(key); ok {
					cache[key] = v
					continue
				}
			}
			if prior != nil {
				if v, ok := prior.m[key]; ok {
					cache[key] = v
					if onCached != nil {
						onCached(key, v)
					}
					continue
				}
			}
			claimed[key] = true
			live = append(live, key)
		}
		return live
	}

	// wave decides the missing pairs of up to w points concurrently, one
	// worker channel per point, in wave order.
	wave := func(points []int) error {
		batches := make([][][2]int, len(points))
		for t, p := range points {
			batches[t] = buildBatch(p)
		}
		results := make([][]bool, len(points))
		if err := runWave(len(points), func(t int) error {
			if len(batches[t]) == 0 {
				return nil
			}
			res, err := batchOn(t, batches[t])
			if err != nil {
				return err
			}
			if len(res) != len(batches[t]) {
				return fmt.Errorf("core: lockstep oracle returned %d results for %d pairs", len(res), len(batches[t]))
			}
			results[t] = res
			return nil
		}); err != nil {
			return err
		}
		for t, batch := range batches {
			for u, key := range batch {
				cache[key] = results[t][u]
				if prior != nil {
					prior.m[key] = results[t][u]
				}
				delete(claimed, key)
			}
		}
		return nil
	}

	neighborsOf := func(i int) []int {
		out := []int{}
		for j := 0; j < n; j++ {
			if j == i {
				out = append(out, j) // a point is always in its own neighbourhood
				continue
			}
			a, b := i, j
			if a > b {
				a, b = b, a
			}
			if cache[[2]int{a, b}] {
				out = append(out, j)
			}
		}
		return out
	}

	labels := make([]int, n)
	for i := range labels {
		labels[i] = dbscan.Unclassified
	}
	clusterID := 0
	for i := 0; i < n; i++ {
		if labels[i] != dbscan.Unclassified {
			continue
		}
		if err := wave([]int{i}); err != nil {
			return nil, 0, err
		}
		seeds := neighborsOf(i)
		if len(seeds) < minPts {
			labels[i] = dbscan.Noise
			continue
		}
		clusterID++
		for _, sd := range seeds {
			labels[sd] = clusterID
		}
		queue := make([]int, 0, len(seeds))
		for _, sd := range seeds {
			if sd != i {
				queue = append(queue, sd)
			}
		}
		for len(queue) > 0 {
			step := w
			if step > len(queue) {
				step = len(queue)
			}
			items := queue[:step:step]
			queue = queue[step:]
			if err := wave(items); err != nil {
				return nil, 0, err
			}
			for _, cur := range items {
				result := neighborsOf(cur)
				if len(result) < minPts {
					continue
				}
				for _, r := range result {
					if labels[r] == dbscan.Unclassified || labels[r] == dbscan.Noise {
						if labels[r] == dbscan.Unclassified {
							queue = append(queue, r)
						}
						labels[r] = clusterID
					}
				}
			}
		}
	}
	return labels, clusterID, nil
}

// PairwiseBatch adapts a per-pair oracle to LockstepCluster's batchOn:
// the batch's pairs are decided one at a time, in order — the sequential
// round structure (Config.Batching = "sequential"), which always runs at
// w = 1, so the channel argument is unused.
func PairwiseBatch(pairLE func(i, j int) (bool, error)) func(ch int, pairs [][2]int) ([]bool, error) {
	return func(_ int, pairs [][2]int) ([]bool, error) {
		out := make([]bool, len(pairs))
		for t, pr := range pairs {
			v, err := pairLE(pr[0], pr[1])
			if err != nil {
				return nil, err
			}
			out[t] = v
		}
		return out, nil
	}
}

// PairCache is a session's cross-run pair-decision cache: pairwise
// within-Eps bits are immutable once decided (appends only add points, so
// a decided pair's distance never changes), and in the lockstep families
// every participant learns every decided bit, so all sides hold identical
// caches and the seeded driver above stays in lock step by construction.
// A PairCache is confined to its session's serialized Run calls — the
// driver reads and writes it from the scheduling goroutine only.
type PairCache struct {
	m map[[2]int]bool
}

// NewPairCache returns an empty cross-run pair cache.
func NewPairCache() *PairCache { return &PairCache{m: make(map[[2]int]bool)} }

// Len reports the number of cached pair decisions.
func (c *PairCache) Len() int {
	if c == nil {
		return 0
	}
	return len(c.m)
}

// Expire invalidates and remaps the cache after the n oldest records
// leave a sliding window: every pair touching an expired record is
// dropped — its bit describes a point that no longer exists — and the
// surviving pairs, whose distances are immutable, shift down onto the
// compacted indices. Every lockstep participant applies the identical
// remap, so all sides' caches stay equal and the seeded driver remains
// in lock step across expiries.
func (c *PairCache) Expire(n int) {
	if c == nil || n == 0 {
		return
	}
	next := make(map[[2]int]bool, len(c.m))
	for k, v := range c.m {
		if k[0] < n || k[1] < n {
			continue
		}
		next[[2]int{k[0] - n, k[1] - n}] = v
	}
	c.m = next
}

// Retract invalidates and remaps the cache after a point-level
// retraction: ids (strictly ascending, in the current live numbering)
// name the records deleted from the middle of the window. Every pair
// touching a retracted record is dropped, and the surviving pairs —
// whose distances are immutable — shift down by their rank onto the
// compacted indices. Like Expire, every lockstep participant applies
// the identical remap, so all sides' caches stay equal and the seeded
// driver remains in lock step across retractions.
func (c *PairCache) Retract(ids []int) {
	if c == nil || len(ids) == 0 {
		return
	}
	remap := retractRemap(ids)
	next := make(map[[2]int]bool, len(c.m))
	for k, v := range c.m {
		i, okI := remap(k[0])
		j, okJ := remap(k[1])
		if !okI || !okJ {
			continue
		}
		next[[2]int{i, j}] = v
	}
	c.m = next
}

// retractRemap builds the survivor renumbering for a sorted retraction
// id list: retracted indices map to (0, false); a survivor maps to
// itself minus the number of retracted indices below it.
func retractRemap(ids []int) func(int) (int, bool) {
	return func(i int) (int, bool) {
		lo, hi := 0, len(ids)
		for lo < hi {
			mid := (lo + hi) / 2
			if ids[mid] < i {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		if lo < len(ids) && ids[lo] == i {
			return 0, false
		}
		return i - lo, true
	}
}
