package multiparty

import (
	"testing"

	"repro/internal/compare"
	"repro/internal/core"
	"repro/internal/metrics"
)

// The multiparty packing harness mirrors the core one: ring and mesh
// runs under Packing "off", "slots", and "full" must be observably
// identical — labels, pair-decision / region-query budgets, index
// disclosure — while a packed run puts strictly fewer Paillier
// ciphertexts on the wire than the unpacked one, and "full" never puts
// more than "slots". On the mesh "full" is strictly cheaper than
// "slots" on the uplink leg too: a driver's comparison operands are all
// equal (Σx² of the query point), so the grouped uplink collapses each
// batch to one ciphertext.

func packCfg(packing core.PackMode) Config {
	cfg := testCfg(compare.EngineMasked)
	cfg.Packing = packing
	return cfg
}

func ringCts(results []*Result) int64 {
	var n int64
	for _, r := range results {
		n += r.CiphertextsSent
	}
	return n
}

func ringUplink(results []*Result) int64 {
	var n int64
	for _, r := range results {
		n += r.CiphertextsUplink
	}
	return n
}

func meshCts(results []*HorizontalResult) int64 {
	var n int64
	for _, r := range results {
		n += r.CiphertextsSent
	}
	return n
}

func meshUplink(results []*HorizontalResult) int64 {
	var n int64
	for _, r := range results {
		n += r.CiphertextsUplink
	}
	return n
}

// assertRingSplits pins the compatibility invariant on every party:
// the retained sum field equals uplink + downlink.
func assertRingSplits(t *testing.T, label string, results []*Result) {
	t.Helper()
	for p, r := range results {
		if r.CiphertextsSent != r.CiphertextsUplink+r.CiphertextsDownlink {
			t.Errorf("%s party %d: sent %d ≠ uplink %d + downlink %d",
				label, p, r.CiphertextsSent, r.CiphertextsUplink, r.CiphertextsDownlink)
		}
	}
}

func assertMeshSplits(t *testing.T, label string, results []*HorizontalResult) {
	t.Helper()
	for p, r := range results {
		if r.CiphertextsSent != r.CiphertextsUplink+r.CiphertextsDownlink {
			t.Errorf("%s party %d: sent %d ≠ uplink %d + downlink %d",
				label, p, r.CiphertextsSent, r.CiphertextsUplink, r.CiphertextsDownlink)
		}
	}
}

func TestRingPackingEquivalence(t *testing.T) {
	points := gridData(t, 18, 3, 11)
	for _, k := range []int{2, 3} {
		for _, pruning := range []core.PruneMode{core.PruneOff, core.PruneGrid} {
			offCfg := packCfg(core.PackOff)
			offCfg.Pruning = pruning
			offResults, err := runRing(t, offCfg, splitColumns(points, k))
			if err != nil {
				t.Fatalf("k=%d pruning=%s unpacked: %v", k, pruning, err)
			}
			assertRingSplits(t, "off", offResults)
			packed := map[core.PackMode][]*Result{}
			for _, mode := range []core.PackMode{core.PackSlots, core.PackFull} {
				onCfg := packCfg(mode)
				onCfg.Pruning = pruning
				onResults, err := runRing(t, onCfg, splitColumns(points, k))
				if err != nil {
					t.Fatalf("k=%d pruning=%s packing=%s: %v", k, pruning, mode, err)
				}
				packed[mode] = onResults
				assertRingSplits(t, string(mode), onResults)
				for p := range offResults {
					if !metrics.ExactMatch(onResults[p].Labels, offResults[p].Labels) {
						t.Errorf("k=%d pruning=%s packing=%s party %d labels diverge: packed %v, unpacked %v",
							k, pruning, mode, p, onResults[p].Labels, offResults[p].Labels)
					}
					if onResults[p].PairDecisions != offResults[p].PairDecisions {
						t.Errorf("k=%d pruning=%s packing=%s party %d pair decisions: packed %d, unpacked %d",
							k, pruning, mode, p, onResults[p].PairDecisions, offResults[p].PairDecisions)
					}
					if onResults[p].IndexCellCoords != offResults[p].IndexCellCoords {
						t.Errorf("k=%d pruning=%s packing=%s party %d index disclosure: packed %d, unpacked %d",
							k, pruning, mode, p, onResults[p].IndexCellCoords, offResults[p].IndexCellCoords)
					}
				}
				if on, off := ringCts(onResults), ringCts(offResults); on >= off {
					t.Errorf("k=%d pruning=%s packing=%s: packed ring sent %d ciphertexts, unpacked %d — want strictly fewer",
						k, pruning, mode, on, off)
				}
			}
			// "full" never costs more than "slots" (per-instance fallback
			// when the ring's masked sums do not group).
			if full, slots := ringCts(packed[core.PackFull]), ringCts(packed[core.PackSlots]); full > slots {
				t.Errorf("k=%d pruning=%s: full ring sent %d ciphertexts, slots %d — want no growth",
					k, pruning, full, slots)
			}
			if full, slots := ringUplink(packed[core.PackFull]), ringUplink(packed[core.PackSlots]); full > slots {
				t.Errorf("k=%d pruning=%s: full ring uplink %d, slots %d — want no growth",
					k, pruning, full, slots)
			}
		}
	}
}

// TestRingPackingEquivalenceParallel re-runs the k=3 ring under the W=2
// wave scheduler: worker channels carry packed circulations
// independently and the outcome contract is unchanged.
func TestRingPackingEquivalenceParallel(t *testing.T) {
	points := gridData(t, 18, 3, 11)
	offCfg := packCfg(core.PackOff)
	offCfg.Parallel = 2
	offResults, err := runRing(t, offCfg, splitColumns(points, 3))
	if err != nil {
		t.Fatalf("unpacked: %v", err)
	}
	for _, mode := range []core.PackMode{core.PackSlots, core.PackFull} {
		onCfg := packCfg(mode)
		onCfg.Parallel = 2
		onResults, err := runRing(t, onCfg, splitColumns(points, 3))
		if err != nil {
			t.Fatalf("packing=%s: %v", mode, err)
		}
		assertRingSplits(t, string(mode), onResults)
		for p := range offResults {
			if !metrics.ExactMatch(onResults[p].Labels, offResults[p].Labels) {
				t.Errorf("packing=%s party %d labels diverge between packed and unpacked parallel rings", mode, p)
			}
			if onResults[p].PairDecisions != offResults[p].PairDecisions {
				t.Errorf("packing=%s party %d pair decisions: packed %d, unpacked %d",
					mode, p, onResults[p].PairDecisions, offResults[p].PairDecisions)
			}
		}
		if on, off := ringCts(onResults), ringCts(offResults); on >= off {
			t.Errorf("packing=%s: packed parallel ring sent %d ciphertexts, unpacked %d — want strictly fewer", mode, on, off)
		}
	}
}

func TestMeshPackingEquivalence(t *testing.T) {
	for _, pruning := range []core.PruneMode{core.PruneOff, core.PruneGrid} {
		offCfg := packCfg(core.PackOff)
		offCfg.Pruning = pruning
		offResults, offErrs := runMesh(t, sameCfgs(3, offCfg), threePartyPoints)
		for p, err := range offErrs {
			if err != nil {
				t.Fatalf("pruning=%s party %d unpacked: %v", pruning, p, err)
			}
		}
		assertMeshSplits(t, "off", offResults)
		packed := map[core.PackMode][]*HorizontalResult{}
		for _, mode := range []core.PackMode{core.PackSlots, core.PackFull} {
			onCfg := packCfg(mode)
			onCfg.Pruning = pruning
			onResults, onErrs := runMesh(t, sameCfgs(3, onCfg), threePartyPoints)
			for p, err := range onErrs {
				if err != nil {
					t.Fatalf("pruning=%s packing=%s party %d: %v", pruning, mode, p, err)
				}
			}
			packed[mode] = onResults
			assertMeshSplits(t, string(mode), onResults)
			for p := range offResults {
				if !metrics.ExactMatch(onResults[p].Labels, offResults[p].Labels) {
					t.Errorf("pruning=%s packing=%s party %d labels diverge: packed %v, unpacked %v",
						pruning, mode, p, onResults[p].Labels, offResults[p].Labels)
				}
				if onResults[p].RegionQueries != offResults[p].RegionQueries {
					t.Errorf("pruning=%s packing=%s party %d region queries: packed %d, unpacked %d",
						pruning, mode, p, onResults[p].RegionQueries, offResults[p].RegionQueries)
				}
			}
			if on, off := meshCts(onResults), meshCts(offResults); on >= off {
				t.Errorf("pruning=%s packing=%s: packed mesh sent %d ciphertexts, unpacked %d — want strictly fewer",
					pruning, mode, on, off)
			}
		}
		// Every driver batch's comparison operands are equal, so the
		// grouped uplink makes "full" strictly cheaper than "slots" —
		// in total and on the uplink leg specifically.
		if full, slots := meshCts(packed[core.PackFull]), meshCts(packed[core.PackSlots]); full >= slots {
			t.Errorf("pruning=%s: full mesh sent %d ciphertexts, slots %d — want strictly fewer",
				pruning, full, slots)
		}
		if full, slots := meshUplink(packed[core.PackFull]), meshUplink(packed[core.PackSlots]); full >= slots {
			t.Errorf("pruning=%s: full mesh uplink %d, slots %d — want strictly fewer",
				pruning, full, slots)
		}
	}
}

// TestMeshPackingParallelNoGrowth pins the wave scheduler's ciphertext
// contract on the mesh: with W > 1 the driving pass pipelines per-edge
// queries across W mux channels, but the query multiset is identical to
// the W = 1 schedule — so every party's ciphertext account (total,
// uplink leg, downlink leg) must be exactly the W = 1 count under every
// packing mode, not merely close.
func TestMeshPackingParallelNoGrowth(t *testing.T) {
	for _, mode := range []core.PackMode{core.PackOff, core.PackSlots, core.PackFull} {
		seqCfg := packCfg(mode)
		seqResults, seqErrs := runMesh(t, sameCfgs(3, seqCfg), threePartyPoints)
		for p, err := range seqErrs {
			if err != nil {
				t.Fatalf("packing=%s party %d sequential: %v", mode, p, err)
			}
		}
		parCfg := packCfg(mode)
		parCfg.Parallel = 4
		parResults, parErrs := runMesh(t, sameCfgs(3, parCfg), threePartyPoints)
		for p, err := range parErrs {
			if err != nil {
				t.Fatalf("packing=%s party %d W=4: %v", mode, p, err)
			}
		}
		assertMeshSplits(t, string(mode)+" W=4", parResults)
		for p := range seqResults {
			if !metrics.ExactMatch(parResults[p].Labels, seqResults[p].Labels) {
				t.Errorf("packing=%s party %d labels diverge between W=4 and W=1", mode, p)
			}
			if parResults[p].RegionQueries != seqResults[p].RegionQueries {
				t.Errorf("packing=%s party %d region queries: W=4 %d, W=1 %d",
					mode, p, parResults[p].RegionQueries, seqResults[p].RegionQueries)
			}
			if parResults[p].CiphertextsSent != seqResults[p].CiphertextsSent {
				t.Errorf("packing=%s party %d ciphertexts: W=4 %d, W=1 %d — pipelining must not change the account",
					mode, p, parResults[p].CiphertextsSent, seqResults[p].CiphertextsSent)
			}
			if parResults[p].CiphertextsUplink != seqResults[p].CiphertextsUplink {
				t.Errorf("packing=%s party %d uplink: W=4 %d, W=1 %d",
					mode, p, parResults[p].CiphertextsUplink, seqResults[p].CiphertextsUplink)
			}
			if parResults[p].CiphertextsDownlink != seqResults[p].CiphertextsDownlink {
				t.Errorf("packing=%s party %d downlink: W=4 %d, W=1 %d",
					mode, p, parResults[p].CiphertextsDownlink, seqResults[p].CiphertextsDownlink)
			}
		}
	}
}

// TestPackingRequiresBatched pins the validation rule shared with the
// two-party stack: slot packing presupposes the batched round structure.
func TestPackingRequiresBatched(t *testing.T) {
	for _, mode := range []core.PackMode{core.PackSlots, core.PackFull} {
		cfg := packCfg(mode)
		cfg.Batching = core.BatchModeSequential
		if err := cfg.withDefaults().validate(); err == nil {
			t.Fatalf("sequential batching with %s packing validated", mode)
		}
	}
}
