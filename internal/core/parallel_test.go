package core

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/compare"
	"repro/internal/metrics"
	"repro/internal/transport"
)

// The parallel equivalence harness: every protocol family must produce
// identical labels, cluster counts, full leakage Ledgers, and secure-
// comparison totals whether its queries run on the bare connection
// (W = 1) or across the scheduler's worker channels (W > 1). The
// scheduler only prefetches work a one-query-at-a-time schedule would
// execute anyway, so the executed sub-protocol multiset — and every
// count-based observable — is invariant; this test pins that contract
// across W and both pruning modes, for one-shot runs and for both runs
// of a two-run session, whose second run is answered from the cross-run
// caches (equal cache-hit counts at every width).

func parallelCfg(engine compare.EngineKind, w int, pruning PruneMode) Config {
	cfg := testCfg(engine)
	cfg.Parallel = w
	cfg.Pruning = pruning
	return cfg
}

func TestParallelEquivalenceAcrossWorkerWidths(t *testing.T) {
	for _, pruning := range []PruneMode{PruneGrid, PruneOff} {
		for _, proto := range equivalenceProtocols(t) {
			t.Run(string(pruning)+"/"+proto.name, func(t *testing.T) {
				base := proto.run(t, parallelCfg(compare.EngineMasked, 1, pruning))
				for _, w := range []int{2, 4} {
					par := proto.run(t, parallelCfg(compare.EngineMasked, w, pruning))
					if !metrics.ExactMatch(par.ra.Labels, base.ra.Labels) {
						t.Errorf("W=%d: alice labels diverge: %v vs %v", w, par.ra.Labels, base.ra.Labels)
					}
					if !metrics.ExactMatch(par.rb.Labels, base.rb.Labels) {
						t.Errorf("W=%d: bob labels diverge: %v vs %v", w, par.rb.Labels, base.rb.Labels)
					}
					if par.ra.NumClusters != base.ra.NumClusters || par.rb.NumClusters != base.rb.NumClusters {
						t.Errorf("W=%d: cluster counts diverge: %d/%d vs %d/%d",
							w, par.ra.NumClusters, par.rb.NumClusters, base.ra.NumClusters, base.rb.NumClusters)
					}
					if par.ra.Leakage != base.ra.Leakage {
						t.Errorf("W=%d: alice ledgers diverge: %v vs %v", w, par.ra.Leakage, base.ra.Leakage)
					}
					if par.rb.Leakage != base.rb.Leakage {
						t.Errorf("W=%d: bob ledgers diverge: %v vs %v", w, par.rb.Leakage, base.rb.Leakage)
					}
					if par.ra.SecureComparisons != base.ra.SecureComparisons ||
						par.rb.SecureComparisons != base.rb.SecureComparisons {
						t.Errorf("W=%d: comparison totals diverge: %d/%d vs %d/%d",
							w, par.ra.SecureComparisons, par.rb.SecureComparisons,
							base.ra.SecureComparisons, base.rb.SecureComparisons)
					}
				}
			})
		}
		for _, fam := range equivalenceSessions(t) {
			t.Run(string(pruning)+"/session/"+fam.name, func(t *testing.T) {
				baseA, baseB, _, _, _ := runSessionN(t, fam, parallelCfg(compare.EngineMasked, 1, pruning), 2)
				for _, w := range []int{2, 4} {
					parA, parB, _, _, _ := runSessionN(t, fam, parallelCfg(compare.EngineMasked, w, pruning), 2)
					for run := range baseA {
						for _, side := range []struct {
							name      string
							par, base *Result
						}{{"alice", parA[run], baseA[run]}, {"bob", parB[run], baseB[run]}} {
							par, base := side.par, side.base
							if !metrics.ExactMatch(par.Labels, base.Labels) || par.NumClusters != base.NumClusters {
								t.Errorf("W=%d run %d: %s labels diverge: %v vs %v", w, run+1, side.name, par.Labels, base.Labels)
							}
							if par.Leakage != base.Leakage {
								t.Errorf("W=%d run %d: %s ledgers diverge: %v vs %v", w, run+1, side.name, par.Leakage, base.Leakage)
							}
							if par.SecureComparisons != base.SecureComparisons {
								t.Errorf("W=%d run %d: %s secure comparisons %d vs %d", w, run+1, side.name, par.SecureComparisons, base.SecureComparisons)
							}
							if par.CachedComparisons != base.CachedComparisons {
								t.Errorf("W=%d run %d: %s cached comparisons %d vs %d", w, run+1, side.name, par.CachedComparisons, base.CachedComparisons)
							}
						}
					}
				}
			})
		}
	}
}

// TestParallelRequiresAgreement pins the handshake check: parties with
// different scheduler widths must fail fast, not garble frames.
func TestParallelRequiresAgreement(t *testing.T) {
	cfgA := parallelCfg(compare.EngineMasked, 2, PruneGrid)
	cfgB := parallelCfg(compare.EngineMasked, 4, PruneGrid)
	ca, cb := transport.Pipe()
	errc := make(chan error, 2)
	go func() {
		_, err := HorizontalAlice(ca, cfgA, testAlicePts)
		ca.Close()
		errc <- err
	}()
	go func() {
		_, err := HorizontalBob(cb, cfgB, testBobPts)
		cb.Close()
		errc <- err
	}()
	err1, err2 := <-errc, <-errc
	if err1 == nil && err2 == nil {
		t.Fatal("mismatched Parallel widths succeeded")
	}
}

// TestParallelRejectsSequentialBatching: the scheduler dispatches batched
// sub-protocols; the config combination is rejected up front.
func TestParallelRejectsSequentialBatching(t *testing.T) {
	cfg := testCfg(compare.EngineMasked)
	cfg.Parallel = 4
	cfg.Batching = BatchModeSequential
	ca, _ := transport.Pipe()
	if _, err := NewHorizontalSession(ca, cfg, RoleAlice, testAlicePts); err == nil {
		t.Fatal("Parallel>1 with sequential batching accepted")
	}
}

// TestServeChannelsRootCauseWins pins the responder fan-out shared by the
// horizontal family and the multiparty mesh: when one worker fails, every
// channel is closed so siblings blocked in Recv unwind, and the caller
// sees the root cause rather than an induced connection-closed error —
// also with a single channel, which runs inline.
func TestServeChannelsRootCauseWins(t *testing.T) {
	boom := errors.New("boom")
	for _, w := range []int{1, 3} {
		conns := make([]transport.Conn, w)
		for i := range conns {
			conns[i], _ = transport.Pipe()
		}
		err := ServeChannels(conns, func(ch int) error {
			if ch == w-1 {
				return boom
			}
			_, err := conns[ch].Recv() // unblocked only by the close
			return fmt.Errorf("worker %d: %w", ch, err)
		})
		if !errors.Is(err, boom) {
			t.Fatalf("W=%d: got %v, want the root cause", w, err)
		}
		for i, c := range conns {
			if err := c.Send([]byte{0}); !errors.Is(err, transport.ErrClosed) {
				t.Errorf("W=%d: channel %d left open after a worker failed (send: %v)", w, i, err)
			}
		}
	}
}
