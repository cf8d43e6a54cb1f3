package core

import (
	"errors"
	"sync"
	"testing"

	"repro/internal/compare"
	"repro/internal/metrics"
	"repro/internal/transport"
)

// Session-reuse contract: two consecutive Run calls on one long-lived
// Session must produce labels identical to two fresh sessions, while the
// fixed establishment costs — key generation, handshake frames, and the
// grid-index exchange — are paid and disclosed exactly once. The fresh-
// session baseline pays them per run. Since the cross-run comparison
// cache, the second run additionally reuses every predicate the first
// run decided: its SecureComparisons drop (to zero when no points were
// appended) while its decision-level Ledger budget stays byte-identical
// for the basic families (the enhanced protocol's mechanical
// OrderBits/CoreBits shrink instead, as under pruning).

// sessionPair constructs matched Alice/Bob sessions over metered pipes
// using the given family constructor.
type sessionFamily struct {
	name string
	newA func(conn transport.Conn, cfg Config) (*Session, error)
	newB func(conn transport.Conn, cfg Config) (*Session, error)
}

func sessionFamilies() []sessionFamily {
	return []sessionFamily{
		{
			name: "horizontal",
			newA: func(c transport.Conn, cfg Config) (*Session, error) {
				return NewHorizontalSession(c, cfg, RoleAlice, testAlicePts)
			},
			newB: func(c transport.Conn, cfg Config) (*Session, error) {
				return NewHorizontalSession(c, cfg, RoleBob, testBobPts)
			},
		},
		{
			name: "enhanced",
			newA: func(c transport.Conn, cfg Config) (*Session, error) {
				return NewEnhancedHorizontalSession(c, cfg, RoleAlice, testAlicePts)
			},
			newB: func(c transport.Conn, cfg Config) (*Session, error) {
				return NewEnhancedHorizontalSession(c, cfg, RoleBob, testBobPts)
			},
		},
		{
			name: "vertical",
			newA: func(c transport.Conn, cfg Config) (*Session, error) {
				return NewVerticalSession(c, cfg, RoleAlice, [][]float64{{0}, {1}, {0}, {1}, {6}, {3}, {4}, {7}})
			},
			newB: func(c transport.Conn, cfg Config) (*Session, error) {
				return NewVerticalSession(c, cfg, RoleBob, [][]float64{{0}, {0}, {1}, {1}, {6}, {4}, {3}, {7}})
			},
		},
	}
}

// runSessionN establishes one session pair and runs it n times,
// returning per-run results, setup ledgers, and the handshake frame count
// observed on the wire.
func runSessionN(t *testing.T, fam sessionFamily, cfg Config, n int) (resA, resB []*Result, setupA, setupB Ledger, handshakeFrames int64) {
	t.Helper()
	resA, resB, setupA, setupB, tags := runSessionMetered(t, fam, cfg, n)
	return resA, resB, setupA, setupB, tags["handshake"].MessagesSent
}

// runSessionMetered is runSessionN returning the full per-tag wire
// accounting of both parties, merged.
func runSessionMetered(t *testing.T, fam sessionFamily, cfg Config, n int) (resA, resB []*Result, setupA, setupB Ledger, tags map[string]transport.Stats) {
	t.Helper()
	ca, cb := transport.Pipe()
	ma, mb := transport.NewMeter(ca), transport.NewMeter(cb)
	var mu sync.Mutex
	err := transport.RunPair(ma, mb,
		func(transport.Conn) error {
			sess, err := fam.newA(ma, cfg)
			if err != nil {
				return err
			}
			for i := 0; i < n; i++ {
				r, err := sess.Run()
				if err != nil {
					return err
				}
				mu.Lock()
				resA = append(resA, r)
				mu.Unlock()
			}
			mu.Lock()
			setupA = sess.SetupLeakage()
			mu.Unlock()
			return sess.Close()
		},
		func(transport.Conn) error {
			sess, err := fam.newB(mb, cfg)
			if err != nil {
				return err
			}
			for {
				r, err := sess.Run()
				if errors.Is(err, ErrSessionClosed) {
					break
				}
				if err != nil {
					return err
				}
				mu.Lock()
				resB = append(resB, r)
				mu.Unlock()
			}
			mu.Lock()
			setupB = sess.SetupLeakage()
			mu.Unlock()
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	return resA, resB, setupA, setupB, transport.Merge(ma, mb)
}

func TestSessionReuseMatchesFreshSessions(t *testing.T) {
	for _, fam := range sessionFamilies() {
		t.Run(fam.name, func(t *testing.T) {
			cfg := testCfg(compare.EngineMasked)

			reA, reB, setupA, setupB, reHs := runSessionN(t, fam, cfg, 2)
			if len(reA) != 2 || len(reB) != 2 {
				t.Fatalf("reused session ran %d/%d times, want 2/2", len(reA), len(reB))
			}

			f1A, f1B, fSetupA, fSetupB, fHs := runSessionN(t, fam, cfg, 1)
			f2A, f2B, _, _, _ := runSessionN(t, fam, cfg, 1)

			// Labels: each reused run matches the fresh runs.
			for i, fresh := range [][]*Result{{f1A[0], f1B[0]}, {f2A[0], f2B[0]}} {
				if !metrics.ExactMatch(reA[i].Labels, fresh[0].Labels) {
					t.Errorf("run %d: alice labels %v, fresh session %v", i, reA[i].Labels, fresh[0].Labels)
				}
				if !metrics.ExactMatch(reB[i].Labels, fresh[1].Labels) {
					t.Errorf("run %d: bob labels %v, fresh session %v", i, reB[i].Labels, fresh[1].Labels)
				}
			}

			// Per-run disclosure budget: the cached second run keeps the
			// decision-level (non-index) classes of the first, except the
			// enhanced family whose mechanical OrderBits/CoreBits may only
			// shrink when cached core bits skip whole queries.
			if fam.name == "enhanced" {
				for _, pair := range [][2]*Result{{reA[0], reA[1]}, {reB[0], reB[1]}} {
					if pair[1].Leakage.OrderBits > pair[0].Leakage.OrderBits ||
						pair[1].Leakage.CoreBits > pair[0].Leakage.CoreBits {
						t.Errorf("enhanced disclosure grew across runs: %v then %v", pair[0].Leakage, pair[1].Leakage)
					}
				}
			} else if reA[0].Leakage.NonIndex() != reA[1].Leakage.NonIndex() ||
				reB[0].Leakage.NonIndex() != reB[1].Leakage.NonIndex() {
				t.Errorf("per-run budgets differ between runs: %v vs %v / %v vs %v",
					reA[0].Leakage, reA[1].Leakage, reB[0].Leakage, reB[1].Leakage)
			}

			// The comparison cache is actually hit on the second run: the
			// cached counter is positive on both sides and the second
			// run's cryptographic work is strictly below the first's.
			for side, runs := range map[string][]*Result{"alice": reA, "bob": reB} {
				if runs[0].CachedComparisons != 0 {
					t.Errorf("%s first run reports %d cached comparisons, want 0", side, runs[0].CachedComparisons)
				}
				if runs[1].CachedComparisons == 0 {
					t.Errorf("%s second run hit the cache 0 times", side)
				}
				if runs[1].SecureComparisons >= runs[0].SecureComparisons {
					t.Errorf("%s second run used %d secure comparisons, first %d — want strictly fewer",
						side, runs[1].SecureComparisons, runs[0].SecureComparisons)
				}
			}

			// Index rounds counted once: the one-time classes live in the
			// setup ledger, not the per-run ledgers, so a 2-run session
			// totals setup + 2·run while two fresh sessions total
			// 2·(setup + run).
			if cfg.withDefaults().Pruning == PruneGrid {
				if !indexDisclosed(setupA) || !indexDisclosed(setupB) {
					t.Errorf("setup ledger records no index exchange: %v / %v", setupA, setupB)
				}
			}
			if setupA != fSetupA || setupB != fSetupB {
				t.Errorf("setup ledgers diverge from fresh session: %v vs %v / %v vs %v",
					setupA, fSetupA, setupB, fSetupB)
			}
			var reTotal, freshTotal Ledger
			reTotal.Add(setupA)
			reTotal.Add(reA[0].Leakage)
			reTotal.Add(reA[1].Leakage)
			freshTotal.Add(fSetupA)
			freshTotal.Add(f1A[0].Leakage)
			freshTotal.Add(fSetupA)
			freshTotal.Add(f2A[0].Leakage)
			if reTotal.IndexCells*2 != freshTotal.IndexCells || reTotal.IndexCellCoords*2 != freshTotal.IndexCellCoords {
				t.Errorf("index not amortized: reused total %v, two fresh sessions %v", reTotal, freshTotal)
			}

			// Keygen rounds counted once: one handshake frame per party for
			// the whole 2-run session, same as a single fresh run.
			if reHs != fHs {
				t.Errorf("2-run session exchanged %d handshake frames, fresh single-run session %d", reHs, fHs)
			}
		})
	}
}

// TestSessionCloseEndsServingLoop: the serving party's Run returns
// ErrSessionClosed once — and only once — the initiator closes.
func TestSessionCloseEndsServingLoop(t *testing.T) {
	cfg := testCfg(compare.EngineMasked)
	ca, cb := transport.Pipe()
	err := transport.RunPair(ca, cb,
		func(transport.Conn) error {
			sess, err := NewHorizontalSession(ca, cfg, RoleAlice, testAlicePts)
			if err != nil {
				return err
			}
			return sess.Close()
		},
		func(transport.Conn) error {
			sess, err := NewHorizontalSession(cb, cfg, RoleBob, testBobPts)
			if err != nil {
				return err
			}
			if _, err := sess.Run(); !errors.Is(err, ErrSessionClosed) {
				t.Errorf("serving Run after close: %v, want ErrSessionClosed", err)
			}
			if _, err := sess.Run(); !errors.Is(err, ErrSessionClosed) {
				t.Errorf("second Run on closed session: %v, want ErrSessionClosed", err)
			}
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
}
