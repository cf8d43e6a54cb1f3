package main

import (
	"errors"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/core"
	"repro/internal/transport"
)

// freshHDP is the fresh-hdp-1024 workload: every op establishes a new
// two-party horizontal session over a pipe, runs it once and closes it.
type freshHDP struct {
	sets []hdpSet
	book ledgerBook
	used int // standalone establishments, picks the next dataset
}

// hdpSet is one horizontally split dataset with its oracle labels.
type hdpSet struct {
	cfg          core.Config
	alice, bob   [][]float64
	wantA, wantB []int
}

func newFreshHDP(p params, rng *rand.Rand) (*freshHDP, error) {
	w := &freshHDP{}
	for i := 0; i < p.Datasets; i++ {
		points, eps := blobs(p, p.N, rng.Int63())
		cfg := coreConfig(p, eps)
		enc, err := newEncoder(cfg)
		if err != nil {
			return nil, err
		}
		parts := splitRandom(rng, points, 2)
		s := hdpSet{cfg: cfg, alice: parts[0], bob: parts[1]}
		if s.wantA, s.wantB, err = enc.horizontalOracle(s.alice, s.bob, p.MinPts); err != nil {
			return nil, err
		}
		w.sets = append(w.sets, s)
	}
	return w, nil
}

// serveRuns is the serving party's loop: answer runs until the
// initiator closes the session, handing each result to got.
func serveRuns(s *core.Session, got func(*core.Result)) error {
	for {
		res, err := s.Run()
		if errors.Is(err, core.ErrSessionClosed) {
			return nil
		}
		if err != nil {
			return err
		}
		got(res)
	}
}

func (w *freshHDP) establish() (time.Duration, error) {
	set := w.sets[w.used%len(w.sets)]
	w.used++
	a, b := transport.Pipe()
	defer a.Close()
	defer b.Close()
	var took time.Duration
	err := pair([]transport.Conn{a, b},
		func() error {
			start := time.Now()
			s, err := core.NewHorizontalSession(transport.NewMeter(a), set.cfg, core.RoleAlice, set.alice)
			took = time.Since(start)
			if err != nil {
				return err
			}
			return s.Close()
		},
		func() error {
			s, err := core.NewHorizontalSession(transport.NewMeter(b), set.cfg, core.RoleBob, set.bob)
			if err != nil {
				return err
			}
			return serveRuns(s, func(*core.Result) {})
		})
	return took, err
}

func (w *freshHDP) op(o opCtx) opRec {
	k := int(o.id) % len(w.sets)
	set := w.sets[k]
	a, b := transport.Pipe()
	defer a.Close()
	defer b.Close()
	ma, waits := meterConn(a, o.traced)
	mb, _ := meterConn(b, o.traced)
	var ra, rb *core.Result
	err := pair([]transport.Conn{a, b},
		func() error {
			var s *core.Session
			err := o.span("core.NewHorizontalSession", func() (err error) {
				s, err = core.NewHorizontalSession(ma, set.cfg, core.RoleAlice, set.alice)
				return err
			})
			if err != nil {
				return err
			}
			if err := o.span("core.Run", func() (err error) {
				ra, err = s.Run()
				return err
			}); err != nil {
				return err
			}
			return o.span("core.Close", s.Close)
		},
		func() error {
			s, err := core.NewHorizontalSession(mb, set.cfg, core.RoleBob, set.bob)
			if err != nil {
				return err
			}
			return serveRuns(s, func(r *core.Result) { rb = r })
		})
	if err == nil && (ra == nil || rb == nil) {
		err = fmt.Errorf("missing result")
	}
	if err != nil {
		return opRec{err: err}
	}
	rec := twoPartyRec(ma, waits, ra, rb)
	rec.err = errors.Join(
		checkLabels("alice", ra.Labels, set.wantA),
		checkLabels("bob", rb.Labels, set.wantB),
		w.book.check(fmt.Sprint("dataset ", k), disclosure(ra, rb)))
	return rec
}

func (w *freshHDP) close() error { return nil }

// disclosure renders both parties' non-index Ledgers.
func disclosure(ra, rb *core.Result) string {
	return fmt.Sprintf("alice %v bob %v", ra.Leakage.NonIndex(), rb.Leakage.NonIndex())
}

// twoPartyRec fills the counters of a two-party op from the initiator's
// Meter (which sees every byte of the link once) and both results.
func twoPartyRec(ma *transport.Meter, waits *waitTally, ra, rb *core.Result) opRec {
	st := ma.Stats()
	rec := opRec{
		wire:    st.Total(),
		frames:  st.Messages(),
		tags:    tagTotals(ma),
		ctsUp:   ra.CiphertextsUplink + rb.CiphertextsUplink,
		ctsDown: ra.CiphertextsDownlink + rb.CiphertextsDownlink,
		secure:  ra.SecureComparisons,
		cached:  ra.CachedComparisons,
	}
	if waits != nil {
		rec.waits = waits.snapshot()
	}
	return rec
}
