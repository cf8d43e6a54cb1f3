package main

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"time"

	"repro/internal/core"
	"repro/internal/transport"
)

// streamHDP is the stream-hdp workload: one live horizontal session at a
// time, established over an initial window and run once, then driven
// through a fixed script of ops — WindowAppend+Run per slide, then
// Retract+Run — and closed.
type streamHDP struct {
	p    params
	sets []streamSet
	book ledgerBook
	used int // sessions started, picks the next dataset

	live *streamSession
}

// streamSet is one generated stream: Window+Slides generations, each
// split between the parties, the ids Alice retracts after the last
// slide, and the oracle labels after every step (0 is the initial run).
type streamSet struct {
	cfg          core.Config
	alice, bob   [][][]float64 // per generation
	retract      []int
	wantA, wantB [][]int
}

// streamSession is a live session: Alice's half driven by the loop,
// Bob's half serving in its own goroutine.
type streamSession struct {
	set     int
	traced  bool
	step    int // ops done
	alice   *core.Session
	meter   *transport.Meter
	waits   *waitTally
	conns   [2]transport.Conn
	bobRes  chan *core.Result
	bobDone chan error // Bob's goroutine sends its final error once

	bobExited bool
	bobErr    error
}

func newStreamHDP(p params, rng *rand.Rand) (*streamHDP, error) {
	w := &streamHDP{p: p}
	gens := p.Window + p.Slides
	for i := 0; i < p.Datasets; i++ {
		points, eps := blobs(p, gens*p.Batch, rng.Int63())
		cfg := coreConfig(p, eps)
		enc, err := newEncoder(cfg)
		if err != nil {
			return nil, err
		}
		s := streamSet{cfg: cfg}
		for g := 0; g < gens; g++ {
			parts := splitRandom(rng, points[g*p.Batch:(g+1)*p.Batch], 2)
			s.alice = append(s.alice, parts[0])
			s.bob = append(s.bob, parts[1])
		}
		oracle := func(aliceLive, bobLive [][]float64) error {
			a, b, err := enc.horizontalOracle(aliceLive, bobLive, p.MinPts)
			s.wantA, s.wantB = append(s.wantA, a), append(s.wantB, b)
			return err
		}
		for step := 0; step <= p.Slides; step++ {
			if err := oracle(concat(s.alice[step:step+p.Window]), concat(s.bob[step:step+p.Window])); err != nil {
				return nil, err
			}
		}
		aliceLive := concat(s.alice[p.Slides:])
		s.retract = pickIDs(rng, len(aliceLive), p.Retract)
		if err := oracle(dropIDs(aliceLive, s.retract), concat(s.bob[p.Slides:])); err != nil {
			return nil, err
		}
		w.sets = append(w.sets, s)
	}
	return w, nil
}

// concat flattens generations in order.
func concat(gens [][][]float64) [][]float64 {
	var out [][]float64
	for _, g := range gens {
		out = append(out, g...)
	}
	return out
}

// pickIDs draws k distinct indices below n, ascending.
func pickIDs(rng *rand.Rand, n, k int) []int {
	k = min(k, n)
	ids := rng.Perm(n)[:k]
	slices.Sort(ids)
	return ids
}

// dropIDs removes the rows at the ascending ids.
func dropIDs(rows [][]float64, ids []int) [][]float64 {
	var out [][]float64
	next := 0
	for i, r := range rows {
		if next < len(ids) && ids[next] == i {
			next++
			continue
		}
		out = append(out, r)
	}
	return out
}

// ops is the number of ops in one session's script.
func (w *streamHDP) ops() int { return w.p.Slides + 1 }

// start establishes a session over the initial window of set k: Alice
// constructs over generation 0 and appends the rest of the window, Bob
// serves, supplying his share of each appended generation.
func (w *streamHDP) start(k int, o opCtx, traced bool) (*streamSession, error) {
	set := w.sets[k]
	a, b := transport.Pipe()
	ss := &streamSession{set: k, traced: traced, conns: [2]transport.Conn{a, b}, bobRes: make(chan *core.Result, w.ops()+1), bobDone: make(chan error, 1)}
	ss.meter, ss.waits = meterConn(a, traced)
	mb, _ := meterConn(b, traced)
	go func() {
		s, err := core.NewHorizontalSession(mb, set.cfg, core.RoleBob, set.bob[0])
		if err != nil {
			ss.bobDone <- err
			return
		}
		next := 1
		s.SetAppendSource(func(core.AppendRequest) ([][]float64, error) {
			if next >= len(set.bob) {
				return nil, fmt.Errorf("append beyond the stream's %d generations", len(set.bob))
			}
			next++
			return set.bob[next-1], nil
		})
		ss.bobDone <- serveRuns(s, func(r *core.Result) { ss.bobRes <- r })
	}()
	err := o.span("core.NewHorizontalSession", func() (err error) {
		ss.alice, err = core.NewHorizontalSession(ss.meter, set.cfg, core.RoleAlice, set.alice[0])
		return err
	})
	for g := 1; err == nil && g < w.p.Window; g++ {
		err = o.span("core.Append", func() error { return ss.alice.Append(set.alice[g]) })
	}
	if err != nil {
		ss.abort()
		return nil, errors.Join(err, ss.wait())
	}
	return ss, nil
}

// abort tears a session down after a failure.
func (ss *streamSession) abort() {
	ss.conns[0].Close()
	ss.conns[1].Close()
}

// wait returns Bob's final error, waiting for his goroutine to end.
func (ss *streamSession) wait() error {
	if !ss.bobExited {
		ss.bobErr, ss.bobExited = <-ss.bobDone, true
	}
	return ss.bobErr
}

// finish closes the session and waits for Bob's goroutine.
func (ss *streamSession) finish() error {
	err := ss.alice.Close()
	if err != nil {
		ss.abort()
	}
	err = errors.Join(err, ss.wait())
	ss.abort()
	return err
}

// run executes one Run on the live session and checks both parties'
// labels and disclosures against step's oracle.
func (w *streamHDP) run(ss *streamSession, o opCtx, span string) (ra, rb *core.Result, err error) {
	if err := o.span(span, func() (err error) {
		ra, err = ss.alice.Run()
		return err
	}); err != nil {
		return nil, nil, err
	}
	select {
	case rb = <-ss.bobRes:
	case err := <-ss.bobDone:
		ss.bobErr, ss.bobExited = err, true
		return nil, nil, fmt.Errorf("bob ended before his result: %v", err)
	}
	set := w.sets[ss.set]
	return ra, rb, errors.Join(
		checkLabels("alice", ra.Labels, set.wantA[ss.step]),
		checkLabels("bob", rb.Labels, set.wantB[ss.step]),
		w.book.check(fmt.Sprintf("dataset %d step %d", ss.set, ss.step), disclosure(ra, rb)))
}

func (w *streamHDP) establish() (time.Duration, error) {
	k := w.used % len(w.sets)
	w.used++
	start := time.Now()
	ss, err := w.start(k, opCtx{}, false)
	took := time.Since(start)
	if err != nil {
		return 0, err
	}
	return took, ss.finish()
}

// prepare makes a session ready for the next op: it closes a session
// whose script is done, or that was started with the other tracing
// setting, and starts the next one with its initial run.
func (w *streamHDP) prepare(o opCtx) error {
	if w.live != nil && w.live.step < w.ops() && w.live.traced == o.traced {
		return nil
	}
	if w.live != nil {
		err := w.live.finish()
		w.live = nil
		if err != nil {
			return err
		}
	}
	k := w.used % len(w.sets)
	w.used++
	ss, err := w.start(k, o, o.traced)
	if err != nil {
		return err
	}
	if _, _, err := w.run(ss, o, "core.Run.initial"); err != nil {
		ss.abort()
		ss.wait()
		return err
	}
	w.live = ss
	return nil
}

// op is one mutation plus its Run: a window slide for the first Slides
// ops of a session, then a retraction.
func (w *streamHDP) op(o opCtx) opRec {
	ss := w.live
	set := w.sets[ss.set]
	before := ss.meter.Stats()
	tagsBefore := tagTotals(ss.meter)
	var waitsBefore map[string]time.Duration
	if ss.waits != nil {
		waitsBefore = ss.waits.snapshot()
	}
	var err error
	if ss.step < w.p.Slides {
		g := w.p.Window + ss.step
		err = o.span("core.WindowAppend", func() error { return ss.alice.WindowAppend(set.alice[g]) })
	} else {
		err = o.span("core.Retract", func() error { return ss.alice.Retract(set.retract) })
	}
	ss.step++
	var ra, rb *core.Result
	if err == nil {
		ra, rb, err = w.run(ss, o, "core.Run")
	}
	if ra == nil || rb == nil {
		// The session can no longer be trusted; the next prepare starts
		// a fresh one.
		ss.abort()
		ss.wait()
		w.live = nil
		return opRec{err: err}
	}
	rec := twoPartyRec(ss.meter, nil, ra, rb)
	after := ss.meter.Stats()
	rec.wire = after.Total() - before.Total()
	rec.frames = after.Messages() - before.Messages()
	for t, v := range tagsBefore {
		rec.tags[t] -= v
	}
	if ss.waits != nil {
		rec.waits = ss.waits.snapshot()
		for t, v := range waitsBefore {
			rec.waits[t] -= v
		}
	}
	rec.err = err
	return rec
}

func (w *streamHDP) close() error {
	if w.live == nil {
		return nil
	}
	err := w.live.finish()
	w.live = nil
	return err
}
