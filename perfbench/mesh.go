package main

import (
	"errors"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/compare"
	"repro/internal/core"
	"repro/internal/multiparty"
	"repro/internal/transport"
)

// mesh3 is the mesh-3party workload: every op builds a local mesh,
// establishes a MeshSession per party and runs all of them once.
type mesh3 struct {
	p    params
	sets []meshSet
	book ledgerBook
	used int
}

// meshSet is one dataset split across the parties, with each party's
// oracle labels: its own points expanded with every peer's points
// counting toward density.
type meshSet struct {
	cfg   multiparty.Config
	parts [][][]float64
	want  [][]int
}

func newMesh3(p params, rng *rand.Rand) (*mesh3, error) {
	w := &mesh3{p: p}
	for i := 0; i < p.Datasets; i++ {
		points, eps := blobs(p, p.N, rng.Int63())
		enc, err := newEncoder(coreConfig(p, eps))
		if err != nil {
			return nil, err
		}
		s := meshSet{
			cfg: multiparty.Config{
				Eps:          eps,
				MinPts:       p.MinPts,
				PaillierBits: p.PaillierBits,
				RSABits:      p.RSABits,
				Engine:       compare.EngineMasked,
				Parallel:     p.Parallel,
			},
			parts: splitRandom(rng, points, p.Parties),
		}
		for q := range s.parts {
			own, err := enc.encode(s.parts[q])
			if err != nil {
				return nil, err
			}
			var peers [][]float64
			for r := range s.parts {
				if r != q {
					peers = append(peers, s.parts[r]...)
				}
			}
			peer, err := enc.encode(peers)
			if err != nil {
				return nil, err
			}
			labels, _ := core.SimulateHorizontalPass(own, peer, enc.epsSq, p.MinPts)
			s.want = append(s.want, labels)
		}
		w.sets = append(w.sets, s)
	}
	return w, nil
}

// meshConns builds a local mesh with a Meter on every party's end of
// every edge.
func meshConns(k int, o opCtx) (raw []transport.Conn, parties []multiparty.HorizontalParty, meters []*transport.Meter) {
	var mesh [][]transport.Conn
	o.span("multiparty.NewLocalMesh", func() error {
		mesh = multiparty.NewLocalMesh(k)
		return nil
	})
	for p := 0; p < k; p++ {
		conns := make([]transport.Conn, k)
		for q := 0; q < k; q++ {
			if q == p {
				continue
			}
			m, _ := meterConn(mesh[p][q], o.traced)
			conns[q] = m
			meters = append(meters, m)
			raw = append(raw, mesh[p][q])
		}
		parties = append(parties, multiparty.HorizontalParty{Index: p, K: k, Conns: conns})
	}
	return raw, parties, meters
}

func (w *mesh3) establish() (time.Duration, error) {
	set := w.sets[w.used%len(w.sets)]
	w.used++
	raw, parties, _ := meshConns(w.p.Parties, opCtx{})
	defer closeAll(raw)
	fns := make([]func() error, len(parties))
	for q := range parties {
		fns[q] = func() error {
			_, err := multiparty.NewMeshSession(parties[q], set.cfg, set.parts[q])
			return err
		}
	}
	start := time.Now()
	err := pair(raw, fns...)
	return time.Since(start), err
}

func (w *mesh3) op(o opCtx) opRec {
	k := int(o.id) % len(w.sets)
	set := w.sets[k]
	raw, parties, meters := meshConns(w.p.Parties, o)
	defer closeAll(raw)
	results := make([]*multiparty.HorizontalResult, len(parties))
	fns := make([]func() error, len(parties))
	for q := range parties {
		fns[q] = func() error {
			var s *multiparty.MeshSession
			if err := o.span("multiparty.NewMeshSession", func() (err error) {
				s, err = multiparty.NewMeshSession(parties[q], set.cfg, set.parts[q])
				return err
			}); err != nil {
				return err
			}
			return o.span("multiparty.Run", func() (err error) {
				results[q], err = s.Run()
				return err
			})
		}
	}
	if err := pair(raw, fns...); err != nil {
		return opRec{err: err}
	}
	var rec opRec
	var errs []error
	var queries []int
	for q, r := range results {
		rec.ctsUp += r.CiphertextsUplink
		rec.ctsDown += r.CiphertextsDownlink
		rec.meshCts += r.CiphertextsSent
		rec.regionQ += int64(r.RegionQueries)
		queries = append(queries, r.RegionQueries)
		errs = append(errs, checkLabels(fmt.Sprint("party ", q), r.Labels, set.want[q]))
	}
	for _, m := range meters {
		st := m.Stats()
		rec.wire += st.BytesSent
		rec.frames += st.MessagesSent
	}
	// The mesh discloses per-peer neighbour counts, one set per region
	// query; the query counts are its disclosure record.
	errs = append(errs, w.book.check(fmt.Sprint("dataset ", k), fmt.Sprint("region queries ", queries)))
	rec.err = errors.Join(errs...)
	return rec
}

func (w *mesh3) close() error { return nil }

func closeAll(conns []transport.Conn) {
	for _, c := range conns {
		c.Close()
	}
}
