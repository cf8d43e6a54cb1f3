package main

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/dbscan"
	"repro/internal/dispatch"
	"repro/internal/partition"
	"repro/internal/transport"
)

// wanServe is the wan-serve-vdp workload: clients reach a dispatcher
// over a simulated WAN link; the dispatcher splices each admitted
// session to one of several in-process shards, each a Backend in front
// of a SessionManager serving the vertical family.
type wanServe struct {
	p      params
	seed   int64
	sets   []vdpSet
	book   ledgerBook
	disp   *dispatch.Dispatcher
	shards map[string]*shard
	used   int

	handlers sync.WaitGroup // dispatcher HandleConn goroutines

	mu         sync.Mutex
	shardFails []error // failures seen on the serving side
}

// vdpSet is one vertically split dataset with the oracle labels of
// plaintext DBSCAN over the pooled records.
type vdpSet struct {
	cfg        core.Config
	alice, bob [][]float64
	want       []int
}

// shard is one in-process backend: the image of one `ppdbscan serve`
// process, fed connections by the dispatcher's Dial.
type shard struct {
	backend *dispatch.Backend
	conns   chan transport.Conn
	wg      sync.WaitGroup
}

func newWanServe(p params, seed int64, rng *rand.Rand) (*wanServe, error) {
	w := &wanServe{p: p, seed: seed, shards: map[string]*shard{}}
	for i := 0; i < p.Datasets; i++ {
		points, eps := blobs(p, p.N, rng.Int63())
		cfg := coreConfig(p, eps)
		enc, err := newEncoder(cfg)
		if err != nil {
			return nil, err
		}
		vs, err := partition.Vertical(points, 1)
		if err != nil {
			return nil, err
		}
		pooled, err := enc.encode(points)
		if err != nil {
			return nil, err
		}
		want, err := dbscan.ClusterInt(pooled, enc.epsSq, p.MinPts)
		if err != nil {
			return nil, err
		}
		w.sets = append(w.sets, vdpSet{cfg: cfg, alice: vs.Alice, bob: vs.Bob, want: want.Labels})
	}
	// Co-located shards split the CPU between their crypto pools, as
	// `ppdbscan serve -workers auto -colocated N` does.
	workers := max(1, runtime.GOMAXPROCS(0)/p.Shards)
	names := make([]string, p.Shards)
	for i := range names {
		names[i] = fmt.Sprint("shard-", i)
		s := &shard{
			backend: &dispatch.Backend{Name: names[i], Mgr: core.NewSessionManager(workers)},
			conns:   make(chan transport.Conn),
		}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			for conn := range s.conns {
				s.wg.Add(1)
				go func() {
					defer s.wg.Done()
					if err := w.serve(s, conn); err != nil {
						w.mu.Lock()
						w.shardFails = append(w.shardFails, err)
						w.mu.Unlock()
					}
				}()
			}
		}()
		w.shards[names[i]] = s
	}
	disp, err := dispatch.New(dispatch.Options{
		Shards:         names,
		Shed:           p.ShedPerShard,
		HealthInterval: -1,
		Dial: func(addr string) (transport.Conn, error) {
			s, ok := w.shards[addr]
			if !ok {
				return nil, fmt.Errorf("no shard %q", addr)
			}
			a, b := transport.Pipe()
			s.conns <- b
			return a, nil
		},
	})
	if err != nil {
		return nil, err
	}
	w.disp = disp
	return w, nil
}

// keyTap records the session key of the admission hello, the first
// frame a shard receives, so the shard serves the dataset the client
// named. It forwards every frame unchanged.
type keyTap struct {
	transport.Conn
	key string
}

func (t *keyTap) Recv() ([]byte, error) {
	b, err := t.Conn.Recv()
	if err == nil && t.key == "" {
		if c, derr := transport.DecodeControl(transport.NewReader(b)); derr == nil {
			t.key = c.Key
		}
	}
	return b, err
}

// datasetOf reads the dataset index out of a session key.
func datasetOf(key string) (int, error) {
	_, rest, ok := strings.Cut(key, "/d")
	if !ok {
		return 0, fmt.Errorf("session key %q names no dataset", key)
	}
	rest, _, _ = strings.Cut(rest, "/")
	return strconv.Atoi(rest)
}

func sessionKey(seed int64, k int, op int64) string {
	return fmt.Sprintf("s%d/d%d/op%d", seed, k, op)
}

// serve is the shard side of one connection: admission preamble, then a
// vertical session answering runs until the client closes, with every
// result checked against the oracle.
func (w *wanServe) serve(s *shard, conn transport.Conn) error {
	tap := &keyTap{Conn: conn}
	h, ok, err := s.backend.Accept(tap)
	if err != nil || !ok {
		return err
	}
	defer conn.Close()
	k, err := datasetOf(tap.key)
	if err == nil && (k < 0 || k >= len(w.sets)) {
		err = fmt.Errorf("dataset %d out of range", k)
	}
	if err != nil {
		h.End(err)
		return err
	}
	set := w.sets[k]
	sess, err := core.NewVerticalSession(h.Meter(), s.backend.Mgr.Configure(set.cfg), core.RoleBob, set.bob)
	if err != nil {
		h.End(err)
		return fmt.Errorf("shard establish: %w", err)
	}
	h.Activate()
	var errs []error
	err = serveRuns(sess, func(r *core.Result) {
		h.RunDone()
		errs = append(errs, checkLabels("shard", r.Labels, set.want))
	})
	h.End(err)
	return errors.Join(append(errs, err)...)
}

// dial opens a client connection through the dispatcher over the WAN
// link and waits for admission, retrying a shed after a short pause.
func (w *wanServe) dial(o opCtx, key string, rec *opRec) (transport.Conn, error) {
	for {
		cc, sc := transport.LatencyPipe(time.Duration(w.p.LatencyMS * float64(time.Millisecond)))
		w.handlers.Add(1)
		go func() {
			defer w.handlers.Done()
			w.disp.HandleConn(sc)
		}()
		rec.hellos++
		err := o.span("dispatch.Hello", func() error {
			_, err := dispatch.Hello(cc, key)
			return err
		})
		if err == nil {
			return cc, nil
		}
		cc.Close()
		if !errors.Is(err, core.ErrServerFull) {
			return nil, err
		}
		rec.sheds++
		time.Sleep(time.Duration(w.p.ShedWaitMS * float64(time.Millisecond)))
	}
}

func (w *wanServe) establish() (time.Duration, error) {
	k := w.used % len(w.sets)
	w.used++
	set := w.sets[k]
	start := time.Now()
	var rec opRec
	cc, err := w.dial(opCtx{}, sessionKey(w.seed, k, -int64(w.used)), &rec)
	if err != nil {
		return 0, err
	}
	defer cc.Close()
	sess, err := core.NewVerticalSession(transport.NewMeter(cc), set.cfg, core.RoleAlice, set.alice)
	took := time.Since(start)
	if err != nil {
		return 0, err
	}
	return took, sess.Close()
}

func (w *wanServe) op(o opCtx) opRec {
	k := int(o.id) % len(w.sets)
	set := w.sets[k]
	var rec opRec
	cc, err := w.dial(o, sessionKey(w.seed, k, o.id), &rec)
	if err != nil {
		rec.err = err
		return rec
	}
	defer cc.Close()
	m, waits := meterConn(cc, o.traced)
	var sess *core.Session
	var res *core.Result
	err = o.span("core.NewVerticalSession", func() (err error) {
		sess, err = core.NewVerticalSession(m, set.cfg, core.RoleAlice, set.alice)
		return err
	})
	if err == nil {
		err = o.span("core.Run", func() (err error) {
			res, err = sess.Run()
			return err
		})
	}
	if err == nil {
		err = o.span("core.Close", sess.Close)
	}
	if err != nil {
		rec.err = err
		return rec
	}
	st := m.Stats()
	rec.wire, rec.frames = st.Total(), st.Messages()
	rec.ctsUp, rec.ctsDown = res.CiphertextsUplink, res.CiphertextsDownlink
	rec.secure, rec.cached = res.SecureComparisons, res.CachedComparisons
	if waits != nil {
		rec.waits = waits.snapshot()
	}
	rec.err = errors.Join(
		checkLabels("client", res.Labels, set.want),
		w.book.check(fmt.Sprint("dataset ", k), res.Leakage.NonIndex().String()))
	return rec
}

// settle waits until every dispatcher handler and every shard session
// of the ops that already returned has ended, so the heap holds only the
// serving tier itself.
func (w *wanServe) settle() {
	w.handlers.Wait()
	for _, s := range w.shards {
		for s.backend.Mgr.Live() > 0 {
			time.Sleep(time.Millisecond)
		}
	}
}

// close drains the dispatcher and every shard and waits for all their
// goroutines. Failures seen on the serving side are reported here.
func (w *wanServe) close() error {
	var errs []error
	if _, _, graceful := w.disp.Drain(5 * time.Second); !graceful {
		errs = append(errs, fmt.Errorf("dispatcher drain left sessions spliced"))
	}
	w.handlers.Wait()
	for _, s := range w.shards {
		if !s.backend.Mgr.Drain(5 * time.Second) {
			errs = append(errs, fmt.Errorf("%s drain was not graceful", s.backend.Name))
		}
		close(s.conns)
		s.wg.Wait()
	}
	w.mu.Lock()
	errs = append(errs, w.shardFails...)
	w.mu.Unlock()
	return errors.Join(errs...)
}
