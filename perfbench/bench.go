package main

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/transport"
)

// opCtx identifies one op to the calls it makes: its id, the id of its
// root span, and whether the traced wrappers are on.
type opCtx struct {
	id     int64
	root   int
	traced bool
	tr     *tracer
}

// opRec is what one op measured. Latency is filled in by the loop that
// ran it; everything else by the workload.
type opRec struct {
	err     error
	latency time.Duration
	late    time.Duration // open loop: send time minus due time

	wire    int64                    // bytes on the benchmark's conns, each byte once
	frames  int64                    // messages: the initiator's sent plus received, or every mesh message once
	tags    map[string]int64         // initiator bytes (both directions) per phase tag
	waits   map[string]time.Duration // initiator Recv wait per phase tag (traced only)
	ctsUp   int64                    // Paillier ciphertexts, request leg, all parties
	ctsDown int64                    // Paillier ciphertexts, response leg, all parties
	secure  int64                    // initiator's secure comparisons
	cached  int64                    // initiator's cache-served comparisons
	regionQ int64                    // multiparty region queries, all parties
	meshCts int64                    // multiparty ciphertexts sent, all parties
	hellos  int64                    // admission attempts
	sheds   int64                    // admission attempts refused
}

// workload is one benchmark workload bound to its generated inputs.
type workload interface {
	// establish sets up one session outside any op, closes it, and
	// returns the establishment time: the setup_s sample.
	establish() (time.Duration, error)
	// op runs one op, checks its outputs against the oracle, and
	// returns what it measured. A wrong output is an error.
	op(o opCtx) opRec
	// close stops every goroutine the workload started.
	close() error
}

// preparer is implemented by a closed-loop workload whose ops need state
// made ready between ops (a live session); the time it takes is part of
// the run but not of any op's latency.
type preparer interface {
	prepare(o opCtx) error
}

// settler is implemented by a workload whose ops leave work finishing in
// the background after they return; settle waits for it.
type settler interface {
	settle()
}

// phase is the outcome of one timed loop.
type phase struct {
	recs    []opRec
	elapsed time.Duration
	rt      rtDelta
}

// runner drives a workload: ids, spans and the loop discipline.
type runner struct {
	w      workload
	p      params
	rng    *rand.Rand // the arrival schedule's source
	tr     *tracer
	nextID atomic.Int64
}

func (r *runner) ctx(traced bool) opCtx {
	return opCtx{id: r.nextID.Add(1), traced: traced, tr: r.tr}
}

// loop runs the workload's loop discipline for d.
func (r *runner) loop(d time.Duration, traced bool) phase {
	if r.p.Loop == "open" {
		return r.open(d, traced)
	}
	return r.closed(d, traced)
}

// closedOp runs one op of a closed loop, preparing first if needed.
func (r *runner) closedOp(traced bool) opRec {
	o := r.ctx(traced)
	root, end := r.tr.begin(o.id, 0, "op")
	defer end()
	o.root = root
	if p, ok := r.w.(preparer); ok {
		if err := p.prepare(o); err != nil {
			return opRec{err: fmt.Errorf("prepare: %w", err)}
		}
	}
	start := time.Now()
	rec := r.w.op(o)
	rec.latency = time.Since(start)
	return rec
}

// closed runs ops back to back for d, one client.
func (r *runner) closed(d time.Duration, traced bool) phase {
	rt0 := readRuntime()
	start := time.Now()
	var recs []opRec
	for time.Since(start) < d {
		recs = append(recs, r.closedOp(traced))
	}
	return phase{recs: recs, elapsed: time.Since(start), rt: readRuntime().since(rt0)}
}

// open runs an open loop: ops are due at the workload's fixed rate for
// d, at most Inflight run at once, and later ones wait in the generator.
// Latency runs from the due time, so a stall lengthens the latency of
// every op queued behind it.
func (r *runner) open(d time.Duration, traced bool) phase {
	due := jitteredSchedule(r.rng, r.p.RatePerS, d)
	rt0 := readRuntime()
	start := time.Now()
	recs := openLoop(start, due, r.p.Inflight, func() opRec {
		o := r.ctx(traced)
		root, end := r.tr.begin(o.id, 0, "op")
		defer end()
		o.root = root
		return r.w.op(o)
	})
	return phase{recs: recs, elapsed: time.Since(start), rt: readRuntime().since(rt0)}
}

// jitteredSchedule draws due offsets at a fixed rate per second until d:
// op k is due at a uniformly random point of its slot [k, k+1)/rate. The
// count of arrivals is fixed by the rate; the seed only moves them
// within their slots, which keeps bursts from dominating the latency.
func jitteredSchedule(rng *rand.Rand, rate float64, d time.Duration) []time.Duration {
	slot := time.Duration(float64(time.Second) / rate)
	var due []time.Duration
	for k := time.Duration(0); (k+1)*slot <= d; k++ {
		due = append(due, k*slot+time.Duration(rng.Float64()*float64(slot)))
	}
	return due
}

// openLoop sends op k at start+due[k] with at most inflight in flight.
// An op that cannot start on time waits, in order, in the generator; its
// latency is measured from its due time and its lateness is the send
// time minus the due time.
func openLoop(start time.Time, due []time.Duration, inflight int, op func() opRec) []opRec {
	recs := make([]opRec, len(due))
	sem := make(chan struct{}, inflight)
	var wg sync.WaitGroup
	for k, off := range due {
		at := start.Add(off)
		time.Sleep(time.Until(at))
		sem <- struct{}{}
		sent := time.Now()
		wg.Add(1)
		go func(k int, at, sent time.Time) {
			defer wg.Done()
			rec := op()
			rec.latency = time.Since(at)
			rec.late = sent.Sub(at)
			recs[k] = rec
			<-sem
		}(k, at, sent)
	}
	wg.Wait()
	return recs
}

// rtSample is a reading of the runtime's CPU and allocation accounting.
type rtSample struct {
	wall           time.Time
	user, gc, scav float64 // CPU seconds
	allocBytes     float64
}

type rtDelta struct {
	wall           time.Duration
	user, gc, scav float64
	allocBytes     float64
}

var rtNames = []string{
	"/cpu/classes/user:cpu-seconds",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/scavenge/total:cpu-seconds",
	"/gc/heap/allocs:bytes",
}

func readRuntime() rtSample {
	s := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		s[i].Name = n
	}
	metrics.Read(s)
	v := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		}
		return 0
	}
	return rtSample{wall: time.Now(), user: v(0), gc: v(1), scav: v(2), allocBytes: v(3)}
}

func (b rtSample) since(a rtSample) rtDelta {
	return rtDelta{
		wall: b.wall.Sub(a.wall), user: b.user - a.user, gc: b.gc - a.gc,
		scav: b.scav - a.scav, allocBytes: b.allocBytes - a.allocBytes,
	}
}

// heapLiveMB forces a collection and reports the live heap it marked.
func heapLiveMB() float64 {
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()) / (1 << 20)
}

// ok returns the ops that succeeded.
func (ph phase) ok() []opRec {
	var good []opRec
	for _, r := range ph.recs {
		if r.err == nil {
			good = append(good, r)
		}
	}
	return good
}

func latencies(recs []opRec) []float64 {
	out := make([]float64, len(recs))
	for i, r := range recs {
		out[i] = r.latency.Seconds()
	}
	return out
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// endToEnd computes the end-to-end metrics of an untraced phase.
func endToEnd(ph phase, setups []time.Duration, heapMB, sloS float64) (map[string]metric, string) {
	good := ph.ok()
	lat := latencies(good)
	tailV, tailP := tail(lat)
	var wire int64
	within := 0
	for _, r := range good {
		wire += r.wire
		if r.latency.Seconds() <= sloS {
			within++
		}
	}
	n := max(len(good), 1)
	m := map[string]metric{
		"setup_s":          {median(seconds(setups)), "s"},
		"latency_s.p50":    {median(lat), "s"},
		"latency_s.tail":   {tailV, "s"},
		"throughput_ops_s": {float64(len(good)) / ph.elapsed.Seconds(), "1/s"},
		"slo_frac":         {float64(within) / float64(max(len(ph.recs), 1)), "ratio"},
		"wire_kb_per_op":   {float64(wire) / 1024 / float64(n), "KiB"},
		"success_frac":     {float64(len(good)) / float64(max(len(ph.recs), 1)), "ratio"},
		"heap_live_mb":     {heapMB, "MiB"},
	}
	info := fmt.Sprintf("latency_s.tail is p%.1f of %d ops; setup_s is the median of %d establishments", tailP, len(lat), len(setups))
	return m, info
}

// phaseTags are the phase tags reported one by one; every other tag
// ending in ".idx" is index exchange (spatial), and the rest is "other".
var phaseTags = []string{"hdp.mp", "hdp.cmp", "hdp.op", "vdp.cmp", "handshake", "session.op"}

// tagGroup maps a Meter tag to the name it is reported under.
func tagGroup(tag string) string {
	for _, t := range phaseTags {
		if t == tag {
			return t
		}
	}
	if strings.HasSuffix(tag, ".idx") {
		return "idx"
	}
	return "other"
}

// cpuLayers are the layers whose profile CPU is reported one by one;
// other repro/internal packages are summed under "other".
var cpuLayers = []string{"transport", "paillier", "mpc", "compare", "encoding", "spatial", "core", "dispatch", "multiparty", "runtime"}

// layerInputs is everything a traced phase measured.
type layerInputs struct {
	ph        phase
	spans     []span
	cpu       map[string]float64 // profile seconds per layer
	cpuTotal  float64
	untracedP float64 // untraced latency p50 of the same run
	perTag    bool    // per-tag byte attribution is exact (W = 1)
}

// perLayer computes the per-layer metrics of a traced phase.
func perLayer(in layerInputs) map[string]metric {
	good := in.ph.ok()
	n := float64(max(len(good), 1))
	m := map[string]metric{}
	put := func(name string, v float64, unit string) { m[name] = metric{v, unit} }

	var frames, ctsUp, ctsDown, secure, cached, regionQ, meshCts, hellos, sheds int64
	tagBytes := map[string]int64{}
	waits := map[string]time.Duration{}
	var lates []float64
	for _, r := range good {
		frames += r.frames
		ctsUp += r.ctsUp
		ctsDown += r.ctsDown
		secure += r.secure
		cached += r.cached
		regionQ += r.regionQ
		meshCts += r.meshCts
		for t, b := range r.tags {
			tagBytes[tagGroup(t)] += b
		}
		for t, d := range r.waits {
			waits[tagGroup(t)] += d
		}
		lates = append(lates, r.late.Seconds())
	}
	for _, r := range in.ph.recs {
		hellos += r.hellos
		sheds += r.sheds
	}

	put("transport.frames_per_op", float64(frames)/n, "count")
	for _, t := range append(append([]string(nil), phaseTags...), "other") {
		v := 0.0
		if in.perTag {
			v = float64(tagBytes[t]) / 1024 / n
		}
		put("transport.kb_per_op."+t, v, "KiB")
	}
	idx := 0.0
	if in.perTag {
		idx = float64(tagBytes["idx"]) / 1024 / n
	}
	put("spatial.idx_kb_per_op", idx, "KiB")
	var waitAll time.Duration
	for _, t := range append(append([]string(nil), phaseTags...), "idx", "other") {
		waitAll += waits[t]
		put("transport.recv_wait_s_per_op."+t, waits[t].Seconds()/n, "s")
	}
	put("transport.recv_wait_s_per_op", waitAll.Seconds()/n, "s")

	other := in.cpuTotal
	for _, l := range cpuLayers {
		put(l+".cpu_s_per_op", in.cpu[l]/n, "s")
		other -= in.cpu[l]
	}
	put("other.cpu_s_per_op", max(other, 0)/n, "s")
	put("profile.cpu_s_per_op", in.cpuTotal/n, "s")

	put("paillier.cts_up_per_op", float64(ctsUp)/n, "count")
	put("paillier.cts_down_per_op", float64(ctsDown)/n, "count")
	put("compare.secure_per_op", float64(secure)/n, "count")
	put("core.cached_per_op", float64(cached)/n, "count")
	hit := 0.0
	if cached+secure > 0 {
		hit = float64(cached) / float64(cached+secure)
	}
	put("core.cache_hit_frac", hit, "ratio")

	put("core.setup_s", median(append(spanDurs(in.spans, "core.NewHorizontalSession"), spanDurs(in.spans, "core.NewVerticalSession")...)), "s")
	put("core.run_s", median(spanDurs(in.spans, "core.Run")), "s")
	put("core.mutate_s", median(append(spanDurs(in.spans, "core.WindowAppend"), spanDurs(in.spans, "core.Retract")...)), "s")

	put("dispatch.admit_s", median(spanDurs(in.spans, "dispatch.Hello")), "s")
	shed := 0.0
	if hellos > 0 {
		shed = float64(sheds) / float64(hellos)
	}
	put("dispatch.shed_frac", shed, "ratio")

	put("multiparty.setup_s", median(spanMaxPerOp(in.spans, "multiparty.NewMeshSession")), "s")
	put("multiparty.run_s", median(spanMaxPerOp(in.spans, "multiparty.Run")), "s")
	put("multiparty.cts_per_op", float64(meshCts)/n, "count")
	put("multiparty.region_queries_per_op", float64(regionQ)/n, "count")

	rt := in.ph.rt
	procs := float64(runtime.GOMAXPROCS(0))
	put("runtime.cpu_busy_frac", rt.user/(rt.wall.Seconds()*procs), "ratio")
	busy := rt.user + rt.gc + rt.scav
	gcFrac := 0.0
	if busy > 0 {
		gcFrac = rt.gc / busy
	}
	put("runtime.gc_cpu_frac", gcFrac, "ratio")
	put("runtime.alloc_mb_per_op", rt.allocBytes/(1<<20)/n, "MiB")

	lateMax := 0.0
	for _, l := range lates {
		lateMax = max(lateMax, l)
	}
	put("gen.late_s.p50", median(lates), "s")
	put("gen.late_s.max", lateMax, "s")

	overhead := 0.0
	if in.untracedP > 0 {
		overhead = median(latencies(good))/in.untracedP - 1
	}
	put("trace.overhead_frac", overhead, "ratio")
	return m
}

// pair runs every party's function concurrently and waits for all of
// them. The first failure closes every conn, so a peer blocked in Recv
// returns instead of waiting forever.
func pair(conns []transport.Conn, parties ...func() error) error {
	errs := make([]error, len(parties))
	var once sync.Once
	var wg sync.WaitGroup
	for i, f := range parties {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if errs[i] = f(); errs[i] != nil {
				once.Do(func() {
					for _, c := range conns {
						c.Close()
					}
				})
			}
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// ledgerBook checks that every op on the same input discloses the same
// thing: the first op on a key records its disclosure, later ops must
// match it exactly.
type ledgerBook struct {
	mu   sync.Mutex
	seen map[string]string
}

func (b *ledgerBook) check(key string, disclosure string) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.seen == nil {
		b.seen = map[string]string{}
	}
	if prev, ok := b.seen[key]; ok && prev != disclosure {
		return fmt.Errorf("disclosure on %s changed: %s, first op %s", key, disclosure, prev)
	}
	b.seen[key] = disclosure
	return nil
}

// tagTotals is a Meter's per-tag bytes in both directions.
func tagTotals(m *transport.Meter) map[string]int64 {
	out := map[string]int64{}
	for t, s := range m.TagStats() {
		out[t] = s.Total()
	}
	return out
}

// sortedKeys returns a map's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
