package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/transport"
)

// span is one timed call the benchmark made into a layer. Spans of one
// op share Op; Parent is the ID of the op's root span (0 for the root).
type span struct {
	Op     int64         `json:"op"`
	ID     int           `json:"id"`
	Parent int           `json:"parent"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// tracer keeps spans in memory while a traced phase runs. A nil or
// disabled tracer records nothing, so untraced ops pay one branch per
// call site.
type tracer struct {
	on    bool
	base  time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer(on bool) *tracer { return &tracer{on: on, base: time.Now()} }

// begin opens a span and returns the function that closes it.
func (t *tracer) begin(op int64, parent int, name string) (id int, end func()) {
	if t == nil || !t.on {
		return 0, func() {}
	}
	start := time.Since(t.base)
	t.mu.Lock()
	id = len(t.spans) + 1
	t.spans = append(t.spans, span{Op: op, ID: id, Parent: parent, Name: name, Start: start, End: -1})
	t.mu.Unlock()
	return id, func() {
		end := time.Since(t.base)
		t.mu.Lock()
		t.spans[id-1].End = end
		t.mu.Unlock()
	}
}

// span runs f inside a span named name under the op's root span.
func (o opCtx) span(name string, f func() error) error {
	_, end := o.tr.begin(o.id, o.root, name)
	defer end()
	return f()
}

// closed returns a copy of every finished span.
func (t *tracer) closed() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]span, 0, len(t.spans))
	for _, s := range t.spans {
		if s.End >= 0 {
			out = append(out, s)
		}
	}
	return out
}

// selfTimes sums, per span name, each span's duration minus the part of
// its interval that its child spans cover (children may overlap, as when
// both parties' calls run concurrently under one op).
func selfTimes(spans []span) map[string]time.Duration {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]time.Duration{}
	for _, s := range spans {
		out[s.Name] += s.dur() - covered(s, children[s.ID])
	}
	return out
}

// covered measures the union of the children's intervals clipped to s.
func covered(s span, kids []span) time.Duration {
	iv := make([][2]time.Duration, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.Start, s.Start), min(k.End, s.End)
		if b > a {
			iv = append(iv, [2]time.Duration{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curA, curB time.Duration
	open := false
	for _, x := range iv {
		switch {
		case !open:
			curA, curB, open = x[0], x[1], true
		case x[0] <= curB:
			curB = max(curB, x[1])
		default:
			total += curB - curA
			curA, curB = x[0], x[1]
		}
	}
	if open {
		total += curB - curA
	}
	return total
}

// spanDurs collects the durations of the spans called name.
func spanDurs(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, s.dur().Seconds())
		}
	}
	return out
}

// spanMaxPerOp takes, per op, the longest span called name — the
// finishing time of a step every party performs concurrently.
func spanMaxPerOp(spans []span, name string) []float64 {
	byOp := map[int64]time.Duration{}
	for _, s := range spans {
		if s.Name == name {
			byOp[s.Op] = max(byOp[s.Op], s.dur())
		}
	}
	out := make([]float64, 0, len(byOp))
	for _, d := range byOp {
		out = append(out, d.Seconds())
	}
	return out
}

// writeSpans dumps the spans and their per-name self times as JSON.
func writeSpans(path string, spans []span) error {
	self := map[string]float64{}
	for k, v := range selfTimes(spans) {
		self[k] = v.Seconds()
	}
	b, err := json.Marshal(struct {
		SelfSeconds map[string]float64 `json:"self_s"`
		Spans       []span             `json:"spans"`
	}{self, spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// timedConn sits beneath a *transport.Meter and times every Recv, the
// time its caller spends blocked waiting for the peer. It attributes the
// wait to the Meter's phase tag read once the frame has arrived — the
// tag the Meter itself charges the frame to. It forwards every byte
// unchanged, and the Meter stays the Conn the protocol sees, so core
// keeps tagging phases.
type timedConn struct {
	transport.Conn
	meter *transport.Meter
	waits *waitTally
}

func (c *timedConn) Recv() ([]byte, error) {
	start := time.Now()
	b, err := c.Conn.Recv()
	c.waits.add(c.meter.Tag(), time.Since(start))
	return b, err
}

// waitTally sums Recv wait per phase tag.
type waitTally struct {
	mu sync.Mutex
	m  map[string]time.Duration
}

func (w *waitTally) add(tag string, d time.Duration) {
	w.mu.Lock()
	if w.m == nil {
		w.m = map[string]time.Duration{}
	}
	w.m[tag] += d
	w.mu.Unlock()
}

func (w *waitTally) snapshot() map[string]time.Duration {
	w.mu.Lock()
	defer w.mu.Unlock()
	out := make(map[string]time.Duration, len(w.m))
	for k, v := range w.m {
		out[k] = v
	}
	return out
}

// meterConn wraps conn in the Meter a party is given. With traced set
// the timing wrapper goes beneath the Meter and its wait tally is
// returned; otherwise the tally is nil.
func meterConn(conn transport.Conn, traced bool) (*transport.Meter, *waitTally) {
	if !traced {
		return transport.NewMeter(conn), nil
	}
	tc := &timedConn{Conn: conn, waits: &waitTally{}}
	m := transport.NewMeter(tc)
	tc.meter = m
	return m, tc.waits
}

// internalPrefix marks the repository's own packages in profile frames.
const internalPrefix = "repro/internal/"

// layerOf names the layer a profile frame belongs to: the first path
// element under repro/internal/, or "" for any other frame.
func layerOf(fn string) string {
	rest, ok := strings.CutPrefix(fn, internalPrefix)
	if !ok {
		return ""
	}
	if i := strings.IndexAny(rest, "/."); i >= 0 {
		rest = rest[:i]
	}
	return rest
}

// attribute charges one sample to the innermost repro/internal frame of
// its stack (frames listed leaf first), so math/big under paillier
// counts as paillier. A stack with no such frame goes to runtime.
func attribute(frames []string) string {
	for _, f := range frames {
		if l := layerOf(f); l != "" {
			return l
		}
	}
	return "runtime"
}

// cpuByLayer reduces a CPU profile to seconds per layer with
// `go tool pprof -traces`, which prints every distinct stack with its
// sample time. It checks that the layer sums add up to the profile's
// own total.
func cpuByLayer(binary, profile string) (map[string]float64, float64, error) {
	cmd := exec.Command("go", "tool", "pprof", "-traces", binary, profile)
	var stderr strings.Builder
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, 0, fmt.Errorf("go tool pprof: %w: %s", err, stderr.String())
	}
	return parseTraces(string(out))
}

// parseTraces parses `go tool pprof -traces` text output.
func parseTraces(text string) (map[string]float64, float64, error) {
	layers := map[string]float64{}
	var total, sum float64
	haveTotal := false
	var frames []string
	var value float64
	inStack := false
	flush := func() {
		if inStack && len(frames) > 0 {
			layers[attribute(frames)] += value
			sum += value
		}
		frames, inStack = nil, false
	}
	sc := bufio.NewScanner(strings.NewReader(text))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		trimmed := strings.TrimSpace(line)
		switch {
		case strings.HasPrefix(trimmed, "-----------+"):
			flush()
			inStack = true
		case !inStack:
			// Header: "Duration: 20s, Total samples = 18.41s (92.05%)".
			if _, rest, ok := strings.Cut(trimmed, "Total samples = "); ok {
				f := strings.Fields(rest)
				d, err := parseSampleTime(f[0])
				if err != nil {
					return nil, 0, err
				}
				total, haveTotal = d, true
			}
		case trimmed == "":
		default:
			fields := strings.Fields(trimmed)
			if len(frames) == 0 {
				// The first line of a stack is "<time>   <leaf frame>".
				d, err := parseSampleTime(fields[0])
				if err != nil || len(fields) < 2 {
					return nil, 0, fmt.Errorf("pprof traces: stack line %q", line)
				}
				value, fields = d, fields[1:]
			}
			frames = append(frames, fields[0])
		}
	}
	flush()
	if err := sc.Err(); err != nil {
		return nil, 0, err
	}
	if !haveTotal {
		if sum == 0 {
			return layers, 0, nil // an empty profile has no header total
		}
		return nil, 0, fmt.Errorf("pprof traces: no total in header")
	}
	// The header total is rounded for printing; allow for that.
	if diff := sum - total; diff > max(0.011, 0.005*total) || -diff > max(0.011, 0.005*total) {
		return nil, 0, fmt.Errorf("pprof traces: layer sums %.3fs != profile total %.3fs", sum, total)
	}
	return layers, total, nil
}

// parseSampleTime reads a pprof time such as "800us", "10ms", "1.50s"
// or "1.05mins".
func parseSampleTime(s string) (float64, error) {
	if v, ok := strings.CutSuffix(s, "mins"); ok {
		f, err := strconv.ParseFloat(v, 64)
		return f * 60, err
	}
	if v, ok := strings.CutSuffix(s, "hrs"); ok {
		f, err := strconv.ParseFloat(v, 64)
		return f * 3600, err
	}
	d, err := time.ParseDuration(strings.ReplaceAll(s, "us", "µs"))
	if err != nil {
		return 0, err
	}
	return d.Seconds(), nil
}
