// Command perfbench is the repository's benchmark. It drives the
// system only through the public APIs of core, dispatch, multiparty and
// transport, checks every op's output against a plaintext oracle, and
// prints one JSON result line.
//
//	perfbench --workload NAME --seed N --seconds S --trace 0|1 [--out FILE]
//	perfbench --workload all --seed N --seconds S
//	perfbench compare OLD.jsonl NEW.jsonl
//
// With --trace 0 it reports the end-to-end metrics of an untraced run;
// with --trace 1 the per-layer metrics of a traced run (spans, the
// Recv-timing wrapper beneath each Meter, and a CPU profile reduced with
// `go tool pprof`). workloads.json documents every workload, its
// parameters and the layer-to-metric mapping; perfbench/run.sh builds
// the binary from the checkout and runs it.
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime/pprof"
	"time"
)

//go:embed workloads.json
var specJSON []byte

// params are a workload's parameters, as workloads.json gives them.
type params struct {
	Loop         string  `json:"loop"` // "closed" or "open"
	N            int     `json:"n"`
	Blobs        int     `json:"blobs"`
	Std          float64 `json:"std"`
	Grid         int     `json:"grid"`
	RawEps       float64 `json:"raw_eps"`
	MinPts       int     `json:"min_pts"`
	PaillierBits int     `json:"paillier_bits"`
	RSABits      int     `json:"rsa_bits"`
	Parallel     int     `json:"parallel"`
	Datasets     int     `json:"datasets"`
	SetupSamples int     `json:"setup_samples"`
	SLOSeconds   float64 `json:"slo_s"`

	// Open loop (wan-serve-vdp).
	RatePerS     float64 `json:"rate_per_s"`
	Inflight     int     `json:"inflight"`
	LatencyMS    float64 `json:"latency_ms"`
	Shards       int     `json:"shards"`
	ShedPerShard int     `json:"shed_per_shard"`
	ShedWaitMS   float64 `json:"shed_wait_ms"`

	// Streaming (stream-hdp).
	Window  int `json:"window"`
	Batch   int `json:"batch"`
	Slides  int `json:"slides"`
	Retract int `json:"retract"`

	// Mesh (mesh-3party).
	Parties int `json:"parties"`
}

type workloadSpec struct {
	Name   string `json:"name"`
	Params params `json:"params"`
}

type spec struct {
	Workloads []workloadSpec `json:"workloads"`
}

func loadSpec() (spec, error) {
	var s spec
	if err := json.Unmarshal(specJSON, &s); err != nil {
		return s, fmt.Errorf("workloads.json: %w", err)
	}
	return s, nil
}

func (s spec) params(name string) (params, bool) {
	for _, w := range s.Workloads {
		if w.Name == name {
			return w.Params, true
		}
	}
	return params{}, false
}

// result is the JSON line the benchmark prints last.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// record is one run as --out appends it, for compare mode.
type record struct {
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Trace    int     `json:"trace"`
	Seconds  float64 `json:"seconds"`
	Info     string  `json:"info"`
	Result   result  `json:"result"`
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		if len(os.Args) != 4 {
			fmt.Fprintln(os.Stderr, "usage: perfbench compare OLD.jsonl NEW.jsonl")
			os.Exit(2)
		}
		if err := compareFiles(os.Stdout, os.Args[2], os.Args[3]); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	workload := flag.String("workload", "", "workload name, or all")
	seed := flag.Int64("seed", 1, "seed for data generation and the arrival schedule")
	secs := flag.Float64("seconds", 10, "seconds one run measures")
	trace := flag.Int("trace", 0, "1 reports per-layer metrics from a traced run")
	out := flag.String("out", "", "append the run's record to this JSONL file")
	flag.Parse()
	workdir := os.Getenv("PERFBENCH_WORKDIR")
	if workdir == "" {
		workdir = ".bench_build"
	}
	if err := os.MkdirAll(workdir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	s, err := loadSpec()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	names := []string{*workload}
	if *workload == "all" {
		names = nil
		for _, w := range s.Workloads {
			names = append(names, w.Name)
		}
	}
	all := result{Correct: true, Metrics: map[string]metric{}}
	for _, name := range names {
		res, info, err := run(s, name, *seed, *secs, *trace == 1, workdir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", name, err)
			os.Exit(1)
		}
		printSummary(os.Stdout, name, res, info)
		if *out != "" {
			if err := appendRecord(*out, record{name, *seed, *trace, *secs, info, res}); err != nil {
				fmt.Fprintln(os.Stderr, "perfbench:", err)
				os.Exit(1)
			}
		}
		all.Correct = all.Correct && res.Correct
		all.Attempted += res.Attempted
		all.Failed += res.Failed
		for k, v := range res.Metrics {
			if len(names) > 1 {
				k = name + "/" + k
			}
			all.Metrics[k] = v
		}
	}
	line, err := json.Marshal(all)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !all.Correct {
		os.Exit(1)
	}
}

// printSummary prints every metric by name with its unit.
func printSummary(w io.Writer, name string, res result, info string) {
	fmt.Fprintf(w, "# %s: %d ops attempted, %d failed; %s\n", name, res.Attempted, res.Failed, info)
	for _, k := range sortedKeys(res.Metrics) {
		m := res.Metrics[k]
		fmt.Fprintf(w, "#   %-40s %14.6g %s\n", k, m.Value, m.Unit)
	}
}

func appendRecord(path string, rec record) error {
	b, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// build generates a workload's inputs and oracles from the seed.
func build(name string, p params, seed int64, rng *rand.Rand) (workload, error) {
	switch name {
	case "fresh-hdp-1024":
		return newFreshHDP(p, rng)
	case "wan-serve-vdp":
		return newWanServe(p, seed, rng)
	case "stream-hdp":
		return newStreamHDP(p, rng)
	case "mesh-3party":
		return newMesh3(p, rng)
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// run performs one benchmark run of a workload: it builds the inputs,
// measures, and stops the workload whatever happened.
func run(s spec, name string, seed int64, secs float64, traced bool, workdir string) (result, string, error) {
	p, ok := s.params(name)
	if !ok {
		return result{}, "", fmt.Errorf("unknown workload %q", name)
	}
	rng := rand.New(rand.NewSource(seed))
	w, err := build(name, p, seed, rng)
	if err != nil {
		return result{}, "", err
	}
	r := &runner{w: w, p: p, rng: rng, tr: newTracer(false)}
	res, info, err := r.measure(name, seed, time.Duration(secs*float64(time.Second)), traced, workdir)
	closeErr := w.close()
	if err != nil {
		return result{}, "", err
	}
	if closeErr != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", name, closeErr)
	}
	res.Correct = res.Failed == 0 && closeErr == nil
	return res, info, nil
}

// measure warms up, then takes either the end-to-end metrics of an
// untraced run or the per-layer metrics of a traced one.
func (r *runner) measure(name string, seed int64, runFor time.Duration, traced bool, workdir string) (result, string, error) {
	// One op before timing lets lazy set-up finish; it is checked like
	// every other op.
	phases := []phase{{recs: []opRec{r.closedOp(false)}}}
	var metrics map[string]metric
	var info string
	if !traced {
		var setups []time.Duration
		for i := 0; i < r.p.SetupSamples; i++ {
			d, err := r.w.establish()
			if err != nil {
				return result{}, "", fmt.Errorf("establish: %w", err)
			}
			setups = append(setups, d)
		}
		ph := r.loop(runFor, false)
		phases = append(phases, ph)
		if s, ok := r.w.(settler); ok {
			s.settle()
		}
		metrics, info = endToEnd(ph, setups, heapLiveMB(), r.p.SLOSeconds)
	} else {
		plain := r.loop(runFor/3, false)
		r.tr = newTracer(true)
		profile := filepath.Join(workdir, fmt.Sprintf("cpu-%s-%d.pprof", name, seed))
		ph, err := profiled(profile, func() phase { return r.loop(runFor-runFor/3, true) })
		if err != nil {
			return result{}, "", err
		}
		phases = append(phases, plain, ph)
		exe, err := os.Executable()
		if err != nil {
			return result{}, "", err
		}
		cpu, total, err := cpuByLayer(exe, profile)
		if err != nil {
			return result{}, "", err
		}
		spans := r.tr.closed()
		if err := writeSpans(filepath.Join(workdir, fmt.Sprintf("spans-%s-%d.json", name, seed)), spans); err != nil {
			return result{}, "", err
		}
		good := plain.ok()
		metrics = perLayer(layerInputs{
			ph: ph, spans: spans, cpu: cpu, cpuTotal: total,
			untracedP: median(latencies(good)), perTag: r.p.Parallel <= 1,
		})
		info = fmt.Sprintf("traced %d ops after %d untraced; profile %.2fs CPU", len(ph.recs), len(plain.recs), total)
	}

	res := result{Metrics: metrics}
	for _, ph := range phases {
		for _, rec := range ph.recs {
			res.Attempted++
			if rec.err != nil {
				res.Failed++
				if res.Failed <= 5 {
					fmt.Fprintf(os.Stderr, "perfbench: %s: op failed: %v\n", name, rec.err)
				}
			}
		}
	}
	return res, info, nil
}

// profiled runs f under the CPU profiler, writing the profile to path.
func profiled(path string, f func() phase) (phase, error) {
	out, err := os.Create(path)
	if err != nil {
		return phase{}, err
	}
	if err := pprof.StartCPUProfile(out); err != nil {
		out.Close()
		return phase{}, err
	}
	ph := f()
	pprof.StopCPUProfile()
	return ph, out.Close()
}
