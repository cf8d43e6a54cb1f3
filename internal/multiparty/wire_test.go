package multiparty

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/compare"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/transport"
)

// The W = 1 wire pin for the k-party extensions: a three-party ring and
// a three-party mesh each run one two-run session under both pruning
// modes and both round structures, and the frames every party sends on
// every edge are counted. The ring runs core.LockstepCluster and the mesh
// core.WaveDrive, which at W = 1 decide one query per wave on the bare
// edges, so the frames must be exactly those of a plain
// one-query-at-a-time loop; wireW1Frames holds those counts. Sequential
// rounds decide each pair or candidate as a one-element batch, so their
// rows pin the paper-literal per-comparison schedule.

// wireW1Frames maps topology/pruning/batching to frames sent per
// directed edge.
var wireW1Frames = map[string]map[string]int64{
	"ring/grid/batched":    {"p0.next": 36, "p0.prev": 32, "p1.next": 36, "p1.prev": 0, "p2.next": 36, "p2.prev": 0},
	"mesh/grid/batched":    {"p0>p1": 40, "p0>p2": 40, "p1>p0": 40, "p1>p2": 40, "p2>p0": 40, "p2>p1": 40},
	"ring/off/batched":     {"p0.next": 36, "p0.prev": 34, "p1.next": 36, "p1.prev": 0, "p2.next": 36, "p2.prev": 0},
	"mesh/off/batched":     {"p0>p1": 39, "p0>p2": 39, "p1>p0": 39, "p1>p2": 39, "p2>p0": 39, "p2>p1": 39},
	"ring/grid/sequential": {"p0.next": 148, "p0.prev": 144, "p1.next": 148, "p1.prev": 0, "p2.next": 148, "p2.prev": 0},
	"mesh/grid/sequential": {"p0>p1": 112, "p0>p2": 124, "p1>p0": 112, "p1>p2": 124, "p2>p0": 118, "p2>p1": 118},
	"ring/off/sequential":  {"p0.next": 308, "p0.prev": 306, "p1.next": 308, "p1.prev": 0, "p2.next": 308, "p2.prev": 0},
	"mesh/off/sequential":  {"p0>p1": 129, "p0>p2": 129, "p1>p0": 129, "p1>p2": 129, "p2>p0": 129, "p2>p1": 129},
}

// formatFrames renders a frame table row as a Go map literal, keys
// sorted.
func formatFrames(m map[string]int64) string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = fmt.Sprintf("%q: %d", k, m[k])
	}
	return "{" + strings.Join(parts, ", ") + "}"
}

// runRingSessionN runs k concurrent RingSessions n times each and
// returns the per-run results per party. meter, when non-nil, wraps
// party p's named edge ("next" or "prev") before establishment.
func runRingSessionN(t *testing.T, cfg Config, slices [][][]float64, n int, meter func(p int, edge string, c transport.Conn) transport.Conn) [][]*Result {
	t.Helper()
	k := len(slices)
	parties := NewLocalRing(k)
	if meter != nil {
		for p := range parties {
			parties[p].Next = meter(p, "next", parties[p].Next)
			parties[p].Prev = meter(p, "prev", parties[p].Prev)
		}
	}
	out := make([][]*Result, k)
	errs := make([]error, k)
	var wg sync.WaitGroup
	for p := 0; p < k; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			defer parties[p].Next.Close()
			defer parties[p].Prev.Close()
			rs, err := NewRingSession(parties[p], cfg, slices[p])
			if err != nil {
				errs[p] = err
				return
			}
			for i := 0; i < n; i++ {
				res, err := rs.Run()
				if err != nil {
					errs[p] = err
					return
				}
				out[p] = append(out[p], res)
			}
		}(p)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// runMeshSessionN is runRingSessionN for the horizontal mesh; meter wraps
// party p's connection to party q.
func runMeshSessionN(t *testing.T, cfg Config, pointSets [][][]float64, n int, meter func(p, q int, c transport.Conn) transport.Conn) [][]*HorizontalResult {
	t.Helper()
	k := len(pointSets)
	mesh := NewLocalMesh(k)
	if meter != nil {
		for p := range mesh {
			for q := range mesh[p] {
				if q != p {
					mesh[p][q] = meter(p, q, mesh[p][q])
				}
			}
		}
	}
	out := make([][]*HorizontalResult, k)
	errs := make([]error, k)
	var wg sync.WaitGroup
	for p := 0; p < k; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			defer func() {
				for q, c := range mesh[p] {
					if q != p {
						c.Close()
					}
				}
			}()
			ms, err := NewMeshSession(HorizontalParty{Index: p, K: k, Conns: mesh[p]}, cfg, pointSets[p])
			if err != nil {
				errs[p] = err
				return
			}
			for i := 0; i < n; i++ {
				res, err := ms.Run()
				if err != nil {
					errs[p] = err
					return
				}
				out[p] = append(out[p], res)
			}
		}(p)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// edgeMeters collects one Meter per named edge end.
type edgeMeters struct {
	mu sync.Mutex
	m  map[string]*transport.Meter
}

func (e *edgeMeters) wrap(name string, c transport.Conn) transport.Conn {
	m := transport.NewMeter(c)
	e.mu.Lock()
	e.m[name] = m
	e.mu.Unlock()
	return m
}

func (e *edgeMeters) frames() map[string]int64 {
	out := make(map[string]int64)
	for name, m := range e.m {
		out[name] = m.Stats().MessagesSent
	}
	return out
}

func TestWireIdentityW1(t *testing.T) {
	ringData, _ := dataset.Quantize(dataset.BlobsDim(18, 2, 3, 0.3, 5), 16)
	meshData, _ := dataset.Quantize(dataset.Blobs(18, 2, 0.3, 9), 16)
	meshSplit, err := partitionHorizontal3(meshData.Points)
	if err != nil {
		t.Fatal(err)
	}
	check := func(t *testing.T, name string, got map[string]int64) {
		t.Helper()
		want, ok := wireW1Frames[name]
		if !ok || formatFrames(got) != formatFrames(want) {
			t.Errorf("W=1 frames per edge drifted:\n got  %q: %s,\n want %s", name, formatFrames(got), formatFrames(want))
		}
	}
	for _, pruning := range []core.PruneMode{core.PruneGrid, core.PruneOff} {
		t.Run("ring/"+string(pruning), func(t *testing.T) {
			for _, batching := range []core.BatchMode{core.BatchModeBatched, core.BatchModeSequential} {
				t.Run(string(batching), func(t *testing.T) {
					cfg := testCfg(compare.EngineMasked)
					cfg.Pruning = pruning
					cfg.Batching = batching
					em := &edgeMeters{m: make(map[string]*transport.Meter)}
					runRingSessionN(t, cfg, splitColumns(ringData.Points, 3), 2, func(p int, edge string, c transport.Conn) transport.Conn {
						return em.wrap(fmt.Sprintf("p%d.%s", p, edge), c)
					})
					check(t, "ring/"+string(pruning)+"/"+string(batching), em.frames())
				})
			}
		})
		t.Run("mesh/"+string(pruning), func(t *testing.T) {
			for _, batching := range []core.BatchMode{core.BatchModeBatched, core.BatchModeSequential} {
				t.Run(string(batching), func(t *testing.T) {
					cfg := testCfg(compare.EngineMasked)
					cfg.Pruning = pruning
					cfg.Batching = batching
					em := &edgeMeters{m: make(map[string]*transport.Meter)}
					runMeshSessionN(t, cfg, meshSplit, 2, func(p, q int, c transport.Conn) transport.Conn {
						return em.wrap(fmt.Sprintf("p%d>p%d", p, q), c)
					})
					check(t, "mesh/"+string(pruning)+"/"+string(batching), em.frames())
				})
			}
		})
	}
}
