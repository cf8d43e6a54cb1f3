package main

import (
	"encoding/json"
	"os"
	"slices"
	"testing"
)

// benchmarkFile is the part of the repository's BENCHMARK.json the
// benchmark must agree with.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// BENCHMARK.json must name exactly the workloads perfbench runs and the
// metrics, with units, it prints in each mode.
func TestBenchmarkFileMatchesOutput(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(b, &bf); err != nil {
		t.Fatal(err)
	}
	s, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	var want, got []string
	for _, w := range s.Workloads {
		want = append(want, w.Name)
	}
	for _, w := range bf.Workloads {
		got = append(got, w.Name)
	}
	slices.Sort(got)
	slices.Sort(want)
	if !slices.Equal(got, want) {
		t.Errorf("BENCHMARK.json workloads %v, workloads.json %v", got, want)
	}

	e2e, _ := endToEnd(phase{elapsed: 1}, nil, 0, 1)
	layers := perLayer(layerInputs{})
	check := func(kind string, listed []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}, printed map[string]metric) {
		names := map[string]bool{}
		for _, m := range listed {
			names[m.Name] = true
			p, ok := printed[m.Name]
			if !ok {
				t.Errorf("%s metric %s is listed but not printed", kind, m.Name)
			} else if p.Unit != m.Unit {
				t.Errorf("%s metric %s: unit %q listed, %q printed", kind, m.Name, m.Unit, p.Unit)
			}
		}
		for _, k := range sortedKeys(printed) {
			if !names[k] {
				t.Errorf("%s metric %s is printed but not listed", kind, k)
			}
		}
	}
	check("end-to-end", bf.EndToEnd, e2e)
	check("per-layer", bf.PerLayer, layers)
}
