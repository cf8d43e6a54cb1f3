package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"text/tabwriter"
)

// readRecords loads the runs a file holds: one record per line, as
// --out appends them.
func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		out = append(out, r)
	}
	return out, sc.Err()
}

// series groups metric values by workload, trace setting and metric.
type series map[string]map[int]map[string][]float64

func group(recs []record) (series, map[string]string) {
	s := series{}
	units := map[string]string{}
	for _, r := range recs {
		if s[r.Workload] == nil {
			s[r.Workload] = map[int]map[string][]float64{}
		}
		if s[r.Workload][r.Trace] == nil {
			s[r.Workload][r.Trace] = map[string][]float64{}
		}
		for k, m := range r.Result.Metrics {
			s[r.Workload][r.Trace][k] = append(s[r.Workload][r.Trace][k], m.Value)
			units[k] = m.Unit
		}
	}
	return s, units
}

// compareFiles prints, per workload, the end-to-end medians of the
// parent's and the change's runs with their quartiles, and the
// per-layer medians side by side with their deltas.
func compareFiles(w io.Writer, oldPath, newPath string) error {
	oldRecs, err := readRecords(oldPath)
	if err != nil {
		return err
	}
	newRecs, err := readRecords(newPath)
	if err != nil {
		return err
	}
	olds, units := group(oldRecs)
	news, newUnits := group(newRecs)
	for k, u := range newUnits {
		units[k] = u
	}
	workloads := map[string]bool{}
	for k := range olds {
		workloads[k] = true
	}
	for k := range news {
		workloads[k] = true
	}
	names := make([]string, 0, len(workloads))
	for k := range workloads {
		names = append(names, k)
	}
	sort.Strings(names)
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	for _, name := range names {
		for _, trace := range []int{0, 1} {
			o, n := olds[name][trace], news[name][trace]
			if o == nil && n == nil {
				continue
			}
			kind := "end-to-end (median [q1, q3] over runs)"
			if trace == 1 {
				kind = "per-layer (median over traced runs)"
			}
			fmt.Fprintf(tw, "%s — %s\n", name, kind)
			fmt.Fprintf(tw, "  metric\tunit\told\tnew\tdelta\n")
			keys := map[string]bool{}
			for k := range o {
				keys[k] = true
			}
			for k := range n {
				keys[k] = true
			}
			for _, k := range sortedKeys(keys) {
				ov, nv := o[k], n[k]
				fmt.Fprintf(tw, "  %s\t%s\t%s\t%s\t%s\n", k, units[k], describe(ov, trace == 0), describe(nv, trace == 0), delta(ov, nv))
			}
			fmt.Fprintln(tw)
		}
	}
	return tw.Flush()
}

// describe renders a sample as its median, with quartiles when asked.
func describe(xs []float64, quarts bool) string {
	if len(xs) == 0 {
		return "-"
	}
	if !quarts {
		return fmt.Sprintf("%.4g (n=%d)", median(xs), len(xs))
	}
	q1, q2, q3 := quartiles(xs)
	return fmt.Sprintf("%.4g [%.4g, %.4g] (n=%d)", q2, q1, q3, len(xs))
}

// delta is the change of the median as a share of the old median.
func delta(old, new []float64) string {
	if len(old) == 0 || len(new) == 0 {
		return "-"
	}
	o, n := median(old), median(new)
	if o == 0 {
		if n == 0 {
			return "0"
		}
		return "new"
	}
	return fmt.Sprintf("%+.1f%%", 100*(n-o)/o)
}
