package main

import (
	"math"
	"math/rand"
	"testing"
	"time"
)

func TestTail(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // descending: tail must sort
		}
		return xs
	}
	cases := []struct {
		n          int
		value, pct float64
	}{
		{100, 90, 90},  // 91..100 lie beyond
		{20, 10, 50},   // the smallest sample with a tail above the median
		{250, 240, 96}, // 241..250 lie beyond
		{19, 10, 50},   // too few: the median
		{4, 2.5, 50},
	}
	for _, c := range cases {
		xs := seq(c.n)
		v, p := tail(xs)
		if v != c.value || math.Abs(p-c.pct) > 1e-9 {
			t.Errorf("tail(1..%d) = %v at p%v, want %v at p%v", c.n, v, p, c.value, c.pct)
		}
		if c.n >= 20 {
			beyond := 0
			for _, x := range xs {
				if x > v {
					beyond++
				}
			}
			if beyond != tailMinBeyond {
				t.Errorf("tail(1..%d): %d samples beyond, want %d", c.n, beyond, tailMinBeyond)
			}
		}
	}
	if v, _ := tail(nil); v != 0 {
		t.Errorf("tail(nil) = %v", v)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// Values from Python's statistics.quantiles(xs, n=4).
	cases := []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{3, 1}, 0.5, 2, 3.5},
		{[]float64{5, 1, 9}, 1, 5, 9},
	}
	for _, c := range cases {
		q1, q2, q3 := quartiles(c.xs)
		if q1 != c.q1 || q2 != c.q2 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
}

// A stalled op must lengthen the latency of every op queued behind it:
// latency runs from the due time, not from when the op got to start.
func TestOpenLoopChargesQueueing(t *testing.T) {
	const stall = 150 * time.Millisecond
	due := []time.Duration{0, 10 * time.Millisecond, 20 * time.Millisecond}
	calls := 0
	recs := openLoop(time.Now(), due, 1, func() opRec {
		calls++
		if calls == 1 {
			time.Sleep(stall)
		}
		return opRec{}
	})
	for k := 1; k < len(recs); k++ {
		if min := stall - due[k]; recs[k].latency < min {
			t.Errorf("op %d queued behind the stall: latency %v < %v", k, recs[k].latency, min)
		}
		if min := stall - due[k]; recs[k].late < min {
			t.Errorf("op %d: lateness %v < %v", k, recs[k].late, min)
		}
	}

	// Without a stall nothing queues.
	recs = openLoop(time.Now(), due, 1, func() opRec { return opRec{} })
	for k, r := range recs {
		if r.latency > stall/2 {
			t.Errorf("op %d without a stall: latency %v", k, r.latency)
		}
	}
}

func TestJitteredSchedule(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	due := jitteredSchedule(rng, 4, 10*time.Second)
	if len(due) != 40 {
		t.Fatalf("%d arrivals in 10s at 4/s, want 40", len(due))
	}
	slot := 250 * time.Millisecond
	for k, d := range due {
		if d < time.Duration(k)*slot || d >= time.Duration(k+1)*slot {
			t.Errorf("arrival %d at %v outside its slot", k, d)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{Op: 1, ID: 1, Name: "op", Start: 0, End: 10 * ms},
		{Op: 1, ID: 2, Parent: 1, Name: "a", Start: 1 * ms, End: 4 * ms},
		{Op: 1, ID: 3, Parent: 1, Name: "b", Start: 3 * ms, End: 6 * ms},
		{Op: 1, ID: 4, Parent: 1, Name: "a", Start: 8 * ms, End: 12 * ms},
	}
	self := selfTimes(spans)
	// Children cover [1,6] and [8,10] of the root's [0,10].
	if self["op"] != 3*ms {
		t.Errorf("root self time %v, want 3ms", self["op"])
	}
	if self["a"] != 7*ms || self["b"] != 3*ms {
		t.Errorf("leaf self times %v", self)
	}
}
