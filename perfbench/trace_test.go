package main

import (
	"bytes"
	"errors"
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/transport"
)

const sampleTraces = `File: perfbench
Type: cpu
Duration: 1s, Total samples = 60ms (6.00%)
-----------+-------------------------------------------------------
      20ms   math/big.addMulVVW
             math/big.nat.expNN
             math/big.(*Int).Exp (inline)
             repro/internal/paillier.(*PublicKey).Mul
             repro/internal/mpc.SenderGridMultiply
             repro/internal/core.(*session).run
-----------+-------------------------------------------------------
      10ms   runtime.mallocgc
             repro/internal/transport.(*Meter).Send
             repro/internal/core.setTag
-----------+-------------------------------------------------------
      10ms   runtime.gcBgMarkWorker
-----------+-------------------------------------------------------
      10ms   repro/internal/baseline/kumar.Run
-----------+-------------------------------------------------------
      10ms   main.(*runner).closed
             main.main
-----------+-------------------------------------------------------
`

func TestAttributionInnermostInternalFrame(t *testing.T) {
	layers, total, err := parseTraces(sampleTraces)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{"paillier": 0.02, "transport": 0.01, "runtime": 0.02, "baseline": 0.01}
	var sum float64
	for l, v := range layers {
		sum += v
		if math.Abs(v-want[l]) > 1e-9 {
			t.Errorf("layer %s: %v s, want %v", l, v, want[l])
		}
	}
	if len(layers) != len(want) {
		t.Errorf("layers %v, want %v", layers, want)
	}
	if math.Abs(sum-total) > 1e-9 || math.Abs(total-0.06) > 1e-9 {
		t.Errorf("layer sum %v, profile total %v, want 0.06", sum, total)
	}

	bad := strings.Replace(sampleTraces, "Total samples = 60ms", "Total samples = 90ms", 1)
	if _, _, err := parseTraces(bad); err == nil {
		t.Error("a layer sum short of the profile total was accepted")
	}
}

func TestParseSampleTime(t *testing.T) {
	for s, want := range map[string]float64{"10ms": 0.01, "1.50s": 1.5, "800us": 0.0008, "1.05mins": 63} {
		got, err := parseSampleTime(s)
		if err != nil || math.Abs(got-want) > 1e-9 {
			t.Errorf("parseSampleTime(%q) = %v, %v; want %v", s, got, err, want)
		}
	}
}

type wrappedRun struct {
	ra, rb       *core.Result
	tagsA, tagsB map[string]transport.Stats
	waits        map[string]time.Duration
}

// runWrapped runs one horizontal session with each party's Meter built
// by meterConn, traced or not.
func runWrapped(t *testing.T, aliceTraced, bobTraced bool) wrappedRun {
	t.Helper()
	cfg, alice, bob := wrapperCase()
	a, b := transport.Pipe()
	ma, waits := meterConn(a, aliceTraced)
	mb, _ := meterConn(b, bobTraced)
	var out wrappedRun
	err := pair([]transport.Conn{a, b},
		func() error {
			s, err := core.NewHorizontalSession(ma, cfg, core.RoleAlice, alice)
			if err != nil {
				return err
			}
			if out.ra, err = s.Run(); err != nil {
				return err
			}
			return s.Close()
		},
		func() error {
			s, err := core.NewHorizontalSession(mb, cfg, core.RoleBob, bob)
			if err != nil {
				return err
			}
			return serveRuns(s, func(r *core.Result) { out.rb = r })
		})
	if err != nil {
		t.Fatal(err)
	}
	out.tagsA, out.tagsB = ma.TagStats(), mb.TagStats()
	if waits != nil {
		out.waits = waits.snapshot()
	}
	return out
}

func wrapperCase() (core.Config, [][]float64, [][]float64) {
	p := params{Blobs: 3, Std: 0.4, Grid: 64, RawEps: 0.6, MinPts: 4, PaillierBits: 256, RSABits: 256, Parallel: 1}
	points, eps := blobs(p, 20, 7)
	return coreConfig(p, eps), points[:10], points[10:]
}

// The tracing wrappers must change no wire byte. Protocol randomness
// makes ciphertext lengths differ from run to run, so the per-tag bytes
// are compared inside one session whose initiator is traced and whose
// responder is not: the traced Meter must count exactly the bytes and
// messages per tag that the plain Meter counts in the other direction.
// Labels, Ledgers and per-tag message counts must equal those of a run
// with no wrappers at all, and core must still tag phases through the
// traced Meter.
func TestTracingWrappersAreTransparent(t *testing.T) {
	plain := runWrapped(t, false, false)
	mixed := runWrapped(t, true, false)

	cfg, alice, bob := wrapperCase()
	enc, err := newEncoder(cfg)
	if err != nil {
		t.Fatal(err)
	}
	wantA, wantB, err := enc.horizontalOracle(alice, bob, cfg.MinPts)
	if err != nil {
		t.Fatal(err)
	}
	for _, run := range []wrappedRun{plain, mixed} {
		if err := errors.Join(checkLabels("alice", run.ra.Labels, wantA), checkLabels("bob", run.rb.Labels, wantB)); err != nil {
			t.Error(err)
		}
	}
	if plain.ra.Leakage != mixed.ra.Leakage || plain.rb.Leakage != mixed.rb.Leakage {
		t.Errorf("Ledgers differ with the wrappers: %v %v vs %v %v", plain.ra.Leakage, plain.rb.Leakage, mixed.ra.Leakage, mixed.rb.Leakage)
	}

	if len(mixed.tagsA) != len(mixed.tagsB) {
		t.Errorf("tag sets differ: traced %v, plain %v", mixed.tagsA, mixed.tagsB)
	}
	for tag, a := range mixed.tagsA {
		b := mixed.tagsB[tag]
		if a.BytesSent != b.BytesRecv || a.BytesRecv != b.BytesSent || a.MessagesSent != b.MessagesRecv || a.MessagesRecv != b.MessagesSent {
			t.Errorf("tag %s: traced Meter %+v, plain Meter %+v", tag, a, b)
		}
		if p := plain.tagsA[tag]; p.MessagesSent != a.MessagesSent || p.MessagesRecv != a.MessagesRecv {
			t.Errorf("tag %s: %+v messages without wrappers, %+v with", tag, p, a)
		}
	}
	for _, tag := range []string{"handshake", "hdp.mp", "hdp.cmp", "session.op"} {
		if mixed.tagsA[tag].Total() == 0 {
			t.Errorf("phase tag %s missing under the wrappers: %v", tag, mixed.tagsA)
		}
	}
	if plain.waits != nil {
		t.Error("an untraced Meter carries a wait tally")
	}
	var waited time.Duration
	for tag, d := range mixed.waits {
		if tag != "untagged" {
			waited += d
		}
	}
	if waited == 0 {
		t.Errorf("no Recv wait charged to a phase tag: %v", mixed.waits)
	}
}

// timedConn hands every frame through unchanged and charges the wait to
// the tag the Meter holds when the frame arrives.
func TestTimedConnForwardsFrames(t *testing.T) {
	a, b := transport.Pipe()
	m, waits := meterConn(b, true)
	frames := [][]byte{{}, {1, 2, 3}, bytes.Repeat([]byte{0xff}, 5000)}
	m.SetTag("phase.x")
	go func() {
		for _, f := range frames {
			time.Sleep(2 * time.Millisecond)
			a.Send(f)
		}
	}()
	for i, f := range frames {
		got, err := m.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, f) {
			t.Errorf("frame %d changed: %v", i, got)
		}
	}
	w := waits.snapshot()
	if len(w) != 1 || w["phase.x"] < 4*time.Millisecond {
		t.Errorf("waits %v, want about 6ms on phase.x", w)
	}
}
