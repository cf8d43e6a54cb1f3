package core

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"repro/internal/compare"
	"repro/internal/transport"
)

// The W = 1 wire pin. Every protocol family runs one two-run session on
// the bare connection under each pruning mode and each round structure,
// and the frames it sends are counted per Meter tag (both parties,
// merged). At W = 1 the wave scheduler (WaveDrive) and the lockstep
// driver (LockstepCluster) run one query per wave, so their frames must
// be exactly those of a plain one-query-at-a-time Algorithm 4/6 loop;
// wireW1Frames holds those counts. The second run is answered from the
// cross-run caches, so it also pins that cached decisions stay off the
// wire.

// wireW1Frames maps pruning/batching/family to frames sent per tag.
var wireW1Frames = map[string]map[string]int64{
	"grid/batched/horizontal/grid":     {"handshake": 2, "hdp.cmp": 45, "hdp.idx": 2, "hdp.mp": 30, "hdp.op": 34, "session.op": 3},
	"grid/batched/horizontal/blobs":    {"handshake": 2, "hdp.cmp": 60, "hdp.idx": 2, "hdp.mp": 40, "hdp.op": 44, "session.op": 3},
	"grid/batched/enhanced/grid":       {"enh.final": 12, "enh.op": 8, "enh.select": 48, "enh.share": 8, "handshake": 2, "hdp.idx": 2, "session.op": 3},
	"grid/batched/vertical/blobs":      {"handshake": 2, "session.op": 3, "vdp.cmp": 54, "vdp.idx": 2},
	"grid/batched/arbitrary/blobs":     {"adp.cmp": 54, "adp.idx": 2, "adp.mp": 36, "adp.owners": 2, "handshake": 2, "session.op": 3},
	"grid/sequential/horizontal/grid":  {"handshake": 2, "hdp.cmp": 309, "hdp.idx": 2, "hdp.mp": 30, "hdp.op": 34, "session.op": 3},
	"grid/sequential/horizontal/blobs": {"handshake": 2, "hdp.cmp": 480, "hdp.idx": 2, "hdp.mp": 40, "hdp.op": 44, "session.op": 3},
	"grid/sequential/enhanced/grid":    {"enh.final": 12, "enh.op": 8, "enh.select": 96, "enh.share": 8, "handshake": 2, "hdp.idx": 2, "session.op": 3},
	"grid/sequential/vertical/blobs":   {"handshake": 2, "session.op": 3, "vdp.cmp": 270, "vdp.idx": 2},
	"grid/sequential/arbitrary/blobs":  {"adp.cmp": 270, "adp.idx": 2, "adp.mp": 128, "adp.owners": 2, "handshake": 2, "session.op": 3},
	"off/batched/horizontal/grid":      {"handshake": 2, "hdp.cmp": 45, "hdp.mp": 30, "hdp.op": 34, "session.op": 3},
	"off/batched/horizontal/blobs":     {"handshake": 2, "hdp.cmp": 60, "hdp.mp": 40, "hdp.op": 44, "session.op": 3},
	"off/batched/enhanced/grid":        {"enh.final": 12, "enh.op": 8, "enh.select": 54, "enh.share": 8, "handshake": 2, "session.op": 3},
	"off/batched/vertical/blobs":       {"handshake": 2, "session.op": 3, "vdp.cmp": 57},
	"off/batched/arbitrary/blobs":      {"adp.cmp": 57, "adp.mp": 38, "adp.owners": 2, "handshake": 2, "session.op": 3},
	"off/sequential/horizontal/grid":   {"handshake": 2, "hdp.cmp": 336, "hdp.mp": 30, "hdp.op": 34, "session.op": 3},
	"off/sequential/horizontal/blobs":  {"handshake": 2, "hdp.cmp": 576, "hdp.mp": 40, "hdp.op": 44, "session.op": 3},
	"off/sequential/enhanced/grid":     {"enh.final": 12, "enh.op": 8, "enh.select": 114, "enh.share": 8, "handshake": 2, "session.op": 3},
	"off/sequential/vertical/blobs":    {"handshake": 2, "session.op": 3, "vdp.cmp": 570},
	"off/sequential/arbitrary/blobs":   {"adp.cmp": 570, "adp.mp": 280, "adp.owners": 2, "handshake": 2, "session.op": 3},
}

// wireTagFrames reduces merged Meter stats to frames sent per tag.
func wireTagFrames(stats map[string]transport.Stats) map[string]int64 {
	out := make(map[string]int64)
	for tag, st := range stats {
		if st.MessagesSent > 0 {
			out[tag] = st.MessagesSent
		}
	}
	return out
}

// formatFrames renders a frame table row as a Go map literal, tags
// sorted, so a drifted row can be read (and diffed) at a glance.
func formatFrames(m map[string]int64) string {
	tags := make([]string, 0, len(m))
	for tag := range m {
		tags = append(tags, tag)
	}
	sort.Strings(tags)
	parts := make([]string, len(tags))
	for i, tag := range tags {
		parts[i] = fmt.Sprintf("%q: %d", tag, m[tag])
	}
	return "{" + strings.Join(parts, ", ") + "}"
}

func TestWireIdentityW1(t *testing.T) {
	for _, pruning := range []PruneMode{PruneGrid, PruneOff} {
		for _, batching := range []BatchMode{BatchModeBatched, BatchModeSequential} {
			for _, fam := range equivalenceSessions(t) {
				name := string(pruning) + "/" + string(batching) + "/" + fam.name
				t.Run(name, func(t *testing.T) {
					cfg := testCfg(compare.EngineMasked)
					cfg.Pruning = pruning
					cfg.Batching = batching
					_, _, _, _, tags := runSessionMetered(t, fam, cfg, 2)
					got := wireTagFrames(tags)
					want, ok := wireW1Frames[name]
					if !ok || formatFrames(got) != formatFrames(want) {
						t.Errorf("W=1 frames per tag drifted:\n got  %q: %s,\n want %s", name, formatFrames(got), formatFrames(want))
					}
				})
			}
		}
	}
}
