// Package multiparty implements the paper's stated extension ("the
// two-party algorithm can be extended to multi-party cases", §1) for
// vertically partitioned data: k ≥ 2 parties arranged in a ring each hold
// a column slice of every record and jointly compute the DBSCAN clustering
// of the virtual database, with every party learning the labels — the
// k-party generalization of §4.3.
//
// # Protocol
//
// Per pairwise distance decision, each party computes its local partial
// sum s_p of squared attribute differences. The coordinator (party 0)
// starts a homomorphic accumulation around the ring under its Paillier
// key:
//
//	c_0 = E(s_0)                       coordinator → party 1
//	c_p = c_{p−1} · E(s_p)             party p → party p+1
//	c_last = c_{k−2} · E(s_{k−1} + v)  last party → coordinator, v fresh
//
// The coordinator decrypts t = Σ s_p + v; the mask v (known only to the
// last party) hides the true distance. A two-party secure comparison
// between coordinator (left: t) and last party (right: Eps² + v) — over
// the existing ring edge, using either engine from internal/compare —
// yields the within-Eps bit, which the coordinator then circulates around
// the ring. All parties run core.LockstepCluster with this oracle — one
// circulation per pair under sequential rounds (pairLE), one per
// neighborhood batch under batched rounds (pairLEBatchOn).
//
// With k = 2 the ring degenerates to the two-party vertical protocol
// (party 1 is both accumulator and masker), which the tests use for
// cross-validation.
//
// # Disclosure
//
// Beyond the output labels, each party sees only re-randomized
// ciphertexts under the coordinator's key; the coordinator sees masked
// sums t = dist² + v; the last party knows the masks. Each pairwise bit
// is public to all parties (as in Theorem 10). Intermediate parties must
// not collude with the coordinator (standard for ring aggregation;
// documented in DESIGN.md).
package multiparty

import (
	"crypto/rand"
	"errors"
	"fmt"
	"io"
	"math/big"
	"sync/atomic"

	"repro/internal/compare"
	"repro/internal/core"
	"repro/internal/encoding"
	"repro/internal/fixedpoint"
	"repro/internal/paillier"
	"repro/internal/spatial"
	"repro/internal/transport"
	"repro/internal/yao"
)

// Config mirrors core.Config for the k-party setting. All parties must
// agree on every field; the ring handshake verifies this.
type Config struct {
	Eps      float64
	MinPts   int
	Scale    float64
	Offset   float64
	MaxCoord int64

	PaillierBits  int
	RSABits       int
	Engine        compare.EngineKind
	CmpMaskBits   int
	ShareMaskBits int // mask magnitude for the ring sums: v ∈ [0, 2^bits)

	// Batching mirrors core.Config.Batching: under the default batched
	// mode one ring circulation carries the ciphertexts of a whole
	// lockstep neighborhood and the coordinator↔last comparison is one
	// BatchLessEq, so a neighborhood costs O(k) messages instead of
	// O(k·n). Sequential mode keeps one circulation per pair.
	Batching core.BatchMode

	// Packing mirrors core.Config.Packing: under the default "slots" mode
	// a ring circulation packs S masked sums per Paillier plaintext
	// (internal/encoding), so a batch of n pairs costs ⌈n/S⌉ ciphertexts
	// per hop instead of n, and the masked comparison engine packs its
	// reply direction the same way. "full" additionally turns on the
	// masked engine's packed comparison uplink (per-batch moded wire
	// form, never more ciphertexts than "slots"). "off" keeps one
	// ciphertext per value. All parties must agree (ring token); any
	// packing requires the batched round structure.
	Packing core.PackMode

	// Pruning mirrors core.Config.Pruning: under the default grid mode
	// each party discloses the Eps-grid cell coordinates of every record
	// over its own columns (two ring circulations, tag ring.idx); all
	// parties assemble the same full cell matrix and decide non-adjacent
	// pairs out of range locally, so those pairs never circulate.
	Pruning core.PruneMode

	// PruneQuantum mirrors core.Config.PruneQuantum (used by the
	// horizontal mesh's padded occupancy directories).
	PruneQuantum int

	// Parallel mirrors core.Config.Parallel: with W > 1 every ring edge is
	// multiplexed into W worker channels (transport.Mux) and the shared
	// parallel lockstep scheduler circulates up to W independent pair
	// batches around the ring concurrently — per-worker accumulation,
	// comparison, and broadcast — overlapping their round trips. In the
	// horizontal mesh W > 1 fans each region query's per-peer HDP
	// sub-queries out concurrently across the mesh edges. All parties must
	// agree (checked by the ring token / mesh handshake); W > 1 requires
	// the batched round structure. Labels and disclosure counts are
	// identical to the W = 1 schedule.
	Parallel int

	// Pool, when non-nil, routes this party's Paillier/RSA batch
	// arithmetic over a process-shared bounded worker pool instead of a
	// per-call GOMAXPROCS fan-out — the knob a host process serving many
	// concurrent clustering sessions uses to keep the CPU subscribed
	// rather than oversubscribed. Local resource only; the ring handshake
	// does not (and must not) compare it.
	Pool *paillier.Pool

	Random io.Reader
}

func (c Config) withDefaults() Config {
	if c.Scale == 0 {
		c.Scale = 1
	}
	if c.MaxCoord == 0 {
		c.MaxCoord = core.DefaultMaxCoord
	}
	if c.PaillierBits == 0 {
		c.PaillierBits = core.DefaultPaillierBits
	}
	if c.RSABits == 0 {
		c.RSABits = core.DefaultRSABits
	}
	if c.Engine == "" {
		c.Engine = compare.EngineYMPP
	}
	if c.CmpMaskBits == 0 {
		c.CmpMaskBits = core.DefaultCmpMaskBits
	}
	if c.ShareMaskBits == 0 {
		c.ShareMaskBits = core.DefaultShareMaskBits
	}
	if c.Batching == "" {
		c.Batching = core.BatchModeBatched
	}
	if c.Packing == "" {
		if c.Batching == core.BatchModeSequential {
			c.Packing = core.PackOff
		} else {
			c.Packing = core.PackSlots
		}
	}
	if c.Pruning == "" {
		c.Pruning = core.PruneGrid
	}
	if c.PruneQuantum == 0 {
		c.PruneQuantum = core.DefaultPruneQuantum
	}
	if c.Parallel == 0 {
		c.Parallel = 1
	}
	return c
}

func (c Config) validate() error {
	if !(c.Eps > 0) {
		return fmt.Errorf("multiparty: Eps must be positive, got %v", c.Eps)
	}
	if c.MinPts < 1 {
		return fmt.Errorf("multiparty: MinPts must be ≥ 1, got %d", c.MinPts)
	}
	if c.MaxCoord < 1 {
		return fmt.Errorf("multiparty: MaxCoord must be ≥ 1, got %d", c.MaxCoord)
	}
	if c.ShareMaskBits < 1 || c.ShareMaskBits > 50 {
		return fmt.Errorf("multiparty: ShareMaskBits %d outside [1,50]", c.ShareMaskBits)
	}
	if _, err := compare.ParseEngine(string(c.Engine)); err != nil {
		return err
	}
	if _, err := core.ParseBatchMode(string(c.Batching)); err != nil {
		return err
	}
	if _, err := core.ParsePruneMode(string(c.Pruning)); err != nil {
		return err
	}
	if _, err := core.ParsePackMode(string(c.Packing)); err != nil {
		return err
	}
	if c.Packing != core.PackOff && c.Batching != core.BatchModeBatched {
		return fmt.Errorf("multiparty: Packing %q requires Batching %q", c.Packing, core.BatchModeBatched)
	}
	if c.PruneQuantum < 1 {
		return fmt.Errorf("multiparty: PruneQuantum must be ≥ 1, got %d", c.PruneQuantum)
	}
	if c.Parallel < 1 || c.Parallel > transport.MaxMuxChannels {
		return fmt.Errorf("multiparty: Parallel %d outside [1,%d]", c.Parallel, transport.MaxMuxChannels)
	}
	if c.Parallel > 1 && c.Batching != core.BatchModeBatched {
		return fmt.Errorf("multiparty: Parallel %d requires Batching %q", c.Parallel, core.BatchModeBatched)
	}
	return nil
}

// Party describes one participant's position in the ring.
type Party struct {
	Index int // 0 is the coordinator
	K     int // total parties, ≥ 2
	// Prev receives from party (Index−1+K) mod K; Next sends to
	// (Index+1) mod K.
	Prev, Next transport.Conn
}

func (p Party) validate() error {
	if p.K < 2 {
		return fmt.Errorf("multiparty: need ≥ 2 parties, got %d", p.K)
	}
	if p.Index < 0 || p.Index >= p.K {
		return fmt.Errorf("multiparty: index %d outside [0,%d)", p.Index, p.K)
	}
	if p.Prev == nil || p.Next == nil {
		return fmt.Errorf("multiparty: party %d missing ring connections", p.Index)
	}
	return nil
}

// Result is each party's output.
type Result struct {
	Labels        []int
	NumClusters   int
	PairDecisions int // pairwise within-Eps bits revealed to all parties
	// CachedPairs counts the pair decisions a RingSession run answered
	// from its cross-run cache instead of circulating — zero for one-shot
	// runs and for a session's first run. Cached pairs still count in
	// PairDecisions (the decision-level budget), mirroring
	// core.Result.CachedComparisons.
	CachedPairs int
	// IndexCellCoords counts the per-record cell coordinates this party
	// received in the grid-pruning index circulations so far (0 with
	// pruning off) — the ring analogue of core.Ledger.IndexCellCoords.
	IndexCellCoords int
	// CiphertextsSent counts the Paillier ciphertexts this party put on
	// the wire during the run (ring circulation frames plus its side of
	// the masked comparison) — the quantity slot packing compresses.
	// YMPP RSA payloads are not counted. Always equal to
	// CiphertextsUplink + CiphertextsDownlink; retained as the
	// compatibility sum.
	CiphertextsSent int64
	// CiphertextsUplink is the request-leg share: ring accumulation
	// frames (operands travelling toward the coordinator's decryption)
	// plus the coordinator's comparison uplink — the leg "full" packing
	// exists to shrink.
	CiphertextsUplink int64
	// CiphertextsDownlink is the response-leg share: the last party's
	// masked comparison replies — the leg "slots" packing shrinks.
	CiphertextsDownlink int64
}

// ErrHandshake reports ring-wide parameter disagreement.
var ErrHandshake = errors.New("multiparty: handshake parameter mismatch")

// ringHandshakeVersion guards against protocol drift between binaries;
// version 2 added the Pruning parameters to the token; version 3 added
// the Parallel scheduler width (which also pins per-edge multiplexing);
// version 4 added the generation tombstone circulation (sliding
// windows); version 5 added the point tombstone circulation
// (point-level retraction); version 6 added the Packing
// plaintext-encoding parameter (slot-packed ring circulations);
// version 7 added the packed comparison uplink ("full" packing, a
// per-batch moded wire form) and the uplink/downlink ciphertext split.
const ringHandshakeVersion = 7

// handshakeToken travels once around the ring accumulating checks.
type handshakeToken struct {
	version  int
	epsSq    int64
	minPts   int
	maxCoord int64
	engine   string
	batching string
	packing  string
	pruning  string
	quantum  int
	parallel int
	count    int // record count, must be identical everywhere
	dimSum   int // Σ attribute counts
	k        int
	paiPub   []byte
	rsaN     []byte
	rsaE     []byte
}

func encodeToken(t handshakeToken) *transport.Builder {
	return transport.NewBuilder().
		PutUint(uint64(t.version)).
		PutInt(t.epsSq).
		PutUint(uint64(t.minPts)).
		PutInt(t.maxCoord).
		PutString(t.engine).
		PutString(t.batching).
		PutString(t.packing).
		PutString(t.pruning).
		PutUint(uint64(t.quantum)).
		PutUint(uint64(t.parallel)).
		PutUint(uint64(t.count)).
		PutUint(uint64(t.dimSum)).
		PutUint(uint64(t.k)).
		PutBytes(t.paiPub).
		PutBytes(t.rsaN).
		PutBytes(t.rsaE)
}

func decodeToken(r *transport.Reader) (handshakeToken, error) {
	t := handshakeToken{
		version:  int(r.Uint()),
		epsSq:    r.Int(),
		minPts:   int(r.Uint()),
		maxCoord: r.Int(),
		engine:   r.String(),
		batching: r.String(),
		packing:  r.String(),
		pruning:  r.String(),
		quantum:  int(r.Uint()),
		parallel: int(r.Uint()),
		count:    int(r.Uint()),
		dimSum:   int(r.Uint()),
		k:        int(r.Uint()),
	}
	t.paiPub = append([]byte{}, r.Bytes()...)
	t.rsaN = append([]byte{}, r.Bytes()...)
	t.rsaE = append([]byte{}, r.Bytes()...)
	return t, r.Err()
}

// Run executes the k-party vertical protocol for one party. attrs is this
// party's n × ownDim column slice. Every party must call Run concurrently
// with a consistent ring. This is the one-shot form — streaming arrival
// uses NewRingSession, whose Append absorbs new records and whose
// repeated Run calls reuse the cross-run pair cache.
func Run(party Party, cfg Config, attrs [][]float64) (*Result, error) {
	rs, err := NewRingSession(party, cfg, attrs)
	if err != nil {
		return nil, err
	}
	return rs.Run()
}

// newRingState performs the ring session establishment: validation,
// encoding, handshake, engines, and (under pruning) the initial cell
// circulation.
func newRingState(party Party, cfg Config, attrs [][]float64) (*state, [][]int64, error) {
	if err := party.validate(); err != nil {
		return nil, nil, err
	}
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, nil, err
	}
	if len(attrs) == 0 {
		return nil, nil, fmt.Errorf("multiparty: party %d holds no records", party.Index)
	}
	ownDim := len(attrs[0])
	for i, row := range attrs {
		if len(row) != ownDim {
			return nil, nil, fmt.Errorf("multiparty: record %d has %d attributes, want %d", i, len(row), ownDim)
		}
	}
	if ownDim < 1 {
		return nil, nil, fmt.Errorf("multiparty: party %d owns no attributes", party.Index)
	}

	codec, err := fixedpoint.New(cfg.Scale, cfg.Offset)
	if err != nil {
		return nil, nil, err
	}
	enc, err := codec.EncodePoints(attrs)
	if err != nil {
		return nil, nil, err
	}
	for i, row := range enc {
		for j, v := range row {
			if v > cfg.MaxCoord {
				return nil, nil, fmt.Errorf("multiparty: record %d attribute %d encodes to %d > MaxCoord %d", i, j, v, cfg.MaxCoord)
			}
		}
	}
	epsSq, err := codec.EpsSquared(cfg.Eps)
	if err != nil {
		return nil, nil, err
	}
	random := cfg.Random
	if random == nil {
		random = rand.Reader
	}

	if cfg.Parallel > 1 {
		random = transport.LockedReader(random)
	}
	st := &state{party: party, cfg: cfg, enc: enc, epsSq: epsSq, random: random, pool: cfg.Pool}
	st.prevs = edgeChannels(party.Prev, cfg.Parallel)
	st.nexts = edgeChannels(party.Next, cfg.Parallel)
	if err := st.handshake(); err != nil {
		return nil, nil, err
	}
	if err := st.buildEngines(); err != nil {
		return nil, nil, err
	}
	// Grid pruning: circulate the per-record cell matrix (each party's
	// own-column cells, tag ring.idx), then decide non-adjacent pairs out
	// of range locally on every party identically — those pairs never
	// circulate. Pruned pairs still count as pair decisions (the index
	// implies the bit), so PairDecisions is identical across modes.
	var cellRows [][]int64
	if st.pruneOn() {
		if cellRows, err = st.exchangeCells(); err != nil {
			return nil, nil, err
		}
	}
	return st, cellRows, nil
}

// pruneOn mirrors the two-party criterion: requested and geometrically
// useful.
func (st *state) pruneOn() bool {
	return st.cfg.Pruning == core.PruneGrid && st.epsSq < st.bound
}

// codec rebuilds the fixed-point codec of the session's configuration.
func (st *state) codec() (*fixedpoint.Codec, error) {
	return fixedpoint.New(st.cfg.Scale, st.cfg.Offset)
}

// state is one party's runtime for the ring protocol.
type state struct {
	party  Party
	cfg    Config
	enc    [][]int64
	epsSq  int64
	random io.Reader
	pool   *paillier.Pool

	// prevs/nexts are the per-worker ring edges: the bare connections for
	// W = 1, or the W channels of the multiplexed edges (prevs[0]/nexts[0]
	// carry the handshake and index circulation).
	prevs, nexts []transport.Conn

	m      int   // total (virtual) record dimension
	bound  int64 // m·MaxCoord²
	shareV int64

	// Coordinator-owned keys; every party holds the public halves.
	paiKey *paillier.PrivateKey // coordinator only
	rsaKey *yao.RSAKey          // coordinator only
	paiPub *paillier.PublicKey
	rsaPub *yao.RSAPublicKey

	cmpA compare.Alice // coordinator side
	cmpB compare.Bob   // last-party side

	// ringPack packs S masked sums per plaintext in the batched ring
	// circulation (nil with packing off): the coordinator packs its
	// partials with the bias, every other party folds its contribution in
	// bias-free (PackRaw), so each hop carries ⌈n/S⌉ ciphertexts and the
	// coordinator unpacks the biased sums once. All parties derive it from
	// the shared coordinator key and the handshake-agreed domain bound.
	ringPack  *encoding.Packer
	pairCount atomic.Int64 // within-Eps bits revealed (workers count concurrently)
	// ctsUp / ctsDown split this party's Paillier ciphertext account by
	// wire direction. Ring accumulation frames are operands travelling
	// toward the coordinator's decryption and the comparison that
	// follows, so every hop's contribution is request leg (uplink); the
	// comparison engines count their own traffic via their Sent hooks —
	// the coordinator's Alice uplink into ctsUp, the last party's Bob
	// replies into ctsDown — which matters under "full" packing, where
	// the uplink cost depends on the runtime batch content.
	ctsUp     atomic.Int64
	ctsDown   atomic.Int64
	idxCoords int // cell coordinates received in the index circulation
}

// packing reports whether any slot packing is on for this session.
func (st *state) packing() bool {
	return st.cfg.Packing == core.PackSlots || st.cfg.Packing == core.PackFull
}

// fullPacking reports whether the packed comparison uplink is on too.
func (st *state) fullPacking() bool { return st.cfg.Packing == core.PackFull }

// edgeChannels splits one ring edge into W worker channels (or returns
// the bare edge for W = 1).
func edgeChannels(conn transport.Conn, w int) []transport.Conn {
	if w <= 1 {
		return []transport.Conn{conn}
	}
	m := transport.NewMux(conn)
	out := make([]transport.Conn, w)
	for i := range out {
		out[i] = m.Channel(uint32(i))
	}
	return out
}

func (st *state) isCoordinator() bool { return st.party.Index == 0 }
func (st *state) isLast() bool        { return st.party.Index == st.party.K-1 }

// handshake passes a parameter token around the ring twice: first to
// verify agreement and accumulate the total dimension, then to broadcast
// the final dimension back out.
func (st *state) handshake() error {
	p := st.party
	prev, next := st.prevs[0], st.nexts[0]
	if st.isCoordinator() {
		var err error
		st.paiKey, err = paillier.GenerateKey(st.random, st.cfg.PaillierBits)
		if err != nil {
			return err
		}
		st.rsaKey, err = yao.GenerateRSAKey(st.random, st.cfg.RSABits)
		if err != nil {
			return err
		}
		st.paiPub = &st.paiKey.PublicKey
		st.rsaPub = &st.rsaKey.RSAPublicKey
		rsaN, rsaE := yao.MarshalRSAPublicKey(st.rsaPub)
		tok := handshakeToken{
			version:  ringHandshakeVersion,
			epsSq:    st.epsSq,
			minPts:   st.cfg.MinPts,
			maxCoord: st.cfg.MaxCoord,
			engine:   string(st.cfg.Engine),
			batching: string(st.cfg.Batching),
			packing:  string(st.cfg.Packing),
			pruning:  string(st.cfg.Pruning),
			quantum:  st.cfg.PruneQuantum,
			parallel: st.cfg.Parallel,
			count:    len(st.enc),
			dimSum:   len(st.enc[0]),
			k:        p.K,
			paiPub:   paillier.MarshalPublicKey(st.paiPub),
			rsaN:     rsaN,
			rsaE:     rsaE,
		}
		if err := transport.SendMsg(next, encodeToken(tok)); err != nil {
			return fmt.Errorf("multiparty: handshake send: %w", err)
		}
		r, err := transport.RecvMsg(prev)
		if err != nil {
			return fmt.Errorf("multiparty: handshake return: %w", err)
		}
		got, err := decodeToken(r)
		if err != nil {
			return err
		}
		// Second lap: broadcast the final total dimension.
		if err := transport.SendMsg(next, transport.NewBuilder().PutUint(uint64(got.dimSum))); err != nil {
			return err
		}
		if _, err := transport.RecvMsg(prev); err != nil {
			return err
		}
		return st.finishDims(got.dimSum)
	}

	// Non-coordinator: verify, accumulate own dimension, forward.
	r, err := transport.RecvMsg(prev)
	if err != nil {
		return fmt.Errorf("multiparty: handshake recv: %w", err)
	}
	tok, err := decodeToken(r)
	if err != nil {
		return err
	}
	switch {
	case tok.version != ringHandshakeVersion:
		return fmt.Errorf("%w: version %d vs %d", ErrHandshake, ringHandshakeVersion, tok.version)
	case tok.epsSq != st.epsSq:
		return fmt.Errorf("%w: Eps² %d vs %d", ErrHandshake, st.epsSq, tok.epsSq)
	case tok.minPts != st.cfg.MinPts:
		return fmt.Errorf("%w: MinPts %d vs %d", ErrHandshake, st.cfg.MinPts, tok.minPts)
	case tok.maxCoord != st.cfg.MaxCoord:
		return fmt.Errorf("%w: MaxCoord %d vs %d", ErrHandshake, st.cfg.MaxCoord, tok.maxCoord)
	case tok.engine != string(st.cfg.Engine):
		return fmt.Errorf("%w: engine %q vs %q", ErrHandshake, st.cfg.Engine, tok.engine)
	case tok.batching != string(st.cfg.Batching):
		return fmt.Errorf("%w: batching %q vs %q", ErrHandshake, st.cfg.Batching, tok.batching)
	case tok.packing != string(st.cfg.Packing):
		return fmt.Errorf("%w: packing %q vs %q", ErrHandshake, st.cfg.Packing, tok.packing)
	case tok.pruning != string(st.cfg.Pruning):
		return fmt.Errorf("%w: pruning %q vs %q", ErrHandshake, st.cfg.Pruning, tok.pruning)
	case tok.quantum != st.cfg.PruneQuantum:
		return fmt.Errorf("%w: prune quantum %d vs %d", ErrHandshake, st.cfg.PruneQuantum, tok.quantum)
	case tok.parallel != st.cfg.Parallel:
		return fmt.Errorf("%w: parallel width %d vs %d", ErrHandshake, st.cfg.Parallel, tok.parallel)
	case tok.count != len(st.enc):
		return fmt.Errorf("%w: record count %d vs %d", ErrHandshake, len(st.enc), tok.count)
	case tok.k != st.party.K:
		return fmt.Errorf("%w: ring size %d vs %d", ErrHandshake, st.party.K, tok.k)
	}
	st.paiPub, err = paillier.UnmarshalPublicKey(tok.paiPub)
	if err != nil {
		return err
	}
	st.rsaPub, err = yao.UnmarshalRSAPublicKey(tok.rsaN, tok.rsaE)
	if err != nil {
		return err
	}
	tok.dimSum += len(st.enc[0])
	if err := transport.SendMsg(next, encodeToken(tok)); err != nil {
		return err
	}
	// Second lap: learn the total dimension, forward it.
	r2, err := transport.RecvMsg(prev)
	if err != nil {
		return err
	}
	m := int(r2.Uint())
	if r2.Err() != nil {
		return r2.Err()
	}
	if err := transport.SendMsg(next, transport.NewBuilder().PutUint(uint64(m))); err != nil {
		return err
	}
	return st.finishDims(m)
}

func (st *state) finishDims(m int) error {
	if m < 1 {
		return fmt.Errorf("multiparty: total dimension %d < 1", m)
	}
	st.m = m
	st.bound = int64(m) * st.cfg.MaxCoord * st.cfg.MaxCoord
	if st.bound <= 0 || st.bound > int64(1)<<50 {
		return fmt.Errorf("multiparty: dist² bound %d out of range", st.bound)
	}
	if st.epsSq > st.bound {
		st.epsSq = st.bound
	}
	st.shareV = int64(1) << uint(st.cfg.ShareMaskBits)
	return nil
}

// exchangeCells circulates the grid-pruning index around the ring: lap 1
// accumulates each party's own-column cell coordinates per record (in
// party order, matching the virtual column order), lap 2 broadcasts the
// completed matrix, so every party prunes over identical cell rows.
func (st *state) exchangeCells() ([][]int64, error) {
	w := spatial.CellWidth(st.epsSq)
	own := make([][]int64, len(st.enc))
	for i, row := range st.enc {
		own[i] = spatial.Bucket(row, w)
	}
	return st.circulateCells(own)
}

// circulateCells runs the two-lap cell circulation over one batch of
// rows (the whole dataset at establishment; just the appended rows for a
// streaming delta). Row-count validation doubles as the ring-wide
// agreement check that every party appended the same records.
func (st *state) circulateCells(own [][]int64) ([][]int64, error) {
	prev, next := st.prevs[0], st.nexts[0]
	nRows := len(own)
	encode := func(rows [][]int64) *transport.Builder {
		return spatial.EncodeCells(transport.NewBuilder(), rows)
	}
	decode := func(r *transport.Reader, dim int) ([][]int64, error) {
		rows, err := spatial.DecodeCells(r, dim)
		if err != nil {
			return nil, fmt.Errorf("multiparty: ring index: %w", err)
		}
		if len(rows) != nRows {
			return nil, fmt.Errorf("multiparty: ring index has %d rows, want %d", len(rows), nRows)
		}
		for i, row := range rows {
			if len(row) != len(rows[0]) {
				return nil, fmt.Errorf("multiparty: ring index row %d has %d cells, want %d", i, len(row), len(rows[0]))
			}
		}
		return rows, nil
	}
	m := st.m
	ownDim := len(st.enc[0])

	var full [][]int64
	if nRows == 0 {
		return nil, nil
	}
	if st.isCoordinator() {
		if err := transport.SendMsg(next, encode(own)); err != nil {
			return nil, fmt.Errorf("multiparty: ring index send: %w", err)
		}
		r, err := transport.RecvMsg(prev)
		if err != nil {
			return nil, fmt.Errorf("multiparty: ring index return: %w", err)
		}
		if full, err = decode(r, m); err != nil {
			return nil, err
		}
		// Lap 2: broadcast the completed matrix.
		if err := transport.SendMsg(next, encode(full)); err != nil {
			return nil, err
		}
		if _, err := transport.RecvMsg(prev); err != nil {
			return nil, err
		}
	} else {
		r, err := transport.RecvMsg(prev)
		if err != nil {
			return nil, fmt.Errorf("multiparty: ring index recv: %w", err)
		}
		soFar, err := decode(r, -1)
		if err != nil {
			return nil, err
		}
		appended := make([][]int64, nRows)
		for i := 0; i < nRows; i++ {
			appended[i] = append(append([]int64{}, soFar[i]...), own[i]...)
		}
		if err := transport.SendMsg(next, encode(appended)); err != nil {
			return nil, err
		}
		// Lap 2: learn the full matrix, forward it.
		r2, err := transport.RecvMsg(prev)
		if err != nil {
			return nil, err
		}
		if full, err = decode(r2, m); err != nil {
			return nil, err
		}
		if err := transport.SendMsg(next, encode(full)); err != nil {
			return nil, err
		}
	}
	st.idxCoords += nRows * (m - ownDim)
	return full, nil
}

// buildEngines constructs the coordinator↔last comparison pair over the
// masked-sum domain [0, bound + V).
func (st *state) buildEngines() error {
	bound := st.bound + st.shareV
	switch st.cfg.Engine {
	case compare.EngineYMPP:
		if bound+2 > yao.MaxDomain {
			return fmt.Errorf("multiparty: comparison domain %d exceeds YMPP limit; use Engine=masked", bound+2)
		}
		if st.isCoordinator() {
			st.cmpA = &compare.YMPPAlice{Key: st.rsaKey, Max: bound, Random: st.random, Pool: st.pool}
		}
		if st.isLast() {
			st.cmpB = &compare.YMPPBob{Pub: st.rsaPub, Max: bound, Random: st.random}
		}
	case compare.EngineMasked:
		limit := new(big.Int).Lsh(big.NewInt(bound+2), uint(st.cfg.CmpMaskBits))
		if limit.Cmp(st.paiPub.PlaintextBound()) >= 0 {
			return fmt.Errorf("multiparty: bound %d with %d mask bits overflows the Paillier plaintext space", bound, st.cfg.CmpMaskBits)
		}
		// Both comparison roles live on the coordinator's key, so both
		// endpoints derive the same reply packer (and, under "full"
		// packing, the same widened uplink packer).
		var cp, up *encoding.Packer
		if st.packing() {
			var err error
			if cp, err = encoding.NewComparePacker(st.paiPub.PlaintextBound(), bound, st.cfg.CmpMaskBits); err != nil {
				return fmt.Errorf("multiparty: comparison packer: %w", err)
			}
			if st.fullPacking() {
				if up, err = encoding.NewUplinkComparePacker(st.paiPub.PlaintextBound(), bound, st.cfg.CmpMaskBits); err != nil {
					return fmt.Errorf("multiparty: uplink packer: %w", err)
				}
			}
		}
		if st.isCoordinator() {
			st.cmpA = &compare.MaskedAlice{Key: st.paiKey, Max: bound, Random: st.random, Pool: st.pool, Packer: cp, UplinkPacker: up, Sent: &st.ctsUp}
		}
		if st.isLast() {
			st.cmpB = &compare.MaskedBob{Pub: st.paiPub, Max: bound, MaskBits: st.cfg.CmpMaskBits, Random: st.random, Pool: st.pool, Packer: cp, UplinkPacker: up, Sent: &st.ctsDown}
		}
	default:
		return fmt.Errorf("multiparty: unknown engine %q", st.cfg.Engine)
	}
	if st.packing() {
		// The ring accumulation packs under the coordinator's key; every
		// slot's final value is one masked sum in [0, bound + V).
		rp, err := encoding.NewSumPacker(st.paiPub.PlaintextBound(), bound)
		if err != nil {
			return fmt.Errorf("multiparty: ring packer: %w", err)
		}
		st.ringPack = rp
	}
	return nil
}

// partial computes this party's local sum of squared attribute
// differences for records i and j.
func (st *state) partial(i, j int) int64 {
	var s int64
	for k := range st.enc[i] {
		d := st.enc[i][k] - st.enc[j][k]
		s += d * d
	}
	return s
}

// pairLE is the joint within-Eps oracle: ring accumulation, masked
// decryption, coordinator↔last comparison, ring broadcast.
func (st *state) pairLE(i, j int) (bool, error) {
	st.pairCount.Add(1)
	prev, next := st.prevs[0], st.nexts[0]
	s := st.partial(i, j)

	if st.isCoordinator() {
		ct, err := st.paiPub.Encrypt(st.random, big.NewInt(s))
		if err != nil {
			return false, err
		}
		st.ctsUp.Add(1)
		if err := transport.SendMsg(next, transport.NewBuilder().PutBig(ct)); err != nil {
			return false, fmt.Errorf("multiparty: ring send: %w", err)
		}
		r, err := transport.RecvMsg(prev)
		if err != nil {
			return false, fmt.Errorf("multiparty: ring return: %w", err)
		}
		acc := r.Big()
		if r.Err() != nil {
			return false, r.Err()
		}
		t, err := st.paiKey.DecryptSigned(acc)
		if err != nil {
			return false, err
		}
		if t.Sign() < 0 || t.Int64() >= st.bound+st.shareV {
			return false, fmt.Errorf("multiparty: masked sum %v outside [0,%d)", t, st.bound+st.shareV)
		}
		// t = dist² + v ≤ Eps² + v ⟺ dist² ≤ Eps².
		in, err := st.cmpA.LessEq(prev, t.Int64())
		if err != nil {
			return false, err
		}
		// Broadcast the decision around the ring.
		if err := transport.SendMsg(next, transport.NewBuilder().PutBool(in)); err != nil {
			return false, err
		}
		return in, nil
	}

	// Non-coordinator: accumulate and forward.
	r, err := transport.RecvMsg(prev)
	if err != nil {
		return false, fmt.Errorf("multiparty: ring recv: %w", err)
	}
	acc := r.Big()
	if r.Err() != nil {
		return false, r.Err()
	}
	add := s
	var v int64
	if st.isLast() {
		mask, err := rand.Int(st.random, big.NewInt(st.shareV))
		if err != nil {
			return false, err
		}
		v = mask.Int64()
		add += v
	}
	term, err := st.paiPub.Encrypt(st.random, big.NewInt(add))
	if err != nil {
		return false, err
	}
	acc, err = st.paiPub.Add(acc, term)
	if err != nil {
		return false, err
	}
	st.ctsUp.Add(1)
	if err := transport.SendMsg(next, transport.NewBuilder().PutBig(acc)); err != nil {
		return false, fmt.Errorf("multiparty: ring forward: %w", err)
	}
	if st.isLast() {
		// Participate in the comparison with right side Eps² + v.
		if _, err := st.cmpB.LessEq(next, st.epsSq+v); err != nil {
			return false, err
		}
	}
	// Receive the broadcast decision; forward unless the next hop is the
	// coordinator (who originated it).
	br, err := transport.RecvMsg(prev)
	if err != nil {
		return false, fmt.Errorf("multiparty: broadcast recv: %w", err)
	}
	in := br.Bool()
	if br.Err() != nil {
		return false, br.Err()
	}
	if !st.isLast() {
		if err := transport.SendMsg(next, transport.NewBuilder().PutBool(in)); err != nil {
			return false, err
		}
	}
	return in, nil
}

// pairLEBatchOn is the batched ring oracle on worker channel ch: one
// circulation accumulates the ciphertexts of every pair in the batch
// (encrypted, added, and decrypted on the parallel Paillier pool), one
// BatchLessEq settles all thresholds between coordinator and last party,
// and one circulation broadcasts the result bits. Message cost per
// neighborhood: ~2k ring frames + 3 comparison frames, versus the
// sequential path's per-pair circulations. Under the parallel scheduler
// (Config.Parallel) up to W such circulations — one per worker channel —
// ride the multiplexed ring edges concurrently.
func (st *state) pairLEBatchOn(ch int, pairs [][2]int) ([]bool, error) {
	st.pairCount.Add(int64(len(pairs)))
	prev, next := st.prevs[ch], st.nexts[ch]
	partials := make([]int64, len(pairs))
	for t, pr := range pairs {
		partials[t] = st.partial(pr[0], pr[1])
	}

	if st.isCoordinator() {
		var cts []*big.Int
		var err error
		if pk := st.ringPack; pk != nil {
			// Pack S partials per plaintext; the bias enters here, exactly
			// once, and every later hop contributes bias-free.
			packed := make([]*big.Int, pk.Groups(len(partials)))
			for g := range packed {
				lo := g * pk.Slots()
				if packed[g], err = pk.PackInt64(partials[lo : lo+pk.GroupLen(len(partials), g)]); err != nil {
					return nil, err
				}
			}
			cts, err = st.paiPub.EncryptBatch(st.pool, st.random, packed)
		} else {
			cts, err = st.paiPub.EncryptInt64Batch(st.pool, st.random, partials)
		}
		if err != nil {
			return nil, err
		}
		st.ctsUp.Add(int64(len(cts)))
		if err := transport.SendMsg(next, transport.NewBuilder().PutBigs(cts)); err != nil {
			return nil, fmt.Errorf("multiparty: ring batch send: %w", err)
		}
		r, err := transport.RecvMsg(prev)
		if err != nil {
			return nil, fmt.Errorf("multiparty: ring batch return: %w", err)
		}
		accs := r.Bigs()
		if r.Err() != nil {
			return nil, r.Err()
		}
		if len(accs) != len(cts) {
			return nil, fmt.Errorf("multiparty: ring returned %d ciphertexts, want %d", len(accs), len(cts))
		}
		var vals []int64
		if pk := st.ringPack; pk != nil {
			plains, err := st.paiKey.DecryptBatch(st.pool, accs)
			if err != nil {
				return nil, err
			}
			vals = make([]int64, 0, len(pairs))
			for g, pt := range plains {
				sv, err := pk.UnpackInt64(pt, pk.GroupLen(len(pairs), g))
				if err != nil {
					return nil, fmt.Errorf("multiparty: ring unpack: %w", err)
				}
				vals = append(vals, sv...)
			}
		} else {
			ts, err := st.paiKey.DecryptSignedBatch(st.pool, accs)
			if err != nil {
				return nil, err
			}
			vals = make([]int64, len(ts))
			for t, ti := range ts {
				if ti.Sign() < 0 || ti.Int64() >= st.bound+st.shareV {
					return nil, fmt.Errorf("multiparty: masked sum %v outside [0,%d)", ti, st.bound+st.shareV)
				}
				vals[t] = ti.Int64()
			}
		}
		for _, v := range vals {
			// v = dist² + mask ≤ Eps² + mask ⟺ dist² ≤ Eps².
			if v < 0 || v >= st.bound+st.shareV {
				return nil, fmt.Errorf("multiparty: masked sum %d outside [0,%d)", v, st.bound+st.shareV)
			}
		}
		ins, err := st.cmpA.BatchLessEq(prev, vals)
		if err != nil {
			return nil, err
		}
		// Broadcast the decisions around the ring.
		if err := transport.SendMsg(next, transport.NewBuilder().PutBools(ins)); err != nil {
			return nil, err
		}
		return ins, nil
	}

	// Non-coordinator: accumulate the whole batch and forward.
	r, err := transport.RecvMsg(prev)
	if err != nil {
		return nil, fmt.Errorf("multiparty: ring batch recv: %w", err)
	}
	accs := r.Bigs()
	if r.Err() != nil {
		return nil, r.Err()
	}
	wantCts := len(pairs)
	if st.ringPack != nil {
		wantCts = st.ringPack.Groups(len(pairs))
	}
	if len(accs) != wantCts {
		return nil, fmt.Errorf("multiparty: ring carried %d ciphertexts for %d pairs", len(accs), len(pairs))
	}
	adds := partials
	masks := make([]int64, len(pairs))
	if st.isLast() {
		for t := range adds {
			mask, err := rand.Int(st.random, big.NewInt(st.shareV))
			if err != nil {
				return nil, err
			}
			masks[t] = mask.Int64()
			adds[t] += masks[t]
		}
	}
	var terms []*big.Int
	if pk := st.ringPack; pk != nil {
		// Mid-ring contribution: bias-free packing (the coordinator already
		// supplied the one bias per slot).
		packed := make([]*big.Int, pk.Groups(len(adds)))
		for g := range packed {
			lo := g * pk.Slots()
			raw := make([]*big.Int, pk.GroupLen(len(adds), g))
			for s := range raw {
				raw[s] = big.NewInt(adds[lo+s])
			}
			if packed[g], err = pk.PackRaw(raw); err != nil {
				return nil, err
			}
		}
		terms, err = st.paiPub.EncryptBatch(st.pool, st.random, packed)
	} else {
		terms, err = st.paiPub.EncryptInt64Batch(st.pool, st.random, adds)
	}
	if err != nil {
		return nil, err
	}
	if err := paillier.ParallelFor(st.pool, len(accs), func(t int) error {
		acc, err := st.paiPub.Add(accs[t], terms[t])
		if err != nil {
			return err
		}
		accs[t] = acc
		return nil
	}); err != nil {
		return nil, err
	}
	st.ctsUp.Add(int64(len(accs)))
	if err := transport.SendMsg(next, transport.NewBuilder().PutBigs(accs)); err != nil {
		return nil, fmt.Errorf("multiparty: ring batch forward: %w", err)
	}
	if st.isLast() {
		// Participate in the comparison with right sides Eps² + v_t.
		rights := make([]int64, len(pairs))
		for t := range rights {
			rights[t] = st.epsSq + masks[t]
		}
		if _, err := st.cmpB.BatchLessEq(next, rights); err != nil {
			return nil, err
		}
	}
	// Receive the broadcast decisions; forward unless the next hop is the
	// coordinator (who originated them).
	br, err := transport.RecvMsg(prev)
	if err != nil {
		return nil, fmt.Errorf("multiparty: batch broadcast recv: %w", err)
	}
	ins := br.Bools()
	if br.Err() != nil {
		return nil, br.Err()
	}
	if len(ins) != len(pairs) {
		return nil, fmt.Errorf("multiparty: broadcast carried %d bits for %d pairs", len(ins), len(pairs))
	}
	if !st.isLast() {
		if err := transport.SendMsg(next, transport.NewBuilder().PutBools(ins)); err != nil {
			return nil, err
		}
	}
	return ins, nil
}

// NewLocalRing builds an in-process ring of k parties for tests, examples,
// and benchmarks.
func NewLocalRing(k int) []Party {
	// edge[i] connects party i (as Next) to party i+1 mod k (as Prev).
	type edge struct{ a, b transport.Conn }
	edges := make([]edge, k)
	for i := range edges {
		a, b := transport.Pipe()
		edges[i] = edge{a, b}
	}
	parties := make([]Party, k)
	for i := range parties {
		parties[i] = Party{
			Index: i,
			K:     k,
			Next:  edges[i].a,
			Prev:  edges[(i-1+k)%k].b,
		}
	}
	return parties
}
