package core

import (
	"crypto/rand"
	"errors"
	"fmt"
	"io"
	"math/big"
	"sync"
	"sync/atomic"

	"repro/internal/compare"
	"repro/internal/encoding"
	"repro/internal/paillier"
	"repro/internal/spatial"
	"repro/internal/transport"
	"repro/internal/yao"
)

// Role distinguishes the two parties. The paper calls them Alice and Bob;
// protocol functions come in matched Alice/Bob pairs.
type Role uint8

// The two protocol roles.
const (
	RoleAlice Role = iota
	RoleBob
)

func (r Role) String() string {
	if r == RoleAlice {
		return "alice"
	}
	return "bob"
}

// peer returns the opposite role.
func (r Role) peer() Role {
	if r == RoleAlice {
		return RoleBob
	}
	return RoleAlice
}

// handshakeVersion guards against protocol drift between binaries.
// Version 2 added the Batching round-structure parameter; version 3 added
// the Pruning candidate-set parameter and its padding quantum; version 4
// added the Parallel scheduler width (which also pins whether the
// connection is multiplexed) and the session run/close control ops;
// version 5 added the append control op, the streaming index-delta
// rounds, and the generation watermark on horizontal query op frames;
// version 6 added the expire control op and the generation tombstone
// exchange (sliding windows); version 7 added the retract control op and
// the point tombstone exchange (point-level deletion); version 8 added
// the Packing plaintext-encoding parameter (slot-packed ciphertext
// frames); version 9 added the packed comparison uplink ("full"
// packing, a per-batch moded wire form) and the uplink/downlink
// ciphertext split.
const handshakeVersion = 9

// ErrHandshake reports parameter disagreement between the parties.
var ErrHandshake = errors.New("core: handshake parameter mismatch")

// session holds the per-run cryptographic state of one party.
type session struct {
	cfg    Config
	role   Role
	epsSq  int64
	dim    int   // full (virtual) record dimension m
	bound  int64 // inclusive max of any pairwise dist² = m·MaxCoord²
	shareV int64 // §5 share mask magnitude: v ∈ [0, shareV)

	paiKey  *paillier.PrivateKey
	rsaKey  *yao.RSAKey
	peerPai *paillier.PublicKey
	peerRSA *yao.RSAPublicKey

	// pool is the crypto worker pool every batch op of this session runs
	// on: the process-shared bounded pool on a multi-session server
	// (Config.Pool, injected by SessionManager.Configure), or nil for the
	// solo-session GOMAXPROCS fan-out.
	pool *paillier.Pool

	random io.Reader

	// Grid-pruning state (Config.Pruning): cellW is the Eps-grid cell
	// width; pruneOn reports whether pruning is active for this session —
	// requested by config AND geometrically useful (epsSq < bound; at
	// epsSq = bound a single cell covers the whole domain and dummy
	// padding could not stay strictly out of range). The horizontal-family
	// index state is generational to support streaming appends: ownStack
	// holds this party's per-generation grids and directories (generation
	// 0 is the construction-time dataset, one more per append), and
	// peerDirs mirrors the peer's disclosed per-generation directories.
	// Both are populated by exchangeIndex and extended by the index-delta
	// exchange of each append.
	cellW    int64
	pruneOn  bool
	ownStack *spatial.Stack
	peerDirs []spatial.Directory

	// cmpCount tallies secure comparison instances executed by this party;
	// cmpCached tallies predicates answered from the session's cross-run
	// comparison cache instead. Atomic because parallel workers
	// (Config.Parallel > 1) count concurrently.
	cmpCount  atomic.Int64
	cmpCached atomic.Int64

	// ctsUp/ctsDown tally Paillier ciphertexts this party put on the wire,
	// split by protocol direction: ctsUp counts request-leg payloads (the
	// operands that open a sub-protocol — comparison uplinks, the
	// encrypted vectors an mpc receiver scatters) and ctsDown counts
	// response-leg payloads (masked replies computed against a peer's
	// operands). Their sum is the Result.CiphertextsSent metric; the split
	// feeds CiphertextsUplink/CiphertextsDownlink, the quantities the
	// "slots" and "full" packing modes shrink on opposite legs. YMPP RSA
	// payloads are not counted. Comparison-engine traffic is counted by
	// the engines themselves (compare.MaskedAlice/MaskedBob.Sent hooks)
	// because the "full" uplink cost depends on runtime batch content.
	ctsUp   atomic.Int64
	ctsDown atomic.Int64

	// ledMu guards ledger once parallel workers record disclosures
	// concurrently; every update goes through led().
	ledMu  sync.Mutex
	ledger Ledger
}

// led applies one ledger update under the session's ledger lock.
func (s *session) led(f func(l *Ledger)) {
	s.ledMu.Lock()
	f(&s.ledger)
	s.ledMu.Unlock()
}

// takeLedger returns the accumulated ledger and resets it — the per-run /
// setup split the long-lived Session uses.
func (s *session) takeLedger() Ledger {
	s.ledMu.Lock()
	defer s.ledMu.Unlock()
	l := s.ledger
	s.ledger = Ledger{}
	return l
}

// parallel reports the scheduler width W (≥ 1).
func (s *session) parallel() int { return s.cfg.Parallel }

// permSource supplies the per-query candidate permutations (Algorithm
// 4's SetOfPointsOfBobPermutation), one source per responder worker
// channel (channelRng). The production source is a crypto/rand-backed
// Fisher–Yates shuffle (see perm.go) — never math/rand: response
// permutations are responder-hiding state, so they must not come from a
// generator whose future output is predictable from observations. Seeded
// sessions (tests) substitute a deterministic splitmix64-backed source.
type permSource interface {
	Perm(n int) []int
}

// channelRng derives the permutation source for one responder worker
// channel. Worker channels consume permutations concurrently, so each
// gets its own source; permutations only hide which peer point answered
// which slot, so labels and count-based Ledger classes do not depend on
// the width W.
func (s *session) channelRng(ch int) (permSource, error) {
	if s.cfg.Seed != 0 {
		return newSeededPerm(uint64(s.cfg.Seed+int64(s.role)+1) + 7919*uint64(ch+1)), nil
	}
	return cryptoPerm{r: s.random}, nil
}

// peerInfo is what the handshake learns about the other side.
type peerInfo struct {
	Dim   int // peer's record dimension (own attributes for vertical)
	Count int // peer's record count
}

// newSession generates keys, exchanges public keys, and verifies that both
// parties agree on every protocol parameter. proto names the protocol
// ("horizontal", "vertical", ...) so mismatched invocations fail fast.
// ownDim/ownCount describe this party's data and are shared with the peer.
func newSession(conn transport.Conn, cfg Config, role Role, proto string, ownDim, ownCount int) (*session, peerInfo, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, peerInfo{}, err
	}
	epsSq, err := cfg.epsSquared()
	if err != nil {
		return nil, peerInfo{}, err
	}
	random := cfg.Random
	if random == nil {
		random = rand.Reader
	}
	if cfg.Parallel > 1 {
		// Parallel workers sample masks and nonces concurrently; the
		// configured reader is not assumed goroutine-safe.
		random = transport.LockedReader(random)
	}

	// Crypto pool resolution: an injected shared pool (a multi-session
	// server's SessionManager.Configure) wins; otherwise ServerWorkers > 0
	// bounds this session's own fan-out; otherwise nil keeps the legacy
	// per-call GOMAXPROCS behavior.
	pool := cfg.Pool
	if pool == nil && cfg.ServerWorkers > 0 {
		pool = paillier.NewPool(cfg.ServerWorkers)
	}
	s := &session{cfg: cfg, role: role, epsSq: epsSq, random: random, pool: pool}
	s.paiKey, err = paillier.GenerateKey(random, cfg.PaillierBits)
	if err != nil {
		return nil, peerInfo{}, err
	}
	s.rsaKey, err = yao.GenerateRSAKey(random, cfg.RSABits)
	if err != nil {
		return nil, peerInfo{}, err
	}

	setTag(conn, "handshake")
	rsaN, rsaE := yao.MarshalRSAPublicKey(&s.rsaKey.RSAPublicKey)
	msg := transport.NewBuilder().
		PutUint(handshakeVersion).
		PutString(proto).
		PutUint(uint64(role)).
		PutInt(epsSq).
		PutUint(uint64(cfg.MinPts)).
		PutInt(cfg.MaxCoord).
		PutString(string(cfg.Engine)).
		PutUint(uint64(cfg.CmpMaskBits)).
		PutUint(uint64(cfg.ShareMaskBits)).
		PutString(string(cfg.Selection)).
		PutString(string(cfg.Batching)).
		PutString(string(cfg.Packing)).
		PutString(string(cfg.Pruning)).
		PutUint(uint64(cfg.PruneQuantum)).
		PutUint(uint64(cfg.Parallel)).
		PutUint(uint64(ownDim)).
		PutUint(uint64(ownCount)).
		PutBytes(paillier.MarshalPublicKey(&s.paiKey.PublicKey)).
		PutBytes(rsaN).
		PutBytes(rsaE)
	if err := transport.SendMsg(conn, msg); err != nil {
		return nil, peerInfo{}, fmt.Errorf("core: handshake send: %w", err)
	}
	r, err := transport.RecvMsg(conn)
	if err != nil {
		return nil, peerInfo{}, fmt.Errorf("core: handshake recv: %w", err)
	}
	pVersion := r.Uint()
	pProto := r.String()
	pRole := Role(r.Uint())
	pEpsSq := r.Int()
	pMinPts := int(r.Uint())
	pMaxCoord := r.Int()
	pEngine := r.String()
	pCmpMask := int(r.Uint())
	pShareMask := int(r.Uint())
	pSelection := r.String()
	pBatching := r.String()
	pPacking := r.String()
	pPruning := r.String()
	pQuantum := int(r.Uint())
	pParallel := int(r.Uint())
	pDim := int(r.Uint())
	pCount := int(r.Uint())
	paiB := r.Bytes()
	rsaNB := r.Bytes()
	rsaEB := r.Bytes()
	if r.Err() != nil {
		return nil, peerInfo{}, fmt.Errorf("core: handshake parse: %w", r.Err())
	}

	switch {
	case pVersion != handshakeVersion:
		return nil, peerInfo{}, fmt.Errorf("%w: version %d vs %d", ErrHandshake, handshakeVersion, pVersion)
	case pProto != proto:
		return nil, peerInfo{}, fmt.Errorf("%w: protocol %q vs %q", ErrHandshake, proto, pProto)
	case pRole != role.peer():
		return nil, peerInfo{}, fmt.Errorf("%w: both parties claim role %v", ErrHandshake, role)
	case pEpsSq != epsSq:
		return nil, peerInfo{}, fmt.Errorf("%w: Eps² %d vs %d", ErrHandshake, epsSq, pEpsSq)
	case pMinPts != cfg.MinPts:
		return nil, peerInfo{}, fmt.Errorf("%w: MinPts %d vs %d", ErrHandshake, cfg.MinPts, pMinPts)
	case pMaxCoord != cfg.MaxCoord:
		return nil, peerInfo{}, fmt.Errorf("%w: MaxCoord %d vs %d", ErrHandshake, cfg.MaxCoord, pMaxCoord)
	case pEngine != string(cfg.Engine):
		return nil, peerInfo{}, fmt.Errorf("%w: engine %q vs %q", ErrHandshake, cfg.Engine, pEngine)
	case pCmpMask != cfg.CmpMaskBits:
		return nil, peerInfo{}, fmt.Errorf("%w: CmpMaskBits %d vs %d", ErrHandshake, cfg.CmpMaskBits, pCmpMask)
	case pShareMask != cfg.ShareMaskBits:
		return nil, peerInfo{}, fmt.Errorf("%w: ShareMaskBits %d vs %d", ErrHandshake, cfg.ShareMaskBits, pShareMask)
	case pSelection != string(cfg.Selection):
		return nil, peerInfo{}, fmt.Errorf("%w: selection %q vs %q", ErrHandshake, cfg.Selection, pSelection)
	case pBatching != string(cfg.Batching):
		return nil, peerInfo{}, fmt.Errorf("%w: batching %q vs %q", ErrHandshake, cfg.Batching, pBatching)
	case pPacking != string(cfg.Packing):
		return nil, peerInfo{}, fmt.Errorf("%w: packing %q vs %q", ErrHandshake, cfg.Packing, pPacking)
	case pPruning != string(cfg.Pruning):
		return nil, peerInfo{}, fmt.Errorf("%w: pruning %q vs %q", ErrHandshake, cfg.Pruning, pPruning)
	case pQuantum != cfg.PruneQuantum:
		return nil, peerInfo{}, fmt.Errorf("%w: prune quantum %d vs %d", ErrHandshake, cfg.PruneQuantum, pQuantum)
	case pParallel != cfg.Parallel:
		return nil, peerInfo{}, fmt.Errorf("%w: parallel width %d vs %d", ErrHandshake, cfg.Parallel, pParallel)
	}

	s.peerPai, err = paillier.UnmarshalPublicKey(paiB)
	if err != nil {
		return nil, peerInfo{}, err
	}
	s.peerRSA, err = yao.UnmarshalRSAPublicKey(rsaNB, rsaEB)
	if err != nil {
		return nil, peerInfo{}, err
	}

	s.shareV = int64(1) << uint(cfg.ShareMaskBits)
	return s, peerInfo{Dim: pDim, Count: pCount}, nil
}

// setDimension fixes the virtual-record dimension m and derives the
// comparison bound; protocols call it after interpreting the handshake
// dims (horizontal: m = own = peer; vertical: m = own + peer).
func (s *session) setDimension(m int) error {
	if m < 1 {
		return fmt.Errorf("core: record dimension %d < 1", m)
	}
	s.dim = m
	s.bound = int64(m) * s.cfg.MaxCoord * s.cfg.MaxCoord
	if s.bound <= 0 || s.bound > (int64(1)<<50) {
		return fmt.Errorf("core: dist² bound %d out of range (MaxCoord too large?)", s.bound)
	}
	// Every pairwise dist² is ≤ bound, so a threshold beyond the bound is
	// equivalent to the bound itself; clamping keeps comparison inputs in
	// domain. Both parties clamp identically after the handshake agreed on
	// the raw value.
	if s.epsSq > s.bound {
		s.epsSq = s.bound
	}
	// Grid pruning engages only when the Eps ball is strictly smaller than
	// the coordinate domain; both parties derive this from handshake-agreed
	// values, so they agree on whether the index phases run.
	s.cellW = spatial.CellWidth(s.epsSq)
	s.pruneOn = s.cfg.Pruning == PruneGrid && s.epsSq < s.bound
	return nil
}

// maskBound returns the HDP zero-sum mask magnitude: masks are drawn in
// (−2^b, 2^b) with b sized so that masked per-coordinate products stay far
// inside the Paillier plaintext space.
func (s *session) maskBound() *big.Int {
	return new(big.Int).Lsh(big.NewInt(1), 62)
}

// packing reports whether this session runs its batch Paillier rounds
// over slot-packed plaintexts (Config.Packing "slots" or "full" — full
// is a strict superset of slots).
func (s *session) packing() bool {
	return s.cfg.Packing == PackSlots || s.cfg.Packing == PackFull
}

// fullPacking reports whether the session additionally packs the
// comparison uplink (Config.Packing "full"): comparison engines choose
// the moded uplink wire form per batch, and the comparison-heavy
// protocol sites may switch to derived-base batches that send no uplink
// ciphertexts at all.
func (s *session) fullPacking() bool { return s.cfg.Packing == PackFull }

// derivedCompare reports whether protocol sites may run derived-base
// comparison batches (zero uplink ciphertexts, the responder re-derives
// E(operand) from ciphertexts it already holds): full packing with the
// masked engine. YMPP sends no Paillier comparison payloads, so there
// is nothing to derive away.
func (s *session) derivedCompare() bool {
	return s.fullPacking() && s.cfg.Engine == compare.EngineMasked
}

// packedMaskBound is the zero-sum mask magnitude on the packed
// masked-product path: B = MaxCoord²·2^CmpMaskBits. The unpacked path
// keeps its fixed 2^62 bound; the packed path needs a bound both
// parties can derive from handshake-agreed parameters so they size
// identical slots, and one that scales with the data so S slots plus
// their mask headroom fit the plaintext space. B still hides each
// product statistically: |x·y| ≤ MaxCoord² and the mask is 2^κ times
// larger.
func (s *session) packedMaskBound() *big.Int {
	b := big.NewInt(s.cfg.MaxCoord * s.cfg.MaxCoord)
	return b.Lsh(b, uint(s.cfg.CmpMaskBits))
}

// productPacker sizes slots for masked per-coordinate products under
// pub's plaintext space: each slot holds x·y + Σ masks with |x·y| ≤
// maxProduct and up to s.dim zero-sum mask terms of magnitude
// packedMaskBound (the last ZeroSumMasks share is the negated sum of
// the others, so it can reach (m−1)·B).
func (s *session) productPacker(pub *paillier.PublicKey, maxProduct int64) (*encoding.Packer, error) {
	return encoding.NewProductPacker(pub.PlaintextBound(), maxProduct, s.packedMaskBound(), s.dim)
}

// dotPacker sizes slots for the §5 masked dot products: every reply
// value lands in [0, bound + shareV), non-negative by construction.
func (s *session) dotPacker(pub *paillier.PublicKey) (*encoding.Packer, error) {
	return encoding.NewSumPacker(pub.PlaintextBound(), s.bound+s.shareV)
}

// engines builds a matched comparator pair for the given inclusive input
// bound. The "alice" side (left-value holder, decryptor) uses this party's
// private keys; the "bob" side uses the peer's public keys — so in any
// sub-protocol, the party holding the left value uses its cmpAlice and the
// peer simultaneously uses its cmpBob. Both halves are wrapped in counters
// feeding Result.SecureComparisons.
func (s *session) engines(bound int64) (compare.Alice, compare.Bob, error) {
	switch s.cfg.Engine {
	case compare.EngineYMPP:
		if bound+2 > yao.MaxDomain {
			return nil, nil, fmt.Errorf("core: comparison domain %d exceeds YMPP limit %d; use Engine=masked or a smaller grid", bound+2, int64(yao.MaxDomain))
		}
		return &countingAlice{inner: &compare.YMPPAlice{Key: s.rsaKey, Max: bound, Random: s.random, Pool: s.pool}, n: &s.cmpCount},
			&countingBob{inner: &compare.YMPPBob{Pub: s.peerRSA, Max: bound, Random: s.random}, n: &s.cmpCount}, nil
	case compare.EngineMasked:
		limit := new(big.Int).Lsh(big.NewInt(bound+2), uint(s.cfg.CmpMaskBits))
		if limit.Cmp(s.paiKey.PlaintextBound()) >= 0 || limit.Cmp(s.peerPai.PlaintextBound()) >= 0 {
			return nil, nil, fmt.Errorf("core: bound %d with %d mask bits overflows the Paillier plaintext space", bound, s.cfg.CmpMaskBits)
		}
		// This party's Alice engine sends the request leg (uplink); its Bob
		// engine sends reply legs (downlink). The engines count their own
		// wire traffic — under "full" packing the uplink ciphertext count
		// depends on the runtime batch content, so only the engine knows it.
		aliceEng := &compare.MaskedAlice{Key: s.paiKey, Max: bound, Random: s.random, Pool: s.pool, Sent: &s.ctsUp}
		bobEng := &compare.MaskedBob{Pub: s.peerPai, Max: bound, MaskBits: s.cfg.CmpMaskBits, Random: s.random, Pool: s.pool, Sent: &s.ctsDown}
		if s.packing() {
			// Each party's Alice engine pairs with the peer's Bob engine,
			// so both packers over one key agree: Alice derives from her
			// own modulus, the peer's Bob from its view of that same
			// public key, and the slot geometry is otherwise a function of
			// handshake-agreed parameters (bound, CmpMaskBits).
			ap, err := encoding.NewComparePacker(s.paiKey.PlaintextBound(), bound, s.cfg.CmpMaskBits)
			if err != nil {
				return nil, nil, fmt.Errorf("core: comparison packer: %w", err)
			}
			bp, err := encoding.NewComparePacker(s.peerPai.PlaintextBound(), bound, s.cfg.CmpMaskBits)
			if err != nil {
				return nil, nil, fmt.Errorf("core: comparison packer: %w", err)
			}
			aliceEng.Packer, bobEng.Packer = ap, bp
		}
		if s.fullPacking() {
			// Uplink packers size the wider slots derived-base replies
			// need (both operands signed, mask folded into the slot); the
			// moded uplink wire form engages whenever they are non-nil.
			aup, err := encoding.NewUplinkComparePacker(s.paiKey.PlaintextBound(), bound, s.cfg.CmpMaskBits)
			if err != nil {
				return nil, nil, fmt.Errorf("core: uplink comparison packer: %w", err)
			}
			bup, err := encoding.NewUplinkComparePacker(s.peerPai.PlaintextBound(), bound, s.cfg.CmpMaskBits)
			if err != nil {
				return nil, nil, fmt.Errorf("core: uplink comparison packer: %w", err)
			}
			aliceEng.UplinkPacker, bobEng.UplinkPacker = aup, bup
		}
		return &countingAlice{inner: aliceEng, n: &s.cmpCount},
			&countingBob{inner: bobEng, n: &s.cmpCount}, nil
	}
	return nil, nil, fmt.Errorf("core: unknown engine %q", s.cfg.Engine)
}

// countingAlice/countingBob wrap a comparison engine and tally executed
// instances (one per predicate, so a batch of k counts k) into the
// session's cmpCount — the Result.SecureComparisons metric. Ciphertext
// accounting lives in the engines themselves (MaskedAlice/MaskedBob
// Sent hooks wired by engines()); YMPP engines send no Paillier
// payloads and count nothing.
type countingAlice struct {
	inner compare.Alice
	n     *atomic.Int64
}

func (c *countingAlice) LessEq(conn transport.Conn, a int64) (bool, error) {
	c.n.Add(1)
	return c.inner.LessEq(conn, a)
}

func (c *countingAlice) Less(conn transport.Conn, a int64) (bool, error) {
	c.n.Add(1)
	return c.inner.Less(conn, a)
}

func (c *countingAlice) BatchLessEq(conn transport.Conn, as []int64) ([]bool, error) {
	c.n.Add(int64(len(as)))
	return c.inner.BatchLessEq(conn, as)
}

func (c *countingAlice) BatchLess(conn transport.Conn, as []int64) ([]bool, error) {
	c.n.Add(int64(len(as)))
	return c.inner.BatchLess(conn, as)
}

// BatchLessEqDerived forwards a derived-base batch (operands already
// held encrypted by the peer; zero uplink ciphertexts). Only masked
// engines with an UplinkPacker support it; callers gate on
// session.fullPacking(), so a failed assertion is a programming error.
func (c *countingAlice) BatchLessEqDerived(conn transport.Conn, as []int64) ([]bool, error) {
	d, ok := c.inner.(compare.DerivedAlice)
	if !ok {
		return nil, fmt.Errorf("core: engine %s does not support derived-base batches", c.inner.Name())
	}
	c.n.Add(int64(len(as)))
	return d.BatchLessEqDerived(conn, as)
}

// BatchLessDerived is the strict variant of BatchLessEqDerived.
func (c *countingAlice) BatchLessDerived(conn transport.Conn, as []int64) ([]bool, error) {
	d, ok := c.inner.(compare.DerivedAlice)
	if !ok {
		return nil, fmt.Errorf("core: engine %s does not support derived-base batches", c.inner.Name())
	}
	c.n.Add(int64(len(as)))
	return d.BatchLessDerived(conn, as)
}

func (c *countingAlice) Bound() int64 { return c.inner.Bound() }
func (c *countingAlice) Name() string { return c.inner.Name() }

type countingBob struct {
	inner compare.Bob
	n     *atomic.Int64
}

func (c *countingBob) LessEq(conn transport.Conn, b int64) (bool, error) {
	c.n.Add(1)
	return c.inner.LessEq(conn, b)
}

func (c *countingBob) Less(conn transport.Conn, b int64) (bool, error) {
	c.n.Add(1)
	return c.inner.Less(conn, b)
}

func (c *countingBob) BatchLessEq(conn transport.Conn, bs []int64) ([]bool, error) {
	c.n.Add(int64(len(bs)))
	return c.inner.BatchLessEq(conn, bs)
}

func (c *countingBob) BatchLess(conn transport.Conn, bs []int64) ([]bool, error) {
	c.n.Add(int64(len(bs)))
	return c.inner.BatchLess(conn, bs)
}

// BatchLessEqDerived is the Bob half of the Alice-side derived-base
// batch: base supplies E(a_t) under Bob's view of the peer key, so no
// uplink frame carries operands. base must be goroutine-safe (the reply
// fold runs on the parallel Paillier pool).
func (c *countingBob) BatchLessEqDerived(conn transport.Conn, bs []int64, base func(t int) (*big.Int, error)) ([]bool, error) {
	d, ok := c.inner.(compare.DerivedBob)
	if !ok {
		return nil, fmt.Errorf("core: engine %s does not support derived-base batches", c.inner.Name())
	}
	c.n.Add(int64(len(bs)))
	return d.BatchLessEqDerived(conn, bs, base)
}

// BatchLessDerived is the strict variant of BatchLessEqDerived.
func (c *countingBob) BatchLessDerived(conn transport.Conn, bs []int64, base func(t int) (*big.Int, error)) ([]bool, error) {
	d, ok := c.inner.(compare.DerivedBob)
	if !ok {
		return nil, fmt.Errorf("core: engine %s does not support derived-base batches", c.inner.Name())
	}
	c.n.Add(int64(len(bs)))
	return d.BatchLessDerived(conn, bs, base)
}

func (c *countingBob) Bound() int64 { return c.inner.Bound() }
func (c *countingBob) Name() string { return c.inner.Name() }

// distEngines returns comparators for the split-threshold predicate
// a + b ≤ Eps² (driver holds a ∈ [0, bound], responder holds b ∈ [−bound,
// bound]). Implemented as strict Less over [0, bound+1] with the responder
// clamping Eps² − b + 1 into the domain, which preserves the predicate
// because a never exceeds bound.
func (s *session) distEngines() (compare.Alice, compare.Bob, error) {
	return s.engines(s.bound + 1)
}

// batched reports whether this session uses the batched round structure.
func (s *session) batched() bool { return s.cfg.Batching == BatchModeBatched }

// distLessEqDriver decides ownSum + peerSum ≤ Eps² from the driver side.
func distLessEqDriver(conn transport.Conn, eng compare.Alice, ownSum int64) (bool, error) {
	return eng.Less(conn, ownSum)
}

// distLessEqResponder is the matching responder half; peerSum may be
// negative (it is Σd_y² − 2·dot for HDP).
func distLessEqResponder(conn transport.Conn, eng compare.Bob, s *session, peerSum int64) (bool, error) {
	return eng.Less(conn, s.responderOperand(eng.Bound(), peerSum))
}

// responderOperand maps the responder's additive share into the strict
// Less embedding of a + b ≤ Eps²: j = clamp(Eps² − b + 1, [0, bound]).
// The clamp preserves the predicate because the driver's a never exceeds
// the distance bound.
func (s *session) responderOperand(bound, peerSum int64) int64 {
	j := s.epsSq - peerSum + 1
	if j < 0 {
		j = 0
	}
	if j > bound {
		j = bound
	}
	return j
}

// setTag routes byte accounting to a protocol phase when the connection is
// metered; plain connections ignore tagging.
func setTag(conn transport.Conn, tag string) {
	if m, ok := conn.(*transport.Meter); ok {
		m.SetTag(tag)
	}
}
