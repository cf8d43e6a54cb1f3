package multiparty

import (
	"crypto/rand"
	"fmt"
	"io"
	"math/big"
	"sync"
	"sync/atomic"

	"repro/internal/compare"
	"repro/internal/core"
	"repro/internal/encoding"
	"repro/internal/fixedpoint"
	"repro/internal/mpc"
	"repro/internal/paillier"
	"repro/internal/spatial"
	"repro/internal/transport"
	"repro/internal/yao"
)

// The k-party horizontal extension generalizes Algorithm 3/4: every party
// holds complete records and runs its own driving pass in index order;
// during party p's pass each other party answers HDP region queries, so a
// query point's density count is |own neighbours| + Σ_q |peer q's
// neighbours|. As in the two-party protocol, expansion walks only the
// driver's own points and cluster ids are local to each party.
//
// Disclosure note (DESIGN.md): pairwise composition reveals per-peer
// neighbour counts to the driver (finer-grained than the two-party
// protocol's single count), plus the HDP dot products to each responder —
// the natural cost of composing the paper's two-party building block.

// HorizontalParty describes one participant in the k-party horizontal
// protocol, connected to every other party.
type HorizontalParty struct {
	Index int
	K     int
	// Conns[q] connects to party q; Conns[Index] is unused (may be nil).
	Conns []transport.Conn
}

func (p HorizontalParty) validate() error {
	if p.K < 2 {
		return fmt.Errorf("multiparty: need ≥ 2 parties, got %d", p.K)
	}
	if p.Index < 0 || p.Index >= p.K {
		return fmt.Errorf("multiparty: index %d outside [0,%d)", p.Index, p.K)
	}
	if len(p.Conns) != p.K {
		return fmt.Errorf("multiparty: party %d has %d connections, want %d", p.Index, len(p.Conns), p.K)
	}
	for q, c := range p.Conns {
		if q != p.Index && c == nil {
			return fmt.Errorf("multiparty: party %d missing connection to %d", p.Index, q)
		}
	}
	return nil
}

// HorizontalResult is one party's output: labels for its own points.
type HorizontalResult struct {
	Labels      []int
	NumClusters int
	// RegionQueries counts the driving-side region queries this party
	// issued (each reveals k−1 per-peer neighbour counts to it); cached
	// queries count too — the decision-level budget convention.
	RegionQueries int
	// CachedCounts counts the per-peer membership predicates a
	// MeshSession run answered from its cross-run cache instead of
	// running HDP — zero for one-shot runs and a session's first run.
	CachedCounts int64
	// CiphertextsSent counts the Paillier ciphertexts this party put on
	// the wire during the run (HDP frames in both roles plus its side of
	// the masked comparisons) — the quantity slot packing compresses.
	// YMPP RSA payloads are not counted. Always equal to
	// CiphertextsUplink + CiphertextsDownlink; retained as the
	// compatibility sum.
	CiphertextsSent int64
	// CiphertextsUplink is the request-leg share: the encrypted
	// coordinates this party scatters when serving HDP under its own key
	// plus its driving-side comparison uplinks — the leg "full" packing
	// exists to shrink (the driver's per-query comparison operands are
	// all equal, so the grouped uplink collapses them to one ciphertext).
	CiphertextsUplink int64
	// CiphertextsDownlink is the response-leg share: the masked products
	// this party sends against a peer's encrypted coordinates plus its
	// responding-side comparison replies — the leg "slots" packing
	// shrinks.
	CiphertextsDownlink int64
}

// pairSession holds the cryptographic state shared with one specific
// peer, including the streaming structures: the peer's per-generation
// directories, per-generation counts, and the driver-side cache of
// region-count segments keyed by our point index (permanently exact over
// live generations — distances are immutable). Expired generations stay
// in place as husks — empty directories, zeroed counts — so generation
// numbers are stable for the session's life and both edge endpoints
// agree on any watermark, even one below the dead prefix.
type pairSession struct {
	paiKey  *paillier.PrivateKey
	rsaKey  *yao.RSAKey
	peerPai *paillier.PublicKey
	peerRSA *yao.RSAPublicKey
	cmpA    compare.Alice   // we drive: we hold the left value
	cmpB    compare.Bob     // we respond: peer holds the left value
	peerN   int             // peer's live record count
	rng     core.PermSource // per-query permutation when we respond

	peerDirs   []spatial.Directory // per-generation padded directories (pruning)
	peerGenCnt []int               // per-generation peer counts (dead gens zeroed)
	cacheMu    sync.Mutex          // guards cache: wave workers query this peer concurrently
	cache      *core.CountCache    // own point → cached count segments over peer gens

	// Slot packers (nil with packing off), derived identically on both
	// edge endpoints from the handshake parameters and the exchanged
	// public keys. mpPackPeer sizes HDP grid frames we send under the
	// peer's key; mpPackOwn sizes the frames we serve under our own key.
	mpPackPeer *encoding.Packer
	mpPackOwn  *encoding.Packer
}

// peerSuffix counts the peer's points in generations [from, …).
func (sess *pairSession) peerSuffix(from int) int {
	n := 0
	for g := from; g < len(sess.peerGenCnt); g++ {
		n += sess.peerGenCnt[g]
	}
	return n
}

// RunHorizontal executes the k-party horizontal protocol for one party.
// All parties must call it concurrently over a consistent mesh. This is
// the one-shot form; NewMeshSession adds streaming appends and cross-run
// caching.
func RunHorizontal(party HorizontalParty, cfg Config, points [][]float64) (*HorizontalResult, error) {
	ms, err := NewMeshSession(party, cfg, points)
	if err != nil {
		return nil, err
	}
	return ms.Run()
}

// MeshSession is one party's long-lived mesh (k-party horizontal)
// session: establishment once, many Run calls, Append between them —
// every party calls the same method sequence concurrently.
type MeshSession struct {
	h    *hState
	runs int
}

// NewMeshSession establishes the pairwise key/handshake/index state with
// every peer.
func NewMeshSession(party HorizontalParty, cfg Config, points [][]float64) (*MeshSession, error) {
	h, err := newMeshState(party, cfg, points)
	if err != nil {
		return nil, err
	}
	return &MeshSession{h: h}, nil
}

// Runs reports the completed Run calls.
func (ms *MeshSession) Runs() int { return ms.runs }

// Run executes one k-pass clustering (each party drives once, in index
// order) over the session state, reusing every cached region-count
// prefix.
func (ms *MeshSession) Run() (*HorizontalResult, error) {
	h := ms.h
	h.queries.Store(0)
	h.cached.Store(0)
	h.ctsUp.Store(0)
	h.ctsDown.Store(0)
	var labels []int
	var clusters int
	var err error
	for pass := 0; pass < h.party.K; pass++ {
		if pass == h.party.Index {
			labels, clusters, err = h.drive()
		} else {
			err = h.respond(pass)
		}
		if err != nil {
			return nil, fmt.Errorf("multiparty: pass %d: %w", pass, err)
		}
	}
	ms.runs++
	up, down := h.ctsUp.Load(), h.ctsDown.Load()
	return &HorizontalResult{Labels: labels, NumClusters: clusters, RegionQueries: int(h.queries.Load()),
		CachedCounts: h.cached.Load(), CiphertextsSent: up + down,
		CiphertextsUplink: up, CiphertextsDownlink: down}, nil
}

// Append absorbs this party's appended batch: every party calls Append
// concurrently with its own new points (any count, including none). Each
// mesh edge swaps the batch count plus — under pruning — a
// spatial.GridDelta of the touched cells; the points themselves never
// cross the wire, and cached prefix counts stay valid because appended
// generations only extend the suffix.
func (ms *MeshSession) Append(points [][]float64) error {
	h := ms.h
	for i, row := range points {
		if len(row) != h.m {
			return fmt.Errorf("multiparty: appended point %d has %d attributes, want %d", i, len(row), h.m)
		}
	}
	codec, err := fixedpoint.New(h.cfg.Scale, h.cfg.Offset)
	if err != nil {
		return err
	}
	enc, err := codec.EncodePoints(points)
	if err != nil {
		return err
	}
	for i, row := range enc {
		for j, v := range row {
			if v > h.cfg.MaxCoord {
				return fmt.Errorf("multiparty: appended point %d attribute %d encodes to %d > MaxCoord %d", i, j, v, h.cfg.MaxCoord)
			}
		}
	}
	var delta spatial.Directory
	if h.pruneOn {
		if delta, err = h.ownStack.Append(enc); err != nil {
			return err
		}
	}
	gen := len(h.ownGenStart) + 1 // 1-based generation number of this delta
	p := h.party
	for q := 0; q < p.K; q++ {
		if q == p.Index {
			continue
		}
		sess := h.sessions[q]
		conn := h.chans[q][0]
		msg := transport.NewBuilder().PutUint(uint64(len(enc)))
		if h.pruneOn {
			spatial.GridDelta{Gen: gen, Dir: delta}.Encode(msg)
		}
		// The lower-indexed party sends first, as in the establishment
		// index exchange, so simultaneous appends cannot deadlock a real
		// socket.
		var r *transport.Reader
		if p.Index < q {
			if err = transport.SendMsg(conn, msg); err == nil {
				r, err = transport.RecvMsg(conn)
			}
		} else {
			if r, err = transport.RecvMsg(conn); err == nil {
				err = transport.SendMsg(conn, msg)
			}
		}
		if err != nil {
			return fmt.Errorf("multiparty: append exchange with %d: %w", q, err)
		}
		peerCount := int(r.Uint())
		if err := r.Err(); err != nil {
			return err
		}
		if peerCount < 0 {
			return fmt.Errorf("multiparty: party %d appends %d points", q, peerCount)
		}
		if h.pruneOn {
			peerDelta, err := spatial.DecodeGridDelta(r, h.m, h.cfg.PruneQuantum, len(sess.peerDirs)+1)
			if err != nil {
				return fmt.Errorf("multiparty: append delta from %d: %w", q, err)
			}
			sess.peerDirs = append(sess.peerDirs, peerDelta.Dir)
		}
		sess.peerGenCnt = append(sess.peerGenCnt, peerCount)
		sess.peerN += peerCount
	}
	h.ownGenStart = append(h.ownGenStart, len(h.enc))
	h.enc = append(h.enc, enc...)
	return nil
}

// Expire slides the mesh window: the oldest gens generations leave on
// every party at once. All parties must call Expire concurrently with
// the same argument — like Append, the exchange is symmetric. Each mesh
// edge swaps a spatial.TombstoneDelta pinned to the shared dead prefix,
// so an endpoint that drifted out of generation lockstep fails loudly
// instead of silently diverging. Locally the expired generations become
// husks: own points are compacted out, the peer's per-generation counts
// zero, its directories empty, and every cached region-count segment is
// rebased onto the surviving own indices (segments over expired peer
// generations are trimmed lazily at the next query). Generation numbers
// are never reused.
func (ms *MeshSession) Expire(gens int) error {
	h := ms.h
	live := len(h.ownGenStart) - h.dead
	if gens < 1 || gens > live {
		return fmt.Errorf("multiparty: expire %d of %d live generations", gens, live)
	}
	td := spatial.TombstoneDelta{From: h.dead, N: gens}
	p := h.party
	for q := 0; q < p.K; q++ {
		if q == p.Index {
			continue
		}
		conn := h.chans[q][0]
		msg := td.Encode(transport.NewBuilder())
		// Lower-indexed party sends first, as in Append, so simultaneous
		// expiries cannot deadlock a real socket.
		var r *transport.Reader
		var err error
		if p.Index < q {
			if err = transport.SendMsg(conn, msg); err == nil {
				r, err = transport.RecvMsg(conn)
			}
		} else {
			if r, err = transport.RecvMsg(conn); err == nil {
				err = transport.SendMsg(conn, msg)
			}
		}
		if err != nil {
			return fmt.Errorf("multiparty: tombstone exchange with %d: %w", q, err)
		}
		peerTd, err := spatial.DecodeTombstoneDelta(r, h.dead, live)
		if err != nil {
			return fmt.Errorf("multiparty: tombstone from %d: %w", q, err)
		}
		if peerTd.N != gens {
			return fmt.Errorf("multiparty: party %d expires %d generations, we expire %d", q, peerTd.N, gens)
		}
	}
	// Every edge agreed; apply the expiry locally.
	end := h.dead + gens
	ownRemoved := len(h.enc)
	if end < len(h.ownGenStart) {
		ownRemoved = h.ownGenStart[end]
	}
	h.enc = h.enc[ownRemoved:]
	for g := range h.ownGenStart {
		if g < end {
			h.ownGenStart[g] = 0
		} else {
			h.ownGenStart[g] -= ownRemoved
		}
	}
	if h.pruneOn {
		if _, err := h.ownStack.Expire(gens); err != nil {
			return err
		}
	}
	for q := 0; q < p.K; q++ {
		if q == p.Index {
			continue
		}
		sess := h.sessions[q]
		for g := h.dead; g < end; g++ {
			sess.peerN -= sess.peerGenCnt[g]
			sess.peerGenCnt[g] = 0
			if sess.peerDirs != nil {
				sess.peerDirs[g] = spatial.Directory{Dim: h.m}
			}
		}
		sess.cache.Remap(ownRemoved)
	}
	h.dead = end
	return nil
}

// Retract deletes individual records from the live mesh window: every
// party calls Retract concurrently with the strictly ascending live
// indices of its *own* points to delete (any count, including none —
// a party with nothing to retract participates with an empty list).
// Each mesh edge swaps a validated spatial.PointTombstone, lower-indexed
// party first; the retraction applies only after every edge agreed, so a
// malformed tombstone fails the exchange loudly before any state
// changes. Locally the own retracted rows compact out of enc (the
// numbering a fresh session over the survivors would use), the index
// stack masks their slots (disclosed directories are untouched — masked
// slots keep answering as dummies, so per-query wire sizes never
// change), each peer's per-generation counts shrink, and the cached
// region-count segments die exactly where a retracted point could sit
// inside them: our own retracted points' entries vanish and survivors
// remap by rank, and segments covering a peer generation that lost
// points are dropped for re-derivation.
func (ms *MeshSession) Retract(ids []int) error {
	h := ms.h
	if err := spatial.ValidateRetractIDs(ids, len(h.enc)); err != nil {
		return fmt.Errorf("multiparty: retract: %w", err)
	}
	p := h.party
	peerIDs := make([][]int, p.K)
	for q := 0; q < p.K; q++ {
		if q == p.Index {
			continue
		}
		sess := h.sessions[q]
		conn := h.chans[q][0]
		msg := spatial.PointTombstone{IDs: ids}.Encode(transport.NewBuilder())
		// Lower-indexed party sends first, as in Append, so simultaneous
		// retractions cannot deadlock a real socket.
		var r *transport.Reader
		var err error
		if p.Index < q {
			if err = transport.SendMsg(conn, msg); err == nil {
				r, err = transport.RecvMsg(conn)
			}
		} else {
			if r, err = transport.RecvMsg(conn); err == nil {
				err = transport.SendMsg(conn, msg)
			}
		}
		if err != nil {
			return fmt.Errorf("multiparty: retract exchange with %d: %w", q, err)
		}
		tomb, err := spatial.DecodePointTombstone(r, sess.peerN)
		if err != nil {
			return fmt.Errorf("multiparty: retract tombstone from %d: %w", q, err)
		}
		peerIDs[q] = tomb.IDs
	}
	// Every edge agreed; apply the retraction locally.
	if len(ids) > 0 {
		if h.pruneOn {
			if err := h.ownStack.Retract(ids); err != nil {
				return err
			}
		}
		kept := h.enc[:0]
		next := 0
		for i, row := range h.enc {
			if next < len(ids) && ids[next] == i {
				next++
				continue
			}
			kept = append(kept, row)
		}
		h.enc = kept
		for g, start := range h.ownGenStart {
			if g < h.dead {
				continue
			}
			n := 0
			for _, id := range ids {
				if id < start {
					n++
				}
			}
			h.ownGenStart[g] = start - n
		}
	}
	for q := 0; q < p.K; q++ {
		if q == p.Index {
			continue
		}
		sess := h.sessions[q]
		sess.cache.RetractOwn(ids)
		pids := peerIDs[q]
		if len(pids) == 0 {
			continue
		}
		// Map each retracted peer id (pre-retraction live numbering) to
		// its generation, then shrink the counts and drop stale segments.
		dec := make(map[int]int)
		g, cum := 0, 0
		for _, id := range pids {
			for g < len(sess.peerGenCnt) && id >= cum+sess.peerGenCnt[g] {
				cum += sess.peerGenCnt[g]
				g++
			}
			dec[g]++
		}
		affected := make(map[int]bool, len(dec))
		for g, d := range dec {
			sess.peerGenCnt[g] -= d
			sess.peerN -= d
			affected[g] = true
		}
		sess.cache.DropGens(affected)
	}
	return nil
}

// newMeshState performs the mesh establishment.
func newMeshState(party HorizontalParty, cfg Config, points [][]float64) (*hState, error) {
	if err := party.validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if len(points) == 0 {
		return nil, fmt.Errorf("multiparty: party %d holds no points", party.Index)
	}
	m := len(points[0])
	for i, row := range points {
		if len(row) != m {
			return nil, fmt.Errorf("multiparty: point %d has %d attributes, want %d", i, len(row), m)
		}
	}
	codec, err := fixedpoint.New(cfg.Scale, cfg.Offset)
	if err != nil {
		return nil, err
	}
	enc, err := codec.EncodePoints(points)
	if err != nil {
		return nil, err
	}
	for i, row := range enc {
		for j, v := range row {
			if v > cfg.MaxCoord {
				return nil, fmt.Errorf("multiparty: point %d attribute %d encodes to %d > MaxCoord %d", i, j, v, cfg.MaxCoord)
			}
		}
	}
	epsSq, err := codec.EpsSquared(cfg.Eps)
	if err != nil {
		return nil, err
	}
	random := cfg.Random
	if random == nil {
		random = rand.Reader
	}
	if cfg.Parallel > 1 {
		// The driving pass queries all peers concurrently; the configured
		// reader is not assumed goroutine-safe.
		random = transport.LockedReader(random)
	}

	h := &hState{
		party: party, cfg: cfg, enc: enc, epsSq: epsSq, random: random,
		bound:       int64(m) * cfg.MaxCoord * cfg.MaxCoord,
		m:           m,
		ownGenStart: []int{0},
	}
	// Per-edge worker channels: with W > 1 every mesh edge is multiplexed
	// exactly like a ring edge (edgeChannels), so the wave scheduler can
	// run W independent query streams per peer.
	h.chans = make([][]transport.Conn, party.K)
	for q := 0; q < party.K; q++ {
		if q == party.Index {
			continue
		}
		h.chans[q] = edgeChannels(party.Conns[q], cfg.Parallel)
	}
	if h.bound <= 0 || h.bound > int64(1)<<50 {
		return nil, fmt.Errorf("multiparty: dist² bound %d out of range", h.bound)
	}
	if h.epsSq > h.bound {
		h.epsSq = h.bound
	}
	// Grid pruning engages as in the two-party protocol: config-requested
	// and geometrically useful (see core/session).
	h.pruneOn = cfg.Pruning == core.PruneGrid && h.epsSq < h.bound
	if h.pruneOn {
		h.cellW = spatial.CellWidth(h.epsSq)
		st, err := spatial.NewStack(h.cellW, h.m, cfg.PruneQuantum)
		if err != nil {
			return nil, err
		}
		if _, err := st.Append(enc); err != nil {
			return nil, err
		}
		h.ownStack = st
	}
	if err := h.handshakeAll(); err != nil {
		return nil, err
	}
	return h, nil
}

// hState is one party's runtime for the k-party horizontal protocol.
type hState struct {
	party  HorizontalParty
	cfg    Config
	enc    [][]int64
	epsSq  int64
	bound  int64
	m      int
	random io.Reader

	sessions []*pairSession // indexed by peer
	// chans[q] are the per-worker channels of the edge to peer q: the bare
	// connection alone for W = 1 (no mux framing), or the W channels of
	// the multiplexed edge (chans[q][0] carries the handshake, control
	// ops, and streaming exchanges; wave worker t queries peer q on
	// chans[q][t]).
	chans   [][]transport.Conn
	queries atomic.Int64 // region queries issued (wave workers count concurrently)
	cached  atomic.Int64 // membership predicates served from cache this run
	// ctsUp / ctsDown split the run's Paillier ciphertext account by wire
	// direction: uplink is the request leg (the encrypted coordinates we
	// scatter when serving HDP under our own key, plus our driving-side
	// comparison uplinks via the engines' Sent hooks), downlink is the
	// response leg (masked products against a peer's operands, plus our
	// responding-side comparison replies).
	ctsUp   atomic.Int64
	ctsDown atomic.Int64

	pruneOn     bool
	cellW       int64
	ownStack    *spatial.Stack // own per-generation grids/directories (pruning)
	ownGenStart []int          // live index of each own generation's first point (dead gens clamped to 0)
	dead        int            // generations expired out of the sliding window
}

// handshakeAll establishes a pairwise session with every peer: key
// exchange plus parameter agreement, symmetric send-then-receive.
func (h *hState) handshakeAll() error {
	p := h.party
	h.sessions = make([]*pairSession, p.K)
	for q := 0; q < p.K; q++ {
		if q == p.Index {
			continue
		}
		conn := h.chans[q][0]
		paiKey, err := paillier.GenerateKey(h.random, h.cfg.PaillierBits)
		if err != nil {
			return err
		}
		rsaKey, err := yao.GenerateRSAKey(h.random, h.cfg.RSABits)
		if err != nil {
			return err
		}
		rsaN, rsaE := yao.MarshalRSAPublicKey(&rsaKey.RSAPublicKey)
		msg := transport.NewBuilder().
			PutUint(meshHandshakeVersion).
			PutInt(h.epsSq).
			PutUint(uint64(h.cfg.MinPts)).
			PutInt(h.cfg.MaxCoord).
			PutString(string(h.cfg.Engine)).
			PutString(string(h.cfg.Batching)).
			PutString(string(h.cfg.Packing)).
			PutString(string(h.cfg.Pruning)).
			PutUint(uint64(h.cfg.PruneQuantum)).
			PutUint(uint64(h.cfg.Parallel)).
			PutUint(uint64(h.m)).
			PutUint(uint64(len(h.enc))).
			PutBytes(paillier.MarshalPublicKey(&paiKey.PublicKey)).
			PutBytes(rsaN).
			PutBytes(rsaE)
		if err := transport.SendMsg(conn, msg); err != nil {
			return fmt.Errorf("handshake with %d: %w", q, err)
		}
		r, err := transport.RecvMsg(conn)
		if err != nil {
			return fmt.Errorf("handshake with %d: %w", q, err)
		}
		pVersion := int(r.Uint())
		pEpsSq := r.Int()
		pMinPts := int(r.Uint())
		pMaxCoord := r.Int()
		pEngine := r.String()
		pBatching := r.String()
		pPacking := r.String()
		pPruning := r.String()
		pQuantum := int(r.Uint())
		pParallel := int(r.Uint())
		pM := int(r.Uint())
		pN := int(r.Uint())
		paiB := r.Bytes()
		rsaNB := r.Bytes()
		rsaEB := r.Bytes()
		if r.Err() != nil {
			return r.Err()
		}
		switch {
		case pVersion != meshHandshakeVersion:
			return fmt.Errorf("%w: version %d vs %d with party %d", ErrHandshake, meshHandshakeVersion, pVersion, q)
		case pEpsSq != h.epsSq:
			return fmt.Errorf("%w: Eps² %d vs %d with party %d", ErrHandshake, h.epsSq, pEpsSq, q)
		case pMinPts != h.cfg.MinPts:
			return fmt.Errorf("%w: MinPts with party %d", ErrHandshake, q)
		case pMaxCoord != h.cfg.MaxCoord:
			return fmt.Errorf("%w: MaxCoord with party %d", ErrHandshake, q)
		case pEngine != string(h.cfg.Engine):
			return fmt.Errorf("%w: engine with party %d", ErrHandshake, q)
		case pBatching != string(h.cfg.Batching):
			return fmt.Errorf("%w: batching with party %d", ErrHandshake, q)
		case pPacking != string(h.cfg.Packing):
			return fmt.Errorf("%w: packing with party %d", ErrHandshake, q)
		case pPruning != string(h.cfg.Pruning):
			return fmt.Errorf("%w: pruning with party %d", ErrHandshake, q)
		case pQuantum != h.cfg.PruneQuantum:
			return fmt.Errorf("%w: prune quantum with party %d", ErrHandshake, q)
		case pParallel != h.cfg.Parallel:
			return fmt.Errorf("%w: parallel width with party %d", ErrHandshake, q)
		case pM != h.m:
			return fmt.Errorf("%w: dimension %d vs %d with party %d", ErrHandshake, h.m, pM, q)
		}
		sess := &pairSession{paiKey: paiKey, rsaKey: rsaKey, peerN: pN,
			peerGenCnt: []int{pN}, cache: core.NewCountCache()}
		sess.peerPai, err = paillier.UnmarshalPublicKey(paiB)
		if err != nil {
			return err
		}
		sess.peerRSA, err = yao.UnmarshalRSAPublicKey(rsaNB, rsaEB)
		if err != nil {
			return err
		}
		// Response permutations hide which of our points answered which
		// slot; they come from the session's randomness source (crypto/rand
		// unless a test injects a deterministic reader), never math/rand,
		// whose future output is predictable from observations.
		sess.rng = core.CryptoPerm(h.random)
		if err := h.buildPairEngines(sess); err != nil {
			return err
		}
		if h.pruneOn {
			// Candidate-index exchange, as in the two-party protocol
			// (core.exchangeIndex): padded occupancy directories per pair.
			// The lower-indexed party sends first so large directory frames
			// cannot deadlock a real socket on simultaneous sends.
			dir0, err := h.ownStack.Dir(0)
			if err != nil {
				return err
			}
			msg := dir0.Encode(transport.NewBuilder())
			var ir *transport.Reader
			if p.Index < q {
				if err = transport.SendMsg(conn, msg); err == nil {
					ir, err = transport.RecvMsg(conn)
				}
			} else {
				if ir, err = transport.RecvMsg(conn); err == nil {
					err = transport.SendMsg(conn, msg)
				}
			}
			if err != nil {
				return fmt.Errorf("index exchange with %d: %w", q, err)
			}
			dir, err := spatial.DecodeDirectory(ir, h.m, h.cfg.PruneQuantum)
			if err != nil {
				return fmt.Errorf("index exchange with %d: %w", q, err)
			}
			sess.peerDirs = []spatial.Directory{dir}
		}
		h.sessions[q] = sess
	}
	return nil
}

// buildPairEngines constructs the split-threshold comparators over
// [0, bound+1] (the Less/clamp embedding of a + b ≤ Eps²).
func (h *hState) buildPairEngines(sess *pairSession) error {
	bound := h.bound + 1
	switch h.cfg.Engine {
	case compare.EngineYMPP:
		if bound+2 > yao.MaxDomain {
			return fmt.Errorf("multiparty: comparison domain %d exceeds YMPP limit; use Engine=masked", bound+2)
		}
		sess.cmpA = &compare.YMPPAlice{Key: sess.rsaKey, Max: bound, Random: h.random, Pool: h.cfg.Pool}
		sess.cmpB = &compare.YMPPBob{Pub: sess.peerRSA, Max: bound, Random: h.random}
	case compare.EngineMasked:
		limit := new(big.Int).Lsh(big.NewInt(bound+2), uint(h.cfg.CmpMaskBits))
		if limit.Cmp(sess.paiKey.PlaintextBound()) >= 0 || limit.Cmp(sess.peerPai.PlaintextBound()) >= 0 {
			return fmt.Errorf("multiparty: comparison bound overflows the Paillier plaintext space")
		}
		// The engines count their own comparison traffic: our Alice role
		// sends the request-leg uplink, our Bob role the response-leg
		// replies — under "full" packing the uplink cost depends on the
		// runtime batch content, so only the engine can account for it.
		a := &compare.MaskedAlice{Key: sess.paiKey, Max: bound, Random: h.random, Pool: h.cfg.Pool, Sent: &h.ctsUp}
		b := &compare.MaskedBob{Pub: sess.peerPai, Max: bound, MaskBits: h.cfg.CmpMaskBits, Random: h.random, Pool: h.cfg.Pool, Sent: &h.ctsDown}
		if h.packing() {
			// Our Alice role pairs with the peer's Bob over our key, and
			// vice versa — each endpoint derives both packers from the same
			// (key, bound, maskBits) triple, so they agree by construction.
			ap, err := encoding.NewComparePacker(sess.paiKey.PlaintextBound(), bound, h.cfg.CmpMaskBits)
			if err != nil {
				return fmt.Errorf("multiparty: comparison packer: %w", err)
			}
			bp, err := encoding.NewComparePacker(sess.peerPai.PlaintextBound(), bound, h.cfg.CmpMaskBits)
			if err != nil {
				return fmt.Errorf("multiparty: comparison packer: %w", err)
			}
			a.Packer, b.Packer = ap, bp
			if h.fullPacking() {
				aup, err := encoding.NewUplinkComparePacker(sess.paiKey.PlaintextBound(), bound, h.cfg.CmpMaskBits)
				if err != nil {
					return fmt.Errorf("multiparty: uplink packer: %w", err)
				}
				bup, err := encoding.NewUplinkComparePacker(sess.peerPai.PlaintextBound(), bound, h.cfg.CmpMaskBits)
				if err != nil {
					return fmt.Errorf("multiparty: uplink packer: %w", err)
				}
				a.UplinkPacker, b.UplinkPacker = aup, bup
			}
		}
		sess.cmpA, sess.cmpB = a, b
	default:
		return fmt.Errorf("multiparty: unknown engine %q", h.cfg.Engine)
	}
	if h.packing() {
		// HDP grid packers, one per key direction; slots size for one
		// coordinate product plus a zero-sum mask share.
		maxProduct := h.cfg.MaxCoord * h.cfg.MaxCoord
		mb := h.packedMaskBound()
		peerPk, err := encoding.NewProductPacker(sess.peerPai.PlaintextBound(), maxProduct, mb, h.m)
		if err != nil {
			return fmt.Errorf("multiparty: product packer: %w", err)
		}
		ownPk, err := encoding.NewProductPacker(sess.paiKey.PlaintextBound(), maxProduct, mb, h.m)
		if err != nil {
			return fmt.Errorf("multiparty: product packer: %w", err)
		}
		sess.mpPackPeer, sess.mpPackOwn = peerPk, ownPk
	}
	return nil
}

// packing reports whether any slot packing is on for this session.
func (h *hState) packing() bool {
	return h.cfg.Packing == core.PackSlots || h.cfg.Packing == core.PackFull
}

// fullPacking reports whether the packed comparison uplink is on too.
func (h *hState) fullPacking() bool { return h.cfg.Packing == core.PackFull }

// packedMaskBound is the handshake-derivable zero-sum mask magnitude the
// packed HDP frames use (statistical hiding margin 2^−CmpMaskBits), in
// place of the unpacked path's fixed 2^62 bound, so both endpoints size
// identical slot widths.
func (h *hState) packedMaskBound() *big.Int {
	b := big.NewInt(h.cfg.MaxCoord * h.cfg.MaxCoord)
	return b.Lsh(b, uint(h.cfg.CmpMaskBits))
}

// meshHandshakeVersion guards against protocol drift between binaries;
// version 2 added the Pruning parameters to the pairwise handshake;
// version 3 added the Parallel fan-out width; version 4 added the
// generation watermark on query op frames and the append delta exchange;
// version 5 added the generation tombstone exchange (sliding windows);
// version 6 added the point tombstone exchange (point-level retraction);
// version 7 added the Packing plaintext-encoding parameter (slot-packed
// HDP and comparison frames); version 8 added the packed comparison
// uplink ("full" packing, a per-batch moded wire form) and the
// uplink/downlink ciphertext split; version 9 moved Parallel > 1 mesh
// edges onto W channel-tagged mux channels driven by the shared wave
// scheduler (pipelined per-edge queries, W responder workers).
const meshHandshakeVersion = 9

// Ops on the driver→responder control channel (per peer connection).
const (
	hOpQuery uint64 = 1
	hOpDone  uint64 = 2
)

// drive runs this party's Algorithm 3/4 pass, querying every peer, on
// the shared wave scheduler (core.WaveDrive): each wave decides up to W
// queue items — worker t querying every peer on channel t of its mesh
// edge — and with W > 1 wave k's workers pipeline wave k+1's queries
// while waiting on replies, exactly as in the two-party horizontal
// family. The query multiset, the per-peer counts, and every disclosure
// class are identical at every width; only round trips overlap.
func (h *hState) drive() ([]int, int, error) {
	labels, clusterID, err := core.WaveDrive(len(h.enc), h.cfg.Parallel, h.localRegionQuery,
		func(t, point, ownCount int) (bool, error) {
			remote, err := h.totalCountOn(t, point)
			if err != nil {
				return false, err
			}
			return ownCount+remote >= h.cfg.MinPts, nil
		})
	if err != nil {
		return nil, 0, err
	}
	for q := 0; q < h.party.K; q++ {
		if q == h.party.Index {
			continue
		}
		for _, c := range h.chans[q] {
			if err := transport.SendMsg(c, transport.NewBuilder().PutUint(hOpDone)); err != nil {
				return nil, 0, err
			}
		}
	}
	return labels, clusterID, nil
}

func (h *hState) localRegionQuery(i int) []int {
	var out []int
	for j := range h.enc {
		if fixedpoint.DistSq(h.enc[i], h.enc[j]) <= h.epsSq {
			out = append(out, j)
		}
	}
	return out
}

// totalCountOn sums the query point's neighbours across all peers, on
// worker slot t of every mesh edge. With Config.Parallel > 1 the
// per-peer HDP sub-queries — each a complete two-party exchange on its
// own mesh edge — run concurrently, so one region query costs the
// slowest peer's round trips instead of the sum; the per-peer counts,
// and therefore the total and every disclosure, are unchanged.
func (h *hState) totalCountOn(t, i int) (int, error) {
	h.queries.Add(1)
	if h.cfg.Parallel > 1 {
		counts := make([]int, h.party.K)
		errs := make([]error, h.party.K)
		var wg sync.WaitGroup
		for q := 0; q < h.party.K; q++ {
			if q == h.party.Index {
				continue
			}
			wg.Add(1)
			go func(q int) {
				defer wg.Done()
				counts[q], errs[q] = h.queryPeer(t, q, i)
			}(q)
		}
		wg.Wait()
		total := 0
		for q := 0; q < h.party.K; q++ {
			if errs[q] != nil {
				return 0, fmt.Errorf("querying party %d: %w", q, errs[q])
			}
			total += counts[q]
		}
		return total, nil
	}
	total := 0
	for q := 0; q < h.party.K; q++ {
		if q == h.party.Index {
			continue
		}
		c, err := h.queryPeer(t, q, i)
		if err != nil {
			return 0, fmt.Errorf("querying party %d: %w", q, err)
		}
		total += c
	}
	return total, nil
}

// queryPeer runs one HDP region query against peer q for our point i as
// a sweep of per-generation sub-queries. The cross-run cache answers the
// prefix (from the window's dead boundary up); each uncached generation
// then runs the cryptographic phases on its own, announced as the span
// [g, g+1) on the op frame, and its fresh count is cached as a segment
// aligned with the generation boundary — so an expiry drops exactly the
// dead generations' segments and every survivor stays contiguous from
// the new window edge, where a single suffix-wide segment would straddle
// every expiry boundary and die with it. A fully-cached query, an empty
// generation, or a sub-query whose candidate cells are empty issues no
// frames at all.
func (h *hState) queryPeer(t, q, i int) (int, error) {
	sess := h.sessions[q]
	conn := h.chans[q][t]
	if sess.peerN == 0 {
		return 0, nil
	}
	// Wave workers hit the same peer's cache concurrently — always for
	// distinct own points (each point is queried once per pass), so the
	// lock protects only the map structure, never a cache decision.
	sess.cacheMu.Lock()
	base, fromGen := sess.cache.Covered(i, h.dead)
	sess.cacheMu.Unlock()
	gens := len(sess.peerGenCnt)
	h.cached.Add(int64(sess.peerN - sess.peerSuffix(fromGen)))
	x := h.enc[i]
	count := base
	for g := fromGen; g < gens; g++ {
		fresh := 0
		if sess.peerGenCnt[g] > 0 {
			var err error
			if fresh, err = h.queryGen(sess, conn, x, g, sess.peerGenCnt[g]); err != nil {
				return 0, err
			}
		}
		count += fresh
		sess.cacheMu.Lock()
		sess.cache.Extend(i, g, g+1, fresh)
		sess.cacheMu.Unlock()
	}
	return count, nil
}

// queryGen runs the cryptographic phases of one sub-query over peer q's
// generation g, which holds genCnt points. Under grid pruning it
// announces candidate cells out of the peer's generation-g directory and
// runs over their padded occupancy; an empty candidate set is decided
// locally with no frames.
func (h *hState) queryGen(sess *pairSession, conn transport.Conn, x []int64, g, genCnt int) (int, error) {
	nCand := genCnt
	msg := transport.NewBuilder().PutUint(hOpQuery).PutUint(uint64(g)).PutUint(uint64(g + 1))
	if h.pruneOn {
		cells, total := spatial.CandidatesSpan(sess.peerDirs, g, g+1, spatial.Bucket(x, h.cellW))
		usePrune := total < genCnt
		if usePrune && total == 0 {
			// No candidate cells in this generation: the index already
			// implies zero neighbours here; nothing to announce.
			return 0, nil
		}
		msg.PutBool(usePrune)
		if usePrune {
			nCand = total
			spatial.EncodeCells(msg, cells)
		}
	}
	if err := transport.SendMsg(conn, msg); err != nil {
		return 0, err
	}
	// MP phase: we are the sender (peer receives masked products under its
	// own key). The packed path draws its zero-sum masks from the
	// handshake-derivable bound that sizes the slot width; the unpacked
	// path keeps the legacy 2^62 magnitude.
	maskBound := new(big.Int).Lsh(big.NewInt(1), 62)
	if h.packing() {
		maskBound = h.packedMaskBound()
	}
	vs := make([]*big.Int, 0, nCand*h.m)
	for i := 0; i < nCand; i++ {
		masks, err := mpc.ZeroSumMasks(h.random, h.m, maskBound)
		if err != nil {
			return 0, err
		}
		vs = append(vs, masks...)
	}
	if h.packing() {
		pk := sess.mpPackPeer
		if err := mpc.SenderGridMultiply(conn, sess.peerPai, x, vs, nCand, h.m, pk, h.random, h.cfg.Pool); err != nil {
			return 0, err
		}
		// Masked products answer the responder's encrypted coordinates:
		// response leg.
		h.ctsDown.Add(int64(pk.Groups(nCand) * h.m))
	} else {
		ys := make([]int64, 0, nCand*h.m)
		for i := 0; i < nCand; i++ {
			ys = append(ys, x...)
		}
		if err := mpc.SenderBatchMultiply(conn, sess.peerPai, ys, vs, h.random, h.cfg.Pool); err != nil {
			return 0, err
		}
		h.ctsDown.Add(int64(nCand * h.m))
	}
	// Comparison phase: we hold the left value Σx², identical for every
	// instance of the query — under "full" packing the grouped uplink
	// collapses the batch to one ciphertext (counted by the engine's
	// Sent hook; unpacked and "slots" uplinks stay one per instance).
	var ownSum int64
	for _, v := range x {
		ownSum += v * v
	}
	count := 0
	if h.cfg.Batching == core.BatchModeBatched {
		vs := make([]int64, nCand)
		for t := range vs {
			vs[t] = ownSum
		}
		ins, err := sess.cmpA.BatchLess(conn, vs)
		if err != nil {
			return 0, err
		}
		for _, in := range ins {
			if in {
				count++
			}
		}
		return count, nil
	}
	for t := 0; t < nCand; t++ {
		in, err := sess.cmpA.Less(conn, ownSum)
		if err != nil {
			return 0, err
		}
		if in {
			count++
		}
	}
	return count, nil
}

// respond serves the driving party's pass: one responder worker loops on
// each channel of the edge (core.ServeChannels; the bare edge at W = 1)
// — the driver's wave worker t sends on channel t, so each channel's
// traffic stays strictly sequential. The comparison engines and the
// permutation source are stateless per call over the session's locked
// randomness, so sharing them across responder workers changes only
// which draw lands on which query — permutations hide slot assignment,
// never counts.
func (h *hState) respond(driver int) error {
	sess := h.sessions[driver]
	chans := h.chans[driver]
	return core.ServeChannels(chans, func(t int) error { return h.respondOn(sess, chans[t], driver) })
}

// respondOn serves queries arriving on one worker channel until the
// driver's done op.
func (h *hState) respondOn(sess *pairSession, conn transport.Conn, driver int) error {
	for {
		r, err := transport.RecvMsg(conn)
		if err != nil {
			return err
		}
		op := r.Uint()
		if r.Err() != nil {
			return r.Err()
		}
		switch op {
		case hOpQuery:
			if err := h.serveQuery(sess, conn, r); err != nil {
				return err
			}
		case hOpDone:
			return nil
		default:
			return fmt.Errorf("unexpected op %d from party %d", op, driver)
		}
	}
}

// serveQuery answers one HDP sub-query over our own (permuted) points of
// the generation span [fromGen, toGen) the driver announced — its cache
// already covers everything outside the span. Under grid pruning the op
// frame carries the candidate cells; we serve their real members padded
// with always-out-of-range dummies to the disclosed stacked counts,
// exactly as core.hdpServeCompare.
func (h *hState) serveQuery(sess *pairSession, conn transport.Conn, r *transport.Reader) error {
	fromGen := int(r.Uint())
	toGen := int(r.Uint())
	if r.Err() != nil {
		return r.Err()
	}
	gens := len(h.ownGenStart)
	if fromGen < h.dead || toGen > gens || fromGen >= toGen {
		return fmt.Errorf("multiparty: query span %d..%d of %d generations (%d dead)", fromGen, toGen, gens, h.dead)
	}
	end := len(h.enc)
	if toGen < gens {
		end = h.ownGenStart[toGen]
	}
	pts := h.enc[h.ownGenStart[fromGen]:end]
	nDummy := 0
	if h.pruneOn {
		usePrune := r.Bool()
		if r.Err() != nil {
			return r.Err()
		}
		if usePrune {
			cells, err := spatial.DecodeCells(r, h.m)
			if err != nil {
				return fmt.Errorf("multiparty: query cells: %w", err)
			}
			members, pad, err := h.ownStack.ResolveSpan(fromGen, toGen, cells)
			if err != nil {
				return fmt.Errorf("multiparty: query cells: %w", err)
			}
			pts = make([][]int64, len(members))
			for i, j := range members {
				pts[i] = h.enc[j]
			}
			nDummy = pad
		}
	}
	total := len(pts) + nDummy
	if total == 0 {
		return nil
	}
	perm := sess.rng.Perm(total)
	xs := make([]int64, 0, total*h.m)
	zero := make([]int64, h.m)
	for _, pi := range perm {
		if pi < len(pts) {
			xs = append(xs, pts[pi]...)
		} else {
			xs = append(xs, zero...)
		}
	}
	var us []*big.Int
	var err error
	if h.packing() {
		pk := sess.mpPackOwn
		us, err = mpc.ReceiverGridMultiply(conn, sess.paiKey, xs, total, h.m, pk, h.random, h.cfg.Pool)
		if err != nil {
			return err
		}
		// Our encrypted coordinates open the MP sub-protocol: request leg.
		h.ctsUp.Add(int64(pk.Groups(total) * h.m))
	} else {
		us, err = mpc.ReceiverBatchMultiply(conn, sess.paiKey, xs, h.random, h.cfg.Pool)
		if err != nil {
			return err
		}
		h.ctsUp.Add(int64(total * h.m))
	}
	js := make([]int64, len(perm))
	for i, pi := range perm {
		if pi >= len(pts) {
			js[i] = 0 // dummy: strict Less is false for every driver operand
			continue
		}
		dot := new(big.Int)
		for k := 0; k < h.m; k++ {
			dot.Add(dot, us[i*h.m+k])
		}
		if !dot.IsInt64() {
			return fmt.Errorf("multiparty: hdp dot product overflow")
		}
		var sq int64
		for _, v := range pts[pi] {
			sq += v * v
		}
		peerSum := sq - 2*dot.Int64()
		j := h.epsSq - peerSum + 1
		if j < 0 {
			j = 0
		}
		if maxV := sess.cmpB.Bound(); j > maxV {
			j = maxV
		}
		js[i] = j
	}
	// The masked Bob reply direction is where "slots" packing bites:
	// ⌈n/S⌉ ciphertexts packed, n unpacked — counted by the engine's
	// Sent hook (YMPP sends no Paillier cts).
	if h.cfg.Batching == core.BatchModeBatched {
		_, err := sess.cmpB.BatchLess(conn, js)
		return err
	}
	for _, j := range js {
		if _, err := sess.cmpB.Less(conn, j); err != nil {
			return err
		}
	}
	return nil
}

// NewLocalMesh builds a full in-process mesh for k parties: mesh[p][q] is
// party p's connection to party q.
func NewLocalMesh(k int) [][]transport.Conn {
	mesh := make([][]transport.Conn, k)
	for p := range mesh {
		mesh[p] = make([]transport.Conn, k)
	}
	for p := 0; p < k; p++ {
		for q := p + 1; q < k; q++ {
			a, b := transport.Pipe()
			mesh[p][q] = a
			mesh[q][p] = b
		}
	}
	return mesh
}
