package core

import (
	"fmt"

	"repro/internal/partition"
	"repro/internal/spatial"
	"repro/internal/transport"
)

// VerticalAlice runs the §4.3 protocol (Algorithms 5–6) as Alice, who owns
// the leading attribute columns of every record; attrs is her n×l matrix.
// The peer concurrently runs VerticalBob with the remaining columns. Both
// parties obtain the full labelling of all n records — the protocol's
// defined output (§3.3: for records split between the parties, both learn
// the cluster number).
//
// VDP — the vertically-partitioned distance protocol — needs no
// Multiplication Protocol: each party sums squared differences over its
// own columns and a single secure comparison decides
// PA + PB ≤ Eps² per pair (Theorem 10's only disclosure).
//
// Round structure (Config.Batching): under the default batched mode the
// lockstep driver (LockstepCluster) submits every yet-undecided pair of
// one neighborhood query as a single BatchLess — 3 vdp.cmp frames per
// neighborhood, O(n) round trips for the whole run instead of the
// sequential mode's per-pair O(n²). The per-pair payloads, the decided
// predicates, and the PairDecisions Ledger count are identical in both
// modes. With Config.Parallel = W > 1 the batches of up to W upcoming
// neighborhoods ride separate worker channels concurrently, overlapping
// their round trips with identical decided pairs.
//
// This is the one-shot form; NewVerticalSession establishes a long-lived
// session whose index exchange and keys serve many Run calls.
func VerticalAlice(conn transport.Conn, cfg Config, attrs [][]float64) (*Result, error) {
	return runOneShot(NewVerticalSession(conn, cfg, RoleAlice, attrs))
}

// VerticalBob is Alice's counterpart; see VerticalAlice.
func VerticalBob(conn transport.Conn, cfg Config, attrs [][]float64) (*Result, error) {
	return runOneShot(NewVerticalSession(conn, cfg, RoleBob, attrs))
}

// NewVerticalSession establishes a long-lived §4.3 session: handshake,
// keys, and (under grid pruning) the per-record cell-matrix exchange
// happen once; each Run executes one lockstep clustering.
func NewVerticalSession(conn transport.Conn, cfg Config, role Role, attrs [][]float64) (*Session, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if len(attrs) == 0 {
		return nil, fmt.Errorf("core: vertical protocol requires at least one record")
	}
	enc, err := cfg.encodePoints(attrs)
	if err != nil {
		return nil, err
	}
	ownDim := len(enc[0])
	for i, p := range enc {
		if len(p) != ownDim {
			return nil, fmt.Errorf("core: record %d has %d attributes, want %d", i, len(p), ownDim)
		}
	}
	mux, conns := sessionChannels(conn, cfg.Parallel)
	s, peer, err := newSession(conns[0], cfg, role, "vertical", ownDim, len(enc))
	if err != nil {
		return nil, err
	}
	if peer.Count != len(enc) {
		return nil, fmt.Errorf("%w: record count %d vs %d", ErrHandshake, len(enc), peer.Count)
	}
	if peer.Dim < 1 {
		return nil, fmt.Errorf("%w: peer owns no attributes", ErrHandshake)
	}
	if err := s.setDimension(ownDim + peer.Dim); err != nil {
		return nil, err
	}
	// Grid pruning: both parties disclose per-record cell coordinates over
	// their own columns and assemble the same full cell matrix, so pairs
	// in non-adjacent cells are decided out of range locally — on both
	// sides identically — and never reach the comparison oracle. Pruned
	// pairs keep their PairDecisions budget entry (the index implies the
	// decision; see Ledger docs). The exchange is session-level state:
	// repeated Runs reuse the matrix without disclosing it again, and an
	// Append extends it by the new rows only.
	var cellRows [][]int64
	if s.pruneOn {
		cellRows, err = verticalCellMatrix(conns[0], s, enc, role, peer.Dim)
		if err != nil {
			return nil, err
		}
	}
	vs := &vStream{enc: enc, cellRows: cellRows, peerDim: peer.Dim, batches: []int{len(enc)}, cache: NewPairCache()}
	t := &Session{s: s, peer: peer, mux: mux, conns: conns, proto: "vertical"}
	t.idleCtl, _ = conn.(idleController)
	t.setup = s.takeLedger()
	t.runOnce = func() (*Result, error) { return verticalRunOnce(t, vs) }
	t.appendInit = func(values [][]float64, owners [][]partition.Owner) (bool, error) {
		return verticalAppendInit(t, vs, values, owners)
	}
	t.appendServe = func(r *transport.Reader) error { return verticalAppendServe(t, vs, r) }
	t.expireInit = func(gens int) (bool, error) { return verticalExpireInit(t, vs, gens) }
	t.expireServe = func(r *transport.Reader) error { return verticalExpireServe(t, vs, r) }
	t.retractInit = func(ids []int) (bool, error) { return verticalRetractInit(t, vs, ids) }
	t.retractServe = func(r *transport.Reader) error { return verticalRetractServe(t, vs, r) }
	return t, nil
}

// vStream is the vertical family's mutable session state: the growing
// record matrix (this party's columns), the shared cell matrix under
// pruning, and the cross-run pair-decision cache — pair bits are public
// to both parties (Theorem 10), so both hold identical caches and the
// seeded lockstep drivers stay in lock step. batches records each
// generation's record count (the establishment batch first); expiries
// tombstone the oldest live generations, compact the matrices, and
// remap the cache onto the surviving rows.
type vStream struct {
	enc      [][]int64
	cellRows [][]int64
	peerDim  int
	batches  []int // record count per generation, dead prefix retained
	dead     int   // expired generations
	cache    *PairCache
}

// verticalAppendInit announces this party's columns of the appended
// records and completes the cell-coordinate swap; the record count must
// match on both sides (the records are shared, column-split).
func verticalAppendInit(t *Session, vs *vStream, values [][]float64, owners [][]partition.Owner) (sent bool, err error) {
	s := t.s
	if owners != nil {
		return false, fmt.Errorf("core: vertical protocol takes Append, not AppendOwned")
	}
	batch, err := encodeVBatch(s, values, s.dim-vs.peerDim)
	if err != nil {
		return false, err
	}
	ctrl := t.conns[0]
	setTag(ctrl, "session.op")
	msg := transport.NewBuilder().PutUint(sessOpAppend).PutUint(uint64(len(batch)))
	appendVCoords(s, msg, batch)
	if err := transport.SendMsg(ctrl, msg); err != nil {
		return true, fmt.Errorf("core: session append op: %w", err)
	}
	r, err := transport.RecvMsg(ctrl)
	if err != nil {
		return true, fmt.Errorf("core: session append reply: %w", err)
	}
	peerCount := int(r.Uint())
	if err := r.Err(); err != nil {
		return true, err
	}
	return true, finishVAppend(t, vs, batch, peerCount, r)
}

// verticalAppendServe is the serving side: the source must supply this
// party's columns of exactly the announced records.
func verticalAppendServe(t *Session, vs *vStream, r *transport.Reader) error {
	s := t.s
	peerCount := int(r.Uint())
	if err := r.Err(); err != nil {
		return err
	}
	values, err := t.appendSource()(AppendRequest{PeerCount: peerCount})
	if err != nil {
		return fmt.Errorf("core: append source: %w", err)
	}
	if len(values) != peerCount {
		return fmt.Errorf("core: append source returned %d records, want %d (vertical records are shared)", len(values), peerCount)
	}
	batch, err := encodeVBatch(s, values, s.dim-vs.peerDim)
	if err != nil {
		return err
	}
	ctrl := t.conns[0]
	setTag(ctrl, "session.op")
	msg := transport.NewBuilder().PutUint(uint64(len(batch)))
	appendVCoords(s, msg, batch)
	if err := transport.SendMsg(ctrl, msg); err != nil {
		return fmt.Errorf("core: session append reply: %w", err)
	}
	return finishVAppend(t, vs, batch, peerCount, r)
}

// appendVCoords attaches this party's own-column cell coordinates of the
// appended rows when pruning is on (tagged index disclosure, exactly the
// per-row payload of the construction-time exchange).
func appendVCoords(s *session, msg *transport.Builder, batch [][]int64) {
	if !s.pruneOn {
		return
	}
	rows := make([][]int64, len(batch))
	for i, p := range batch {
		rows[i] = spatial.Bucket(p, s.cellW)
	}
	spatial.EncodeCells(msg, rows)
}

// finishVAppend validates the peer half of the exchange (the already-
// parsed count, and under pruning the peer's cell coordinates of the
// same rows — r is positioned at them) and extends the session state.
func finishVAppend(t *Session, vs *vStream, batch [][]int64, peerCount int, r *transport.Reader) error {
	s := t.s
	if peerCount != len(batch) {
		return fmt.Errorf("core: append count %d vs peer %d (vertical records are shared)", len(batch), peerCount)
	}
	if s.pruneOn {
		peerRows, err := spatial.DecodeCells(r, vs.peerDim)
		if err != nil {
			return fmt.Errorf("core: vdp index delta: %w", err)
		}
		if len(peerRows) != len(batch) {
			return fmt.Errorf("core: vdp index delta has %d rows, want %d", len(peerRows), len(batch))
		}
		s.led(func(l *Ledger) {
			l.IndexCellCoords += len(peerRows) * vs.peerDim
			l.IndexDeltaCells += len(peerRows)
		})
		for i, p := range batch {
			own := spatial.Bucket(p, s.cellW)
			row := make([]int64, 0, len(own)+vs.peerDim)
			if s.role == RoleAlice {
				row = append(append(row, own...), peerRows[i]...)
			} else {
				row = append(append(row, peerRows[i]...), own...)
			}
			vs.cellRows = append(vs.cellRows, row)
		}
	}
	vs.enc = append(vs.enc, batch...)
	vs.batches = append(vs.batches, len(batch))
	return nil
}

// verticalExpireInit is the initiating side of one vertical expiry:
// announce the tombstone and apply it locally. The records are shared,
// so both sides compact the same row prefix.
func verticalExpireInit(t *Session, vs *vStream, gens int) (sent bool, err error) {
	live := len(vs.batches) - vs.dead
	if gens < 1 || gens > live {
		return false, fmt.Errorf("core: expire %d of %d live generations", gens, live)
	}
	ctrl := t.conns[0]
	setTag(ctrl, "session.op")
	msg := transport.NewBuilder().PutUint(sessOpExpire)
	spatial.TombstoneDelta{From: vs.dead, N: gens}.Encode(msg)
	if err := transport.SendMsg(ctrl, msg); err != nil {
		return true, fmt.Errorf("core: session expire op: %w", err)
	}
	finishVExpire(t, vs, gens)
	return true, nil
}

// verticalExpireServe validates the announced tombstone against this
// side's generation ledger and applies it.
func verticalExpireServe(t *Session, vs *vStream, r *transport.Reader) error {
	live := len(vs.batches) - vs.dead
	td, err := spatial.DecodeTombstoneDelta(r, vs.dead, live)
	if err != nil {
		return fmt.Errorf("core: session expire op: %w", err)
	}
	finishVExpire(t, vs, td.N)
	return nil
}

// finishVExpire compacts the expired rows out of the record and cell
// matrices and remaps the pair cache — every bit touching an expired
// record is invalidated; survivors shift onto the compacted indices.
func finishVExpire(t *Session, vs *vStream, gens int) {
	rows := 0
	for g := vs.dead; g < vs.dead+gens; g++ {
		rows += vs.batches[g]
	}
	vs.enc = vs.enc[rows:]
	if vs.cellRows != nil {
		vs.cellRows = vs.cellRows[rows:]
	}
	vs.cache.Expire(rows)
	vs.dead += gens
	t.s.led(func(l *Ledger) { l.IndexTombstones += gens })
}

// verticalRetractInit is the initiating side of one vertical retraction:
// the records are shared (column-split), so the initiator's point
// tombstone binds both sides — no reply is needed, exactly as with
// expiry. Invalid ids fail locally before any frame is sent.
func verticalRetractInit(t *Session, vs *vStream, ids []int) (sent bool, err error) {
	if err := spatial.ValidateRetractIDs(ids, len(vs.enc)); err != nil {
		return false, fmt.Errorf("core: retract: %w", err)
	}
	ctrl := t.conns[0]
	setTag(ctrl, "session.op")
	msg := transport.NewBuilder().PutUint(sessOpRetract)
	spatial.PointTombstone{IDs: ids}.Encode(msg)
	if err := transport.SendMsg(ctrl, msg); err != nil {
		return true, fmt.Errorf("core: session retract op: %w", err)
	}
	finishVRetract(t, vs, ids)
	return true, nil
}

// verticalRetractServe validates the announced tombstone against this
// side's live row count and applies it.
func verticalRetractServe(t *Session, vs *vStream, r *transport.Reader) error {
	tomb, err := spatial.DecodePointTombstone(r, len(vs.enc))
	if err != nil {
		return fmt.Errorf("core: session retract op: %w", err)
	}
	finishVRetract(t, vs, tomb.IDs)
	return nil
}

// finishVRetract compacts the retracted rows out of the record and cell
// matrices, decrements their generations' live counts, and remaps the
// pair cache — every bit touching a retracted record is dropped, the
// survivors shift by rank onto the compacted indices, identically on
// both sides. The Ledger records one IndexRetractions entry per
// retracted record.
func finishVRetract(t *Session, vs *vStream, ids []int) {
	if len(ids) == 0 {
		return
	}
	// Map each retracted row (live numbering concatenates the live
	// generations in order, pre-retraction counts) to its generation,
	// then shrink the affected batches.
	dec := make(map[int]int)
	g, cum := vs.dead, 0
	for _, id := range ids {
		for g < len(vs.batches) && id >= cum+vs.batches[g] {
			cum += vs.batches[g]
			g++
		}
		dec[g]++
	}
	for g, d := range dec {
		vs.batches[g] -= d
	}
	remap := retractRemap(ids)
	out := vs.enc[:0]
	for i, row := range vs.enc {
		if _, ok := remap(i); ok {
			out = append(out, row)
		}
	}
	vs.enc = out
	if vs.cellRows != nil {
		cells := vs.cellRows[:0]
		for i, row := range vs.cellRows {
			if _, ok := remap(i); ok {
				cells = append(cells, row)
			}
		}
		vs.cellRows = cells
	}
	vs.cache.Retract(ids)
	t.s.led(func(l *Ledger) { l.IndexRetractions += len(ids) })
}

// encodeVBatch validates and encodes appended rows of this party's
// columns.
func encodeVBatch(s *session, values [][]float64, ownDim int) ([][]int64, error) {
	batch, err := s.cfg.encodePoints(values)
	if err != nil {
		return nil, err
	}
	for i, p := range batch {
		if len(p) != ownDim {
			return nil, fmt.Errorf("core: appended record %d has %d attributes, want %d", i, len(p), ownDim)
		}
	}
	return batch, nil
}

// verticalRunOnce executes one lockstep clustering over the established
// session state, seeded with the cross-run pair cache: pairs decided in
// earlier runs never reach the comparison oracle again, but still record
// their decision-level budget the first time each run consults them.
func verticalRunOnce(t *Session, vs *vStream) (*Result, error) {
	s := t.s
	role := s.role
	enc := vs.enc
	engA, engB, err := s.distEngines()
	if err != nil {
		return nil, err
	}
	onPruned := func([2]int) { s.led(func(l *Ledger) { l.PairDecisions++ }) }
	onCached := func(pr [2]int, in bool) {
		s.led(func(l *Ledger) { l.PairDecisions++ })
		s.cmpCached.Add(1)
	}
	// Fixed comparison roles for the whole run: Alice always holds the
	// left value (her partial sum PA), Bob the right (Eps² − PB).
	batchOn := func(ch int, pairs [][2]int) ([]bool, error) {
		conn := t.conns[ch]
		setTag(conn, "vdp.cmp")
		s.led(func(l *Ledger) { l.PairDecisions += len(pairs) })
		vals := make([]int64, len(pairs))
		for t, pr := range pairs {
			partial := partialDistSq(enc, pr[0], pr[1])
			if role == RoleAlice {
				vals[t] = partial
			} else {
				vals[t] = s.responderOperand(engB.Bound(), partial)
			}
		}
		if role == RoleAlice {
			return engA.BatchLess(conn, vals)
		}
		return engB.BatchLess(conn, vals)
	}
	if !s.batched() {
		batchOn = PairwiseBatch(func(i, j int) (bool, error) {
			setTag(t.conns[0], "vdp.cmp")
			s.led(func(l *Ledger) { l.PairDecisions++ })
			partial := partialDistSq(enc, i, j)
			if role == RoleAlice {
				return distLessEqDriver(t.conns[0], engA, partial)
			}
			return distLessEqResponder(t.conns[0], engB, s, partial)
		})
	}
	labels, clusters, err := LockstepCluster(len(enc), s.cfg.MinPts, s.parallel(),
		vs.cache, onCached, PrunedLocalDecider(vs.cellRows, onPruned), batchOn)
	if err != nil {
		return nil, err
	}
	return t.result(labels, clusters), nil
}

// partialDistSq sums squared differences over this party's own columns.
func partialDistSq(enc [][]int64, i, j int) int64 {
	var s int64
	for k := range enc[i] {
		d := enc[i][k] - enc[j][k]
		s += d * d
	}
	return s
}
