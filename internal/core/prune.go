package core

import (
	"fmt"

	"repro/internal/partition"
	"repro/internal/spatial"
	"repro/internal/transport"
)

// Grid pruning (Config.Pruning = "grid") — the candidate-index layer.
//
// One index exchange per session replaces the exhaustive candidate sets of
// the secure distance phases:
//
//   - Horizontal family: each party buckets its points into an Eps-width
//     grid and sends the peer a padded occupancy directory (tag hdp.idx).
//     A region query then announces the ≤3^d candidate cells adjacent to
//     the query point's cell, and the MP + comparison phases run over the
//     announced cells' padded occupancy only — real candidates plus
//     always-out-of-range dummy entries, freshly permuted, so per-query
//     batch sizes reveal nothing beyond the directory itself.
//   - Lockstep family (vertical/arbitrary/ring): each party disclosed the
//     per-record cell coordinates of the attributes it owns (tags
//     vdp.idx/adp.idx); every participant assembles the same full cell
//     matrix, and pairs in non-adjacent cells are decided out-of-range
//     locally, never reaching the oracle. Batch boundaries stay identical
//     on all sides because the matrix is shared.
//
// Soundness rests on spatial.CellWidth: within-Eps points are always in
// adjacent cells, so pruning never flips a predicate — it only removes
// cryptographic work whose outcome the index already implies. Every index
// disclosure is accounted in the Ledger's Index* classes; the non-index
// classes keep their decision-level budgets (see Ledger docs).

// swapMsg exchanges one frame with the peer without a simultaneous-send
// deadlock: Alice sends first while Bob receives first, so arbitrarily
// large index frames never block both directions at once (the in-process
// pipe is buffered, a TCP socket is not).
func swapMsg(conn transport.Conn, role Role, msg *transport.Builder) (*transport.Reader, error) {
	if role == RoleAlice {
		if err := transport.SendMsg(conn, msg); err != nil {
			return nil, err
		}
		return transport.RecvMsg(conn)
	}
	r, err := transport.RecvMsg(conn)
	if err != nil {
		return nil, err
	}
	if err := transport.SendMsg(conn, msg); err != nil {
		return nil, err
	}
	return r, nil
}

// exchangeIndex runs the horizontal-family index exchange: both parties
// bucket their construction-time dataset as generation 0 of their
// spatial.Stack, send its padded directory, and record what the peer
// disclosed. Appends extend both sides one generation at a time via
// appendIndexDelta.
func (s *session) exchangeIndex(conn transport.Conn, enc [][]int64) error {
	setTag(conn, "hdp.idx")
	st, err := spatial.NewStack(s.cellW, s.dim, s.cfg.PruneQuantum)
	if err != nil {
		return fmt.Errorf("core: index build: %w", err)
	}
	ownDir, err := st.Append(enc)
	if err != nil {
		return fmt.Errorf("core: index build: %w", err)
	}
	s.ownStack = st
	r, err := swapMsg(conn, s.role, ownDir.Encode(transport.NewBuilder()))
	if err != nil {
		return fmt.Errorf("core: index exchange: %w", err)
	}
	peerDir, err := spatial.DecodeDirectory(r, s.dim, s.cfg.PruneQuantum)
	if err != nil {
		return fmt.Errorf("core: index decode: %w", err)
	}
	s.peerDirs = []spatial.Directory{peerDir}
	s.led(func(l *Ledger) {
		l.IndexCells += len(peerDir.Cells)
		l.IndexPaddedPoints += peerDir.PaddedTotal()
	})
	return nil
}

// appendIndexDelta runs one streaming index round: each party appends its
// batch as the next generation of its own stack and the parties swap
// GridDeltas naming only the touched cells. The received delta extends
// peerDirs; the disclosure is recorded in the delta-index classes.
func (s *session) appendIndexDelta(conn transport.Conn, batch [][]int64) error {
	setTag(conn, "hdp.idx")
	ownDelta, err := s.ownStack.Append(batch)
	if err != nil {
		return fmt.Errorf("core: index delta build: %w", err)
	}
	gen := s.ownStack.Gens()
	msg := spatial.GridDelta{Gen: gen, Dir: ownDelta}.Encode(transport.NewBuilder())
	r, err := swapMsg(conn, s.role, msg)
	if err != nil {
		return fmt.Errorf("core: index delta exchange: %w", err)
	}
	peerDelta, err := spatial.DecodeGridDelta(r, s.dim, s.cfg.PruneQuantum, len(s.peerDirs)+1)
	if err != nil {
		return fmt.Errorf("core: index delta decode: %w", err)
	}
	s.peerDirs = append(s.peerDirs, peerDelta.Dir)
	s.led(func(l *Ledger) {
		l.IndexDeltaCells += len(peerDelta.Dir.Cells)
		l.IndexPaddedPoints += peerDelta.Dir.PaddedTotal()
	})
	return nil
}

// candidateCells is the driver-side half of a pruned query scoped to the
// peer's generations [from, to): their occupied cells adjacent to p's
// cell, plus the stacked padded occupancy total (the exact number of
// MP/comparison instances the query will run). The full index is
// (0, len(peerDirs)); a query whose prefix is answered by the cross-run
// cache starts at the first uncached generation, and the per-generation
// sub-queries of a sliding-window sweep bound both ends so cached
// segments align with generation boundaries.
func (s *session) candidateCells(p []int64, from, to int) (cells [][]int64, total int) {
	return spatial.CandidatesSpan(s.peerDirs, from, to, spatial.Bucket(p, s.cellW))
}

// readQueryCells is the responder-side half: parse an announced candidate
// list, resolve it against our own generations [from, to)
// (spatial.Stack.ResolveSpan does the validation), and return the real
// member points (generation-major) plus how many dummy entries pad the
// batch to the disclosed stacked counts.
func (s *session) readQueryCells(r *transport.Reader, own [][]int64, from, to int) (pts [][]int64, nDummy int, err error) {
	cells, err := spatial.DecodeCells(r, s.dim)
	if err != nil {
		return nil, 0, fmt.Errorf("core: query cells: %w", err)
	}
	members, nDummy, err := s.ownStack.ResolveSpan(from, to, cells)
	if err != nil {
		return nil, 0, fmt.Errorf("core: query cells: %w", err)
	}
	pts = make([][]int64, len(members))
	for i, j := range members {
		pts[i] = own[j]
	}
	s.led(func(l *Ledger) { l.IndexQueryCells += len(cells) })
	return pts, nDummy, nil
}

// readPrunedOp parses the pruning fields a driver appends to a region or
// core query op frame when pruning is on: the exhaustive-fallback flag
// and, for pruned queries, the candidate cells. Returns the candidate
// points plus dummy count — on fallback, the own points of generations
// [from, to) with no dummies. The flag itself is an index signal (it
// tells the responder whether the query's candidate cells cover at least
// the exhaustive span), so it is accounted in IndexQueryCells alongside
// any announced cells.
func (s *session) readPrunedOp(r *transport.Reader, own [][]int64, from, to int) (pts [][]int64, nDummy int, err error) {
	pruned := r.Bool()
	if err := r.Err(); err != nil {
		return nil, 0, err
	}
	s.led(func(l *Ledger) { l.IndexQueryCells++ })
	if !pruned {
		start, err := s.ownStack.GenStart(from)
		if err != nil {
			return nil, 0, fmt.Errorf("core: query watermark: %w", err)
		}
		end, err := s.ownStack.GenStart(to)
		if err != nil {
			return nil, 0, fmt.Errorf("core: query watermark: %w", err)
		}
		return own[start:end], 0, nil
	}
	return s.readQueryCells(r, own, from, to)
}

// ---- Lockstep cell matrices ----

// verticalCellMatrix runs the vertical index exchange: each party
// discloses the cell coordinates of every record over its own columns
// (tag vdp.idx) and both assemble the full per-record cell rows, Alice's
// columns leading — matching the virtual record layout.
func verticalCellMatrix(conn transport.Conn, s *session, enc [][]int64, role Role, peerDim int) ([][]int64, error) {
	setTag(conn, "vdp.idx")
	own := make([][]int64, len(enc))
	for i, p := range enc {
		own[i] = spatial.Bucket(p, s.cellW)
	}
	r, err := swapMsg(conn, role, spatial.EncodeCells(transport.NewBuilder(), own))
	if err != nil {
		return nil, fmt.Errorf("core: vdp index exchange: %w", err)
	}
	peer, err := spatial.DecodeCells(r, peerDim)
	if err != nil {
		return nil, fmt.Errorf("core: vdp index decode: %w", err)
	}
	if len(peer) != len(enc) {
		return nil, fmt.Errorf("core: vdp index has %d rows, want %d", len(peer), len(enc))
	}
	s.led(func(l *Ledger) { l.IndexCellCoords += len(peer) * peerDim })
	full := make([][]int64, len(enc))
	for i := range enc {
		row := make([]int64, 0, len(own[i])+peerDim)
		if role == RoleAlice {
			row = append(append(row, own[i]...), peer[i]...)
		} else {
			row = append(append(row, peer[i]...), own[i]...)
		}
		full[i] = row
	}
	return full, nil
}

// arbitraryCellMatrix runs the arbitrary-partition index exchange: each
// party discloses, in ascending (record, attribute) order, the 1-D cell
// coordinate of every value it owns (tag adp.idx); the public ownership
// matrix routes the received stream into the full per-record cell rows.
func arbitraryCellMatrix(conn transport.Conn, s *session, enc [][]int64, owners [][]partition.Owner, role Role) ([][]int64, error) {
	setTag(conn, "adp.idx")
	mine := partition.Alice
	if role == RoleBob {
		mine = partition.Bob
	}
	var ownCoords []int64
	theirsWant := 0
	for i := range enc {
		for k := range enc[i] {
			if owners[i][k] == mine {
				ownCoords = append(ownCoords, spatial.BucketCoord(enc[i][k], s.cellW))
			} else {
				theirsWant++
			}
		}
	}
	r, err := swapMsg(conn, role, transport.NewBuilder().PutInts(ownCoords))
	if err != nil {
		return nil, fmt.Errorf("core: adp index exchange: %w", err)
	}
	theirs := r.Ints()
	if err := r.Err(); err != nil {
		return nil, err
	}
	if len(theirs) != theirsWant {
		return nil, fmt.Errorf("core: adp index carries %d coordinates, want %d", len(theirs), theirsWant)
	}
	s.led(func(l *Ledger) { l.IndexCellCoords += len(theirs) })
	full := make([][]int64, len(enc))
	oi, ti := 0, 0
	for i := range enc {
		row := make([]int64, len(enc[i]))
		for k := range enc[i] {
			if owners[i][k] == mine {
				row[k] = ownCoords[oi]
				oi++
			} else {
				row[k] = theirs[ti]
				ti++
			}
		}
		full[i] = row
	}
	return full, nil
}

// ---- Pruned lockstep oracles ----

// PrunedLocalDecider adapts a cell matrix to LockstepCluster's local
// decision hook: nil when pruning is off (cellRows == nil), otherwise
// pairs in non-adjacent cells are decided out of range locally, with
// onPruned (when non-nil) running their Ledger budget accounting. Every
// participant decides identically over the shared cell matrix, so batch
// boundaries stay in lock step. The vertical/arbitrary families and the
// multiparty ring all share it, so the pruning contract has one source
// of truth.
func PrunedLocalDecider(cellRows [][]int64, onPruned func(pr [2]int)) func(pr [2]int) (value, decided bool) {
	if cellRows == nil {
		return nil
	}
	return func(pr [2]int) (bool, bool) {
		if spatial.Adjacent(cellRows[pr[0]], cellRows[pr[1]]) {
			return false, false
		}
		if onPruned != nil {
			onPruned(pr)
		}
		return false, true
	}
}
