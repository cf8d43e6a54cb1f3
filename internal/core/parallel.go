package core

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/dbscan"
	"repro/internal/transport"
)

// The query scheduler (Config.Parallel = W). Every protocol family runs
// its DBSCAN control flow through one of two wave-based drivers at every
// width: WaveDrive for the horizontal family, the enhanced protocol and
// the multiparty mesh (Algorithms 3–4), and LockstepCluster for the
// vertical/arbitrary families and the multiparty ring (Algorithms 5–6).
// Independent secure sub-protocols — HDP region queries, enhanced core
// queries, lockstep pair batches — are dispatched across W worker
// channels of the session's multiplexed connection and execute
// concurrently, overlapping their round trips. At W = 1 every wave is a
// single job on the bare connection.
//
// Soundness rests on two invariants:
//
//   - Determinism of the schedule. Which queries form a wave, which pairs
//     form a worker's batch, and which channel carries each batch are pure
//     functions of shared protocol state (labels, the pair cache, the
//     queue), never of goroutine timing — so in the jointly-computed
//     families every participant runs the same wave schedule and the
//     worker-channel traffic pairs up exactly.
//   - Query independence. A wave only prefetches work whose execution is
//     already inevitable in the one-query-at-a-time schedule: every point
//     entering Algorithm 4's seed queue is eventually queried exactly
//     once, and a lockstep wave claims each undecided pair for exactly
//     one worker batch. The multiset of executed sub-protocols — and
//     therefore every count-based Ledger class, the comparison totals,
//     and the labels — is identical to the W = 1 schedule; only frame
//     interleaving and the responder's permutation draws differ. The
//     parallel equivalence harness enforces this.
//
// Compute discipline: wave workers are I/O waiters — they MUST all run
// concurrently (each worker channel's traffic pairs with the peer's
// matching worker, so capping wave goroutines below W could deadlock the
// lockstep families) and are therefore never scheduled on the crypto
// pool. The CPU-heavy work inside a wave — batch encryption, decryption,
// homomorphic arithmetic — reaches the pool through the engine and mpc
// handles that carry session.pool: on a multi-session server all W
// workers of all sessions contend for one bounded pool
// (Config.ServerWorkers) instead of fanning out W·GOMAXPROCS goroutines
// per session.

// runWave executes one wave of n jobs concurrently; a single job runs
// inline on the calling goroutine. It returns the first root-cause
// error: when one worker fails and tears the channels down
// (ServeChannels), its siblings fail with induced connection-closed
// errors, so non-ErrClosed errors take precedence.
func runWave(n int, f func(t int) error) error {
	if n <= 0 {
		return nil
	}
	if n == 1 {
		return f(0)
	}
	errs := make([]error, n)
	var wg sync.WaitGroup
	for t := 0; t < n; t++ {
		wg.Add(1)
		go func(t int) {
			defer wg.Done()
			errs[t] = f(t)
		}(t)
	}
	wg.Wait()
	var closed error
	for _, err := range errs {
		if err == nil {
			continue
		}
		if errors.Is(err, transport.ErrClosed) {
			if closed == nil {
				closed = err
			}
			continue
		}
		return err
	}
	return closed
}

// WaveDrive runs a full Algorithm 3/4 driving pass over n own points
// with the wave scheduler — the one driving pass of the horizontal
// family, the enhanced protocol, and the multiparty mesh, at every
// width. The cluster-seed decision runs alone (its successor is unknown
// until it settles), then each expansion round takes up to `workers`
// queue items — all of which Algorithm 4 queries anyway — and decides
// them concurrently, one worker slot each. Queue pops, label writes, and
// appends happen in Algorithm 4's order, so labels match at every
// width; at workers = 1 each round is one query, decided inline. decide
// answers the remote half of one core decision on worker slot w (the
// two-party family maps a slot to one session channel; the multiparty
// mesh maps it to channel w of every mesh edge).
func WaveDrive(n, workers int, localRQ func(int) []int, decide func(worker, point, ownCount int) (bool, error)) ([]int, int, error) {
	labels := make([]int, n)
	for i := range labels {
		labels[i] = dbscan.Unclassified
	}
	clusterID := 0
	for i := 0; i < n; i++ {
		if labels[i] != dbscan.Unclassified {
			continue
		}
		expanded, err := waveExpand(workers, localRQ, decide, i, clusterID+1, labels)
		if err != nil {
			return nil, 0, err
		}
		if expanded {
			clusterID++
		}
	}
	return labels, clusterID, nil
}

// waveExpand is Algorithm 4's expansion with wave prefetch, plus
// wave pipelining for W > 1: while wave k's workers wait on their
// replies, the same goroutines issue the uplinks of wave k+1's queries.
// The pipelined queries are sound for the same reason the wave itself
// is: after wave k is popped, the head of the remaining queue is a
// prefix of wave k+1 no matter what wave k decides — Algorithm 4
// queries every queued point exactly once, label state never cancels a
// queued query, and discoveries only append. Core-ness depends only on
// the point and its local neighbour count, so a prefetched decision
// equals the one an unpipelined wave would make; its labels are applied
// in queue order on the next iteration. The query multiset, comparison
// counts, and every Ledger class are unchanged — only round trips
// overlap. At W = 1 nothing is pipelined: each query's frames complete
// before the next query's begin.
func waveExpand(workers int, localRQ func(int) []int, decide func(worker, point, ownCount int) (bool, error), point, clusterID int, labels []int) (bool, error) {
	seeds := localRQ(point)
	core, err := decide(0, point, len(seeds))
	if err != nil {
		return false, err
	}
	if !core {
		labels[point] = dbscan.Noise
		return false, nil
	}
	for _, sd := range seeds {
		labels[sd] = clusterID
	}
	queue := make([]int, 0, len(seeds))
	for _, sd := range seeds {
		if sd != point {
			queue = append(queue, sd)
		}
	}
	// pre buffers decisions pipelined by the previous wave for the current
	// queue head, in queue order: pre[i] decided what is now queue[i].
	type preDecision struct {
		pt   int
		rqs  []int
		core bool
	}
	var pre []preDecision
	for len(queue) > 0 {
		w := workers
		if w > len(queue) {
			w = len(queue)
		}
		wave := queue[:w:w]
		queue = queue[w:]
		rqs := make([][]int, w)
		cores := make([]bool, w)
		fresh := make([]bool, w) // wave[t] still needs a live query
		for t, pt := range wave {
			if len(pre) > 0 && pre[0].pt == pt {
				rqs[t], cores[t] = pre[0].rqs, pre[0].core
				pre = pre[1:]
			} else {
				rqs[t] = localRQ(pt)
				fresh[t] = true
			}
		}
		// Pipelined prefix of wave k+1. Non-empty only when w == workers
		// (otherwise the queue just drained), so nxt[t] always has a
		// same-index worker below.
		var nxt []int
		var nxtRqs [][]int
		if workers > 1 && len(queue) > 0 {
			k := workers
			if k > len(queue) {
				k = len(queue)
			}
			nxt = queue[:k:k]
			nxtRqs = make([][]int, k)
			for t, pt := range nxt {
				nxtRqs[t] = localRQ(pt)
			}
		}
		nxtCores := make([]bool, len(nxt))
		if err := runWave(w, func(t int) error {
			if fresh[t] {
				c, err := decide(t, wave[t], len(rqs[t]))
				if err != nil {
					return err
				}
				cores[t] = c
			}
			if t < len(nxt) {
				c, err := decide(t, nxt[t], len(nxtRqs[t]))
				if err != nil {
					return err
				}
				nxtCores[t] = c
			}
			return nil
		}); err != nil {
			return false, err
		}
		for t, pt := range nxt {
			pre = append(pre, preDecision{pt: pt, rqs: nxtRqs[t], core: nxtCores[t]})
		}
		for t := range wave {
			if !cores[t] {
				continue
			}
			for _, r := range rqs[t] {
				if labels[r] == dbscan.Unclassified || labels[r] == dbscan.Noise {
					if labels[r] == dbscan.Unclassified {
						queue = append(queue, r)
					}
					labels[r] = clusterID
				}
			}
		}
	}
	return true, nil
}

// serveFn answers one already-parsed op frame on a responder worker
// channel; rng is the worker's permutation source.
type serveFn func(conn transport.Conn, rng permSource, op uint64, r *transport.Reader) error

// ServeChannels runs one responder worker per channel concurrently —
// inline for a single channel — with serve(t) handling channel t until
// the driver's done op. On a worker error every channel is closed so
// siblings blocked in Recv unwind instead of deadlocking, and the
// root-cause error wins over the induced connection-closed ones. The
// two-party horizontal responder and the multiparty mesh responder both
// run on it.
func ServeChannels(conns []transport.Conn, serve func(t int) error) error {
	var closeOnce sync.Once
	return runWave(len(conns), func(t int) error {
		err := serve(t)
		if err != nil {
			closeOnce.Do(func() {
				for _, c := range conns {
					c.Close()
				}
			})
		}
		return err
	})
}

// parallelServe runs one responder worker per channel (ServeChannels),
// each answering op frames with its own permutation source until its
// channel's opDone.
func parallelServe(s *session, conns []transport.Conn, opTag string, serve serveFn) error {
	return ServeChannels(conns, func(w int) error {
		rng, err := s.channelRng(w)
		if err != nil {
			return err
		}
		conn := conns[w]
		for {
			setTag(conn, opTag)
			r, err := transport.RecvMsg(conn)
			if err != nil {
				return fmt.Errorf("core: responder recv op: %w", err)
			}
			op := r.Uint()
			if r.Err() != nil {
				return r.Err()
			}
			if op == opDone {
				return nil
			}
			if err := serve(conn, rng, op, r); err != nil {
				return err
			}
		}
	})
}

// sendDoneAll releases every responder worker at the end of a driving
// pass.
func sendDoneAll(conns []transport.Conn, tag string) error {
	for _, c := range conns {
		setTag(c, tag)
		if err := transport.SendMsg(c, transport.NewBuilder().PutUint(opDone)); err != nil {
			return err
		}
	}
	return nil
}
