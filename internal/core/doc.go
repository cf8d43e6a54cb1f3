// Package core implements the paper's privacy-preserving distributed
// DBSCAN protocols for two semi-honest parties:
//
//   - Horizontal (§4.2, Algorithms 3–4): each party owns complete records.
//     Distance decisions against the peer's points use HDP — a batched
//     Multiplication Protocol with zero-sum masks followed by one secure
//     comparison against Eps² per pair. Each party labels only its own
//     points, and cluster expansion walks only its own points, exactly as
//     the paper specifies.
//   - Vertical (§4.3, Algorithms 5–6): each party owns all records but a
//     column slice. Both parties run the identical DBSCAN driver in lock
//     step; each pairwise decision is one secure comparison (VDP), and
//     both parties learn the full labelling.
//   - Arbitrary (§4.4): per-cell ownership; pair distances decompose into
//     locally-owned terms plus HDP-style cross terms, then one comparison
//     (ADP). Lock-step driver as in the vertical case.
//   - Enhanced horizontal (§5, Algorithms 7–8): distances to the peer's
//     points are additively secret-shared via the dot-product form of the
//     Multiplication Protocol (u − v = Dist²); a secure selection (O(kn)
//     scan or quickselect) finds the k-th smallest, and a single secure
//     comparison against Eps² decides core-ness, revealing the core bit
//     instead of the neighbour count.
//
// # Layering
//
// The stack splits server lifetime from session lifetime, session
// lifetime from run lifetime, and schedule from protocol:
//
//	┌────────────────────────────────────────────────────────────┐
//	│ serving tier          internal/dispatch: consistent-hash   │
//	│ (ppdbscan dispatch)   routing of session keys across N     │
//	│                       shard processes, load-based          │
//	│                       admission + shedding, health-checked │
//	│                       failover, frame-level splice; fleet  │
//	│                       rollup over every shard's snapshot   │
//	├────────────────────────────────────────────────────────────┤
//	│ session server        core.SessionManager: registry of N   │
//	│ (registry.go)         concurrent sessions (ids, lifecycle  │
//	│                       states, graceful drain, aggregate    │
//	│                       snapshot) sharing one bounded crypto │
//	│                       pool (Config.ServerWorkers); the     │
//	│                       accept loop of `ppdbscan serve`      │
//	├────────────────────────────────────────────────────────────┤
//	│ protocol families     horizontal · enhanced · vertical ·   │
//	│ (hdp/enhanced/        arbitrary (+ multiparty ring/mesh)   │
//	│  vertical/arbitrary)  one Run = one clustering             │
//	├────────────────────────────────────────────────────────────┤
//	│ query scheduler       Config.Parallel: waves of W          │
//	│ (parallel.go,         independent region queries /         │
//	│  lockstep.go)         lockstep pair batches, one worker    │
//	│                       channel each; one driver per         │
//	│                       topology at every W (W=1: bare conn) │
//	├────────────────────────────────────────────────────────────┤
//	│ core.Session          keygen + handshake + grid-index      │
//	│ (sess.go)             exchange once; many Run calls;       │
//	│                       Append absorbs new points (index     │
//	│                       deltas only on the wire) and the     │
//	│                       cross-run comparison cache makes     │
//	│                       re-clustering O(Δ·candidates);       │
//	│                       setup vs per-run Ledger split;       │
//	│                       concurrent-misuse guards             │
//	├────────────────────────────────────────────────────────────┤
//	│ crypto pool           paillier.Pool: bounded worker slots  │
//	│ (internal/paillier)   for all batch encryption/decryption/ │
//	│                       homomorphic arithmetic and YMPP's    │
//	│                       decryption ranges; process-shared    │
//	│                       across sessions, nil = GOMAXPROCS    │
//	├────────────────────────────────────────────────────────────┤
//	│ transport mux         transport.Mux: W channel-tagged      │
//	│ (internal/transport)  logical channels over one Conn,      │
//	│                       under a concurrent-writer-safe Meter;│
//	│                       transport.Listener accepts N conns,  │
//	│                       one per session                      │
//	└────────────────────────────────────────────────────────────┘
//
// Every protocol runs over a transport.Conn; pair the two role functions
// with transport.Run2 for in-process execution or TCP framing for real
// two-process deployments (`ppdbscan serve`/`client` hold a Session over
// TCP). All traffic is attributable to protocol phases via
// transport.Meter tags, which the communication experiments (E3–E5)
// consume. Each result carries a leakage Ledger recording exactly what the
// protocol disclosed beyond its output, mirroring Theorems 9–11; the
// one-time index disclosure of a long-lived session is reported once, via
// Session.SetupLeakage.
//
// # Long-lived sessions and the parallel scheduler
//
// Each topology has one DBSCAN driver, a wave scheduler, at every width
// Config.Parallel = W. WaveDrive, for the horizontal families and the
// mesh, prefetches the remote decisions of up to W seed-queue points
// concurrently (every queued point is queried eventually, so prefetching
// reorders nothing); LockstepCluster, for the lockstep families and the
// ring, claims each still-undecided pair for exactly one of W concurrent
// worker batches. Schedules are pure functions of shared
// protocol state, so jointly-computed oracles stay in lock step; labels,
// Ledgers, and comparison totals are identical at every W (the parallel
// equivalence harness enforces this). At W=1 each wave is one query on
// the unmultiplexed connection, so the frames are those of a plain
// one-query-at-a-time loop (the W=1 wire test pins the per-tag frame
// counts). The win of W > 1 is round-trip overlap — experiment E15
// measures it over a simulated WAN. With Selection=quickselect the
// per-channel permutation streams can shift OrderBits between widths
// (labels and CoreBits are unaffected); the scan default is
// permutation-invariant.
//
// # Concurrent sessions and the shared crypto pool
//
// One server process holds many sessions at once: SessionManager is the
// registry (accept-ordered ids, handshaking → active → closed/failed
// lifecycle, ErrDraining once shutdown starts, a Drain that waits for
// in-flight runs and force-closes hung connections at its timeout, and
// an aggregate ManagerSnapshot over every session's Meter). Sessions
// registered with one manager share exactly one resource — the bounded
// paillier.Pool injected via SessionManager.Configure — and the pool
// schedules only pure big-integer arithmetic, never protocol state, so
// every concurrent session's labels and Ledgers are byte-identical to
// the same run on a solo server. The concurrency-equivalence harness
// (registry_test.go) pins this at C ∈ {2, 4}, and experiment E16
// measures the aggregate-throughput win of concurrency over a simulated
// WAN. Session itself rejects misuse under concurrency: a second Run
// while one is in flight fails with ErrConcurrentRun, and Run after
// Close fails with ErrSessionClosed.
//
// # Sharded serving and the dispatch tier
//
// One process scales up; internal/dispatch scales out. A dispatcher
// fronts N serve processes (shards), each running its own
// SessionManager over its own crypto pool, and routes every inbound
// connection by consistent-hashing its session key onto the shard
// ring — the same key always lands on the same live shard, so
// per-shard cross-run caches stay warm, and shard churn only moves the
// keys that hash onto the changed shard. The dispatcher speaks a small
// control preamble (transport/control.go) before the protocol
// handshake: it reserves an admission slot, dials the shard, forwards
// the client's hello, and then splices frames verbatim in both
// directions — it never parses protocol traffic, which is what makes
// routing protocol-transparent (labels and Ledgers through the
// dispatcher are byte-identical to a direct connection; experiment E22
// pins this for all four families). Admission is load-based: a shard
// at its in-flight cap (or failing pings) is skipped in ring-walk
// order, and only when every shard is exhausted does the client see
// the same typed refusals a solo server issues — ErrServerFull,
// ErrDraining — before any keygen work. Draining the dispatcher drains
// every shard and merges their ManagerSnapshots via MergeSnapshots
// into one fleet rollup. Experiment E22 records the scaling claim:
// with single-slot shards under WAN latency, aggregate runs/sec rises
// strictly with the shard count at fixed total work.
//
// # Round structure and batching
//
// Config.Batching selects between two round structures with identical
// outputs and identical leakage:
//
//   - batched (default): every protocol step whose secure comparisons are
//     mutually independent issues them as one compare.BatchLessEq /
//     BatchLess — three frames per step regardless of how many predicates
//     it settles. An HDP region query costs ≤ 3 hdp.cmp frames instead of
//     3·nPeer; a lockstep neighborhood (vertical/arbitrary, via
//     LockstepCluster) costs a constant number of vdp.cmp/adp.cmp
//     frames instead of 3 per pair; the enhanced selection runs tournament
//     (scan) or per-pivot (quickselect) batches. Underneath, all Paillier
//     work rides the parallel pool (paillier.EncryptBatch/DecryptBatch on
//     the session's paillier.Pool handle — process-shared and bounded on
//     a server, GOMAXPROCS for a solo run), so the round collapse comes
//     with a wall-clock collapse on multi-core hosts.
//   - sequential: the paper-literal schedule — one comparison sub-protocol
//     per candidate pair — retained for A/B measurement (experiment E13).
//
// The equivalence harness (equivalence_test.go) pins the contract: both
// modes produce identical labels, cluster counts, and Ledger entries on
// every protocol family, with strictly fewer frames in batched mode.
//
// # Plaintext packing and the encoding layer
//
// Batching collapses frames; Config.Packing collapses the ciphertexts
// inside them. Under the default "slots" mode (internal/encoding) S
// fixed-point values share one Paillier plaintext, each in a fixed-width
// bit slot: slot width w is sized for the largest value a slot can reach
// after all homomorphic arithmetic plus a per-slot bias and one
// carry-guard bit (2·slotMax < 2^{w−1}), and S = ⌊(|n/2|−1)/w⌋ follows
// from the key's plaintext space — see the encoding package doc for the
// derivation and the no-carry argument. Both parties derive identical
// Packers from handshake-agreed parameters (Packing travels in the
// handshake; a mismatch is ErrHandshake) and the exchanged public keys,
// so the packed layout needs no extra wire state.
//
// Three hot paths run over packed frames, each with its own slot sizing:
//
//   - Masked-product grids (hdp/adp): the responder's per-candidate
//     coordinate products plus zero-sum mask shares ride
//     mpc.SenderGridMultiply/ReceiverGridMultiply (and the scatter forms
//     for the arbitrary family) as ⌈nCand/S⌉·m ciphertexts instead of
//     nCand·m, in both directions.
//   - Dot products (enhanced/vertical): mpc.SenderDotManyPacked packs the
//     per-pair share accumulation, whose small per-slot range gives the
//     largest S.
//   - Masked-comparison replies: the oracle's masked differences return as
//     ⌈n/S⌉ ciphertexts. Under "slots" the querying direction stays
//     unpacked deliberately — each comparison instance needs its own
//     fresh multiplier r_i, and sharing one r across a packed slot group
//     would disclose magnitude ratios between instances.
//
// Packing "full" extends "slots" at the comparison uplink — the one leg
// "slots" leaves per-instance. Packing E(a_i) themselves is impossible
// without weakening the masking (the per-slot multipliers cannot stay
// independent on one packed ciphertext), so "full" shrinks the set of
// uplink base ciphertexts instead, choosing per batch between three
// moded wire forms (internal/compare, full.go): per-instance (the
// slots-equivalent fallback, so full never sends more), grouped (one
// ciphertext per distinct operand value; the responder folds each
// instance from its class representative with a fresh r_i — the HDP
// driver's constant batches collapse to one ciphertext, vertical's
// repeating partial distances group), and derived (zero uplink
// ciphertexts: the responder re-derives each E(a_i) homomorphically
// from ciphertexts it already holds — the enhanced family's selection
// and final comparisons, where the share-phase dot products retain
// exactly those ciphertexts). Derived replies carry signed differences
// with the κ-bit mask folded into the slot, so they ride a wider-slot
// uplink Packer (encoding.NewUplinkComparePacker).
//
// Packing changes the frame layout only: labels, cluster counts, and the
// full disclosure Ledger are byte-identical to Packing "off" (the packing
// equivalence harness pins all four core families plus the multiparty
// ring/mesh, W ∈ {1, 4}, pruning on/off, across Append/Expire/Retract,
// for "slots" and "full" alike), and Result.CiphertextsSent records the
// compression, split into CiphertextsUplink/CiphertextsDownlink —
// experiments E20 ("slots") and E21 ("full") measure the ciphertext and
// bytes-on-wire reduction at production key sizes. "off" (one value per
// ciphertext) is retained for A/B measurement; packing requires the
// batched round structure. The one disclosure "full" adds is batch-
// local: a grouped frame shows the responder which instances of that
// batch share an operand value (the value-equality partition, never the
// values) — see compare/full.go for the leakage note and why it stays
// outside the Ledger.
//
// # Candidate pruning and the grid index
//
// Config.Pruning selects the candidate sets those comparisons run over.
// Under the default grid mode (internal/spatial) each session adds one
// index round after the handshake and the region queries shrink:
//
//   - Index round. Horizontal family: both parties bucket their points
//     into an Eps-width grid and exchange padded occupancy directories —
//     which cells they occupy, with counts rounded up to
//     Config.PruneQuantum (one hdp.idx frame each way). Lockstep family:
//     both parties disclose the per-record cell coordinates of the
//     attributes they own (vdp.idx/adp.idx) and assemble the same full
//     cell matrix.
//   - Pruned region query (hdp). The driver announces the ≤3^d candidate
//     cells adjacent to its query point's cell on the op frame, and the
//     MP + comparison phases run over their padded occupancy only — the
//     responder serves the real members plus always-out-of-range dummies,
//     freshly permuted. When padding would not shrink the candidate set
//     the query falls back to the exhaustive set (flagged on the op
//     frame), so pruning never adds comparisons; empty candidate sets
//     still announce the query so both Ledgers account it. The enhanced
//     protocol prunes its share and selection phases the same way, with
//     dummy shares pinned to the domain bound.
//   - Pruned lockstep pair (vdp/adp). Pairs in non-adjacent cells are
//     decided out of range locally on every participant identically and
//     never reach the oracle.
//
// Cell width is the smallest W with W² ≥ Eps², so within-Eps neighbours
// are always in adjacent cells: pruning removes only comparisons whose
// outcome the index already implies, and labels are byte-identical to the
// exhaustive run — the pruning equivalence harness enforces this together
// with identical non-index Ledger classes. The index disclosure itself is
// first-class Ledger state (IndexCells, IndexPaddedPoints,
// IndexCellCoords, IndexQueryCells, IndexDeltaCells; see Ledger docs for
// the budget semantics), and experiment E14 records the resulting
// secure-comparison reduction (≥3× on clustered data) against the "off"
// baseline.
//
// # Streaming appends and the cross-run comparison cache
//
// A live Session absorbs new points between runs: the initiating party
// calls Append (AppendOwned for the arbitrary family), the serving
// party's AppendSource contributes its own share of the batch, and the
// append exchange ships counts plus — under pruning — one
// spatial.GridDelta per side naming only the index cells the batch
// touched (each append is a new generation of the session's
// spatial.Stack; the delta is recorded in IndexDeltaCells). The data
// itself never crosses the wire.
//
// Re-clustering after an append is incremental because decided
// predicates are immutable — appends only add points, so a pairwise
// within-Eps bit, a region count against a fixed peer prefix, and a true
// core bit (counts are monotone) never change. Each family keeps the
// matching cross-run cache: the lockstep families seed their drivers
// with a PairCache (identical on all sides, since pair bits are public
// to every participant, so oracle batch boundaries stay in lock step);
// the basic horizontal family caches per-point prefix counts and scopes
// each region query to the peer's uncached suffix generations (the
// fromGen watermark on the op frame — the responder serves only those
// generations, padded to their stacked counts); the enhanced family
// skips whole core queries whose cached bit is still valid. Budget
// accounting follows the pruning convention: a cache-served predicate
// still records its decision-level Ledger entries, so an incremental
// run's labels and non-index classes are byte-identical to a fresh
// session over the concatenated data (the incremental-equivalence
// harness pins all four families plus the multiparty ring/mesh at
// W ∈ {1, 4}), while Result.SecureComparisons shrinks toward
// O(Δ·candidates) and Result.CachedComparisons records the reuse —
// experiment E17 measures both against per-stage rebuilds.
//
// # Sliding windows: expiry, tombstones, and cache invalidation
//
// Appends alone grow a session without bound; Session.Expire(gens)
// retires the oldest gens append generations, and
// Session.WindowAppend(batch) is the steady state of a sliding-window
// feed (append one generation, expire the oldest). The point lifecycle
// is: constructed or appended as a generation of the session's
// spatial.Stack → live across any number of runs → tombstoned by an
// expiry → compacted away once part of the dead prefix. Generation
// numbering is absolute for the session's lifetime: wire frames carry
// absolute generation spans, tombstoned generations answer as empty
// husks, and a dead prefix is physically dropped with live indices
// rebased, so a long-lived window stays O(window), not O(stream).
//
// Only the initiating party may expire (ErrExpireRole); the exchange
// ships one spatial.TombstoneDelta each way so both sides agree on
// exactly which prefix died (a disagreement is a loud protocol error,
// not divergence), and the disclosure is first-class setup-Ledger state
// (IndexTombstones, one per expired generation on each side).
//
// Expiry is the one operation that breaks the append-only monotonicity
// the cross-run caches rely on, so each cache invalidates exactly the
// entries an expired point touches: the lockstep PairCache drops every
// pair bit naming an expired record and remaps the survivors onto the
// compacted indices (identically on all participants, keeping the
// seeded drivers in lock step); the basic horizontal family's count
// cache stores per-generation segments — region queries sweep one
// sub-query per live generation so cached segments align with
// generation boundaries — and expiry trims dead and straddling segments
// while the surviving chain keeps serving; the enhanced family's core
// bits are cleared outright (a count that was ≥ MinPts may not be after
// points leave). The windowed-equivalence harness pins the contract:
// after any slide, labels and non-index Ledger classes are
// byte-identical to a fresh session over exactly the window contents,
// and slides cost strictly fewer secure comparisons than per-window
// rebuilds (except the enhanced family, whose cleared cache makes a
// slide cost exactly a rebuild) — experiment E18 measures the
// reduction.
//
// # Retraction: point tombstones, masked slots, and compaction
//
// Expiry forgets whole generations; Session.Retract(ids) withdraws
// individual points from generations still live. The full point
// lifecycle becomes: constructed or appended as a generation slot →
// live across runs → either tombstoned with its whole generation by an
// expiry, or masked individually by a retraction → compacted away once
// its generation's occupancy drops below half (or once the generation
// joins the dead prefix). ids name live points in the caller's current
// compacted numbering — the caller's own rows for the horizontal
// families (the serving side contributes its own ids through
// SetRetractSource), shared record rows for the vertical/arbitrary
// lockstep families. Only the initiating party may call Retract
// (ErrRetractRole); the exchange ships one validated
// spatial.PointTombstone each way, ids are range- and order-checked
// before any frame is sent (a bad argument is a local error, not a
// poisoned session), and the ring/mesh sessions demand id-for-id
// agreement (same ids everywhere on the ring, each mesh party
// retracting its own).
//
// A masked slot is not erased from the disclosed index: the directory
// keeps the padded counts announced at append time, and the slot keeps
// answering region queries as a maximal-distance dummy, so per-query
// wire sizes never change and the peer cannot tell which cells lost
// points — that silence is the privacy property. Compaction below the
// half-occupancy threshold drops masked slots from the local grid and
// rebases the live numbering (subsequent Retract ids address the
// rebased indices), while the disclosed directory still never shrinks.
// Cache invalidation is exact, as for expiry: the lockstep PairCache
// drops pairs naming a retracted record and remaps survivors
// identically on all sides, the basic horizontal count segments are
// re-derived for generations with masked slots, and the enhanced core
// bits are cleared. The retraction-equivalence harness pins the
// contract: post-retraction labels are byte-identical to a fresh
// session over exactly the surviving points, the counting families'
// non-index Ledger classes match a fresh rebuild, and re-clustering
// costs strictly fewer secure comparisons than rebuilding (the
// enhanced family under pruning is the deliberate exception — masked
// dummies keep participating in its selection until compaction, so its
// cost is bounded below by the rebuild's) — experiment E19 measures
// the reduction.
//
// The setup-class Ledger entries that record the streaming lifecycle,
// side by side:
//
//	class             unit                 disclosed by         discloses
//	IndexCells        occupied grid cell   initial exchange     cell coords + padded occupancy
//	IndexDeltaCells   occupied grid cell   Session.Append       delta cells + padded occupancy
//	IndexTombstones   expired generation   Session.Expire       which generations left the window
//	IndexRetractions  retracted point id   Session.Retract      which live records were withdrawn
//
// Tombstones and retractions ride the same generation ledger that keeps
// both parties' caches invalidating in lockstep; neither adds spatial
// information beyond what the append-time directory already disclosed.
package core
