// Package store makes fleet state durable: a restarted iofleetd resumes
// the jobs it had accepted and keeps serving every diagnosis it had already
// computed. Without it, the pool in internal/fleet is purely in-memory — a
// redeploy or crash forfeits the queue and the content-addressed result
// cache, which is also the blocker for the ROADMAP's multi-node fleet (a
// router can only rebalance digests whose results survive a node bounce).
//
// Five files and one directory live in the state directory, on two
// primitives — one record log (recordlog.go: open and repair, append,
// atomic rewrite, sync-and-close) and one versioned atomic-snapshot
// read/write pair (snapshot.go) — which hold every file operation of the
// package:
//
//   - journal.wal — the job journal, a record log. Every submission bound
//     for a worker is appended (with its full encoded trace) before any
//     worker can see it, and a terminal record covers it when it finishes;
//     upload sessions and tenant SLO classes are journaled the same way.
//     On boot, uncovered submissions are replayed into the pool. Each
//     checkpoint compacts the journal down to the still-pending records.
//   - snapshot.json — the result cache, a snapshot: each entry is (digest,
//     canonical report text, insertion time). Parsed reports are
//     reconstructed on load and TTL clocks resume where they left off.
//     Written at a configurable cadence and once more when the pool drains.
//   - semindex.json — the similarity index (feature text per cached
//     digest), a snapshot written beside snapshot.json.
//   - knowledge.wal, knowledge.json — the knowledge plane's mutation log
//     and corpus snapshot (KnowledgeStore), a record log and a snapshot.
//   - uploads/ — the spool of half-received streaming uploads; the bytes
//     belong to internal/fleet/ingest, the sessions to journal.wal.
//
// A record is durable once its newline is in the log. A torn or corrupt
// log tail — the expected wreckage of a crash mid-append — is detected,
// logged and truncated rather than aborting recovery; snapshots and log
// rewrites replace their file by rename, and the temp file of one
// interrupted by a kill is deleted by the next open.
//
// The Store never touches pool internals: it observes the pool through the
// fleet.Config hooks (OnJobEvent, OnCacheInsert, OnCacheEvict) and reads
// the cache through Pool.CacheExport, so the pool stays oblivious to
// whether it is persistent. Crash semantics by failure mode:
//
//   - SIGTERM (clean drain): queued jobs finish, a final checkpoint runs —
//     nothing is lost and the journal is left holding nothing.
//   - SIGKILL / panic: queued and running jobs replay on the next boot
//     (at-least-once; the content-addressed cache deduplicates re-run
//     work), and the cache is served from the last snapshot.
//   - Power loss: as SIGKILL under FsyncAlways; under FsyncBatch or
//     FsyncOff, records still in the page cache may be lost or torn, and
//     the torn tail is repaired on recovery.
package store
