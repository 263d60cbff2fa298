// Package fleet turns the single-shot IOAgent pipeline into a
// high-throughput batch-diagnosis service — the serving layer the paper's
// production framing ("a tool center operators can point at every job's
// Darshan log") needs but the reference implementation stops short of.
//
// A Pool shards a stream of Darshan traces across a bounded set of
// concurrent workers that share one race-free ioagent.Agent and one
// knowledge index. Diagnosis time is dominated by LLM round trips, not
// local compute, so N workers overlapping their waits yield near-linear
// throughput scaling.
//
// Three layers keep repeated work free and transient failures invisible:
//
//   - a content-addressed result cache: jobs are keyed by a SHA-256 digest
//     of the binary trace plus the pipeline options, held in an LRU with a
//     TTL, so resubmitting an already-diagnosed trace completes instantly;
//   - in-flight coalescing: a submission whose digest matches a job still
//     running attaches to it and shares its result instead of duplicating
//     the pipeline;
//   - per-job retry with exponential backoff around transient llm.Client
//     errors (rate limits, overloads — anything wrapped in
//     llm.TransientError), while permanent errors fail fast.
//
// Pool health is observable through Metrics: lifecycle counters (broken
// down per priority lane), cache hit rate, retries, and p50/p95
// submit-to-completion latency.
//
// # Priority lanes
//
// Every submission enters through one door, SubmitPreparsed (Submit is
// its interactive-lane shorthand), and carries a priority class
// (SubmitOpts.Lane): the interactive lane for latency-sensitive callers
// and the batch lane for bulk sweeps. Each lane has its own bounded queue, so a saturated batch
// lane backpressures batch submitters without blocking interactive ones,
// and workers dequeue with a weighted preference — interactive first,
// except one in every Config.BatchShare picks goes to batch when both
// lanes are waiting. Neither class can starve the other: a batch flood
// cannot delay an interactive job past the work already running, and an
// interactive flood still cedes batch its configured share of slots.
//
// # Persistence hooks
//
// The pool itself is in-memory, but it exposes the hook surface the
// durability layer (internal/fleet/store) builds on: Config.OnJobEvent
// observes job lifecycle transitions with a write-ahead guarantee (the
// submitted event fires before any worker can see the job),
// Config.OnCacheInsert/OnCacheEvict track result-cache membership, and
// CacheExport/CacheRestore move cache contents across process boundaries
// with their TTL clocks intact. The pool never knows whether it is
// persistent; iofleetd wires the hooks when -state-dir is set.
//
// The pool is exposed three ways: cmd/iofleetd serves it over HTTP on the
// versioned wire contract in internal/fleet/api (submit a log on a lane,
// poll status, fetch the diagnosis, scrape /metrics; with -state-dir,
// queued jobs and the cache survive restarts with their lanes intact),
// internal/fleet/client is the Go SDK for that daemon, and cmd/ioagent
// batch-diagnoses many traces at once with its -fleet flag (or remotely
// with -server).
package fleet
