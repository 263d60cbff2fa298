package fleet

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"sync"
	"time"

	"ioagent/internal/darshan"
	"ioagent/internal/fleet/api"
	"ioagent/internal/fleet/knowledge"
	"ioagent/internal/fleet/sched"
	"ioagent/internal/fleet/semcache"
	"ioagent/internal/ioagent"
	"ioagent/internal/llm"
)

// ErrClosed is returned by Submit after Close.
var ErrClosed = errors.New("fleet: pool is closed")

// ErrBreakerOpen marks a job failed fast because the pool's circuit
// breaker is open: the LLM backend has produced Config.BreakerThreshold
// consecutive transient failures and new attempts are refused until a
// half-open probe succeeds. The work was not attempted; resubmitting the
// same trace later is safe and idempotent.
var ErrBreakerOpen = errors.New("fleet: circuit breaker open (llm backend marked down)")

// ErrTenantQuota is returned by Submit when the submitting tenant already
// has Config.TenantMaxInflight jobs in the system (accepted and not yet
// terminal). The submission was not accepted; retrying later — once some
// of the tenant's jobs finish — is safe.
var ErrTenantQuota = errors.New("fleet: tenant in-flight quota exceeded")

// ErrSLOExceeded is returned by Submit when SLO admission control
// (Config.SLOAdmission) projects that the submitting tenant's queue age
// would exceed its class target — the job would rot in queue past its
// SLO, so it is refused up front instead. Like the quota it is checked
// before the job exists (and before the cache is consulted), costs
// nothing, and is safe to retry once the tenant's backlog drains.
var ErrSLOExceeded = errors.New("fleet: tenant SLO admission refused")

// EventKind names a job lifecycle transition observed through
// Config.OnJobEvent.
type EventKind string

const (
	// EventSubmitted fires exactly once per accepted submission, at submit
	// time. The embedded JobInfo reflects the submit outcome: a cache hit
	// is already StatusDone, a coalesced duplicate has CacheHit set, and a
	// job bound for a worker is StatusQueued with CacheHit unset.
	EventSubmitted EventKind = "submitted"
	// EventDone / EventFailed fire exactly once for every job that was not
	// already terminal at submit time, after the pipeline (or the primary
	// it coalesced onto) finishes.
	EventDone   EventKind = "done"
	EventFailed EventKind = "failed"
)

// Event is one job lifecycle notification.
type Event struct {
	Kind EventKind
	Job  JobInfo
	// Log is the submitted trace; non-nil only for the EventSubmitted of a
	// job bound for a worker (a cache hit and a coalesced duplicate hold no
	// log — theirs may never have been decoded). The pool still owns it —
	// observers must not mutate it.
	Log *darshan.Log
}

// Status is a job's lifecycle state.
type Status string

const (
	StatusQueued  Status = "queued"
	StatusRunning Status = "running"
	StatusDone    Status = "done"
	StatusFailed  Status = "failed"
)

// Lane is a submission priority class. The pool keeps one bounded
// scheduler lane per Lane (per-tenant fair queues inside it — see
// internal/fleet/sched) and dequeues with a weighted preference for
// LaneInteractive, so a saturating batch workload cannot starve
// interactive submissions — while batch still holds a guaranteed share
// of worker slots (see Config.BatchShare). The string values match the
// wire vocabulary in internal/fleet/api.
type Lane string

const (
	// LaneInteractive is the low-latency lane; it is the default for
	// Submit and for a zero SubmitOpts.
	LaneInteractive Lane = "interactive"
	// LaneBatch is the bulk, throughput-bound lane.
	LaneBatch Lane = "batch"
)

// Lanes lists every lane in dequeue-preference order.
var Lanes = []Lane{LaneInteractive, LaneBatch}

// withDefault maps the empty lane to LaneInteractive.
func (l Lane) withDefault() Lane {
	if l == "" {
		return LaneInteractive
	}
	return l
}

// Valid reports whether l names a known lane.
func (l Lane) Valid() bool { return l == LaneInteractive || l == LaneBatch }

// SubmitOpts carries per-submission options for SubmitWith. The zero
// value matches Submit: interactive lane, no tenant.
type SubmitOpts struct {
	// Lane selects the priority class; empty means LaneInteractive.
	Lane Lane
	// Tenant names the submitting tenant for accounting (per-tenant job
	// counts in Metrics). It never contributes to the trace digest:
	// identical traces from different tenants share one cached diagnosis.
	Tenant string
}

// Config tunes a Pool. The zero value gives a production-plausible setup:
// 4 workers, a 1024-entry cache with a 1-hour TTL, and 3 attempts per job
// with exponential backoff starting at 50ms.
type Config struct {
	// NodeID, when set, prefixes every job ID ("<node>-job-000001" instead
	// of "job-000001") so IDs stay unique — and routable back to their
	// node — across a multi-node fleet. Single pools can leave it empty.
	NodeID string
	// Workers is the number of concurrent diagnosis workers (default 4).
	Workers int
	// QueueDepth bounds the number of jobs waiting for a worker; a full
	// queue applies backpressure by blocking Submit (default 8*Workers).
	QueueDepth int
	// CacheSize is the LRU capacity of the result cache in entries
	// (default 1024; negative disables caching).
	CacheSize int
	// CacheTTL is how long a cached diagnosis stays valid (default 1h;
	// negative means entries never expire).
	CacheTTL time.Duration
	// MaxAttempts is the total number of diagnosis attempts per job,
	// retrying only transient llm.Client errors (default 3).
	MaxAttempts int
	// MaxJobHistory bounds the job registry: once it is exceeded, the
	// oldest completed jobs are pruned and forgotten by Job/Jobs lookups,
	// keeping a long-lived daemon's memory flat (default 4096; negative
	// retains every job forever).
	MaxJobHistory int
	// RetryDelay is the backoff before the first retry; it doubles on
	// each subsequent attempt (default 50ms).
	RetryDelay time.Duration
	// BatchShare sets the batch lane's guaranteed slice of worker
	// dequeues: when both lanes have waiting jobs, one in every
	// BatchShare dequeues prefers batch and the rest prefer interactive
	// (default 4, i.e. batch keeps >=25% of slots under an interactive
	// flood). Negative gives strict interactive priority: batch runs
	// only while the interactive lane is empty. The minimum meaningful
	// share is 2 — a value of 1 would prefer batch on every dequeue and
	// invert the anti-starvation guarantee, so it is clamped to 2.
	// This cross-lane weighting is layered ABOVE the per-tenant DRR:
	// BatchShare decides which lane the next worker slot goes to, the
	// scheduler's deficit round robin decides which tenant inside that
	// lane gets it.
	BatchShare int
	// BreakerThreshold enables the pool's circuit breaker: after this
	// many consecutive transient LLM failures (pool-wide, across jobs)
	// new attempts fail fast with ErrBreakerOpen instead of hammering a
	// down backend, until a half-open probe succeeds. Zero or negative
	// disables the breaker (the default — single-shot tools don't want
	// cross-job failure coupling; long-lived daemons do, see iofleetd
	// -breaker).
	BreakerThreshold int
	// BreakerCooldown is how long an open breaker refuses work before
	// admitting a half-open probe (default 5s when the breaker is on).
	BreakerCooldown time.Duration
	// TenantMaxInflight caps how many jobs one tenant may have in the
	// system at once (accepted and not yet terminal; cache hits complete
	// instantly and never count against a later submission). Beyond the
	// cap Submit returns ErrTenantQuota. Zero or negative disables the
	// quota (the default). Anonymous submissions (no tenant) are never
	// quota'd — there is no principal to charge.
	TenantMaxInflight int

	// TenantWeights maps tenant to an explicit dequeue weight for the
	// per-tenant deficit-round-robin inside each lane, overriding the
	// tenant's SLO-class weight. Over any busy interval a tenant's
	// share of worker dequeues converges to its weight over the sum of
	// the active tenants' weights; unlisted, classless tenants (and
	// anonymous submissions) weigh 1.
	TenantWeights map[string]int
	// TenantClasses maps tenant to an SLO class name from
	// sched.BuiltinClasses — gold (weight 8, 2s queue-age target),
	// silver (4, 10s), bronze (1, 60s). The class supplies both the DRR
	// weight (unless TenantWeights overrides it) and the queue-age
	// target SLOAdmission enforces. Assignments can change at runtime
	// via SetTenantClass; an unknown class name here panics in New —
	// validate operator input before building the pool.
	TenantClasses map[string]string
	// SLOAdmission enables admission control: a submission whose
	// projected queue age exceeds its tenant's class target is refused
	// with ErrSLOExceeded instead of admitted to rot in queue. Tenants
	// without a class are never refused. The projection is an estimate
	// from the lane's measured drain rate and the tenant's fair share —
	// it bounds expected queue age, it does not guarantee it.
	SLOAdmission bool
	// SchedFIFO disables per-tenant fairness and drains each lane in
	// strict arrival order — the pre-DRR behavior. It exists as the
	// measurable baseline for cmd/fairbench; production daemons should
	// leave it off.
	SchedFIFO bool

	// Agent configures the diagnosis pipeline shared by all workers.
	Agent ioagent.Options

	// SemCache enables semantic result reuse: cache misses consult a
	// similarity index of already-diagnosed traces, and a near-duplicate
	// whose cached diagnosis passes the confidence gate is served without
	// a fresh LLM diagnosis (the job is stamped similarity_hit with the
	// source digest and blended confidence). See internal/fleet/semcache.
	SemCache bool
	// SimThreshold is the minimum feature-vector cosine similarity for a
	// candidate to even reach the gate (default 0.85). The prefilter runs
	// before any LLM call, so raising it only makes reuse rarer, never
	// more expensive.
	SimThreshold float64
	// GateModel is the LLM judge model for the reuse gate (default
	// gpt-4o-mini-sim — the gate also leans on label agreement and vector
	// similarity, so a cheap judge suffices).
	GateModel string
	// GateThreshold is the minimum blended confidence to allow reuse
	// (default semcache.DefaultGateThreshold).
	GateThreshold float64
	// SemCacheSize bounds the similarity index in entries (default:
	// CacheSize, so the index never outgrows the result cache it mirrors;
	// negative disables bounding).
	SemCacheSize int

	// TierModels, when non-empty, replaces the single-model diagnosis
	// with a cost-aware ladder: models are tried cheapest-first and a low
	// self-scored confidence escalates to the next tier, so easy traces
	// never pay frontier-model prices. The ladder is a serving strategy,
	// not a different pipeline: result digests stay keyed by Agent's
	// configured options, so tiered and untiered pools address the same
	// cache entries.
	TierModels []string
	// TierThreshold is the minimum confidence at which a cheaper tier's
	// diagnosis is accepted without escalating (default 0.60).
	TierThreshold float64
	// TierBudgetUSD, when positive, caps lifetime LLM spend attributable
	// to this pool (agents + gate); once reached, escalation stops and
	// every miss runs only the cheapest tier.
	TierBudgetUSD float64

	// Knowledge, when set, routes every agent's retrieval stage through
	// the fleet knowledge plane (epoch-versioned corpus, optional ring
	// sharding and ANN search) instead of the embedded index. The plane is
	// caller-owned: the pool never mutates it, and several pools may share
	// one. Note the corpus epoch does NOT contribute to result digests —
	// see Digest — so operators who swap epochs and need fresh diagnoses
	// for already-cached traces should run with a bounded CacheTTL.
	Knowledge *knowledge.Plane

	// OnJobEvent, if set, observes job lifecycle transitions (see
	// EventKind for the exact contract). It is called synchronously from
	// Submit and from worker goroutines — for any one job, EventSubmitted
	// strictly precedes its terminal event — so a slow hook (e.g. an
	// fsync-per-append journal) backpressures the pool. The hook must not
	// call back into the Pool.
	OnJobEvent func(Event)
	// OnCacheInsert / OnCacheEvict, if set, observe result-cache
	// membership changes (insertions, LRU evictions, TTL expiries). They
	// exist for persistence-layer dirty tracking: treat them as
	// "membership changed" signals, not as an ordered replayable log.
	// Like OnJobEvent they must not call back into the Pool: a TTL
	// expiry can fire OnCacheEvict from inside Submit's cache lookup,
	// where pool-internal locks are held.
	OnCacheInsert func(digest string)
	OnCacheEvict  func(digest string)

	// Test hooks: clock for cache TTL, sleeper for retry backoff.
	now   func() time.Time
	sleep func(time.Duration)
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = 4
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 8 * c.Workers
	}
	if c.CacheSize == 0 {
		c.CacheSize = 1024
	}
	if c.CacheTTL == 0 {
		c.CacheTTL = time.Hour
	}
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 3
	}
	if c.MaxJobHistory == 0 {
		c.MaxJobHistory = 4096
	}
	if c.RetryDelay <= 0 {
		c.RetryDelay = 50 * time.Millisecond
	}
	if c.BatchShare == 0 {
		c.BatchShare = 4
	}
	if c.BatchShare == 1 {
		c.BatchShare = 2
	}
	if c.BreakerThreshold > 0 && c.BreakerCooldown <= 0 {
		c.BreakerCooldown = 5 * time.Second
	}
	c.Agent = c.Agent.WithDefaults()
	if c.SemCache {
		if c.SimThreshold <= 0 {
			c.SimThreshold = 0.85
		}
		if c.GateModel == "" {
			c.GateModel = llm.GPT4oMini
		}
		if c.GateThreshold <= 0 {
			c.GateThreshold = semcache.DefaultGateThreshold
		}
		if c.SemCacheSize == 0 {
			c.SemCacheSize = c.CacheSize
		}
	}
	if len(c.TierModels) > 0 && c.TierThreshold <= 0 {
		c.TierThreshold = 0.60
	}
	if c.now == nil {
		c.now = time.Now
	}
	if c.sleep == nil {
		c.sleep = time.Sleep
	}
	return c
}

// Digest content-addresses a diagnosis: the hash covers the trace's
// canonical content digest (darshan.ContentDigest — identical for the
// binary and text renderings of one trace) plus every scalar option that
// changes the pipeline's output, so within one corpus equal digests are
// interchangeable diagnoses and the cache can serve one for the other.
// The knowledge index itself is NOT hashed — a pool has exactly one, so
// its per-pool cache is consistent; sharing digests across pools (or
// processes) is only sound when they retrieve from the same corpus.
//
// The two-layer construction (options hashed over the content digest,
// not over the raw encoding) is what lets the streaming ingest layer
// hand the pool a trace it already hashed while the bytes were arriving:
// SubmitPreparsed combines the precomputed content digest with the
// pool's options without re-encoding the log.
func Digest(opts ioagent.Options, log *darshan.Log) (string, error) {
	cd, err := darshan.ContentDigest(log)
	if err != nil {
		return "", fmt.Errorf("fleet: digest: %w", err)
	}
	return digestWith(opts, cd), nil
}

// digestWith derives the diagnosis digest from an already-computed
// canonical content digest.
func digestWith(opts ioagent.Options, contentDigest string) string {
	opts = opts.WithDefaults()
	h := sha256.New()
	fmt.Fprintf(h, "model=%s cheap=%s topk=%d norag=%t noreflect=%t oneshot=%t\n",
		opts.Model, opts.CheapModel, opts.TopK,
		opts.DisableRAG, opts.DisableReflection, opts.UseOneShotMerge)
	fmt.Fprintf(h, "content=%s\n", contentDigest)
	return hex.EncodeToString(h.Sum(nil))
}

// JobInfo is an externally-visible job snapshot (served as JSON by
// iofleetd).
type JobInfo struct {
	ID       string `json:"id"`
	Digest   string `json:"digest"`
	Status   Status `json:"status"`
	Lane     Lane   `json:"lane"`
	Tenant   string `json:"tenant,omitempty"`
	CacheHit bool   `json:"cache_hit"`
	// SimilarityHit marks a diagnosis served by semantic reuse: the text
	// is another trace's cached diagnosis (SourceDigest) that passed the
	// confidence gate at the stamped Confidence. Mutually exclusive with
	// CacheHit, which remains exact-digest reuse.
	SimilarityHit bool    `json:"similarity_hit,omitempty"`
	SourceDigest  string  `json:"source_digest,omitempty"`
	Confidence    float64 `json:"confidence,omitempty"`
	Attempts      int     `json:"attempts"`
	Error         string  `json:"error,omitempty"`

	SubmittedAt time.Time `json:"submitted_at"`
	StartedAt   time.Time `json:"started_at,omitzero"`
	FinishedAt  time.Time `json:"finished_at,omitzero"`
}

// Job tracks one submitted trace through the pipeline.
type Job struct {
	id     string
	digest string
	lane   Lane
	tenant string
	done   chan struct{}

	mu        sync.Mutex
	log       *darshan.Log // the primary's trace, released once it completes; hits and followers hold none
	status    Status
	cacheHit  bool
	simHit    bool
	srcDigest string
	conf      float64
	attempts  int
	submitted time.Time
	started   time.Time
	finished  time.Time
	result    *ioagent.Result
	err       error
}

// ID returns the pool-unique job identifier.
func (j *Job) ID() string { return j.id }

// Digest returns the job's content address.
func (j *Job) Digest() string { return j.digest }

// Lane returns the priority lane the job was submitted on.
func (j *Job) Lane() Lane { return j.lane }

// Tenant returns the tenant the job was submitted under ("" for none).
func (j *Job) Tenant() string { return j.tenant }

// Status returns the current lifecycle state.
func (j *Job) Status() Status {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.status
}

// Done returns a channel closed when the job completes or fails.
func (j *Job) Done() <-chan struct{} { return j.done }

// Wait blocks until the job completes and returns its diagnosis. The
// returned Result is shared with the cache and other coalesced jobs and
// must not be modified.
func (j *Job) Wait() (*ioagent.Result, error) {
	<-j.done
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.result, j.err
}

// Info returns a snapshot of the job's externally-visible state.
func (j *Job) Info() JobInfo {
	j.mu.Lock()
	defer j.mu.Unlock()
	info := JobInfo{
		ID:            j.id,
		Digest:        j.digest,
		Status:        j.status,
		Lane:          j.lane,
		Tenant:        j.tenant,
		CacheHit:      j.cacheHit,
		SimilarityHit: j.simHit,
		SourceDigest:  j.srcDigest,
		Confidence:    j.conf,
		Attempts:      j.attempts,
		SubmittedAt:   j.submitted,
		StartedAt:     j.started,
		FinishedAt:    j.finished,
	}
	if j.err != nil {
		info.Error = j.err.Error()
	}
	return info
}

// complete transitions the job to its terminal state. Called exactly once.
// Done closes before the lock is released, so whoever reads a terminal
// Status also finds Done closed.
func (j *Job) complete(res *ioagent.Result, err error, at time.Time) {
	j.mu.Lock()
	j.result = res
	j.err = err
	j.finished = at
	j.log = nil
	if err != nil {
		j.status = StatusFailed
	} else {
		j.status = StatusDone
	}
	close(j.done)
	j.mu.Unlock()
}

// Pool is a bounded worker pool that shards a stream of Darshan traces
// across concurrent diagnosis agents, deduplicating work through a
// content-addressed result cache. All methods are safe for concurrent use.
type Pool struct {
	cfg   Config
	agent *ioagent.Agent
	cache *cache
	// schd is the per-tenant fair scheduler: one bounded lane per Lane
	// (each with its own QueueDepth, so a batch flood backpressures
	// batch submitters without blocking interactive ones), per-tenant
	// FIFOs inside each lane drained by weighted deficit-round-robin,
	// and the BatchShare cross-lane weighting layered on top.
	schd *sched.Scheduler[*Job]
	brk  *breaker
	m    metrics

	// Semantic reuse (nil unless Config.SemCache): the similarity index
	// over diagnosed traces and the confidence gate that decides reuse.
	sem  *semcache.Index
	gate *semcache.Gate
	// tiers is the cheapest-first agent ladder (empty unless
	// Config.TierModels); tiers[i] runs Config.TierModels[i].
	tiers []*ioagent.Agent

	// gateMu guards gateStats, the per-model usage of gate/tier judge
	// calls (they go through recordingClient, not an agent).
	gateMu    sync.Mutex
	gateStats map[string]ioagent.ModelStats

	workerWG sync.WaitGroup // running workers
	jobWG    sync.WaitGroup // outstanding jobs

	mu       sync.Mutex
	closed   bool
	nextID   int
	jobs     map[string]*Job
	order    []*Job                    // submission order, for Jobs()
	inflight map[string]*inflightEntry // digest -> primary + coalesced followers

	// qmu fences scheduler enqueues against Close: a Submit that passed
	// the closed check holds the read side until its enqueue lands, and
	// Close takes the write side before closing the scheduler, so an
	// accepted submission can never be turned away by a concurrent
	// Close. Acquired while holding mu; released after.
	qmu sync.RWMutex
}

type inflightEntry struct {
	primary   *Job
	followers []*Job
}

// New starts a pool. The client is shared by every worker and must be safe
// for concurrent use (SimLLM and the wrappers in internal/llm are). The
// knowledge index is built once and shared across all workers, so per-job
// setup cost is zero.
func New(client llm.Client, cfg Config) *Pool {
	cfg = cfg.withDefaults()
	if cfg.Knowledge != nil {
		// Every agent the pool builds — the primary and each tier rung —
		// retrieves through the plane; the copy into tierOpts below carries
		// the Retriever along.
		cfg.Agent.Retriever = cfg.Knowledge
	}
	p := &Pool{
		cfg:   cfg,
		agent: ioagent.New(client, cfg.Agent),
		cache: newCache(cfg.CacheSize, cfg.CacheTTL, cfg.now),
		schd: sched.New[*Job](sched.Config{
			Lanes:     []string{string(LaneInteractive), string(LaneBatch)},
			Depth:     cfg.QueueDepth,
			AltShare:  cfg.BatchShare,
			Weights:   cfg.TenantWeights,
			Classes:   cfg.TenantClasses,
			Admission: cfg.SLOAdmission,
			FIFO:      cfg.SchedFIFO,
			Now:       cfg.now,
		}),
		jobs:     make(map[string]*Job),
		inflight: make(map[string]*inflightEntry),
	}
	p.brk = newBreaker(cfg.BreakerThreshold, cfg.BreakerCooldown, cfg.now)
	p.m.queuedByLane = make(map[Lane]int64, len(Lanes))
	p.cache.onInsert = cfg.OnCacheInsert
	p.cache.onEvict = cfg.OnCacheEvict
	if cfg.SemCache || len(cfg.TierModels) > 0 {
		gateClient := &recordingClient{inner: client, record: p.recordGateUsage}
		p.gate = &semcache.Gate{
			Client:    gateClient,
			Model:     cfg.GateModel,
			Threshold: cfg.GateThreshold,
		}
	}
	if cfg.SemCache {
		p.sem = semcache.NewIndex(cfg.SemCacheSize)
		// A result-cache eviction must drop the digest's similarity vector
		// too: reuse may never cite a source diagnosis that no longer
		// exists. The index has its own lock and never calls back into the
		// Pool, so chaining it here respects the hook contract.
		userEvict := cfg.OnCacheEvict
		p.cache.onEvict = func(digest string) {
			p.sem.Remove(digest)
			if userEvict != nil {
				userEvict(digest)
			}
		}
	}
	for _, model := range cfg.TierModels {
		if model == cfg.Agent.Model {
			// The configured primary doubles as its own rung: reuse the
			// shared agent so its stats aren't split across two instances.
			p.tiers = append(p.tiers, p.agent)
			continue
		}
		tierOpts := cfg.Agent
		tierOpts.Model = model
		tierOpts.Index = p.agent.Index()
		p.tiers = append(p.tiers, ioagent.New(client, tierOpts))
	}
	for i := 0; i < cfg.Workers; i++ {
		p.workerWG.Add(1)
		go p.worker()
	}
	return p
}

// Agent returns the shared diagnosis agent (e.g. for pool-wide cost stats
// or post-diagnosis chat sessions).
func (p *Pool) Agent() *ioagent.Agent { return p.agent }

// Knowledge returns the pool's knowledge plane (nil unless configured).
func (p *Pool) Knowledge() *knowledge.Plane { return p.cfg.Knowledge }

// emit delivers one lifecycle event. Called WITHOUT p.mu held.
func (p *Pool) emit(kind EventKind, j *Job, log *darshan.Log) {
	if p.cfg.OnJobEvent != nil {
		p.cfg.OnJobEvent(Event{Kind: kind, Job: j.Info(), Log: log})
	}
}

// Preparsed pairs an already-decoded trace with its canonical content
// digest (darshan.ContentDigest), computed once by the ingest layer while
// the bytes were still arriving. SubmitPreparsed trusts the pairing and
// skips the re-encode that Digest would otherwise pay — the serving layer
// that built the Preparsed is responsible for having verified any
// client-asserted digest against the bytes it actually parsed.
type Preparsed struct {
	Log           *darshan.Log
	ContentDigest string
	// Decode, consulted only when Log is nil, decodes the trace on demand:
	// a serving layer that knows the digest of bytes it has not decoded
	// (ingest.Memo) hands the pool the means instead of the log. It is
	// called at most once, on the submitting goroutine, and only when the
	// job has to run — an exact cache hit and a coalesced duplicate never
	// decode. The log it returns must be the one ContentDigest addresses.
	Decode func() (*darshan.Log, error)
}

// Submit enqueues a trace for diagnosis on the interactive lane; see
// SubmitWith for the full contract.
func (p *Pool) Submit(log *darshan.Log) (*Job, error) {
	return p.SubmitWith(log, SubmitOpts{})
}

// SubmitWith enqueues a trace for diagnosis on the requested lane and
// returns immediately unless that lane's queue is full, in which case it
// blocks for backpressure (each lane has its own QueueDepth, so a batch
// flood never blocks interactive submitters). Three outcomes are possible
// without any new pipeline work: a cache hit completes the job instantly;
// a digest equal to an in-flight job coalesces onto it; and only
// otherwise does the job occupy a worker.
func (p *Pool) SubmitWith(log *darshan.Log, opts SubmitOpts) (*Job, error) {
	return p.SubmitContext(context.Background(), log, opts)
}

// SubmitContext is SubmitWith with a context bounding the backpressure
// wait: if the lane queue is full and ctx is done before a slot frees,
// the job is aborted (terminal failed with the context's error, observers
// notified) instead of holding the caller's goroutine — which is how a
// serving layer avoids leaking handlers for clients that already hung up.
// Work already accepted is unaffected; only the not-yet-queued submission
// is abandoned.
func (p *Pool) SubmitContext(ctx context.Context, log *darshan.Log, opts SubmitOpts) (*Job, error) {
	cd, err := darshan.ContentDigest(log)
	if err != nil {
		return nil, fmt.Errorf("fleet: digest: %w", err)
	}
	return p.submit(ctx, Preparsed{Log: log, ContentDigest: cd}, opts)
}

// SubmitPreparsed enqueues a trace the streaming ingest layer already
// decoded and content-addressed: the diagnosis digest is derived from
// pp.ContentDigest without re-encoding the log, so a multi-megabyte
// streamed trace pays its canonicalization exactly once. With pp.Log nil
// and pp.Decode set the trace is not even decoded unless the job has to
// run. The context bounds the backpressure wait as in SubmitContext.
func (p *Pool) SubmitPreparsed(ctx context.Context, pp Preparsed, opts SubmitOpts) (*Job, error) {
	if (pp.Log == nil && pp.Decode == nil) || pp.ContentDigest == "" {
		return nil, fmt.Errorf("fleet: preparsed submission needs a log (or the means to decode it) and its content digest")
	}
	return p.submit(ctx, pp, opts)
}

// admitLocked applies the refusals that precede a job's existence.
// Caller holds p.mu.
func (p *Pool) admitLocked(lane Lane, opts SubmitOpts) error {
	if p.closed {
		return ErrClosed
	}
	// Tenant quota, checked before the job exists: a tenant at its
	// in-flight cap is refused outright rather than admitted and failed.
	if opts.Tenant != "" && p.cfg.TenantMaxInflight > 0 {
		p.m.mu.Lock()
		over := p.m.tenantInflight[opts.Tenant] >= int64(p.cfg.TenantMaxInflight)
		p.m.mu.Unlock()
		if over {
			return ErrTenantQuota
		}
	}
	// SLO admission, also before the job exists (and before the cache is
	// consulted, mirroring the quota): a tenant whose projected queue
	// age exceeds its class target is refused retryably rather than
	// admitted to rot. The scheduler has its own lock and never calls
	// back into the Pool, so querying it under p.mu is safe.
	if opts.Tenant != "" && p.cfg.SLOAdmission {
		if err := p.schd.Admit(string(lane), opts.Tenant); err != nil {
			return fmt.Errorf("%w: %s", ErrSLOExceeded, err)
		}
	}
	return nil
}

func (p *Pool) submit(ctx context.Context, pp Preparsed, opts SubmitOpts) (*Job, error) {
	lane := opts.Lane.withDefault()
	if !lane.Valid() {
		return nil, fmt.Errorf("fleet: unknown lane %q", opts.Lane)
	}
	digest := digestWith(p.cfg.Agent, pp.ContentDigest)

	// A job that reaches the queue owns a decoded log; a cache hit and a
	// coalesced follower need none. So the cache and the in-flight table
	// are consulted before the job exists, and only a submission that
	// would become the digest's primary without a log in hand steps out
	// of p.mu, decodes on this goroutine, and looks again — by then the
	// digest may be cached or claimed, which is fine either way. One
	// rule covers the never-resident digest and the entry that expired a
	// moment ago alike: no path enqueues a nil log.
	log := pp.Log
	var res *ioagent.Result
	var hit bool
	var entry *inflightEntry
	p.mu.Lock()
	for {
		if err := p.admitLocked(lane, opts); err != nil {
			p.mu.Unlock()
			return nil, err
		}
		if res, hit = p.cache.Get(digest); hit {
			break
		}
		if entry = p.inflight[digest]; entry != nil || log != nil {
			break
		}
		p.mu.Unlock()
		var err error
		if log, err = pp.Decode(); err != nil {
			return nil, fmt.Errorf("fleet: decode preparsed trace: %w", err)
		}
		if log == nil {
			return nil, fmt.Errorf("fleet: decode preparsed trace: no log")
		}
		p.mu.Lock()
	}
	p.nextID++
	idPrefix := ""
	if p.cfg.NodeID != "" {
		idPrefix = p.cfg.NodeID + "-"
	}
	j := &Job{
		id:        fmt.Sprintf("%sjob-%06d", idPrefix, p.nextID),
		digest:    digest,
		lane:      lane,
		tenant:    opts.Tenant,
		done:      make(chan struct{}),
		status:    StatusQueued,
		submitted: p.cfg.now(),
	}
	p.jobs[j.id] = j
	p.order = append(p.order, j)
	p.pruneHistoryLocked()
	p.jobWG.Add(1)
	p.m.mu.Lock()
	p.m.submitted++
	p.m.countTenantLocked(opts.Tenant)
	p.m.mu.Unlock()

	// Fast path 1: already diagnosed and cached.
	if hit {
		j.cacheHit = true
		p.m.mu.Lock()
		p.m.hits++
		p.m.done++
		p.m.mu.Unlock()
		now := p.cfg.now()
		p.mu.Unlock()
		p.m.recordLatency(0)
		j.complete(res, nil, now)
		p.jobWG.Done()
		p.emit(EventSubmitted, j, nil)
		return j, nil
	}

	// Fast path 2: identical trace already in flight — ride along,
	// mirroring the primary's progress so pollers see an honest state.
	if entry != nil {
		entry.primary.mu.Lock()
		primaryStatus, primaryStarted := entry.primary.status, entry.primary.started
		entry.primary.mu.Unlock()
		j.cacheHit = true
		if primaryStatus == StatusRunning {
			j.status = StatusRunning
			j.started = primaryStarted
		}
		entry.followers = append(entry.followers, j)
		p.m.mu.Lock()
		p.m.coalesced++
		p.m.holdTenantLocked(opts.Tenant)
		p.m.mu.Unlock()
		// Emit before releasing p.mu: the primary's worker snapshots
		// followers under p.mu, so holding it here guarantees this
		// follower's submitted event precedes its terminal event. The
		// hook must not call back into the Pool (see Config.OnJobEvent),
		// so no re-entrancy deadlock is possible.
		p.emit(EventSubmitted, j, nil)
		p.mu.Unlock()
		return j, nil
	}

	// Slow path: this job owns the digest — and the log — and runs the
	// pipeline.
	j.log = log
	p.inflight[digest] = &inflightEntry{primary: j}
	p.m.mu.Lock()
	p.m.misses++
	p.m.queuedByLane[lane]++
	p.m.holdTenantLocked(opts.Tenant)
	p.m.mu.Unlock()
	p.qmu.RLock() // before mu is released, so Close cannot slip between
	p.mu.Unlock()

	// Emit before the scheduler enqueue: a worker cannot see the job
	// until the enqueue lands, so a write-ahead journal hooked here has
	// durably recorded the submission before any worker can complete it.
	p.emit(EventSubmitted, j, log)
	// Enqueue blocks while the lane is at QueueDepth (backpressure) and
	// aborts with ctx.Err() if the submitter hangs up first; a canceled
	// enqueue leaves no per-tenant depth or age state behind.
	if err := p.schd.Enqueue(ctx, string(lane), opts.Tenant, j); err != nil {
		// The job was journaled as submitted, so it must reach a
		// terminal state: abort it (and any followers that coalesced
		// onto it meanwhile) rather than park a goroutine on a queue
		// slot nobody wants.
		p.qmu.RUnlock()
		p.abortQueued(j, err)
		return j, err
	}
	p.qmu.RUnlock()
	return j, nil
}

// abortQueued terminally fails a job that was accepted but never reached
// its lane queue (context cancellation during backpressure), releasing
// the in-flight digest claim and completing any coalesced followers with
// the same error.
func (p *Pool) abortQueued(j *Job, cause error) {
	p.mu.Lock()
	var followers []*Job
	if entry := p.inflight[j.digest]; entry != nil && entry.primary == j {
		followers = entry.followers
		delete(p.inflight, j.digest)
	}
	p.mu.Unlock()

	finished := p.cfg.now()
	p.m.mu.Lock()
	p.m.queuedByLane[j.lane]--
	p.m.failed += int64(1 + len(followers))
	p.m.mu.Unlock()

	err := fmt.Errorf("fleet: submission abandoned before reaching the queue: %w", cause)
	j.complete(nil, err, finished)
	p.jobWG.Done()
	p.m.releaseTenant(j.tenant)
	p.emit(EventFailed, j, nil)
	for _, f := range followers {
		f.mu.Lock()
		f.cacheHit = false
		f.mu.Unlock()
		f.complete(nil, err, finished)
		p.jobWG.Done()
		p.m.releaseTenant(f.tenant)
		p.emit(EventFailed, f, nil)
	}
}

// Job returns a previously submitted job by ID.
func (p *Pool) Job(id string) (*Job, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	j, ok := p.jobs[id]
	return j, ok
}

// pruneHistoryLocked evicts the oldest completed jobs once the registry
// exceeds MaxJobHistory, so a long-lived pool's memory stays flat.
// Incomplete jobs are never pruned. Caller holds p.mu.
func (p *Pool) pruneHistoryLocked() {
	if p.cfg.MaxJobHistory < 0 {
		return
	}
	for len(p.order) > p.cfg.MaxJobHistory {
		pruned := false
		for i, j := range p.order {
			select {
			case <-j.done:
			default:
				continue
			}
			delete(p.jobs, j.id)
			p.order = append(p.order[:i], p.order[i+1:]...)
			pruned = true
			break
		}
		if !pruned {
			return // everything left is still queued or running
		}
	}
}

// Jobs returns every job the pool has accepted and not yet pruned, in
// submission order.
func (p *Pool) Jobs() []*Job {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]*Job(nil), p.order...)
}

// BreakerOpen reports whether new submissions should be refused because
// the circuit breaker is open and inside its cooldown. Serving layers
// use it to answer a retryable code instead of accepting jobs doomed to
// ErrBreakerOpen — which is what lets a router fail the node's shard
// over to a healthy successor while the backend is down. It deliberately
// flips back to false when the cooldown elapses, before the breaker has
// closed: the next accepted job is what runs the half-open probe, so a
// daemon that kept refusing would stay broken forever. (The metrics
// snapshot's BreakerOpen reports the raw open state instead.)
func (p *Pool) BreakerOpen() bool {
	return p.brk.refusing()
}

// SetTenantClass assigns (or with class "", clears) a tenant's SLO
// class at runtime — the knob behind POST /v1/sched/tenants. Unknown
// class names are rejected. Serving layers that persist assignments
// (internal/fleet/store) journal them after this returns nil, so a
// restarted daemon replays the same classes back in.
func (p *Pool) SetTenantClass(tenant, class string) error {
	return p.schd.SetTenantClass(tenant, class)
}

// TenantClasses returns the current tenant→SLO-class assignments.
func (p *Pool) TenantClasses() map[string]string {
	return p.schd.TenantClasses()
}

// SchedStatus describes the fair scheduler's configuration surface:
// whether admission control is on, whether the pool runs the FIFO
// baseline, the class definitions, and the current assignments.
type SchedStatus struct {
	Admission   bool
	FIFO        bool
	Classes     map[string]sched.Class
	Assignments map[string]string
}

// SchedStatus returns the scheduler's configuration surface (served by
// GET /v1/sched).
func (p *Pool) SchedStatus() SchedStatus {
	return SchedStatus{
		Admission:   p.schd.Admission(),
		FIFO:        p.schd.FIFO(),
		Classes:     p.schd.ClassDefs(),
		Assignments: p.schd.TenantClasses(),
	}
}

// Metrics returns the pool's point-in-time metrics document: its own
// counters, the scheduler and knowledge blocks, and per-model usage. The
// serving layer adds only what the pool cannot know (node id, handoff).
func (p *Pool) Metrics() api.Metrics {
	p.mu.Lock()
	inflight := len(p.inflight)
	p.mu.Unlock()
	s := p.m.snapshot(p.cfg.Workers, p.cache.Len())
	// OwnedDigests is this node's sharding footprint: every distinct
	// digest it can currently answer for (resident cache entries) or is
	// answering (in-flight primaries).
	s.OwnedDigests = int64(s.CacheLen + inflight)
	s.BreakerOpen, s.BreakerTrips = p.brk.stats()
	s.SemCacheEntries = p.SemLen()
	sm := p.schd.Metrics()
	s.Sched = &sm
	if p.cfg.Knowledge != nil {
		km := p.cfg.Knowledge.Metrics()
		s.Knowledge = &km
	}
	byModel := p.StatsByModel()
	if len(byModel) > 0 {
		s.Models = make(map[string]api.ModelMetrics, len(byModel))
	}
	for model, st := range byModel {
		s.Models[model] = api.ModelMetrics{
			Calls:            st.Calls,
			PromptTokens:     st.Usage.PromptTokens,
			CompletionTokens: st.Usage.CompletionTokens,
			CostUSD:          st.CostUSD,
		}
	}
	// Per-rung job counts come from the metrics struct; per-rung spend
	// comes from the model-level usage accounting.
	for model, ts := range s.Tiers {
		ts.CostUSD = byModel[model].CostUSD
		s.Tiers[model] = ts
	}
	return s
}

// CacheEntry is one exported result-cache entry. The Result is the live
// cached object shared with jobs and must be treated as immutable.
type CacheEntry struct {
	Digest string
	Result *ioagent.Result
	Added  time.Time // when the entry was cached (drives TTL expiry)
}

// CacheExport snapshots the result cache, most recently used first,
// skipping entries already past their TTL. It is the read side of the
// persistence layer: internal/fleet/store serializes the returned entries
// to disk.
func (p *Pool) CacheExport() []CacheEntry {
	return p.cache.export()
}

// CacheRestore seeds the result cache from a persisted snapshot. Entries
// keep their original Added times, so a restored entry expires exactly when
// it would have in the previous process; entries already expired (or in
// excess of the cache capacity) are dropped. Pass entries most recently
// used first — CacheExport order — so LRU eviction order survives the
// round trip.
func (p *Pool) CacheRestore(entries []CacheEntry) {
	for i := len(entries) - 1; i >= 0; i-- {
		e := entries[i]
		if e.Digest == "" || e.Result == nil {
			continue
		}
		p.cache.putAt(e.Digest, e.Result, e.Added)
	}
}

// Wait blocks until every job submitted so far has completed. Submissions
// racing with Wait are not guaranteed to be covered.
func (p *Pool) Wait() { p.jobWG.Wait() }

// Close stops accepting submissions, drains the queue, and waits for all
// in-flight work to finish. It is safe to call more than once.
func (p *Pool) Close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		p.workerWG.Wait()
		return
	}
	p.closed = true
	p.mu.Unlock()
	p.qmu.Lock() // wait for in-flight Submit enqueues to land
	p.schd.Close()
	p.qmu.Unlock()
	p.workerWG.Wait()
}

// worker drains the scheduler, running one job at a time through the
// shared agent with retry-on-transient-error semantics. Lane preference
// (BatchShare) and per-tenant fairness (DRR) both live inside the
// scheduler; the worker exits when the scheduler is closed and drained.
func (p *Pool) worker() {
	defer p.workerWG.Done()
	for {
		j, ok := p.schd.Dequeue()
		if !ok {
			return
		}
		p.runJob(j)
	}
}

func (p *Pool) runJob(j *Job) {
	start := p.cfg.now()
	j.mu.Lock()
	j.status = StatusRunning
	j.started = start
	log := j.log
	submitted := j.submitted
	j.mu.Unlock()
	// Followers that attached while the primary was still queued move to
	// running with it.
	p.mu.Lock()
	if entry := p.inflight[j.digest]; entry != nil {
		for _, f := range entry.followers {
			f.mu.Lock()
			f.status = StatusRunning
			f.started = start
			f.mu.Unlock()
		}
	}
	p.mu.Unlock()
	p.m.mu.Lock()
	p.m.queuedByLane[j.lane]--
	p.m.running++
	p.m.mu.Unlock()

	var res *ioagent.Result
	var err error
	var features, src string
	var conf float64
	reused := false
	// Semantic reuse first: an exact-digest miss may still be a near
	// duplicate of an already-diagnosed trace. This runs on the worker —
	// never under p.mu — because the gate makes LLM judge calls.
	if p.sem != nil {
		features = semcache.FeatureText(log)
		if r, s, c, ok := p.semanticReuse(log, features); ok {
			res, src, conf, reused = r, s, c, true
			j.mu.Lock()
			j.simHit, j.srcDigest, j.conf = true, src, conf
			j.mu.Unlock()
		}
	}
	if !reused {
		delay := p.cfg.RetryDelay
		for attempt := 1; attempt <= p.cfg.MaxAttempts; attempt++ {
			j.mu.Lock()
			j.attempts = attempt
			j.mu.Unlock()
			if attempt > 1 {
				p.m.mu.Lock()
				p.m.retries++
				p.m.mu.Unlock()
				p.cfg.sleep(delay)
				delay *= 2
			}
			// An open breaker refuses the attempt instead of hitting a backend
			// already known down. Remaining attempts still cycle (with their
			// backoff sleeps) rather than failing the job instantly: a job
			// admitted during the half-open window — whose probe slot went to
			// another job — usually outlives a successful probe and completes
			// normally. If the breaker stays open through every attempt, the
			// job fails with ErrBreakerOpen, which means "never tried" and is
			// safe to resubmit.
			if !p.brk.allow() {
				err = ErrBreakerOpen
				continue
			}
			res, err = p.diagnose(log)
			p.brk.record(err != nil && llm.IsTransient(err))
			if err == nil || !llm.IsTransient(err) {
				break
			}
		}
	}

	if err == nil {
		// Publish to the cache BEFORE releasing the in-flight entry:
		// between the two, a duplicate Submit either hits the cache or
		// coalesces — it can never slip through and redo the work.
		p.cache.Put(j.digest, res)
		if p.sem != nil && !reused {
			// Index the fresh diagnosis only after its cache entry exists:
			// a similarity vector must never point at a digest the cache
			// cannot serve. Reused results are not indexed — their text
			// already has a vector under the source digest.
			p.sem.Add(j.digest, features)
		}
	}

	p.mu.Lock()
	var followers []*Job
	if entry := p.inflight[j.digest]; entry != nil {
		followers = entry.followers
	}
	delete(p.inflight, j.digest)
	p.mu.Unlock()

	finished := p.cfg.now()
	p.m.mu.Lock()
	p.m.running--
	if err != nil {
		p.m.failed += int64(1 + len(followers))
	} else {
		p.m.done += int64(1 + len(followers))
	}
	p.m.mu.Unlock()
	if err == nil {
		p.m.recordLatency(finished.Sub(submitted))
	}

	kind := EventDone
	if err != nil {
		kind = EventFailed
	}
	j.complete(res, err, finished)
	p.jobWG.Done()
	p.m.releaseTenant(j.tenant)
	p.emit(kind, j, nil)
	for _, f := range followers {
		f.mu.Lock()
		fsub := f.submitted
		if err != nil {
			// The ride-along did not pay off; don't let a failed job
			// report itself as a cache success.
			f.cacheHit = false
		} else if reused {
			// Followers served by the primary's similarity hit carry the
			// same provenance.
			f.simHit, f.srcDigest, f.conf = true, src, conf
		}
		f.mu.Unlock()
		if err == nil {
			p.m.recordLatency(finished.Sub(fsub))
		}
		f.complete(res, err, finished)
		p.jobWG.Done()
		p.m.releaseTenant(f.tenant)
		p.emit(kind, f, nil)
	}
}
