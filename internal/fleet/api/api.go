// Package api is the versioned wire contract of the iofleetd HTTP service:
// every request and response shape, the priority-lane vocabulary, the
// machine-readable error taxonomy, and the protocol version negotiated
// between client and server.
//
// The package is deliberately dependency-free (standard library only) so
// that consumers — internal/fleet/client, external tooling, the
// iofleet-router front — can speak the protocol without linking the pool,
// the diagnosis pipeline, or the knowledge corpus.
//
// # Compatibility invariants
//
// The contract is versioned major.minor (see Version). Within one major
// version:
//
//   - field names, JSON tags, and error code strings are append-only:
//     they are never renamed or repurposed, only added;
//   - servers ignore request fields they do not understand, and clients
//     ignore response fields they do not understand;
//   - a minor-version bump adds fields or codes; a major-version bump is
//     reserved for breaking changes and is rejected by both sides
//     (ErrVersionSkew semantics, code CodeUnsupportedVersion).
//
// Both parties advertise their version in the VersionHeader of every
// message. The server tolerates requests without the header (curl-style
// ad-hoc use) but stamps every response; the client therefore refuses a
// response without it — that peer is not a versioned fleet daemon. A
// present header with a different major is refused by both sides.
package api

import (
	"fmt"
	"strconv"
	"strings"
	"time"
)

// VersionHeader carries the protocol version on every request and
// response.
const VersionHeader = "X-Fleet-Api-Version"

// NodeHeader names the fleet member (daemon -node-id, or a router's -id)
// that produced a response. Single daemons without a node id omit it.
// Clients never need it to parse a payload; it exists for operators
// tracing which node answered, and for the cluster SDK's health view.
const NodeHeader = "X-Fleet-Node"

// ForwardedHeader marks a request that already traversed an iofleet-router
// (the value is the router's id). Routers forward only to daemons, never
// to other routers: a router receiving a request that carries this header
// refuses it with CodeLoopDetected, which is what keeps a misconfigured
// member list (a router listing itself, or a cycle of routers) from
// ricocheting a submission forever.
const ForwardedHeader = "X-Fleet-Forwarded-By"

// DigestHeader carries a trace's canonical content digest (64 hex chars,
// see darshan.ContentDigest): the SHA-256 of the trace's canonical
// decoded form, identical for the binary and text renderings of one
// trace. Added in 1.2, it appears in three places:
//
//   - Request header on streaming submissions (POST /v1/jobs/stream) and
//     upload-session opens: a client that already knows the digest asserts
//     it up front, which lets iofleet-router pick the owning node and
//     forward the body as a pure stream — zero spool, zero buffering. The
//     server recomputes the digest from the bytes it parsed and refuses a
//     mismatch with CodeDigestMismatch, so an asserted digest is trusted
//     for placement but never for content.
//   - Request trailer on streaming submissions whose digest was computed
//     on the fly (the SDK's SubmitStream tees the outgoing bytes through
//     the incremental parser): too late to route by, still verified
//     end-to-end by the server.
//   - Response header on accepted submissions: the server tells the
//     client the canonical digest it derived, so the next submission of
//     the same trace — in either rendering — can assert it.
//
// Note the distinction from JobInfo.Digest: the content digest addresses
// the trace alone (routing, dedup across renderings), while JobInfo.Digest
// additionally covers the pipeline options and addresses the diagnosis.
const DigestHeader = "X-Fleet-Digest"

// UploadOffsetHeader carries the byte offset of an upload-session append
// (PATCH /v1/uploads/{id}), following the tus convention: the client
// states the offset its chunk starts at, the server refuses a mismatch
// with CodeUploadOffsetMismatch and its actual offset, and the client
// resynchronizes from GET /v1/uploads/{id}. Added in 1.2.
const UploadOffsetHeader = "Upload-Offset"

// RetryAfterHeader is the standard HTTP Retry-After header. Servers set
// it (delay-seconds form) on retryable refusals — quota_exceeded,
// breaker_open, draining — and the SDK's adaptive backoff honors it as a
// floor for the next retry delay. Added to the contract (though not the
// wire) in 1.2.
const RetryAfterHeader = "Retry-After"

// Current is the protocol version this tree speaks. Minor 1 added the
// cluster vocabulary: node identity (NodeHeader, Metrics.Node), the
// forwarded-hop header, SubmitRequest.Tenant, per-tenant and per-node
// metrics fields, the cluster-health payload, and the loop_detected /
// node_down / breaker_open error codes. Minor 2 added the streaming
// ingest vocabulary: the content-digest and upload-offset headers,
// streaming submission (POST /v1/jobs/stream), resumable upload sessions
// (/v1/uploads), the UploadInfo payload, Retry-After semantics, and the
// digest_mismatch / quota_exceeded / upload_not_found /
// upload_offset_mismatch error codes — all additive, per the
// compatibility invariants above. Minor 3 added the semantic-reuse
// vocabulary: similarity-hit provenance on JobInfo and Diagnosis
// (SimilarityHit, SourceDigest, Confidence), the semcache effectiveness
// counters and per-tier model metrics on Metrics (SemCacheHits,
// SemCacheMisses, SemCacheGateRejects, SemCacheEntries, Tiers,
// TierEscalations) — again purely additive. Minor 4 added the knowledge
// plane vocabulary: corpus document upsert and epoch swap
// (POST /v1/knowledge/docs, POST /v1/knowledge/swap), plane status and
// search (GET /v1/knowledge, POST /v1/knowledge/search), the
// KnowledgeDoc / KnowledgeUpsertRequest / KnowledgeStatus /
// KnowledgeSearchRequest / KnowledgeSearchResponse payloads,
// Metrics.Knowledge, NodeHealth.KnowledgeEpoch,
// ClusterHealth.KnowledgeEpochSkew, and the knowledge_disabled /
// nothing_staged error codes — all additive. Minor 5 added the
// elastic-cluster vocabulary: the roster protocol (GET and POST
// /v1/roster, the RosterMember / Roster / RosterAnnounce payloads), the
// digest-addressed cache handoff endpoints (GET /v1/cache/digests,
// POST /v1/cache/entries, the CacheDigests / CacheEntryWire /
// CachePushRequest / CachePushResponse payloads), Metrics.Handoff, and
// the roster_disabled error code — all additive. Minor 6 added the
// fair-scheduling vocabulary: per-tenant weighted scheduling and SLO
// admission (GET /v1/sched, POST /v1/sched/tenants, the SchedStatus /
// SchedClass / TenantClassRequest payloads), Metrics.Sched with the
// SchedMetrics / SchedTenant shapes, and the slo_exceeded error code —
// all additive. Minor 7 added JobInfo.Text: a submission reply whose job
// is already done carries its diagnosis, so a cache hit needs no second
// request — additive, and clients of 1.6 servers read the diagnosis as
// before. Minor 8 added the latency histograms (Buckets) beside the
// percentiles of Metrics, KnowledgeStatus and SchedTenant, summed across
// nodes so a router's percentiles are of the pooled samples, and two
// Prometheus histogram families — additive. A percentile now covers the
// time since start, and is the upper edge of the bucket holding the
// nearest-rank sample, capped at the maximum. A 1.7 node's percentiles
// still merge as the largest.
var Current = Version{Major: 1, Minor: 8}

// CurrentHeader is Current in its VersionHeader form, rendered once:
// every request the SDK sends and every response a server writes carries
// it.
var CurrentHeader = Current.String()

// Version is a major.minor protocol version. Majors are incompatible;
// minors are additive within a major.
type Version struct {
	Major int `json:"major"`
	Minor int `json:"minor"`
}

// String renders the canonical "major.minor" header form.
func (v Version) String() string { return fmt.Sprintf("%d.%d", v.Major, v.Minor) }

// ParseVersion parses the "major.minor" header form.
func ParseVersion(s string) (Version, error) {
	major, minor, ok := strings.Cut(strings.TrimSpace(s), ".")
	if !ok {
		return Version{}, fmt.Errorf("api: malformed version %q (want MAJOR.MINOR)", s)
	}
	ma, err := strconv.Atoi(major)
	if err != nil || ma < 0 {
		return Version{}, fmt.Errorf("api: malformed version %q: bad major", s)
	}
	mi, err := strconv.Atoi(minor)
	if err != nil || mi < 0 {
		return Version{}, fmt.Errorf("api: malformed version %q: bad minor", s)
	}
	return Version{Major: ma, Minor: mi}, nil
}

// CompatibleWith reports whether the two versions can interoperate: same
// major, any minor.
func (v Version) CompatibleWith(o Version) bool { return v.Major == o.Major }

// Lane is a submission priority class. The pool dequeues with a weighted
// preference for LaneInteractive so a saturating batch workload cannot
// starve latency-sensitive submissions; LaneBatch still receives a
// guaranteed share of worker slots under an interactive flood.
type Lane string

const (
	// LaneInteractive is the low-latency lane for a human (or a service
	// in a request path) waiting on the answer. It is the default when no
	// lane is given.
	LaneInteractive Lane = "interactive"
	// LaneBatch is the bulk lane for backfills, sweeps, and other
	// throughput-bound workloads that tolerate queueing delay.
	LaneBatch Lane = "batch"
)

// Valid reports whether l names a known lane (the empty lane is not
// valid; normalize first with WithDefault).
func (l Lane) Valid() bool { return l == LaneInteractive || l == LaneBatch }

// WithDefault maps the empty lane to LaneInteractive, the wire default.
func (l Lane) WithDefault() Lane {
	if l == "" {
		return LaneInteractive
	}
	return l
}

// Status is a job's lifecycle state on the wire.
type Status string

const (
	StatusQueued  Status = "queued"
	StatusRunning Status = "running"
	StatusDone    Status = "done"
	StatusFailed  Status = "failed"
)

// MaxTenantLen bounds the Tenant identifier; longer values are refused
// with CodeBadRequest so an attacker cannot inflate per-tenant metric
// labels without bound.
const MaxTenantLen = 128

// SubmitRequest is one trace submission. The trace bytes travel as the
// POST /v1/jobs body (binary Darshan log or darshan-parser text — the
// server sniffs); the lane and tenant travel as the "lane" and "tenant"
// query parameters. The struct exists so programmatic callers have one
// typed value to build and so future fields (deadline, callbacks) have a
// home.
type SubmitRequest struct {
	// Lane selects the priority class; empty means LaneInteractive.
	Lane Lane `json:"lane,omitempty"`
	// Tenant names the submitting tenant for accounting (per-tenant job
	// counts in Metrics; the groundwork for per-tenant fairness). Empty is
	// valid — anonymous submissions are counted under no tenant. The
	// tenant never contributes to the trace digest: identical bytes from
	// two tenants share one cached diagnosis.
	Tenant string `json:"tenant,omitempty"`
	// Trace is the encoded trace body. Submissions are idempotent by
	// content: the server addresses work by trace digest, so resubmitting
	// identical bytes coalesces onto the in-flight job or answers from
	// the result cache instead of re-running the pipeline.
	Trace []byte `json:"-"`
}

// JobInfo is the wire snapshot of one submitted job, returned by
// POST /v1/jobs (202), GET /v1/jobs (list) and GET /v1/jobs/{id}.
type JobInfo struct {
	ID     string `json:"id"`
	Digest string `json:"digest"`
	Status Status `json:"status"`
	Lane   Lane   `json:"lane"`
	// Tenant echoes the submission's tenant identifier (empty when none
	// was given). Added in 1.1.
	Tenant   string `json:"tenant,omitempty"`
	CacheHit bool   `json:"cache_hit"`
	// SimilarityHit marks a diagnosis served by semantic reuse: the text
	// is SourceDigest's cached diagnosis, approved for this trace by the
	// confidence gate at the stamped Confidence (in [0,1]). Mutually
	// exclusive with CacheHit, which stays exact-digest reuse. All three
	// added in 1.3; servers without semantic reuse simply omit them.
	SimilarityHit bool    `json:"similarity_hit,omitempty"`
	SourceDigest  string  `json:"source_digest,omitempty"`
	Confidence    float64 `json:"confidence,omitempty"`
	Attempts      int     `json:"attempts"`
	// Error carries the failure's stable code for terminal failed jobs
	// (empty otherwise). Free-text failure detail stays in server logs.
	Error string `json:"error,omitempty"`
	// Text is the finished diagnosis, set only on the reply of a
	// submission (POST /v1/jobs, POST /v1/jobs/stream,
	// POST /v1/uploads/{id}/complete) whose job was already done when the
	// reply was written — an exact cache hit, or a duplicate of a job that
	// had just finished. It is the Text GET /v1/jobs/{id}/diagnosis would
	// serve. Job reads and listings never carry it. Added in 1.7.
	Text string `json:"text,omitempty"`

	SubmittedAt time.Time `json:"submitted_at"`
	StartedAt   time.Time `json:"started_at,omitzero"`
	FinishedAt  time.Time `json:"finished_at,omitzero"`
}

// Diagnosis is the finished report for one job, returned by
// GET /v1/jobs/{id}/diagnosis. (With "Accept: text/plain" the same
// endpoint serves Text raw, for curl and shell pipelines.)
type Diagnosis struct {
	JobID    string `json:"job_id"`
	Digest   string `json:"digest"`
	Lane     Lane   `json:"lane"`
	CacheHit bool   `json:"cache_hit"`
	// SimilarityHit / SourceDigest / Confidence carry semantic-reuse
	// provenance, mirroring JobInfo: when set, Text is the diagnosis
	// originally produced for SourceDigest and reused for this trace.
	// Added in 1.3.
	SimilarityHit bool    `json:"similarity_hit,omitempty"`
	SourceDigest  string  `json:"source_digest,omitempty"`
	Confidence    float64 `json:"confidence,omitempty"`
	// Text is the canonical merged diagnosis report.
	Text string `json:"text"`
}

// UploadInfo is the wire snapshot of one resumable upload session,
// returned by POST /v1/uploads (201), PATCH /v1/uploads/{id} (200) and
// GET /v1/uploads/{id}. Added in 1.2.
//
// A session accepts a trace in as many PATCH appends as the client likes;
// every appended byte is fed to the server's incremental pre-parser
// immediately, so PreparsedLines and PreparsedModules advance while the
// upload is still in flight. POST /v1/uploads/{id}/complete finalizes the
// parse, verifies any claimed digest, and converts the session into a job
// (202 with the JobInfo). A complete refused for a RETRYABLE reason
// (quota_exceeded, draining) keeps the finalized session alive — further
// appends are refused, but re-issuing the complete later succeeds without
// re-uploading a byte. On daemons running with -state-dir, open sessions
// survive a restart: the journal records the open, the spooled bytes live
// beside it, and a rebooted daemon re-feeds the parser so the client
// resumes at the same offset.
type UploadInfo struct {
	ID string `json:"id"`
	// Offset is the number of bytes the server has accepted; the next
	// PATCH must assert exactly this value in UploadOffsetHeader.
	Offset int64  `json:"offset"`
	Lane   Lane   `json:"lane"`
	Tenant string `json:"tenant,omitempty"`
	// Digest echoes the client-claimed content digest, if one was asserted
	// when the session was opened (DigestHeader on the POST). Verified at
	// complete time.
	Digest string `json:"digest,omitempty"`
	// PreparsedLines / PreparsedModules report incremental pre-parse
	// progress over the bytes accepted so far (lines consumed and distinct
	// modules seen; both zero for a binary-rendering upload, which can only
	// be decoded whole at complete time).
	PreparsedLines   int64 `json:"preparsed_lines"`
	PreparsedModules int   `json:"preparsed_modules"`

	CreatedAt time.Time `json:"created_at"`
}

// SchedClass is one SLO class definition in the SchedStatus payload:
// the DRR weight its tenants schedule at and the max queue-age target
// SLO admission enforces. Added in 1.6.
type SchedClass struct {
	Weight      int           `json:"weight"`
	MaxQueueAge time.Duration `json:"max_queue_age_ns"`
}

// SchedStatus is the payload of GET /v1/sched: the scheduler's mode,
// its class catalog, and the current tenant-to-class assignments.
// Added in 1.6.
type SchedStatus struct {
	// FIFO marked a node running the tenant-blind FIFO baseline
	// scheduler, a mode this version no longer has: its nodes always
	// report false. The field stays for older members of a mixed
	// cluster.
	FIFO      bool `json:"fifo,omitempty"`
	Admission bool `json:"admission,omitempty"`
	// Classes maps class name (gold/silver/bronze) to its definition.
	Classes map[string]SchedClass `json:"classes,omitempty"`
	// Assignments maps tenant identifier to its class name.
	Assignments map[string]string `json:"assignments,omitempty"`
}

// TenantClassRequest is the body of POST /v1/sched/tenants: assign the
// tenant to an SLO class, or clear the assignment with an empty class.
// On daemons running with -state-dir the assignment is journaled and
// survives a restart. Added in 1.6.
type TenantClassRequest struct {
	Tenant string `json:"tenant"`
	Class  string `json:"class,omitempty"`
}

// NodeHealth is one member's row in the cluster-health payload.
type NodeHealth struct {
	// Node is the member's advertised -node-id ("" if unknown or unset).
	Node string `json:"node,omitempty"`
	// URL is the member's base URL as configured on the router.
	URL string `json:"url"`
	// Healthy reports whether the member answered its last probe.
	Healthy bool `json:"healthy"`
	// Error carries the probe failure class for unhealthy members. Like
	// every wire message it is a stable summary, never a raw Go error
	// chain.
	Error string `json:"error,omitempty"`
	// OwnedDigests is the member's Metrics.OwnedDigests at probe time
	// (zero when unhealthy).
	OwnedDigests int64 `json:"owned_digests"`
	// KnowledgeEpoch is the member's promoted corpus version at probe time
	// (zero when unhealthy or when the member runs without a knowledge
	// plane). Added in 1.4.
	KnowledgeEpoch uint64 `json:"knowledge_epoch,omitempty"`
}

// ClusterHealth is the payload of the router's GET /v1/cluster: one row
// per configured member, probed at request time. Added in 1.1.
type ClusterHealth struct {
	// Router is the answering router's id.
	Router string `json:"router,omitempty"`
	// Nodes lists every configured member in ring-member order.
	Nodes []NodeHealth `json:"nodes"`
	// KnowledgeEpochSkew is set when two healthy knowledge-serving members
	// report different corpus epochs — a swap reached part of the fleet
	// only, so retrievals are answered from mixed corpus versions until
	// the lagging members converge. Added in 1.4.
	KnowledgeEpochSkew bool `json:"knowledge_epoch_skew,omitempty"`
}

// KnowledgeDoc is the wire form of one corpus document. Key is the stable
// citation identifier diagnoses reference ("[SOURCE key]"); Text is the
// retrievable body.
type KnowledgeDoc struct {
	Key   string `json:"key"`
	Title string `json:"title,omitempty"`
	Text  string `json:"text"`
}

// MaxKnowledgeDocLen bounds one document's Text; larger upserts are
// refused with CodeBadRequest so a single document cannot monopolize the
// corpus (or the WAL).
const MaxKnowledgeDocLen = 1 << 20

// KnowledgeUpsertRequest is the body of POST /v1/knowledge/docs: documents
// to add or replace, and keys to remove. Changes land in the node's staged
// epoch and stay invisible to retrieval until POST /v1/knowledge/swap
// promotes them, so a multi-request sync publishes atomically. Added in
// 1.4.
type KnowledgeUpsertRequest struct {
	Docs   []KnowledgeDoc `json:"docs,omitempty"`
	Remove []string       `json:"remove,omitempty"`
}

// KnowledgeStatus describes one node's knowledge plane, served by
// GET /v1/knowledge and embedded in Metrics. Added in 1.4.
type KnowledgeStatus struct {
	// Epoch is the promoted corpus version; Docs counts the full corpus
	// view, OwnedDocs the documents this node indexes locally (fewer when
	// the corpus is ring-sharded), StagedOps the staged-but-unswapped
	// mutations.
	Epoch     uint64 `json:"epoch"`
	Docs      int    `json:"docs"`
	OwnedDocs int    `json:"owned_docs"`
	StagedOps int    `json:"staged_ops"`
	// Queries counts retrievals served; ANNQueries/ExactQueries split the
	// underlying index searches by path (HNSW graph walk vs exact scan).
	Queries      int64  `json:"queries"`
	ANNQueries   uint64 `json:"ann_queries"`
	ExactQueries uint64 `json:"exact_queries"`
	// Rerank accounting (all zero unless the node runs -rerank-model).
	RerankCalls   int64   `json:"rerank_calls"`
	RerankErrors  int64   `json:"rerank_errors"`
	RerankCostUSD float64 `json:"rerank_cost_usd"`
	// RetrievalP95 is the node's 95th-percentile retrieval latency, read
	// off RetrievalBuckets, which covers every retrieval since start.
	// RetrievalBuckets added in 1.8.
	RetrievalP95     time.Duration `json:"retrieval_p95_ns"`
	RetrievalBuckets *Buckets      `json:"retrieval_buckets,omitempty"`
}

// KnowledgeSwapResponse is the body of a successful POST
// /v1/knowledge/swap: the newly promoted corpus epoch. Added in 1.4.
type KnowledgeSwapResponse struct {
	Epoch uint64 `json:"epoch"`
}

// DefaultKnowledgeK is the top-k a knowledge search uses when the request
// leaves K unset — the paper's retrieval depth.
const DefaultKnowledgeK = 15

// KnowledgeSearchRequest is the body of POST /v1/knowledge/search: a
// retrieval probe against the serving corpus, bypassing the diagnosis
// pipeline — the operator's tool for inspecting what agents would
// retrieve. K <= 0 selects the paper's default of 15. Added in 1.4.
type KnowledgeSearchRequest struct {
	Query string `json:"query"`
	K     int    `json:"k,omitempty"`
}

// KnowledgeHit is one retrieval result row. Added in 1.4.
type KnowledgeHit struct {
	Key   string  `json:"key"`
	Title string  `json:"title,omitempty"`
	Seq   int     `json:"seq"`
	Text  string  `json:"text"`
	Score float64 `json:"score"`
}

// KnowledgeSearchResponse is the payload of POST /v1/knowledge/search:
// the hits and the epoch they were answered from. A scatter-gathered
// cluster answer reports the minimum epoch across contributing nodes.
// Added in 1.4.
type KnowledgeSearchResponse struct {
	Epoch uint64         `json:"epoch"`
	Hits  []KnowledgeHit `json:"hits"`
}
