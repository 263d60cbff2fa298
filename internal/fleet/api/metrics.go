package api

import (
	"cmp"
	"fmt"
	"io"
	"reflect"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"
)

// ModelMetrics is the accumulated usage of one LLM model across the
// daemon's lifetime.
type ModelMetrics struct {
	Calls            int     `json:"calls"`
	PromptTokens     int     `json:"prompt_tokens"`
	CompletionTokens int     `json:"completion_tokens"`
	CostUSD          float64 `json:"cost_usd"`
}

// Metrics is the one metrics document of the fleet: the pool, the
// scheduler, the knowledge plane and the roster manager fill it directly,
// GET /metrics serves it as JSON, and the Prometheus text form
// (WritePrometheus, under "Accept: text/plain") and the cluster aggregate
// (MergeMetrics) are derived from it through the families table below.
//
// Done includes cache hits and coalesced jobs. Submitted = Queued +
// Running + Done + Failed once the pool is idle; a duplicate riding on an
// in-flight primary is counted in Submitted and Coalesced but in no
// lifecycle bucket until that job ends. CacheHits were answered instantly
// from the result cache, Coalesced attached to an identical in-flight job
// (zero LLM calls, counted whether or not that job succeeds), CacheMisses
// ran the full pipeline; HitRate is (CacheHits+Coalesced)/Submitted.
// Latencies cover every successful completion since start (cache hits at
// ~0); the percentiles are read off LatencyBuckets.
type Metrics struct {
	// Node is the answering daemon's -node-id (empty for an unnamed
	// single daemon, and on a router's cluster-wide aggregate). Added
	// in 1.1.
	Node string `json:"node,omitempty"`

	Workers int `json:"workers"`

	Submitted         int64 `json:"jobs_submitted"`
	Queued            int64 `json:"jobs_queued"`
	QueuedInteractive int64 `json:"jobs_queued_interactive"`
	QueuedBatch       int64 `json:"jobs_queued_batch"`
	Running           int64 `json:"jobs_running"`
	Done              int64 `json:"jobs_done"`
	Failed            int64 `json:"jobs_failed"`

	CacheHits   int64   `json:"cache_hits"`
	Coalesced   int64   `json:"coalesced"`
	CacheMisses int64   `json:"cache_misses"`
	HitRate     float64 `json:"cache_hit_rate"`
	CacheLen    int     `json:"cache_entries"`

	// OwnedDigests counts the distinct trace digests this node currently
	// holds: resident cache entries plus in-flight jobs. On a router's
	// aggregate it sums across reachable nodes, which is the cluster's
	// sharding footprint. Added in 1.1.
	OwnedDigests int64 `json:"owned_digests"`

	Retries int64 `json:"retries"`

	// BreakerOpen / BreakerTrips report the pool's transient-failure
	// circuit breaker: whether new work is currently failing fast instead
	// of hammering a down LLM backend, and how many times the breaker has
	// tripped since start. Added in 1.1.
	BreakerOpen  bool  `json:"breaker_open"`
	BreakerTrips int64 `json:"breaker_trips"`

	LatencyP50 time.Duration `json:"latency_p50_ns"`
	LatencyP95 time.Duration `json:"latency_p95_ns"`
	// LatencyBuckets is the histogram LatencyP50 and LatencyP95 come
	// from; a router sums it across nodes, so the cluster percentiles are
	// of the pooled jobs. Added in 1.8.
	LatencyBuckets *Buckets `json:"latency_buckets,omitempty"`

	// Models breaks token and cost counters down per LLM model.
	Models map[string]ModelMetrics `json:"models,omitempty"`

	// Tenants maps tenant identifier to jobs submitted under it (the
	// TenantOverflow key aggregates the long tail once the per-node
	// tenant-label cap is reached). Added in 1.1.
	Tenants map[string]int64 `json:"tenant_jobs,omitempty"`

	// TenantsInflight maps tenant identifier to its jobs currently in
	// the system — the counter iofleetd -tenant-max-inflight enforces
	// quota_exceeded against. Added in 1.2.
	TenantsInflight map[string]int64 `json:"tenant_inflight_jobs,omitempty"`

	// Semantic-reuse effectiveness (iofleetd -semcache; all zero when
	// disabled): exact-cache misses served from a near-duplicate's
	// diagnosis, misses with no usable candidate, and candidates the
	// confidence gate refused. SemCacheEntries is the similarity index's
	// resident size. Added in 1.3.
	SemCacheHits        int64 `json:"semcache_hits"`
	SemCacheMisses      int64 `json:"semcache_misses"`
	SemCacheGateRejects int64 `json:"semcache_gate_rejects"`
	SemCacheEntries     int   `json:"semcache_entries"`

	// Tiers breaks fresh diagnoses down per model of the cost-aware
	// ladder (iofleetd -tier-models; empty when disabled), and
	// TierEscalations counts low-confidence results that escalated to a
	// stronger model. Added in 1.3.
	Tiers           map[string]TierMetrics `json:"tier_models,omitempty"`
	TierEscalations int64                  `json:"tier_escalations"`

	// Knowledge reports the node's knowledge plane (iofleetd -knowledge;
	// nil when disabled). Added in 1.4.
	Knowledge *KnowledgeStatus `json:"knowledge,omitempty"`

	// Handoff reports the node's elastic-cluster activity (iofleetd
	// -advertise; nil when running with a static member set). Added in 1.5.
	Handoff *HandoffMetrics `json:"handoff,omitempty"`

	// Sched reports the node's per-tenant fair scheduler: realized DRR
	// dequeue shares, per-tenant queue depth and queue age, and SLO
	// admission rejects. On a router's cluster-wide aggregate the counters
	// and the age histograms are summed across reachable nodes, the median
	// age is read off the summed histogram and the maximum age is the
	// largest on any node. Added in 1.6.
	Sched *SchedMetrics `json:"sched,omitempty"`
}

// SchedMetrics is the fair scheduler's wire snapshot, embedded in
// Metrics and aggregated cluster-wide by routers. Added in 1.6.
type SchedMetrics struct {
	// FIFO marked a node running the tenant-blind FIFO baseline
	// scheduler, a mode this version no longer has: its nodes always
	// report false. The field stays for older members of a mixed
	// cluster. Admission reports whether SLO admission control is
	// enforced.
	FIFO      bool `json:"fifo,omitempty"`
	Admission bool `json:"admission,omitempty"`
	// Dequeues / Rejects are lifetime totals across all tenants,
	// including anonymous submissions that appear under no tenant label.
	Dequeues int64 `json:"dequeues"`
	Rejects  int64 `json:"rejects"`
	// Lanes maps lane name to its current queue depth (all tenants).
	Lanes map[string]int64 `json:"lane_depth,omitempty"`
	// Tenants maps tenant identifier to its scheduling row; the
	// TenantOverflow key aggregates the long tail once the per-node
	// tenant-label cap is reached, exactly as Metrics.Tenants does.
	Tenants map[string]SchedTenant `json:"tenants,omitempty"`
}

// SchedTenant is one tenant's row in SchedMetrics. Added in 1.6.
type SchedTenant struct {
	// Class is the tenant's SLO class name ("" when unclassed); Weight is
	// the effective DRR weight scheduling uses.
	Class  string `json:"class,omitempty"`
	Weight int    `json:"weight"`
	// Depth is the tenant's currently queued jobs across lanes.
	Depth int64 `json:"depth"`
	// Dequeues counts jobs handed to workers; the ratio between tenants'
	// Dequeues over an interval is the realized DRR share. Rejects counts
	// submissions refused by SLO admission (slo_exceeded).
	Dequeues int64 `json:"dequeues"`
	Rejects  int64 `json:"rejects"`
	// AgeP50 / AgeMax are the median and maximum queue age over the
	// tenant's dequeues since start: how long jobs waited between enqueue
	// and worker pickup. AgeBuckets is the histogram they come from.
	// AgeBuckets added in 1.8.
	AgeP50     time.Duration `json:"age_p50_ns"`
	AgeMax     time.Duration `json:"age_max_ns"`
	AgeBuckets *Buckets      `json:"age_buckets,omitempty"`
}

// TierMetrics is one ladder model's share of fresh diagnoses and its
// lifetime spend. Added in 1.3.
type TierMetrics struct {
	Jobs    int64   `json:"jobs"`
	CostUSD float64 `json:"cost_usd"`
}

// TenantOverflow is the tenant-label key that aggregates tenants beyond
// MaxTenantLabels, in Metrics.Tenants and SchedMetrics.Tenants alike.
const TenantOverflow = "_other"

// MaxTenantLabels caps the distinct tenant labels one metrics document
// carries, so cardinality stays bounded no matter what tenant strings
// clients invent. The pool, the scheduler and MergeMetrics all fold the
// tail beyond it into TenantOverflow.
const MaxTenantLabels = 256

// rule is how one leaf of Metrics folds across nodes in MergeMetrics.
type rule int

const (
	sum      rule = iota + 1 // counters, gauges that add up across nodes, histograms bucket for bucket
	largest                  // max: the aggregate never understates a tail or a view
	smallest                 // min: the value every node is guaranteed to have reached
	or                       // a flag set on any node marks the aggregate
	first                    // the first non-zero value met, in member order
	pooled                   // a percentile read off its summed histogram (see MergeMetrics)
)

const counter, gauge, histogram = "counter", "gauge", "histogram"

// leaf declares one field of the document. path is the Go field path from
// Metrics; pointer blocks and maps on the way are walked through. labels
// are the series' fixed label pairs, with %q where the map key goes.
type leaf struct {
	path   string
	labels string
	merge  rule
}

// family is one Prometheus metric family and the leaves that are its
// series. A family whose block pointer is nil is not exposed at all.
type family struct {
	name, kind, help string
	leaves           []leaf
}

// families is the only declaration of a metric besides its struct field:
// exposition name, labels, kind, HELP text and merge rule. Exposition
// order is table order. The last entry, without a name, holds leaves that
// merge but have no series of their own.
var families = []family{
	{"fleet_workers", gauge, "Number of concurrent diagnosis workers.", []leaf{{"Workers", "", sum}}},
	{"fleet_jobs_submitted_total", counter, "Jobs accepted since daemon start.", []leaf{{"Submitted", "", sum}}},
	{"fleet_jobs_queued", gauge, "Jobs waiting for a worker, by priority lane.", []leaf{
		{"QueuedInteractive", `lane="interactive"`, sum}, {"QueuedBatch", `lane="batch"`, sum}}},
	{"fleet_jobs_running", gauge, "Jobs currently occupying a worker.", []leaf{{"Running", "", sum}}},
	{"fleet_jobs_done_total", counter, "Jobs finished successfully (cache hits included).", []leaf{{"Done", "", sum}}},
	{"fleet_jobs_failed_total", counter, "Jobs failed permanently.", []leaf{{"Failed", "", sum}}},
	{"fleet_cache_hits_total", counter, "Submissions answered instantly from the result cache.", []leaf{{"CacheHits", "", sum}}},
	{"fleet_cache_coalesced_total", counter, "Submissions coalesced onto an identical in-flight job.", []leaf{{"Coalesced", "", sum}}},
	{"fleet_cache_misses_total", counter, "Submissions that ran the full pipeline.", []leaf{{"CacheMisses", "", sum}}},
	{"fleet_cache_entries", gauge, "Resident result-cache entries.", []leaf{{"CacheLen", "", sum}}},
	{"fleet_owned_digests", gauge, "Distinct digests this node holds (cache entries plus in-flight jobs); the node's share of the sharded digest space.", []leaf{{"OwnedDigests", "", sum}}},
	{"fleet_retries_total", counter, "Extra diagnosis attempts beyond each job's first.", []leaf{{"Retries", "", sum}}},
	{"fleet_breaker_open", gauge, "1 while the transient-failure circuit breaker is failing work fast, else 0.", []leaf{{"BreakerOpen", "", or}}},
	{"fleet_breaker_trips_total", counter, "Times the circuit breaker has tripped open.", []leaf{{"BreakerTrips", "", sum}}},
	// Two plain gauges rather than one series with a `quantile` label:
	// that label is reserved for TYPE summary. Both are read off the
	// histogram below, so a merged document's are the pooled jobs'
	// percentiles, not the worst node's. A rate window over the histogram
	// is the scraper's to take.
	{"fleet_latency_p50_seconds", gauge, "Median submit-to-completion latency of successful jobs since daemon start.", []leaf{{"LatencyP50", "", pooled}}},
	{"fleet_latency_p95_seconds", gauge, "95th-percentile submit-to-completion latency of successful jobs since daemon start.", []leaf{{"LatencyP95", "", pooled}}},
	{"fleet_job_latency_seconds", histogram, "Submit-to-completion latency of successful jobs since daemon start (cache hits near 0); the le bounds are edges of the daemon's finer fixed histogram, whose buckets are at most 1/8 wide.", []leaf{{"LatencyBuckets", "", sum}}},
	{"fleet_semcache_hits_total", counter, "Exact-cache misses served from a near-duplicate's cached diagnosis.", []leaf{{"SemCacheHits", "", sum}}},
	{"fleet_semcache_misses_total", counter, "Exact-cache misses with no usable similarity candidate.", []leaf{{"SemCacheMisses", "", sum}}},
	{"fleet_semcache_gate_rejects_total", counter, "Similarity candidates refused by the confidence gate.", []leaf{{"SemCacheGateRejects", "", sum}}},
	{"fleet_semcache_entries", gauge, "Digests currently indexed for similarity lookup.", []leaf{{"SemCacheEntries", "", sum}}},

	// Epoch is the corpus version every retrieval is guaranteed to reflect.
	{"fleet_knowledge_epoch", gauge, "Promoted knowledge-corpus version on this node.", []leaf{{"Knowledge.Epoch", "", smallest}}},
	{"fleet_knowledge_docs", gauge, "Documents in the full corpus view.", []leaf{{"Knowledge.Docs", "", largest}}},
	{"fleet_knowledge_owned_docs", gauge, "Documents this node indexes locally (its ring shard plus replicas).", []leaf{{"Knowledge.OwnedDocs", "", sum}}},
	{"fleet_knowledge_staged_ops", gauge, "Staged corpus mutations awaiting an epoch swap.", []leaf{{"Knowledge.StagedOps", "", sum}}},
	{"fleet_knowledge_queries_total", counter, "Retrievals served by the knowledge plane.", []leaf{{"Knowledge.Queries", "", sum}}},
	{"fleet_knowledge_index_queries_total", counter, "Underlying index searches by path (HNSW graph walk vs exact scan).", []leaf{
		{"Knowledge.ANNQueries", `path="ann"`, sum}, {"Knowledge.ExactQueries", `path="exact"`, sum}}},
	{"fleet_knowledge_rerank_calls_total", counter, "Rerank invocations between retrieval and reflection.", []leaf{{"Knowledge.RerankCalls", "", sum}}},
	{"fleet_knowledge_rerank_errors_total", counter, "Rerank failures that fell back to vector order.", []leaf{{"Knowledge.RerankErrors", "", sum}}},
	{"fleet_knowledge_rerank_cost_usd_total", counter, "Simulated rerank-judge spend in US dollars.", []leaf{{"Knowledge.RerankCostUSD", "", sum}}},
	{"fleet_knowledge_retrieval_p95_seconds", gauge, "95th-percentile retrieval latency of knowledge queries since daemon start.", []leaf{{"Knowledge.RetrievalP95", "", pooled}}},
	{"fleet_knowledge_retrieval_seconds", histogram, "Knowledge retrieval latency (vector search plus rerank) since daemon start.", []leaf{{"Knowledge.RetrievalBuckets", "", sum}}},

	{"fleet_handoff_roster_size", gauge, "Fleet members in this node's roster view (itself included).", []leaf{{"Handoff.RosterSize", "", largest}}},
	{"fleet_handoff_roster_epoch", counter, "Membership-view version; increments on every observed change.", []leaf{{"Handoff.RosterEpoch", "", largest}}},
	{"fleet_handoff_ring_changes_total", counter, "Membership transitions (joins and health expiries) this node rebalanced for.", []leaf{{"Handoff.RingChanges", "", sum}}},
	{"fleet_handoff_entries_pushed_total", counter, "Cache entries pushed to new owners after ring changes.", []leaf{{"Handoff.EntriesPushed", "", sum}}},
	{"fleet_handoff_push_errors_total", counter, "Cache pushes (handoff or replication) that failed.", []leaf{{"Handoff.PushErrors", "", sum}}},
	{"fleet_handoff_entries_received_total", counter, "Cache entries accepted from rebalancing peers.", []leaf{{"Handoff.EntriesReceived", "", sum}}},
	{"fleet_handoff_replica_pushed_total", counter, "Cache entries replicated out to ring successors on insert.", []leaf{{"Handoff.ReplicaPushed", "", sum}}},
	{"fleet_handoff_replica_received_total", counter, "Replica copies accepted from digest owners.", []leaf{{"Handoff.ReplicaReceived", "", sum}}},

	// A single admission-enforcing node (or an older node still running
	// the FIFO baseline; current nodes always report 0) marks the whole
	// aggregate: mixed modes are an operator condition worth seeing.
	{"fleet_sched_fifo", gauge, "1 while the node runs the tenant-blind FIFO baseline instead of weighted DRR, else 0.", []leaf{{"Sched.FIFO", "", or}}},
	{"fleet_sched_admission", gauge, "1 while SLO admission control is enforced, else 0.", []leaf{{"Sched.Admission", "", or}}},
	{"fleet_sched_dequeues_total", counter, "Jobs handed to workers by the fair scheduler (all tenants).", []leaf{{"Sched.Dequeues", "", sum}}},
	{"fleet_sched_rejects_total", counter, "Submissions refused by SLO admission control (slo_exceeded).", []leaf{{"Sched.Rejects", "", sum}}},
	{"fleet_sched_lane_depth", gauge, "Jobs queued in the fair scheduler, by priority lane.", []leaf{{"Sched.Lanes", "lane=%q", sum}}},
	{"fleet_sched_tenant_depth", gauge, "Jobs queued per tenant (label cardinality capped server-side; the long tail aggregates under \"_other\").", []leaf{{"Sched.Tenants.Depth", "tenant=%q", sum}}},
	{"fleet_sched_tenant_dequeues_total", counter, "Jobs handed to workers per tenant; inter-tenant ratios are the realized DRR shares.", []leaf{{"Sched.Tenants.Dequeues", "tenant=%q", sum}}},
	{"fleet_sched_tenant_rejects_total", counter, "Submissions refused by SLO admission per tenant.", []leaf{{"Sched.Tenants.Rejects", "tenant=%q", sum}}},
	{"fleet_sched_tenant_weight", gauge, "Effective DRR weight per tenant.", []leaf{{"Sched.Tenants.Weight", "tenant=%q", largest}}},
	// Queue age stays two gauges per tenant, so exposition cardinality
	// does not grow with the histogram behind them.
	{"fleet_sched_tenant_queue_age_p50_seconds", gauge, "Median queue age of the tenant's dequeues since daemon start.", []leaf{{"Sched.Tenants.AgeP50", "tenant=%q", pooled}}},
	{"fleet_sched_tenant_queue_age_max_seconds", gauge, "Maximum queue age of the tenant's dequeues since daemon start.", []leaf{{"Sched.Tenants.AgeMax", "tenant=%q", largest}}},

	{"fleet_tier_jobs_total", counter, "Fresh diagnoses produced per ladder model (escalated-past rungs included).", []leaf{{"Tiers.Jobs", "model=%q", sum}}},
	{"fleet_tier_cost_usd_total", counter, "Simulated API spend per ladder model in US dollars.", []leaf{{"Tiers.CostUSD", "model=%q", sum}}},
	{"fleet_tier_escalations_total", counter, "Low-confidence diagnoses escalated to the next ladder rung.", []leaf{{"TierEscalations", "", sum}}},
	{"fleet_model_calls_total", counter, "LLM calls per model.", []leaf{{"Models.Calls", "model=%q", sum}}},
	{"fleet_model_tokens_total", counter, "Tokens consumed per model and kind.", []leaf{
		{"Models.PromptTokens", `model=%q,kind="prompt"`, sum}, {"Models.CompletionTokens", `model=%q,kind="completion"`, sum}}},
	{"fleet_model_cost_usd_total", counter, "Simulated API spend per model in US dollars.", []leaf{{"Models.CostUSD", "model=%q", sum}}},
	{"fleet_tenant_jobs_total", counter, "Jobs submitted per tenant (label cardinality capped server-side; the long tail aggregates under \"_other\").", []leaf{{"Tenants", "tenant=%q", sum}}},
	{"fleet_tenant_inflight_jobs", gauge, "Jobs currently in the system per tenant (the -tenant-max-inflight quota counter).", []leaf{{"TenantsInflight", "tenant=%q", sum}}},

	// Queued is exposed through its two lane series, and a tenant's age
	// histogram through its two gauges. Node and HitRate have no rule:
	// the aggregate is no single node, and MergeMetrics recomputes the
	// ratio from the merged counters.
	{leaves: []leaf{{"Queued", "", sum}, {"Sched.Tenants.Class", "", first}, {"Sched.Tenants.AgeBuckets", "", sum}}},
}

// rules indexes the table's merge rules by leaf path.
var rules = func() map[string]rule {
	byPath := make(map[string]rule)
	for _, f := range families {
		for _, l := range f.leaves {
			byPath[l.path] = l.merge
		}
	}
	return byPath
}()

// walk follows path from v through struct fields, pointer blocks and map
// entries, calling fn on each value it ends at with the key of the map
// crossed on the way. It reports false when a nil block cuts the path.
func walk(v reflect.Value, path, key string, fn func(key string, v reflect.Value)) bool {
	for path != "" {
		var name string
		name, path, _ = strings.Cut(path, ".")
		v = v.FieldByName(name)
		switch v.Kind() {
		case reflect.Pointer:
			if v.IsNil() {
				return false
			}
			v = v.Elem()
		case reflect.Map:
			for it := v.MapRange(); it.Next(); {
				walk(it.Value(), path, it.Key().String(), fn)
			}
			return true
		}
	}
	fn(key, v)
	return true
}

// WritePrometheus renders the document in Prometheus text exposition
// format (version 0.0.4): every family of the table in table order, its
// series sorted by map key. Served from GET /metrics under "Accept:
// text/plain" — by single daemons for their own counters and by the
// router for the cluster aggregate.
func (m Metrics) WritePrometheus(w io.Writer) {
	type sample struct {
		key, labels string
		v           reflect.Value
	}
	root := reflect.ValueOf(m)
	for _, f := range families {
		var samples []sample
		exposed := f.name != ""
		for _, l := range f.leaves {
			exposed = exposed && walk(root, l.path, "", func(key string, v reflect.Value) {
				labels := l.labels
				if strings.Contains(labels, "%q") {
					labels = fmt.Sprintf(labels, key)
				}
				samples = append(samples, sample{key, labels, v})
			})
		}
		if !exposed {
			continue
		}
		// Stable, so the leaves of one key keep their table order.
		sort.SliceStable(samples, func(i, j int) bool { return samples[i].key < samples[j].key })
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", f.name, f.help, f.name, f.kind)
		for _, s := range samples {
			if f.kind == histogram {
				s.v.Addr().Interface().(*Buckets).writeProm(w, f.name)
				continue
			}
			if s.labels != "" {
				s.labels = "{" + s.labels + "}"
			}
			fmt.Fprintf(w, "%s%s %s\n", f.name, s.labels, promValue(s.v))
		}
	}
}

// promValue renders one leaf: flags as 0/1, durations in seconds.
func promValue(v reflect.Value) string {
	switch {
	case v.Type() == reflect.TypeFor[time.Duration]():
		return seconds(time.Duration(v.Int()))
	case v.Kind() == reflect.Bool:
		if v.Bool() {
			return "1"
		}
		return "0"
	case v.CanInt():
		return strconv.FormatInt(v.Int(), 10)
	case v.CanUint():
		return strconv.FormatUint(v.Uint(), 10)
	}
	return strconv.FormatFloat(v.Float(), 'g', -1, 64)
}

// MergeMetrics folds per-node documents into the cluster view, each leaf
// by the rule its table row declares; a block or map no node carries
// stays absent, and Node is empty on the aggregate.
func MergeMetrics(nodes []Metrics) Metrics {
	var agg Metrics
	for i := range nodes {
		mergeInto(reflect.ValueOf(&agg).Elem(), reflect.ValueOf(nodes[i]), "", i == 0, false)
	}
	if agg.Submitted > 0 {
		agg.HitRate = float64(agg.CacheHits+agg.Coalesced) / float64(agg.Submitted)
	}
	// Each node caps its own tenant-label cardinality, but the UNION of
	// per-node maps can exceed any single node's cap when tenant sets are
	// disjoint — without re-capping, a cluster aggregate would grow labels
	// without bound as members are added. Re-apply the cap cluster-wide,
	// folding the smallest counters into the same overflow bucket the
	// nodes themselves use.
	capTenants(agg.Tenants, func(n int64) int64 { return n }, func(acc, n int64) int64 { return acc + n })
	if agg.Sched != nil {
		capTenants(agg.Sched.Tenants, func(tm SchedTenant) int64 { return tm.Dequeues }, foldSchedTenant)
	}
	// A pooled percentile is read off the summed histogram. The fold left
	// in it the largest value of the nodes that sent no histogram (api
	// 1.7), so a mixed-version cluster never reports less than before.
	agg.LatencyP50 = max(agg.LatencyP50, agg.LatencyBuckets.Quantile(0.50))
	agg.LatencyP95 = max(agg.LatencyP95, agg.LatencyBuckets.Quantile(0.95))
	if k := agg.Knowledge; k != nil {
		k.RetrievalP95 = max(k.RetrievalP95, k.RetrievalBuckets.Quantile(0.95))
	}
	if agg.Sched != nil {
		for t, row := range agg.Sched.Tenants {
			row.AgeP50 = max(row.AgeP50, row.AgeBuckets.Quantile(0.50))
			agg.Sched.Tenants[t] = row
		}
	}
	return agg
}

// mergeInto folds src into dst, both the value at path. fresh marks a dst
// that holds nothing yet: the first node, or a block or map entry this
// node is the first to carry. bare marks a src struct that has a
// histogram field left nil, as an api 1.7 node sends it: its pooled
// leaves fold by largest.
func mergeInto(dst, src reflect.Value, path string, fresh, bare bool) {
	if src.Type() == bucketsType {
		if h := src.Interface().(*Buckets); h != nil {
			dst.Set(reflect.ValueOf(dst.Interface().(*Buckets).Merge(h)))
		}
		return
	}
	switch src.Kind() {
	case reflect.Struct:
		bare = false
		for i := 0; i < src.NumField(); i++ {
			if f := src.Field(i); f.Type() == bucketsType && f.IsNil() {
				bare = true
			}
		}
		for i := 0; i < src.NumField(); i++ {
			mergeInto(dst.Field(i), src.Field(i), strings.TrimPrefix(path+"."+src.Type().Field(i).Name, "."), fresh, bare)
		}
	case reflect.Pointer:
		if src.IsNil() {
			return
		}
		if dst.IsNil() {
			dst.Set(reflect.New(dst.Type().Elem()))
			fresh = true
		}
		mergeInto(dst.Elem(), src.Elem(), path, fresh, bare)
	case reflect.Map:
		for it := src.MapRange(); it.Next(); {
			if dst.IsNil() {
				dst.Set(reflect.MakeMap(dst.Type()))
			}
			// Map entries are not addressable: fold into a copy, store it back.
			acc := reflect.New(dst.Type().Elem()).Elem()
			old := dst.MapIndex(it.Key())
			if old.IsValid() {
				acc.Set(old)
			}
			mergeInto(acc, it.Value(), path, !old.IsValid(), bare)
			dst.SetMapIndex(it.Key(), acc)
		}
	default:
		switch rules[path] {
		case sum:
			switch {
			case dst.CanInt():
				dst.SetInt(dst.Int() + src.Int())
			case dst.CanUint():
				dst.SetUint(dst.Uint() + src.Uint())
			default:
				dst.SetFloat(dst.Float() + src.Float())
			}
		case largest:
			if less(dst, src) {
				dst.Set(src)
			}
		case pooled:
			if bare && less(dst, src) {
				dst.Set(src)
			}
		case smallest:
			if fresh || less(src, dst) {
				dst.Set(src)
			}
		case or:
			dst.SetBool(dst.Bool() || src.Bool())
		case first:
			if dst.IsZero() {
				dst.Set(src)
			}
		}
	}
}

var bucketsType = reflect.TypeFor[*Buckets]()

func less(a, b reflect.Value) bool {
	switch {
	case a.CanInt():
		return a.Int() < b.Int()
	case a.CanUint():
		return a.Uint() < b.Uint()
	}
	return a.Float() < b.Float()
}

// capTenants bounds a summed tenant map in place: beyond the cap the
// entries with the smallest count (ties broken lexically, so the fold is
// deterministic across routers) fold into TenantOverflow, which itself is
// never folded.
func capTenants[V any](tenants map[string]V, count func(V) int64, fold func(acc, v V) V) {
	if len(tenants) <= MaxTenantLabels {
		return
	}
	keys := make([]string, 0, len(tenants))
	for t := range tenants {
		if t != TenantOverflow {
			keys = append(keys, t)
		}
	}
	if len(keys) <= MaxTenantLabels {
		return
	}
	slices.SortFunc(keys, func(a, b string) int {
		return cmp.Or(cmp.Compare(count(tenants[b]), count(tenants[a])), strings.Compare(a, b))
	})
	for _, t := range keys[MaxTenantLabels:] {
		tenants[TenantOverflow] = fold(tenants[TenantOverflow], tenants[t])
		delete(tenants, t)
	}
}

// foldSchedTenant adds a scheduler row's counters and ages into the
// overflow row, whose class and weight stay zero: a synthetic bucket
// carries no single tenant's configuration.
func foldSchedTenant(acc, tm SchedTenant) SchedTenant {
	acc.Depth += tm.Depth
	acc.Dequeues += tm.Dequeues
	acc.Rejects += tm.Rejects
	acc.AgeBuckets = acc.AgeBuckets.Merge(tm.AgeBuckets)
	acc.AgeMax = max(acc.AgeMax, tm.AgeMax)
	return acc
}

// seconds renders a duration as Prometheus seconds.
func seconds(d time.Duration) string {
	return strconv.FormatFloat(d.Seconds(), 'g', -1, 64)
}
