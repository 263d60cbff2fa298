package main

// The metric tables. BENCHMARK.json names the same metrics with the same
// units, directions and bounds; TestBenchmarkJSONMatchesTables keeps the
// two from drifting. README.md carries the glossary and the interaction
// table (which layer metric should move which end-to-end metric, where).

type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: relative worsening that is a regression
}

// endToEnd are what a caller of the fleet sees. Every workload reports
// all of them from untraced windows, and none of them is ever zero. The
// timing bounds are as wide as a bound may be: identical runs on the
// shared 2-core box the baseline was taken on differ by up to 18 %
// between the quartiles of ten seeds (README, "Steadiness").
var endToEnd = []metricDef{
	{"throughput_jobs_s", "1/s", "higher", 0.25},
	{"latency_p50_ms", "ms", "lower", 0.25},
	{"cpu_ms_per_job", "ms", "lower", 0.25},
	{"alloc_kb_per_job", "KB", "lower", 0.05},
	{"setup_s", "s", "lower", 0.25},
}

// perLayer are single-layer numbers, reported by the traced run
// (-trace 1). They carry no bound and never gate a change. A metric that
// does not apply to a workload (a binary decode on a text-only workload,
// a p99 with too few samples) reads 0.
var perLayer = []metricDef{
	// From the untraced window of the traced run: /metrics deltas, job
	// records, file sizes.
	{"fail_ratio", "ratio", "lower", 0},
	{"llm_usd_per_job", "USD", "lower", 0},
	{"pool.exact_hit_ratio", "ratio", "higher", 0},
	{"semcache.hit_ratio", "ratio", "higher", 0},
	{"semcache.gate_reject_ratio", "ratio", "lower", 0},
	{"tiers.escalation_ratio", "ratio", "lower", 0},
	{"tiers.frontier_job_ratio", "ratio", "lower", 0},
	{"llm.calls_per_job", "count", "lower", 0},
	{"llm.tokens_per_job", "count", "lower", 0},
	{"pool.queue_wait_ms_p50", "ms", "lower", 0},
	{"pool.run_ms_p50", "ms", "lower", 0},
	{"pool.retries_per_job", "count", "lower", 0},
	{"server.done_race_retries", "count", "lower", 0},
	{"store.journal_bytes_per_job", "B", "lower", 0},
	{"roster.replica_pushed_per_job", "count", "lower", 0},
	{"roster.push_errors", "count", "lower", 0},
	{"ingest.wire_mb_s", "MB/s", "higher", 0},
	{"client.latency_p95_ms", "ms", "lower", 0},
	{"client.latency_p99_ms", "ms", "lower", 0},
	{"harness.heap_peak_mb", "MB", "lower", 0},
	// From the traced pass: spans recorded by wrappers around the public
	// seams (http.Handler, llm.Client, ioagent.Retriever, pool hooks).
	{"router.handle_ms_p50", "ms", "lower", 0},
	{"router.self_ms_p50", "ms", "lower", 0},
	{"server.submit_ms_p50", "ms", "lower", 0},
	{"server.poll_ms_p50", "ms", "lower", 0},
	{"server.requests_per_job", "count", "lower", 0},
	{"pool.submit_to_done_ms_p50", "ms", "lower", 0},
	{"llm.busy_ms_per_job", "ms", "lower", 0},
	{"ioagent.retrieve_ms_per_job", "ms", "lower", 0},
	{"ioagent.retrieve_calls_per_job", "count", "lower", 0},
	{"store.journal_append_ms_per_job", "ms", "lower", 0},
	{"roster.replicate_hook_ms_per_job", "ms", "lower", 0},
	{"trace.coverage_ratio", "ratio", "higher", 0},
	{"trace.overhead_ratio", "ratio", "lower", 0},
	// From the replay: the workload's own inputs through public
	// functions, single-threaded, cluster idle.
	{"ingest.parse_ms_p50", "ms", "lower", 0},
	{"ingest.parse_mb_s", "MB/s", "higher", 0},
	{"ingest.parse_allocs_per_op", "count", "lower", 0},
	{"darshan.decode_ms_p50", "ms", "lower", 0},
	{"darshan.content_digest_ms_p50", "ms", "lower", 0},
	{"darshan.content_digest_allocs_per_op", "count", "lower", 0},
	{"client.route_key_ms_p50", "ms", "lower", 0},
	{"ring.owner_ns_p50", "ns", "lower", 0},
	{"drishti.analyze_ms_p50", "ms", "lower", 0},
	{"semcache.feature_text_ms_p50", "ms", "lower", 0},
	{"semcache.lookup_ms_p50", "ms", "lower", 0},
	{"semcache.gate_evaluate_ms_p50", "ms", "lower", 0},
	{"ioagent.summarize_ms_p50", "ms", "lower", 0},
	{"ioagent.diagnose_ms_p50", "ms", "lower", 0},
	{"ioagent.self_ms_per_job", "ms", "lower", 0},
	{"vectordb.search_us_p50", "us", "lower", 0},
	{"pool.submit_hit_us_p50", "us", "lower", 0},
	{"store.checkpoint_ms", "ms", "lower", 0},
	{"store.snapshot_bytes", "B", "lower", 0},
}

// value is one reported number. Slices holds the per-slice (or, for
// setup_s, per-repetition) values it was taken from; -compare reads
// their spread.
type value struct {
	Value  float64   `json:"value"`
	Unit   string    `json:"unit"`
	Slices []float64 `json:"slices,omitempty"`
	// Samples is the number of observations behind a percentile.
	Samples int `json:"samples,omitempty"`
}

// metricSet collects a run's numbers by metric name.
type metricSet map[string]value

// unitOf maps every metric of the two tables to its unit.
var unitOf = func() map[string]string {
	units := make(map[string]string, len(endToEnd)+len(perLayer))
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		units[d.Name] = d.Unit
	}
	return units
}()

// put records a metric under its table unit. A name the tables do not
// have is a bug in the harness.
func (m metricSet) put(name string, v value) {
	unit, ok := unitOf[name]
	if !ok {
		panic("bench: metric " + name + " is in neither table")
	}
	v.Unit = unit
	m[name] = v
}

func (m metricSet) set(name string, v float64) { m.put(name, value{Value: v}) }

func (m metricSet) setSampled(name string, v float64, samples int) {
	m.put(name, value{Value: v, Samples: samples})
}
