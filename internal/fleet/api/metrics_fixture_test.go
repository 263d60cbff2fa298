package api

import "time"

// fixtureNode is a node document with every field of Metrics populated:
// two tenants plus the overflow bucket, two models, two tier rungs, and
// the sched, knowledge and handoff blocks. The goldens under testdata/
// were rendered from it (and from fixturePeer) at the commit before the
// renderers became table-driven.
func fixtureNode() Metrics {
	return Metrics{
		Node:    "n1",
		Workers: 4,

		Submitted: 120, Queued: 7, QueuedInteractive: 3, QueuedBatch: 4,
		Running: 2, Done: 105, Failed: 6,

		CacheHits: 40, Coalesced: 8, CacheMisses: 72, HitRate: 0.4, CacheLen: 64,
		OwnedDigests: 66,
		Retries:      5,
		BreakerOpen:  true, BreakerTrips: 2,
		LatencyP50: 1500 * time.Microsecond, LatencyP95: 250 * time.Millisecond,

		Models: map[string]ModelMetrics{
			"gpt-4o":      {Calls: 310, PromptTokens: 412000, CompletionTokens: 58000, CostUSD: 1.61},
			"gpt-4o-mini": {Calls: 95, PromptTokens: 88000, CompletionTokens: 9100, CostUSD: 0.01866},
		},
		Tenants:         map[string]int64{"acme": 70, "umbrella": 30, TenantOverflow: 9},
		TenantsInflight: map[string]int64{"acme": 2, "umbrella": 1},

		SemCacheHits: 21, SemCacheMisses: 44, SemCacheGateRejects: 7, SemCacheEntries: 51,
		Tiers: map[string]TierMetrics{
			"gpt-4o":      {Jobs: 12, CostUSD: 1.61},
			"gpt-4o-mini": {Jobs: 39, CostUSD: 0.01866},
		},
		TierEscalations: 12,

		Knowledge: &KnowledgeStatus{
			Epoch: 7, Docs: 66, OwnedDocs: 41, StagedOps: 3,
			Queries: 900, ANNQueries: 850, ExactQueries: 50,
			RerankCalls: 30, RerankErrors: 1, RerankCostUSD: 0.0425,
			RetrievalP95: 2800 * time.Microsecond,
		},
		Handoff: &HandoffMetrics{
			RosterSize: 3, RosterEpoch: 9, RingChanges: 2,
			EntriesPushed: 13, PushErrors: 1, EntriesReceived: 4,
			ReplicaPushed: 51, ReplicaReceived: 17,
		},
		Sched: &SchedMetrics{
			Admission: true, Dequeues: 111, Rejects: 5,
			Lanes: map[string]int64{"interactive": 3, "batch": 4},
			Tenants: map[string]SchedTenant{
				"acme": {Class: "gold", Weight: 8, Depth: 4, Dequeues: 66, Rejects: 1,
					AgeP50: 5 * time.Millisecond, AgeMax: 40 * time.Millisecond},
				"umbrella": {Weight: 1, Depth: 2, Dequeues: 28, Rejects: 4,
					AgeP50: 900 * time.Millisecond, AgeMax: 3 * time.Second},
				TenantOverflow: {Weight: 1, Depth: 1, Dequeues: 9},
			},
		},
	}
}

// fixturePeer is a second node whose maps partly overlap fixtureNode's
// and partly do not, so the aggregate exercises every merge rule: a lower
// knowledge epoch (min), a larger roster (max), the other scheduler flag
// (or), and a class only this node knows (first).
func fixturePeer() Metrics {
	return Metrics{
		Node:    "n2",
		Workers: 2,

		Submitted: 30, Queued: 1, QueuedInteractive: 1, QueuedBatch: 0,
		Running: 1, Done: 27, Failed: 1,

		CacheHits: 10, Coalesced: 2, CacheMisses: 18, HitRate: 0.4, CacheLen: 17,
		OwnedDigests: 18,
		Retries:      1,
		BreakerTrips: 1,
		LatencyP50:   2 * time.Millisecond, LatencyP95: 90 * time.Millisecond,

		Models: map[string]ModelMetrics{
			"gpt-4o": {Calls: 40, PromptTokens: 51000, CompletionTokens: 7000, CostUSD: 0.1975},
			"o1":     {Calls: 2, PromptTokens: 3000, CompletionTokens: 900, CostUSD: 0.099},
		},
		Tenants:         map[string]int64{"acme": 5, "initech": 11},
		TenantsInflight: map[string]int64{"initech": 1},

		SemCacheHits: 3, SemCacheMisses: 14, SemCacheGateRejects: 1, SemCacheEntries: 15,
		Tiers:           map[string]TierMetrics{"gpt-4o": {Jobs: 4, CostUSD: 0.1975}},
		TierEscalations: 1,

		Knowledge: &KnowledgeStatus{
			Epoch: 6, Docs: 64, OwnedDocs: 40, StagedOps: 0,
			Queries: 100, ANNQueries: 100, ExactQueries: 0,
			RerankCalls: 5, RerankErrors: 0, RerankCostUSD: 0.0071,
			RetrievalP95: 3100 * time.Microsecond,
		},
		Handoff: &HandoffMetrics{
			RosterSize: 4, RosterEpoch: 11, RingChanges: 3,
			EntriesPushed: 2, PushErrors: 0, EntriesReceived: 13,
			ReplicaPushed: 17, ReplicaReceived: 51,
		},
		Sched: &SchedMetrics{
			FIFO: true, Dequeues: 28, Rejects: 0,
			Lanes: map[string]int64{"interactive": 1, "batch": 0},
			Tenants: map[string]SchedTenant{
				"acme": {Weight: 1, Depth: 0, Dequeues: 5,
					AgeP50: 9 * time.Millisecond, AgeMax: 20 * time.Millisecond},
				"initech": {Class: "bronze", Weight: 1, Depth: 1, Dequeues: 10,
					AgeP50: 30 * time.Millisecond, AgeMax: 60 * time.Millisecond},
			},
		},
	}
}
