package fleet

import (
	"maps"
	"sync"

	"ioagent/internal/fleet/api"
)

// metrics is the pool's mutable counters behind api.Metrics.
type metrics struct {
	mu        sync.Mutex
	submitted int64
	// queuedByLane is the only queued-job state; the snapshot's total is
	// derived from it, so the counters cannot drift apart.
	queuedByLane map[Lane]int64
	running      int64
	done         int64
	failed       int64
	hits         int64
	coalesced    int64
	misses       int64
	retries      int64

	// Semantic reuse and tier-ladder counters (see api.Metrics).
	semHits         int64
	semMisses       int64
	semGateRejects  int64
	tierEscalations int64
	tierJobs        map[string]int64

	// tenants counts submissions per tenant, capped at api.MaxTenantLabels
	// distinct keys plus the overflow bucket. Lazily allocated: pools
	// with only anonymous traffic never pay for the map.
	tenants map[string]int64

	// tenantInflight counts each tenant's jobs currently in the system
	// (queued, running, or coalesced onto a running primary; instant cache
	// hits never enter). The quota check in Submit reads it; entries are
	// deleted at zero so the map never outgrows actual concurrency.
	tenantInflight map[string]int64

	// latency is every successful job's submit-to-done time. It takes no
	// lock: neither a completion nor a scrape holds mu for it.
	latency api.Histogram
}

// holdTenantLocked charges one in-flight job to the tenant. Caller holds
// m.mu. Anonymous submissions are not tracked (and not quota'd).
func (m *metrics) holdTenantLocked(tenant string) {
	if tenant == "" {
		return
	}
	if m.tenantInflight == nil {
		m.tenantInflight = make(map[string]int64)
	}
	m.tenantInflight[tenant]++
}

// releaseTenant returns one in-flight slot to the tenant when its job
// reaches a terminal state.
func (m *metrics) releaseTenant(tenant string) {
	if tenant == "" {
		return
	}
	m.mu.Lock()
	if n := m.tenantInflight[tenant] - 1; n > 0 {
		m.tenantInflight[tenant] = n
	} else {
		delete(m.tenantInflight, tenant)
	}
	m.mu.Unlock()
}

// countTenantLocked attributes one submission to its tenant. Caller holds
// m.mu. Anonymous submissions ("" tenant) are not tracked.
func (m *metrics) countTenantLocked(tenant string) {
	if tenant == "" {
		return
	}
	if m.tenants == nil {
		m.tenants = make(map[string]int64)
	}
	if _, known := m.tenants[tenant]; !known && len(m.tenants) >= api.MaxTenantLabels {
		tenant = api.TenantOverflow
	}
	m.tenants[tenant]++
}

// countSem bumps one of the semantic-reuse counters (a *int64 field of m,
// e.g. &m.semHits) under m.mu.
func (m *metrics) countSem(counter *int64) {
	m.mu.Lock()
	*counter++
	m.mu.Unlock()
}

// countTierJob attributes one fresh diagnosis to a ladder model.
func (m *metrics) countTierJob(model string) {
	m.mu.Lock()
	if m.tierJobs == nil {
		m.tierJobs = make(map[string]int64)
	}
	m.tierJobs[model]++
	m.mu.Unlock()
}

func (m *metrics) snapshot(workers, cacheLen int) api.Metrics {
	m.mu.Lock()
	s := api.Metrics{
		Workers:             workers,
		Submitted:           m.submitted,
		QueuedInteractive:   m.queuedByLane[LaneInteractive],
		QueuedBatch:         m.queuedByLane[LaneBatch],
		Running:             m.running,
		Done:                m.done,
		Failed:              m.failed,
		CacheHits:           m.hits,
		Coalesced:           m.coalesced,
		CacheMisses:         m.misses,
		Retries:             m.retries,
		CacheLen:            cacheLen,
		SemCacheHits:        m.semHits,
		SemCacheMisses:      m.semMisses,
		SemCacheGateRejects: m.semGateRejects,
		TierEscalations:     m.tierEscalations,
	}
	if len(m.tierJobs) > 0 {
		s.Tiers = make(map[string]api.TierMetrics, len(m.tierJobs))
		for model, jobs := range m.tierJobs {
			s.Tiers[model] = api.TierMetrics{Jobs: jobs}
		}
	}
	if len(m.tenants) > 0 {
		s.Tenants = maps.Clone(m.tenants)
	}
	if len(m.tenantInflight) > 0 {
		s.TenantsInflight = maps.Clone(m.tenantInflight)
	}
	m.mu.Unlock()

	s.Queued = s.QueuedInteractive + s.QueuedBatch
	if s.Submitted > 0 {
		s.HitRate = float64(s.CacheHits+s.Coalesced) / float64(s.Submitted)
	}
	s.LatencyBuckets = m.latency.Snapshot()
	s.LatencyP50 = s.LatencyBuckets.Quantile(0.50)
	s.LatencyP95 = s.LatencyBuckets.Quantile(0.95)
	return s
}
