package fleet

import (
	"maps"
	"math"
	"slices"
	"sync"
	"time"

	"ioagent/internal/fleet/api"
)

// latencySampleCap bounds the reservoir of completed-job latencies kept for
// percentile estimation; beyond it the buffer behaves as a ring holding the
// most recent completions.
const latencySampleCap = 4096

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

	latencies []time.Duration
	latIdx    int
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

func (m *metrics) recordLatency(d time.Duration) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(m.latencies) < latencySampleCap {
		m.latencies = append(m.latencies, d)
		return
	}
	m.latencies[m.latIdx] = d
	m.latIdx = (m.latIdx + 1) % latencySampleCap
}

// percentile returns the p-quantile (0..1) of sorted by the nearest-rank
// method (ceil(p*n)), which never hides the tail sample at small n.
func percentile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
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
	// Every submit and completion takes m.mu: copy the reservoir under it,
	// sort the copy after letting go.
	sorted := slices.Clone(m.latencies)
	m.mu.Unlock()

	s.Queued = s.QueuedInteractive + s.QueuedBatch
	if s.Submitted > 0 {
		s.HitRate = float64(s.CacheHits+s.Coalesced) / float64(s.Submitted)
	}
	slices.Sort(sorted)
	s.LatencyP50 = percentile(sorted, 0.50)
	s.LatencyP95 = percentile(sorted, 0.95)
	return s
}
