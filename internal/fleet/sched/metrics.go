package sched

import (
	"time"

	"ioagent/internal/fleet/api"
)

// tenantStats is the mutable per-tenant counter set. Guarded by the
// scheduler's mu.
type tenantStats struct {
	depth    int64
	dequeues int64
	rejects  int64
	ages     api.Histogram // queue age of every dequeue
}

// schedStats aggregates the per-tenant series under the label cap.
// All methods are called with the scheduler's mu held.
type schedStats struct {
	dequeues int64
	rejects  int64
	tenants  map[string]*tenantStats
}

// forTenant resolves the tenant's stat bucket, applying the label cap.
// Anonymous submissions return nil — there is no principal to chart.
func (st *schedStats) forTenant(tenant string) *tenantStats {
	if tenant == "" {
		return nil
	}
	if st.tenants == nil {
		st.tenants = make(map[string]*tenantStats)
	}
	ts, ok := st.tenants[tenant]
	if !ok {
		if len(st.tenants) >= api.MaxTenantLabels {
			tenant = api.TenantOverflow
			if ts = st.tenants[tenant]; ts != nil {
				return ts
			}
		}
		ts = &tenantStats{}
		st.tenants[tenant] = ts
	}
	return ts
}

func (st *schedStats) hold(tenant string) {
	if ts := st.forTenant(tenant); ts != nil {
		ts.depth++
	}
}

func (st *schedStats) dequeued(tenant string, age time.Duration) {
	st.dequeues++
	ts := st.forTenant(tenant)
	if ts == nil {
		return
	}
	ts.depth--
	ts.dequeues++
	ts.ages.Observe(age)
}

func (st *schedStats) rejected(tenant string) {
	st.rejects++
	if ts := st.forTenant(tenant); ts != nil {
		ts.rejects++
	}
}

// Metrics returns a point-in-time snapshot of lane depths and
// per-tenant fairness stats. Tenants maps tenant (or api.TenantOverflow
// beyond the label cap) to its row; anonymous submissions are not listed.
func (s *Scheduler[T]) Metrics() api.SchedMetrics {
	s.mu.Lock()
	defer s.mu.Unlock()
	m := api.SchedMetrics{
		Admission: s.cfg.Admission,
		Dequeues:  s.stats.dequeues,
		Rejects:   s.stats.rejects,
		Lanes:     make(map[string]int64, len(s.lanes)),
	}
	for name, ln := range s.lanes {
		m.Lanes[name] = int64(ln.count)
	}
	if len(s.stats.tenants) > 0 {
		m.Tenants = make(map[string]api.SchedTenant, len(s.stats.tenants))
		for tenant, ts := range s.stats.tenants {
			tm := api.SchedTenant{
				Class:    s.classes[tenant],
				Weight:   s.weightOfLocked(tenant),
				Depth:    ts.depth,
				Dequeues: ts.dequeues,
				Rejects:  ts.rejects,
			}
			tm.AgeBuckets = ts.ages.Snapshot()
			tm.AgeP50, tm.AgeMax = tm.AgeBuckets.Quantile(0.50), tm.AgeBuckets.Max
			m.Tenants[tenant] = tm
		}
	}
	return m
}
