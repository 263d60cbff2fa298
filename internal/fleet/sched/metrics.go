package sched

import (
	"time"

	"ioagent/internal/fleet/api"
)

// ageWindow bounds the per-tenant reservoir of recent dequeue ages the
// p50/max come from; beyond it the buffer behaves as a ring.
const ageWindow = 128

// tenantStats is the mutable per-tenant counter set. Guarded by the
// scheduler's mu.
type tenantStats struct {
	depth    int64
	dequeues int64
	rejects  int64
	ages     []time.Duration
	ageIdx   int
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
	if len(ts.ages) < ageWindow {
		ts.ages = append(ts.ages, age)
		return
	}
	ts.ages[ts.ageIdx] = age
	ts.ageIdx = (ts.ageIdx + 1) % ageWindow
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
		FIFO:      s.cfg.FIFO,
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
			tm.AgeP50, tm.AgeMax = agePercentiles(ts.ages)
			m.Tenants[tenant] = tm
		}
	}
	return m
}

// agePercentiles computes the p50 and max of the (unsorted) age ring
// without mutating it.
func agePercentiles(ages []time.Duration) (p50, max time.Duration) {
	n := len(ages)
	if n == 0 {
		return 0, 0
	}
	sorted := make([]time.Duration, n)
	copy(sorted, ages)
	// Insertion sort: the window is ≤ ageWindow entries.
	for i := 1; i < n; i++ {
		for j := i; j > 0 && sorted[j] < sorted[j-1]; j-- {
			sorted[j], sorted[j-1] = sorted[j-1], sorted[j]
		}
	}
	i := (n - 1) / 2
	return sorted[i], sorted[n-1]
}
