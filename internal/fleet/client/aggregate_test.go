package client

import (
	"fmt"
	"testing"
	"time"

	"ioagent/internal/fleet/api"
)

// TestAggregateMetricsCapsTenantLabels covers the cluster-wide overflow
// fold: every node caps its own tenant labels, but the union of disjoint
// per-node maps used to grow the aggregate's cardinality without bound,
// and per-node "_other" buckets summed like an ordinary tenant while the
// tail that should join them stayed unfolded.
func TestAggregateMetricsCapsTenantLabels(t *testing.T) {
	// Two nodes with disjoint tenant sets, 200 each, plus their own
	// overflow buckets: the union (400 + _other) exceeds the 256 cap.
	mkNode := func(prefix string, base int64) api.Metrics {
		m := api.Metrics{Tenants: map[string]int64{api.TenantOverflow: 7}}
		for i := 0; i < 200; i++ {
			// Distinct counts so the keep-largest fold is observable.
			m.Tenants[fmt.Sprintf("%s-%03d", prefix, i)] = base + int64(i)
		}
		return m
	}
	agg := api.MergeMetrics([]api.Metrics{mkNode("acme", 1000), mkNode("umbrella", 2000)})

	if got := len(agg.Tenants); got != api.MaxTenantLabels+1 {
		t.Fatalf("aggregate carries %d tenant labels, want %d (+ overflow)", got, api.MaxTenantLabels+1)
	}
	// Totals are conserved: folding moves counts, never drops them.
	var total int64
	for _, n := range agg.Tenants {
		total += n
	}
	var want int64 = 14 // the two nodes' own overflow buckets
	for i := 0; i < 200; i++ {
		want += 1000 + int64(i) + 2000 + int64(i)
	}
	if total != want {
		t.Fatalf("aggregate total %d, want %d", total, want)
	}
	// The largest counters survive as their own labels; the smallest fold.
	if _, ok := agg.Tenants["umbrella-199"]; !ok {
		t.Fatal("largest tenant folded into overflow")
	}
	if _, ok := agg.Tenants["acme-000"]; ok {
		t.Fatal("smallest tenant kept its own label past the cap")
	}
	if agg.Tenants[api.TenantOverflow] <= 14 {
		t.Fatalf("overflow bucket %d did not absorb the folded tail", agg.Tenants[api.TenantOverflow])
	}
	// Determinism: the same snapshots aggregate identically (map order
	// must not leak into the fold).
	again := api.MergeMetrics([]api.Metrics{mkNode("acme", 1000), mkNode("umbrella", 2000)})
	if len(again.Tenants) != len(agg.Tenants) {
		t.Fatal("aggregation is not deterministic")
	}
	for tenant, n := range agg.Tenants {
		if again.Tenants[tenant] != n {
			t.Fatalf("aggregation is not deterministic: %q = %d then %d", tenant, n, again.Tenants[tenant])
		}
	}
}

// ages is a tenant row's queue-age histogram over samples, with the two
// gauges a node reads off it.
func ages(row api.SchedTenant, samples ...time.Duration) api.SchedTenant {
	var h api.Histogram
	for _, d := range samples {
		h.Observe(d)
	}
	row.AgeBuckets = h.Snapshot()
	row.AgeP50, row.AgeMax = row.AgeBuckets.Quantile(0.50), row.AgeBuckets.Max
	return row
}

// TestAggregateMetricsSumsSched covers the scheduler block: counters and
// queue-age histograms sum, the median age is the pooled dequeues' and the
// maximum the largest, and a single FIFO or admission-enforcing member
// marks the whole aggregate.
func TestAggregateMetricsSumsSched(t *testing.T) {
	ms := time.Millisecond
	a := api.Metrics{Sched: &api.SchedMetrics{
		Admission: true, Dequeues: 10, Rejects: 2,
		Lanes: map[string]int64{"interactive": 3},
		Tenants: map[string]api.SchedTenant{
			"acme": ages(api.SchedTenant{Class: "gold", Weight: 8, Depth: 1, Dequeues: 6, Rejects: 2},
				5*ms, 5*ms, 5*ms, 5*ms, 5*ms, 40*ms),
		},
	}}
	b := api.Metrics{Sched: &api.SchedMetrics{
		FIFO: true, Dequeues: 4,
		Lanes: map[string]int64{"interactive": 1, "batch": 2},
		Tenants: map[string]api.SchedTenant{
			"acme": ages(api.SchedTenant{Weight: 1, Depth: 2, Dequeues: 4}, 9*ms, 9*ms, 9*ms, 20*ms),
		},
	}}
	c := api.Metrics{} // a node without the sched block (older minor)

	agg := api.MergeMetrics([]api.Metrics{a, b, c})
	s := agg.Sched
	if s == nil {
		t.Fatal("aggregate dropped the sched block")
	}
	if !s.FIFO || !s.Admission {
		t.Fatalf("flags fifo=%v admission=%v, want both true (any-node-or)", s.FIFO, s.Admission)
	}
	if s.Dequeues != 14 || s.Rejects != 2 {
		t.Fatalf("dequeues/rejects = %d/%d, want 14/2", s.Dequeues, s.Rejects)
	}
	if s.Lanes["interactive"] != 4 || s.Lanes["batch"] != 2 {
		t.Fatalf("lane depths = %v", s.Lanes)
	}
	acme := s.Tenants["acme"]
	if acme.Class != "gold" || acme.Weight != 8 {
		t.Fatalf("acme class/weight = %q/%d, want gold/8", acme.Class, acme.Weight)
	}
	if acme.Depth != 3 || acme.Dequeues != 10 || acme.Rejects != 2 {
		t.Fatalf("acme counters = %+v", acme)
	}
	// Pooled, the ten dequeues' median is a 5ms one; the worse node's
	// median is 9ms.
	if want := a.Sched.Tenants["acme"].AgeP50; acme.AgeP50 != want || acme.AgeMax != 40*ms || acme.AgeBuckets.Count() != 10 {
		t.Fatalf("acme ages = %v/%v over %d, want the pooled %v/40ms over 10", acme.AgeP50, acme.AgeMax, acme.AgeBuckets.Count(), want)
	}
	if worse := b.Sched.Tenants["acme"].AgeP50; acme.AgeP50 >= worse {
		t.Fatalf("pooled median %v is not below the worse node's %v", acme.AgeP50, worse)
	}
}

// TestAggregateMetricsPoolsLatency: two nodes whose pooled job-latency p95
// is not the worse node's. One slow job among ten sets the first node's
// p95; among forty pooled jobs it is past the 95th percentile.
func TestAggregateMetricsPoolsLatency(t *testing.T) {
	node := func(samples ...time.Duration) api.Metrics {
		var h api.Histogram
		for _, d := range samples {
			h.Observe(d)
		}
		b := h.Snapshot()
		return api.Metrics{LatencyBuckets: b, LatencyP50: b.Quantile(0.50), LatencyP95: b.Quantile(0.95)}
	}
	var fast, slow []time.Duration
	for range 30 {
		fast = append(fast, 12*time.Millisecond)
	}
	slow = append(slow, fast[:9]...)
	slow = append(slow, 3*time.Second)
	a, b := node(slow...), node(fast...)
	agg := api.MergeMetrics([]api.Metrics{a, b})
	if worse := max(a.LatencyP95, b.LatencyP95); worse != 3*time.Second || agg.LatencyP95 >= 13*time.Millisecond || agg.LatencyP95 < 12*time.Millisecond {
		t.Fatalf("pooled p95 = %v, want the bucket holding 12ms (the worse node's p95 is %v)", agg.LatencyP95, worse)
	}
}

// TestAggregateMetricsKeepsHandoff covers the elastic block: the
// hand-written aggregate never merged it, so a router's /metrics dropped
// every fleet_handoff_* series its nodes reported. Counters sum; the
// roster view takes the largest size and the newest epoch any node holds.
func TestAggregateMetricsKeepsHandoff(t *testing.T) {
	a := api.Metrics{Handoff: &api.HandoffMetrics{
		RosterSize: 2, RosterEpoch: 5, RingChanges: 1,
		EntriesPushed: 13, PushErrors: 1, EntriesReceived: 0,
		ReplicaPushed: 8, ReplicaReceived: 3,
	}}
	b := api.Metrics{Handoff: &api.HandoffMetrics{
		RosterSize: 3, RosterEpoch: 4, RingChanges: 2,
		EntriesPushed: 0, PushErrors: 0, EntriesReceived: 13,
		ReplicaPushed: 3, ReplicaReceived: 8,
	}}
	c := api.Metrics{} // a member with a static member set

	agg := api.MergeMetrics([]api.Metrics{a, b, c})
	if agg.Handoff == nil {
		t.Fatal("aggregate dropped the handoff block")
	}
	want := api.HandoffMetrics{
		RosterSize: 3, RosterEpoch: 5, RingChanges: 3,
		EntriesPushed: 13, PushErrors: 1, EntriesReceived: 13,
		ReplicaPushed: 11, ReplicaReceived: 11,
	}
	if *agg.Handoff != want {
		t.Fatalf("handoff = %+v, want %+v", *agg.Handoff, want)
	}
}
