package fleet

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"ioagent/internal/fleet/knowledge"
	"ioagent/internal/fleet/sched"
	"ioagent/internal/llm"
)

// TestHistogramsObservedWhileScraped: eight goroutines record job
// latencies, queue ages and retrievals while Pool.Metrics,
// Scheduler.Metrics and Plane.Metrics run; under -race this is the
// lock-free Observe against a concurrent Snapshot. Every snapshot is
// internally consistent, and the last one counts every sample.
func TestHistogramsObservedWhileScraped(t *testing.T) {
	const workers, perWorker = 8, 200
	p := New(llm.NewSim(), testConfig(1))
	defer p.Close()
	s := sched.New[int](sched.Config{Lanes: []string{"interactive"}, Depth: workers * perWorker})
	plane := knowledge.New(knowledge.Config{})

	stop := make(chan struct{})
	scraped := make(chan error, 1)
	go func() {
		defer close(scraped)
		for {
			select {
			case <-stop:
				return
			default:
			}
			m, sm, km := p.Metrics(), s.Metrics(), plane.Metrics()
			if m.LatencyP95 > m.LatencyBuckets.Max || m.LatencyP50 > m.LatencyP95 || km.RetrievalP95 > km.RetrievalBuckets.Max {
				scraped <- fmt.Errorf("inconsistent snapshot: p50 %v p95 %v max %v; retrieval p95 %v max %v",
					m.LatencyP50, m.LatencyP95, m.LatencyBuckets.Max, km.RetrievalP95, km.RetrievalBuckets.Max)
				return
			}
			for tenant, row := range sm.Tenants {
				if row.AgeP50 > row.AgeMax {
					scraped <- fmt.Errorf("tenant %s: age p50 %v above max %v", tenant, row.AgeP50, row.AgeMax)
					return
				}
			}
		}
	}()

	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tenant := fmt.Sprintf("t%d", w)
			for i := range perWorker {
				p.m.latency.Observe(time.Duration(i*w) * time.Millisecond)
				if err := s.Enqueue(context.Background(), "interactive", tenant, i); err != nil {
					t.Error(err)
					return
				}
				s.Dequeue()
				if i%20 == 0 {
					plane.Retrieve("small writes to a shared file", 3)
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	if err := <-scraped; err != nil {
		t.Fatal(err)
	}

	if n := p.Metrics().LatencyBuckets.Count(); n != workers*perWorker {
		t.Errorf("pool histogram holds %d latencies, want %d", n, workers*perWorker)
	}
	var ages int64
	for _, row := range s.Metrics().Tenants {
		ages += row.AgeBuckets.Count()
	}
	if ages != workers*perWorker {
		t.Errorf("scheduler histograms hold %d queue ages, want %d", ages, workers*perWorker)
	}
	if n := plane.Metrics().RetrievalBuckets.Count(); n != workers*perWorker/20 {
		t.Errorf("plane histogram holds %d retrievals, want %d", n, workers*perWorker/20)
	}
}

// BenchmarkPoolMetrics scrapes a pool that has recorded 4 096 job
// latencies.
func BenchmarkPoolMetrics(b *testing.B) {
	p := New(llm.NewSim(), testConfig(1))
	defer p.Close()
	for i := range 4096 {
		p.m.latency.Observe(time.Duration(i*2654435761%4096) * 37 * time.Microsecond)
	}
	b.ReportAllocs()
	for b.Loop() {
		_ = p.Metrics()
	}
}
