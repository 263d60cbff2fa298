// Fleet: batch-diagnose a stream of simulated traces through the
// concurrent worker pool, against a deliberately slow and flaky model
// backend, and watch the serving-layer mechanisms earn their keep: worker
// concurrency overlaps API latency, retries absorb transient backend
// errors, and the content-addressed cache makes the second submission of
// every trace free. Act three checkpoints the pool to disk and replays
// it into a brand-new pool — the iofleetd -state-dir restart path — so the
// third batch is free too, across a simulated process death. Act four
// shows priority lanes; act five boots a miniature two-node cluster
// behind iofleet-router's dispatch layer, shards a batch by consistent
// hash, then kills a node and watches the ring successor absorb its work.
//
//	go run ./examples/fleet
package main

import (
	"bytes"
	"context"
	"fmt"
	"log"
	"net/http/httptest"
	"os"
	"strings"
	"time"

	"ioagent/internal/darshan"
	"ioagent/internal/fleet"
	"ioagent/internal/fleet/api"
	"ioagent/internal/fleet/client"
	"ioagent/internal/fleet/router"
	"ioagent/internal/fleet/server"
	"ioagent/internal/fleet/store"
	"ioagent/internal/iosim"
	"ioagent/internal/llm"
)

// makeTrace simulates one small-write-bound MPI job; each seed yields a
// distinct trace and therefore a distinct cache digest.
func makeTrace(seed int64) *darshan.Log {
	sim := iosim.New(iosim.Config{Seed: seed, NProcs: 4, UsesMPI: true, Exe: "/apps/demo/app.x"})
	f := sim.OpenShared(fmt.Sprintf("/scratch/run%03d/out.dat", seed), iosim.POSIX, false, nil)
	for rank := 0; rank < sim.NProcs(); rank++ {
		base := int64(rank) * (1 << 20)
		for i := int64(0); i < 16; i++ {
			f.WriteAt(rank, base+i*16384, 16384)
		}
	}
	f.Close()
	return sim.Finalize()
}

func main() {
	// A realistic backend: every model call pays a 2ms network round
	// trip, and one call in a thousand fails with a transient overload
	// error. A diagnosis makes ~180 calls, so most jobs see at least one
	// failure window across the batch; the retry budget absorbs them.
	backend := llm.Flaky(llm.WithLatency(llm.NewSim(), 2*time.Millisecond), 1000)

	// Persist fleet state the way iofleetd -state-dir does: every
	// accepted job is write-ahead journaled, and checkpoints snapshot the
	// result cache.
	stateDir, err := os.MkdirTemp("", "fleet-state-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(stateDir)
	st, err := store.Open(stateDir, store.Options{})
	if err != nil {
		log.Fatal(err)
	}
	pool := fleet.New(backend, fleet.Config{
		Workers: 8, MaxAttempts: 6,
		OnJobEvent:    st.OnJobEvent,
		OnCacheInsert: st.CacheChanged,
		OnCacheEvict:  st.CacheChanged,
	})
	defer pool.Close()

	const traces = 16
	start := time.Now()
	for i := 0; i < traces; i++ {
		if _, err := pool.Submit(makeTrace(int64(i + 1))); err != nil {
			log.Fatal(err)
		}
	}
	pool.Wait()
	firstBatch := time.Since(start)

	// Resubmit the identical batch: every job completes instantly from
	// the result cache.
	start = time.Now()
	for i := 0; i < traces; i++ {
		if _, err := pool.Submit(makeTrace(int64(i + 1))); err != nil {
			log.Fatal(err)
		}
	}
	pool.Wait()
	secondBatch := time.Since(start)

	m := pool.Metrics()
	fmt.Printf("first batch  (%d traces, %d workers): %v\n", traces, m.Workers, firstBatch.Round(time.Millisecond))
	fmt.Printf("second batch (all cached):            %v\n", secondBatch.Round(time.Millisecond))
	fmt.Printf("jobs done %d / failed %d, retries absorbed %d\n", m.Done, m.Failed, m.Retries)
	fmt.Printf("cache: %d hits, %d misses (hit rate %.0f%%)\n", m.CacheHits, m.CacheMisses, 100*m.HitRate)
	fmt.Printf("latency: p50 %v, p95 %v\n", m.LatencyP50.Round(time.Millisecond), m.LatencyP95.Round(time.Millisecond))

	usage, cost, calls := pool.Agent().Stats()
	fmt.Printf("cost: %d LLM calls, %d tokens, $%.4f (second batch added $0)\n", calls, usage.Total(), cost)

	// Act three: checkpoint, "crash", and recover into a fresh pool — the
	// restart path a production redeploy takes. The snapshot carries every
	// diagnosis across the process boundary, so the third batch is served
	// entirely from disk-restored cache at zero model cost.
	if err := st.FinalCheckpoint(pool); err != nil {
		log.Fatal(err)
	}
	if err := st.Close(); err != nil {
		log.Fatal(err)
	}

	st2, err := store.Open(stateDir, store.Options{})
	if err != nil {
		log.Fatal(err)
	}
	defer st2.Close()
	pool2 := fleet.New(backend, fleet.Config{
		Workers: 8, MaxAttempts: 6,
		OnJobEvent:    st2.OnJobEvent,
		OnCacheInsert: st2.CacheChanged,
		OnCacheEvict:  st2.CacheChanged,
	})
	defer pool2.Close()
	restored, resubmitted, err := st2.Replay(pool2)
	if err != nil {
		log.Fatal(err)
	}

	start = time.Now()
	for i := 0; i < traces; i++ {
		if _, err := pool2.Submit(makeTrace(int64(i + 1))); err != nil {
			log.Fatal(err)
		}
	}
	pool2.Wait()
	thirdBatch := time.Since(start)

	m2 := pool2.Metrics()
	_, cost2, calls2 := pool2.Agent().Stats()
	fmt.Printf("\nrestart: %d diagnoses restored from %s, %d unfinished jobs replayed\n", restored, stateDir, resubmitted)
	fmt.Printf("third batch (new process, disk-warm cache): %v, %d/%d cache hits, %d LLM calls, $%.4f\n",
		thirdBatch.Round(time.Millisecond), m2.CacheHits, m2.Submitted, calls2, cost2)

	// Act four: priority lanes. A single worker faces a saturating batch
	// backlog when one latency-sensitive interactive trace arrives late.
	// The weighted two-lane dequeue hands the interactive job the next
	// free worker slot instead of the back of the FIFO line — the
	// iofleetd contract behind POST /v1/jobs?lane=interactive.
	lanePool := fleet.New(backend, fleet.Config{Workers: 1, QueueDepth: 8, MaxAttempts: 6})
	defer lanePool.Close()
	var batchJobs []*fleet.Job
	for i := 0; i < 8; i++ {
		j, err := lanePool.SubmitPreparsed(context.Background(), fleet.Preparsed{Log: makeTrace(int64(200 + i))}, fleet.SubmitOpts{Lane: fleet.LaneBatch})
		if err != nil {
			log.Fatal(err)
		}
		batchJobs = append(batchJobs, j)
	}
	start = time.Now()
	ji, err := lanePool.SubmitPreparsed(context.Background(), fleet.Preparsed{Log: makeTrace(300)}, fleet.SubmitOpts{Lane: fleet.LaneInteractive})
	if err != nil {
		log.Fatal(err)
	}
	if _, err := ji.Wait(); err != nil {
		log.Fatal(err)
	}
	interactiveWait := time.Since(start)
	pendingBatch := 0
	for _, j := range batchJobs {
		select {
		case <-j.Done():
		default:
			pendingBatch++
		}
	}
	lanePool.Wait()
	fmt.Printf("\npriority lanes: interactive job served in %v while %d/8 batch jobs still waited behind it\n",
		interactiveWait.Round(time.Millisecond), pendingBatch)

	// Act five: a two-node cluster. Each node is a real daemon surface
	// (internal/fleet/server) over its own pool; the router shards
	// submissions across them by consistent hash on the trace bytes and
	// fails over to the ring successor when a node dies — exactly what
	// `iofleetd -node-id` x N behind `iofleet-router` does on real ports.
	ctx := context.Background()
	type clusterNode struct {
		id   string
		pool *fleet.Pool
		srv  *httptest.Server
	}
	var nodes []*clusterNode
	for _, id := range []string{"nodeA", "nodeB"} {
		p := fleet.New(backend, fleet.Config{Workers: 4, MaxAttempts: 6, NodeID: id})
		s := httptest.NewServer(server.NewMux(server.Config{Pool: p, NodeID: id}))
		nodes = append(nodes, &clusterNode{id: id, pool: p, srv: s})
		defer p.Close()
		defer s.Close()
	}
	rt, err := router.New(router.Config{
		Members:       []string{nodes[0].srv.URL, nodes[1].srv.URL},
		ClientOptions: []client.Option{client.WithRetry(1, 10*time.Millisecond)},
	})
	if err != nil {
		log.Fatal(err)
	}
	defer rt.Close()
	front := httptest.NewServer(rt.Handler())
	defer front.Close()
	c := client.New(front.URL, client.WithPollInterval(10*time.Millisecond))
	defer c.Close()

	perNode := map[string]int{}
	var lastRaw []byte
	for i := 0; i < 8; i++ {
		var buf bytes.Buffer
		if err := darshan.Encode(&buf, makeTrace(int64(400+i))); err != nil {
			log.Fatal(err)
		}
		raw := buf.Bytes()
		info, err := c.Submit(ctx, api.SubmitRequest{Lane: api.LaneBatch, Tenant: "demo", Trace: raw})
		if err != nil {
			log.Fatal(err)
		}
		node, _, _ := strings.Cut(info.ID, "-job-")
		perNode[node]++
		lastRaw = raw
		if _, err := c.WaitDiagnosis(ctx, info.ID); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Printf("\ncluster: 8 traces sharded by digest -> nodeA:%d nodeB:%d (tenant \"demo\" accounted on both)\n",
		perNode["nodeA"], perNode["nodeB"])

	// Kill whichever node owns the last trace and resubmit it: the router
	// walks the ring to the survivor, which re-runs the work — safe
	// because submissions are idempotent by digest.
	ownerURL := rt.Route(lastRaw)[0]
	for _, n := range nodes {
		if n.srv.URL == ownerURL {
			fmt.Printf("cluster: killing %s (owner of the last trace)...\n", n.id)
			n.srv.Close()
		}
	}
	info, err := c.Submit(ctx, api.SubmitRequest{Trace: lastRaw})
	if err != nil {
		log.Fatal(err)
	}
	if _, err := c.WaitDiagnosis(ctx, info.ID); err != nil {
		log.Fatal(err)
	}
	survivor, _, _ := strings.Cut(info.ID, "-job-")
	fmt.Printf("cluster: resubmission failed over to %s and completed (job %s)\n", survivor, info.ID)
}
