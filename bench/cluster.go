package main

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"ioagent/internal/fleet"
	"ioagent/internal/fleet/api"
	"ioagent/internal/fleet/client"
	"ioagent/internal/fleet/ingest"
	"ioagent/internal/fleet/roster"
	"ioagent/internal/fleet/router"
	"ioagent/internal/fleet/server"
	"ioagent/internal/fleet/store"
	"ioagent/internal/ioagent"
	"ioagent/internal/knowledge"
	"ioagent/internal/llm"
	"ioagent/internal/vectordb"
)

const (
	nodeCount   = 2
	nodeWorkers = 2
	cacheSize   = 4096
	maxBody     = 64 << 20
	// replicate is roster.Config.Replicate: the number of ring members
	// holding each fresh diagnosis, owner included. 2 on a two-node ring
	// puts every diagnosis on both nodes (1 would switch replication off).
	replicate = 2
	// pollInterval replaces the SDK's 100 ms default, which is sized for
	// real model latencies: against the sim it would turn every fresh-path
	// latency into the sleep.
	pollInterval = 2 * time.Millisecond
)

// profile selects the serving strategy under test.
type profile struct {
	Name     string
	SemCache bool
	Tiers    []string
}

var (
	// profileReuse is the cmd/fleetbench shape: semantic reuse plus the
	// cheapest-first tier ladder.
	profileReuse = profile{Name: "reuse", SemCache: true, Tiers: []string{llm.GPT4oMini, llm.GPT4o}}
	// profilePaper leaves both off: ioagent.Options zero values, the
	// paper's configuration.
	profilePaper = profile{Name: "paper"}
)

// agentOptions are the pipeline options every pool runs with; the
// harness derives expected job digests from the same value.
var agentOptions = ioagent.Options{}

type node struct {
	id      string
	url     string
	pool    *fleet.Pool
	store   *store.Store
	mgr     *roster.Manager
	srv     *httptest.Server
	stop    context.CancelFunc // ends the gossip loop
	stopped chan struct{}
}

// cluster is router → two nodes in one process, wired the way
// cmd/iofleetd and cmd/iofleet-router wire theirs.
type cluster struct {
	dir   string
	nodes []*node
	rt    *router.Router
	front *httptest.Server
}

// bootCluster starts the fleet under dir. A nil tracer installs no
// wrappers at all.
func bootCluster(dir string, p profile, t *tracer) (cl *cluster, err error) {
	cl = &cluster{dir: dir}
	defer func() {
		if err != nil {
			cl.close()
		}
	}()
	index := knowledge.BuildIndex() // one corpus index shared by both pools, as cmd/fleetbench does
	var urls []string
	for i := 1; i <= nodeCount; i++ {
		n, nerr := startNode(fmt.Sprintf("n%d", i), filepath.Join(dir, fmt.Sprintf("n%d", i)), p, index, t, urls)
		if nerr != nil {
			return nil, nerr
		}
		cl.nodes = append(cl.nodes, n)
		urls = append(urls, n.url)
	}
	spool := filepath.Join(dir, "spool")
	if err := os.MkdirAll(spool, 0o755); err != nil {
		return nil, err
	}
	cl.rt, err = router.New(router.Config{Members: urls, MaxBody: maxBody, SpoolDir: spool})
	if err != nil {
		return nil, err
	}
	var front http.Handler = cl.rt.Handler()
	if t != nil {
		front = t.handler(routerSpanName, front)
	}
	cl.front = httptest.NewServer(front)

	// Replication follows each node's own roster view; wait for gossip to
	// converge so the first seeded diagnosis already has a successor.
	deadline := time.Now().Add(10 * time.Second)
	for _, n := range cl.nodes {
		for len(n.mgr.Members()) < nodeCount {
			if time.Now().After(deadline) {
				return nil, fmt.Errorf("roster did not converge: %s sees %v", n.id, n.mgr.Members())
			}
			time.Sleep(time.Millisecond)
		}
	}
	return cl, nil
}

func startNode(id, dir string, p profile, index *vectordb.Index, t *tracer, peers []string) (*node, error) {
	st, err := store.Open(dir, store.Options{Fsync: store.FsyncBatch})
	if err != nil {
		return nil, err
	}
	n := &node{id: id, store: st, stopped: make(chan struct{})}

	// The listener exists before the pool (the roster needs its URL), so
	// the handler is bound late, like cmd/handoffbench's nodes.
	var handler atomic.Value
	handler.Store(http.Handler(http.NotFoundHandler()))
	n.srv = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		handler.Load().(http.Handler).ServeHTTP(w, r)
	}))
	n.url = n.srv.URL

	var mgrSlot atomic.Pointer[roster.Manager]
	replicateHook := func(digest string) {
		if m := mgrSlot.Load(); m != nil {
			m.CacheInserted(digest)
		}
	}
	cfg := fleet.Config{
		NodeID:        id,
		Workers:       nodeWorkers,
		CacheSize:     cacheSize,
		Agent:         agentOptions,
		SemCache:      p.SemCache,
		TierModels:    p.Tiers,
		OnJobEvent:    st.OnJobEvent,
		OnCacheEvict:  st.CacheChanged,
		OnCacheInsert: func(digest string) { st.CacheChanged(digest); replicateHook(digest) },
	}
	cfg.Agent.Index = index
	var model llm.Client = llm.NewSim() // no llm.WithLatency: see README
	if t != nil {
		model = tracedLLM{t, model}
		cfg.Agent.Retriever = tracedRetriever{t, index}
		cfg.OnJobEvent = t.jobEvents(st.OnJobEvent)
		cfg.OnCacheInsert = func(digest string) {
			t.time(spanCacheDirty, func() { st.CacheChanged(digest) })
			t.time(spanReplicate, func() { replicateHook(digest) })
		}
	}
	n.pool = fleet.New(model, cfg)

	uploads, err := ingest.NewManager(ingest.Config{
		NodeID: id, MaxBytes: maxBody,
		SpoolDir: st.UploadDir(), OnEvent: st.OnUploadEvent,
	})
	if err != nil {
		n.close()
		return nil, err
	}
	n.mgr = roster.New(roster.Config{
		SelfURL: n.url, NodeID: id, Peers: peers,
		Replicate: replicate, Pool: n.pool,
	})
	mgrSlot.Store(n.mgr)
	var mux http.Handler = server.NewMux(server.Config{
		Pool: n.pool, Store: st, Uploads: uploads, MaxBody: maxBody, NodeID: id, Elastic: n.mgr,
	})
	if t != nil {
		mux = t.handler(serverSpanName, mux)
	}
	handler.Store(mux)

	ctx, cancel := context.WithCancel(context.Background())
	n.stop = cancel
	go func() {
		defer close(n.stopped)
		n.mgr.Run(ctx)
	}()
	return n, nil
}

// close tears one node down in iofleetd's order: gossip and replication
// first (both read the pool), then the listener, the pool, the store.
func (n *node) close() {
	if n.stop != nil {
		n.stop()
		<-n.stopped
	}
	if n.mgr != nil {
		n.mgr.Close()
	}
	n.srv.Close()
	if n.pool != nil {
		n.pool.Close()
	}
	n.store.Close()
}

// close stops every listener and goroutine the cluster started and
// removes its state directory.
func (cl *cluster) close() {
	if cl.front != nil {
		cl.front.Close()
	}
	if cl.rt != nil {
		cl.rt.Close()
	}
	for _, n := range cl.nodes {
		n.close()
	}
	os.RemoveAll(cl.dir)
}

// newClient returns an SDK client for the router with a connection pool
// of its own, so each closed-loop caller holds one connection.
func (cl *cluster) newClient() *client.Client {
	tr := http.DefaultTransport.(*http.Transport).Clone()
	return client.New(cl.front.URL,
		client.WithPollInterval(pollInterval),
		client.WithHTTPClient(&http.Client{Transport: tr, Timeout: 5 * time.Minute}))
}

// scrape reads every node's /metrics document.
func (cl *cluster) scrape(ctx context.Context) ([]api.Metrics, error) {
	out := make([]api.Metrics, 0, len(cl.nodes))
	for _, n := range cl.nodes {
		// No Close: the default client shares http.DefaultTransport with the
		// router's and the rosters' connections.
		m, err := client.New(n.url).Metrics(ctx)
		if err != nil {
			return nil, fmt.Errorf("scrape %s: %w", n.id, err)
		}
		out = append(out, m)
	}
	return out, nil
}

// settle waits until replication has put each of the diagnosed digests on
// both nodes, so set-up ends in one well-defined cache state.
func (cl *cluster) settle(digests int) error {
	deadline := time.Now().Add(30 * time.Second)
	for {
		a, b := cl.nodes[0].pool.Metrics().CacheLen, cl.nodes[1].pool.Metrics().CacheLen
		if a == digests && b == digests {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("replication did not settle: %d digests diagnosed, cache sizes %d and %d", digests, a, b)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// journalBytes is the combined size of the nodes' job journals.
func (cl *cluster) journalBytes() int64 {
	var total int64
	for _, n := range cl.nodes {
		if fi, err := os.Stat(filepath.Join(n.store.Dir(), "journal.wal")); err == nil {
			total += fi.Size()
		}
	}
	return total
}
