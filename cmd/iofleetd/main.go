// Command iofleetd serves the fleet batch-diagnosis pipeline over HTTP: a
// long-lived daemon that accepts Darshan logs, shards them across a pool of
// concurrent IOAgent workers, caches diagnoses by trace content, and exposes
// operational metrics. The wire contract — request/response shapes, error
// codes, priority lanes, version negotiation — is the versioned API in
// internal/fleet/api; internal/fleet/client is the matching Go SDK. With
// -state-dir set, the cache and the job queue are durable: a restarted
// daemon replays unfinished jobs (on their original priority lane) from a
// write-ahead journal and serves previously diagnosed traces from a disk
// snapshot.
//
// In a multi-node fleet each daemon runs with -node-id: job IDs gain the
// node prefix ("n1-job-000042"), every response carries X-Fleet-Node, and
// the metrics document advertises the id — which is how iofleet-router
// (and the SDK's cluster mode) route job lookups back to the node that
// accepted them. The HTTP surface itself lives in internal/fleet/server,
// shared with the router.
//
// Usage:
//
//	iofleetd [-addr :8080] [-workers 4] [-cache-size 1024] [-cache-ttl 1h]
//	         [-retries 3] [-model NAME] [-cheap-model NAME] [-api-latency 0]
//	         [-max-body 67108864] [-batch-share 4] [-node-id NAME]
//	         [-breaker 8] [-breaker-cooldown 5s] [-tenant-max-inflight 0]
//	         [-tenant-weights T=W,...] [-slo-classes T=CLASS,...]
//	         [-slo-admission]
//	         [-upload-ttl 1h] [-max-uploads 64]
//	         [-semcache] [-sim-threshold 0.85] [-gate-model NAME]
//	         [-tier-models M1,M2,...] [-tier-threshold 0.6] [-tier-budget 0]
//	         [-state-dir DIR] [-snapshot-interval 30s] [-fsync always|batch|off]
//	         [-knowledge] [-knowledge-members N1,N2,...] [-knowledge-replicas 2]
//	         [-knowledge-state DIR] [-ann] [-rerank-model NAME]
//	         [-advertise URL] [-peers URL,URL...] [-roster-interval 2s]
//	         [-replicate 0]
//
// -semcache turns on semantic result reuse: each diagnosed trace is
// indexed by a feature vector of its I/O profile, and a later submission
// whose nearest neighbor scores at least -sim-threshold may be served the
// neighbor's cached diagnosis — if a confidence gate (label agreement plus
// an LLM judge on -gate-model) approves. Reused responses carry
// similarity_hit, source_digest, and the gate confidence. With -state-dir
// the similarity index persists beside the cache snapshot.
//
// -tier-models enables cost-aware scheduling for fresh diagnoses: rungs
// are tried cheapest-first and a result only escalates to the next model
// when its self-check score falls below -tier-threshold. A non-zero
// -tier-budget (US dollars of simulated spend) pins work to the cheapest
// rung once total LLM spend crosses it.
//
// -knowledge turns the built-in RAG corpus into a served subsystem: the
// /v1/knowledge endpoints accept staged document upserts and promote them
// atomically to a new corpus epoch (in-flight retrievals finish on the
// epoch they started with). With -knowledge-members the corpus ring-shards
// across the named nodes — this daemon indexes only the documents it owns
// plus -knowledge-replicas-1 successor copies, while keeping the full
// corpus view for citation lookups. -ann switches retrieval to the HNSW
// index; -rerank-model inserts a cheap-model rerank between retrieval and
// reflection. Epochs persist to -knowledge-state (default -state-dir) via
// a write-ahead log and survive kill -9.
//
// Endpoints (all speak api.Version 1.x, advertised and negotiated via the
// X-Fleet-Api-Version header; errors are api.Error JSON envelopes):
//
//	POST /v1/jobs[?lane=interactive|batch]  submit a trace (binary or
//	                            darshan-parser text body); responds 202 with
//	                            the job record. lane defaults to interactive;
//	                            batch traffic yields to interactive but keeps
//	                            1/-batch-share of worker slots
//	POST /v1/jobs/stream        submit a trace as a stream (chunked transfer
//	                            encoding): text renderings are pre-parsed
//	                            incrementally as chunks arrive; an asserted
//	                            X-Fleet-Digest (header or trailer) is
//	                            verified against the parsed bytes
//	POST /v1/uploads            open a resumable upload session (201)
//	PATCH /v1/uploads/{id}      append a chunk at the Upload-Offset header's
//	                            offset; each chunk feeds the incremental
//	                            parser immediately
//	GET  /v1/uploads/{id}       session status (offset = resume point)
//	POST /v1/uploads/{id}/complete  finalize the session into a job (202)
//	DELETE /v1/uploads/{id}     abort the session
//	GET  /v1/jobs               list all jobs
//	GET  /v1/jobs/{id}          poll one job's status
//	GET  /v1/jobs/{id}/diagnosis finished report (JSON document; raw text
//	                            with "Accept: text/plain")
//	POST /v1/knowledge/docs     stage corpus document upserts/removals
//	                            (invisible until the next swap)
//	POST /v1/knowledge/swap     atomically promote staged changes to a new
//	                            corpus epoch (409 nothing_staged when empty)
//	GET  /v1/knowledge          knowledge-plane status (epoch, shard sizes,
//	                            query and rerank counters)
//	POST /v1/knowledge/search   retrieval probe against the serving corpus
//	GET  /metrics               pool health (JSON; Prometheus text exposition
//	                            with "Accept: text/plain")
//	GET  /healthz               liveness probe
//
// With -state-dir, open upload sessions survive a restart: the journal
// records each open, the accepted bytes spool under <state-dir>/uploads/,
// and a rebooted daemon re-feeds the spool so clients resume at the same
// offset. -tenant-max-inflight caps any one tenant's unfinished jobs;
// beyond it submissions refuse with the retryable quota_exceeded code
// (HTTP 429 + Retry-After).
//
// -advertise turns the daemon into an elastic-fleet member: it announces
// the given base URL (or, with "auto", the resolved -addr — handy with
// an ephemeral port) to its -peers every -roster-interval, learns the
// full membership by push-pull gossip, and serves the roster protocol
// (GET/POST /v1/roster). On every ring change the daemon pushes the
// cached diagnoses whose ownership moved to their new owner (similarity
// vectors ride along), so a node that joins mid-soak answers
// already-diagnosed traces warm instead of recomputing them. -replicate N
// additionally keeps every fresh diagnosis warm on N ring members (the
// owner plus N-1 successors), so router failover after a crash serves a
// cached answer. Members that stop gossiping expire from the roster after
// 4 roster intervals. Routers follow the live roster with -roster-refresh.
//
// Per-tenant fairness: each priority lane drains by weighted deficit
// round robin, so one tenant's flood cannot starve another's interactive
// traffic. -tenant-weights pins explicit dequeue weights
// ("acme=8,guest=1"); -slo-classes assigns tenants to the built-in
// gold/silver/bronze SLO ladder ("acme=gold,batchfarm=bronze"), which
// sets both a weight and a queue-age target. -slo-admission enforces the
// target at the door: submissions whose projected queue age exceeds the
// tenant's class target refuse with the retryable slo_exceeded code
// instead of being admitted to rot. Assignments also change at runtime
// via POST /v1/sched/tenants and, with -state-dir, survive restarts
// through the journal.
//
// -api-latency adds a simulated network round trip to every model call,
// which is how a deployment against a remote LLM API behaves; it makes the
// worker-scaling effect visible on a local demo.
package main

import (
	"flag"
	"log"
	"net"
	"os"
	"os/signal"
	"regexp"
	"strconv"
	"strings"
	"syscall"
	"time"

	"ioagent/internal/fleet"
	"ioagent/internal/fleet/knowledge"
	"ioagent/internal/fleet/node"
	"ioagent/internal/fleet/roster"
	"ioagent/internal/fleet/sched"
	"ioagent/internal/llm"
)

// nodeIDPattern keeps -node-id values header- and URL-safe, and free of
// surprises in job-ID prefix parsing.
var nodeIDPattern = regexp.MustCompile(`^[A-Za-z0-9._-]*$`)

// splitList parses a comma-separated flag value, dropping blanks.
func splitList(s string) []string {
	var out []string
	for _, v := range strings.Split(s, ",") {
		if v = strings.TrimSpace(v); v != "" {
			out = append(out, v)
		}
	}
	return out
}

func main() {
	// Each flag lands in the node.Config field it configures; only the
	// list- and pair-valued ones need a parse step after flag.Parse.
	var cfg node.Config
	fc, uc, kc, rc := &cfg.Fleet, &cfg.Uploads, &knowledge.Config{}, &roster.Config{}
	addr := flag.String("addr", ":8080", "listen address")
	flag.StringVar(&fc.NodeID, "node-id", "", "this daemon's fleet identity: prefixes job IDs and stamps X-Fleet-Node (required per node in a multi-node fleet; empty for a single daemon)")
	flag.IntVar(&fc.Workers, "workers", 4, "concurrent diagnosis workers")
	flag.IntVar(&fc.QueueDepth, "queue", 0, "max queued jobs per lane before submits block (0 = 8*workers)")
	flag.IntVar(&fc.CacheSize, "cache-size", 1024, "result cache entries (negative disables)")
	flag.DurationVar(&fc.CacheTTL, "cache-ttl", time.Hour, "result cache entry lifetime")
	flag.IntVar(&fc.MaxAttempts, "retries", 3, "max diagnosis attempts per job")
	flag.StringVar(&fc.Agent.Model, "model", llm.GPT4o, "diagnosis model")
	flag.StringVar(&fc.Agent.CheapModel, "cheap-model", llm.GPT4oMini, "self-reflection filter model")
	apiLatency := flag.Duration("api-latency", 0, "simulated model API round-trip latency")
	flag.Int64Var(&cfg.MaxBody, "max-body", 64<<20, "max trace upload size in bytes (exceeding it returns trace_too_large)")
	flag.IntVar(&fc.BatchShare, "batch-share", 0, "1 in N worker slots goes to the batch lane under interactive load (0 = default 4, negative = strict interactive priority)")
	flag.IntVar(&fc.BreakerThreshold, "breaker", 8, "circuit breaker: consecutive transient LLM failures before new work fails fast (0 disables)")
	flag.DurationVar(&fc.BreakerCooldown, "breaker-cooldown", 5*time.Second, "how long an open breaker waits before a half-open probe")
	flag.IntVar(&fc.TenantMaxInflight, "tenant-max-inflight", 0, "max unfinished jobs per tenant; beyond it submissions refuse with quota_exceeded (0 disables)")
	tenantWeights := flag.String("tenant-weights", "", "comma-separated tenant=weight pairs pinning explicit DRR dequeue weights (e.g. acme=8,guest=1)")
	sloClasses := flag.String("slo-classes", "", "comma-separated tenant=class pairs assigning SLO classes: gold (8x, 2s target), silver (4x, 10s), bronze (1x, 60s)")
	flag.BoolVar(&fc.SLOAdmission, "slo-admission", false, "refuse submissions whose projected queue age exceeds the tenant's SLO class target (retryable slo_exceeded)")
	flag.DurationVar(&uc.TTL, "upload-ttl", time.Hour, "idle upload sessions expire after this long")
	flag.IntVar(&uc.MaxSessions, "max-uploads", 64, "max concurrently open upload sessions")
	flag.BoolVar(&fc.SemCache, "semcache", false, "serve near-duplicate traces from a similarity-matched cached diagnosis (gated by confidence)")
	flag.Float64Var(&fc.SimThreshold, "sim-threshold", 0.85, "minimum feature-vector cosine similarity for a reuse candidate (with -semcache)")
	flag.StringVar(&fc.GateModel, "gate-model", llm.GPT4oMini, "judge model for the reuse confidence gate and tier self-checks")
	tierModels := flag.String("tier-models", "", "comma-separated model ladder, cheapest first; fresh diagnoses escalate on low self-check confidence (empty disables)")
	flag.Float64Var(&fc.TierThreshold, "tier-threshold", 0, "self-check score below which a diagnosis escalates to the next rung (0 = default 0.6)")
	flag.Float64Var(&fc.TierBudgetUSD, "tier-budget", 0, "total simulated LLM spend in USD after which escalation stops (0 = unlimited)")
	flag.StringVar(&cfg.StateDir, "state-dir", "", "directory for the job journal, cache snapshot, and upload spool (empty = in-memory only)")
	flag.DurationVar(&cfg.SnapshotInterval, "snapshot-interval", 30*time.Second, "cache snapshot + journal compaction cadence (with -state-dir)")
	flag.StringVar(&cfg.Fsync, "fsync", "always", "journal durability: always (fsync per record), batch (fsync at checkpoints), off")
	knowledgeOn := flag.Bool("knowledge", false, "serve the fleet knowledge plane: the RAG corpus becomes a live, epoch-versioned subsystem with /v1/knowledge endpoints")
	knowledgeMembers := flag.String("knowledge-members", "", "comma-separated fleet node IDs to ring-shard the corpus over (requires -node-id; empty = this node indexes everything)")
	flag.IntVar(&kc.Replicas, "knowledge-replicas", 2, "ring copies per document when sharded: the owner plus N-1 successors index it")
	flag.StringVar(&cfg.KnowledgeStateDir, "knowledge-state", "", "directory for the knowledge WAL and corpus snapshot (default: -state-dir; empty without it = in-memory only)")
	flag.BoolVar(&kc.ANN, "ann", false, "use the HNSW approximate-nearest-neighbor index for knowledge retrieval (exact scan stays the fallback)")
	rerankModel := flag.String("rerank-model", "", "cheap model that reranks retrieved chunks before reflection (empty disables)")
	advertise := flag.String("advertise", "", "this daemon's base URL in the elastic roster, e.g. http://10.0.0.1:8080; \"auto\" advertises the resolved -addr (empty = static fleet member)")
	peers := flag.String("peers", "", "comma-separated seed peer base URLs to announce to (with -advertise); the full roster arrives by gossip")
	flag.DurationVar(&rc.Interval, "roster-interval", 2*time.Second, "gossip cadence; members silent for 4 intervals expire from the roster")
	flag.IntVar(&rc.Replicate, "replicate", 0, "keep each cached diagnosis warm on N ring members (owner + N-1 successors); 0 or 1 disables replication")
	flag.Parse()

	if !nodeIDPattern.MatchString(fc.NodeID) {
		log.Fatalf("iofleetd: -node-id %q: only letters, digits, '.', '_', '-' are allowed", fc.NodeID)
	}
	cfg.LLM = llm.WithLatency(llm.NewSim(), *apiLatency)
	fc.TierModels = splitList(*tierModels)
	// Permanent job failures surface on the wire only as the stable
	// diagnosis_failed code; the real error chain lands here, server-side.
	fc.OnJobEvent = func(ev fleet.Event) {
		if ev.Kind == fleet.EventFailed {
			log.Printf("iofleetd: job %s (%s lane) failed: %s", ev.Job.ID, ev.Job.Lane, ev.Job.Error)
		}
	}
	if *tenantWeights != "" {
		fc.TenantWeights = make(map[string]int)
		for _, pair := range strings.Split(*tenantWeights, ",") {
			tenant, val, ok := strings.Cut(strings.TrimSpace(pair), "=")
			w, err := strconv.Atoi(val)
			if !ok || tenant == "" || err != nil || w < 1 {
				log.Fatalf("iofleetd: -tenant-weights entry %q: want tenant=N with N >= 1", pair)
			}
			fc.TenantWeights[tenant] = w
		}
	}
	if *sloClasses != "" {
		// Validate against the built-in ladder here: the pool treats an
		// unknown class at construction as a programming error.
		known := sched.BuiltinClasses()
		fc.TenantClasses = make(map[string]string)
		for _, pair := range strings.Split(*sloClasses, ",") {
			tenant, class, ok := strings.Cut(strings.TrimSpace(pair), "=")
			if _, have := known[class]; !ok || tenant == "" || !have {
				log.Fatalf("iofleetd: -slo-classes entry %q: want tenant=gold|silver|bronze", pair)
			}
			fc.TenantClasses[tenant] = class
		}
	}
	if *knowledgeOn {
		kc.Members = splitList(*knowledgeMembers)
		if len(kc.Members) > 0 && fc.NodeID == "" {
			log.Fatal("iofleetd: -knowledge-members requires -node-id (the shard this daemon owns)")
		}
		if *rerankModel != "" {
			kc.Reranker = &knowledge.LLMReranker{Client: cfg.LLM, Model: *rerankModel}
		}
		cfg.Knowledge = kc
	}
	if *advertise == "" && (*peers != "" || rc.Replicate > 1) {
		log.Fatal("iofleetd: -peers and -replicate require -advertise (the URL this daemon joins the roster as)")
	}
	if *advertise != "" {
		rc.Peers = splitList(*peers)
		if *advertise != "auto" {
			// "auto" leaves SelfURL to the node: the resolved listen
			// address, a dialable base URL given an explicit host.
			rc.SelfURL = *advertise
		}
		cfg.Roster = rc
	}

	// Listen explicitly so ":0" resolves to a real port in the startup log
	// (the e2e recovery test depends on it) and in -advertise auto.
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatal(err)
	}
	n, err := node.New(cfg, ln)
	if err != nil {
		log.Fatalf("iofleetd: %v", err)
	}
	nodeNote := ""
	if fc.NodeID != "" {
		nodeNote = " as node " + fc.NodeID
	}
	log.Printf("iofleetd: listening on %s%s (%d workers, model %s)", ln.Addr(), nodeNote, fc.Workers, fc.Agent.Model)
	go func() {
		if err := n.Wait(); err != nil {
			log.Fatal(err)
		}
	}()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	log.Print("iofleetd: draining pool and shutting down")
	n.Close()
}
