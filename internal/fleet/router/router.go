// Package router implements the iofleet-router HTTP front: a thin,
// stateless dispatch layer that makes several iofleetd nodes look like
// one daemon.
//
// The router speaks the internal/fleet/api contract unchanged on both
// sides. Inbound, it serves the same endpoints as a daemon; outbound, it
// forwards each call through the SDK's cluster mode
// (internal/fleet/client.Cluster), which owns the consistent-hash ring
// (internal/fleet/ring) over trace routing keys. Because ownership is a
// pure function of the member list, the router keeps no state worth
// preserving: restart it, run several of them side by side, they all
// route identically.
//
// What the router guarantees — and what it does not:
//
//   - Submissions go to the ring owner of the trace's canonical content
//     digest; if the owner is down or draining, the next ring successor
//     takes the work. The daemons' digest-idempotent submit contract is
//     what makes that safe.
//   - Streaming submissions (POST /v1/jobs/stream) follow one placement
//     rule: an asserted api.DigestHeader places the stream and the
//     owning daemon verifies it. Asserted as a header, the body flows
//     through the router as a pure stream — zero buffering, zero spool,
//     constant router memory no matter the trace size. Asserted as a
//     trailer, the router spools the body to disk within a configured
//     bound only to wait for the claim, then forwards by it. A stream
//     that asserts nothing is the only one the router parses: the
//     fleet's front door (internal/fleet/ingest) runs over the finished
//     spool, which is forwarded with the header set.
//   - Upload sessions (/v1/uploads) open on the claimed digest's owner
//     (or the first reachable node) and every later session call follows
//     the node prefix in the session ID — session state is node-local.
//   - Job lookups follow the node prefix in the job ID back to the node
//     that accepted it. If that node is gone, lookups report
//     job_not_found with a hint to resubmit — the router cannot conjure
//     state that died with a node (run daemons with -state-dir for that).
//   - /metrics aggregates all reachable nodes (JSON and Prometheus);
//     /v1/cluster reports per-node health.
//   - Requests that already passed through a router are refused with
//     loop_detected: member lists must point at daemons, never at
//     routers.
package router

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"strconv"
	"time"

	"ioagent/internal/darshan"
	"ioagent/internal/fleet/api"
	"ioagent/internal/fleet/client"
	"ioagent/internal/fleet/ingest"
	"ioagent/internal/fleet/server"
)

// Config assembles a router.
type Config struct {
	// ID is the router's fleet identity: stamped on responses
	// (api.NodeHeader) and on forwarded requests (api.ForwardedHeader)
	// for loop detection. Default "router".
	ID string
	// Members are the daemon base URLs the digest space is sharded over.
	// Order does not matter — ownership is order-independent — but every
	// router and cluster-mode client of one fleet must agree on the set.
	Members []string
	// Replicas is the ring's virtual-node count (default
	// ring.DefaultReplicas); all parties must agree on it too.
	Replicas int
	// MaxBody bounds submission size in bytes (default 64 MiB). The
	// router enforces it before forwarding, so an oversized body is
	// refused once instead of once per failover candidate.
	MaxBody int64
	// SpoolDir receives the temporary spool files for streaming
	// submissions that arrive without the api.DigestHeader header
	// (default: the OS temp dir). Header-asserted streams never touch it.
	SpoolDir string
	// SpoolMax bounds one spooled stream in bytes (default MaxBody);
	// beyond it the submission is refused with trace_too_large. This is
	// the router's only per-stream storage cost: its memory stays
	// constant while a body arrives. Only a binary spool with no trailer
	// claim is read back whole (within this bound), for the duration of
	// its decode.
	SpoolMax int64
	// ClientOptions tune the per-node SDK clients (retry budget, poll
	// interval, HTTP client). The router prepends its own defaults: 2
	// attempts per node per call, so failover to a successor is fast.
	ClientOptions []client.Option
	// RosterRefresh, when positive, makes the router follow an elastic
	// fleet's live roster: every interval it asks a reachable member for
	// GET /v1/roster and rebuilds its ring over the answer. Members then
	// only seed discovery — joins and departures reach the router without
	// a restart. Poll failures (static daemons answer roster_disabled,
	// dead members time out) keep the last known-good member list: a
	// router never routes over an empty ring because gossip hiccuped.
	// Zero disables polling; the member list stays fixed for the
	// router's lifetime.
	RosterRefresh time.Duration
}

// Router is the dispatch layer. Build with New, serve Handler.
type Router struct {
	cfg     Config
	cluster *client.Cluster

	stopRoster chan struct{} // nil unless RosterRefresh > 0
	rosterDone chan struct{}
}

// New validates the member list and builds the router.
func New(cfg Config) (*Router, error) {
	if cfg.ID == "" {
		cfg.ID = "router"
	}
	if cfg.MaxBody <= 0 {
		cfg.MaxBody = 64 << 20
	}
	if cfg.SpoolDir == "" {
		cfg.SpoolDir = os.TempDir()
	}
	if cfg.SpoolMax <= 0 {
		cfg.SpoolMax = cfg.MaxBody
	}
	opts := []client.Option{
		client.WithRetry(2, 100*time.Millisecond),
		client.WithForwardedBy(cfg.ID),
	}
	if cfg.Replicas > 0 {
		opts = append(opts, client.WithRingReplicas(cfg.Replicas))
	}
	opts = append(opts, cfg.ClientOptions...)
	cl, err := client.NewCluster(cfg.Members, opts...)
	if err != nil {
		return nil, fmt.Errorf("router: %w", err)
	}
	rt := &Router{cfg: cfg, cluster: cl}
	if cfg.RosterRefresh > 0 {
		rt.stopRoster = make(chan struct{})
		rt.rosterDone = make(chan struct{})
		go rt.rosterPoll()
	}
	return rt, nil
}

// rosterPoll follows the fleet's live roster: one refresh immediately (so
// a router seeded with a single member discovers the rest before serving
// its first request), then one per interval until Close.
func (rt *Router) rosterPoll() {
	defer close(rt.rosterDone)
	rt.refreshRoster()
	t := time.NewTicker(rt.cfg.RosterRefresh)
	defer t.Stop()
	for {
		select {
		case <-rt.stopRoster:
			return
		case <-t.C:
			rt.refreshRoster()
		}
	}
}

// refreshRoster asks a reachable member for the current roster and swaps
// the cluster onto it. Any failure keeps the current member list.
func (rt *Router) refreshRoster() {
	ctx, cancel := context.WithTimeout(context.Background(), rt.cfg.RosterRefresh)
	defer cancel()
	roster, err := rt.cluster.Roster(ctx)
	if err != nil {
		return // static fleet or transient outage: last known-good members stand
	}
	urls := make([]string, 0, len(roster.Members))
	for _, m := range roster.Members {
		urls = append(urls, m.URL)
	}
	added, removed := rt.cluster.UpdateMembers(urls)
	if len(added)+len(removed) > 0 {
		log.Printf("iofleet-router: roster epoch %d: members now %d (+%v -%v)",
			roster.Epoch, len(rt.cluster.Members()), added, removed)
	}
}

// Close stops the roster poller (when running) and releases the pooled
// connections to every member.
func (rt *Router) Close() {
	if rt.stopRoster != nil {
		close(rt.stopRoster)
		<-rt.rosterDone
	}
	rt.cluster.Close()
}

// Route exposes the failover order for a submission's bytes (owner
// first), for tests and operational debugging.
func (rt *Router) Route(trace []byte) []string { return rt.cluster.Route(trace) }

// Handler builds the router's HTTP surface. Like the daemon's, the whole
// surface — catch-all included — sits behind version negotiation, plus
// the router-only loop check.
func (rt *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	handle := mux.HandleFunc

	handle("POST /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		trace, apiErr := readBody(w, r, rt.cfg.MaxBody)
		if apiErr != nil {
			server.WriteError(w, apiErr)
			return
		}
		info, err := rt.cluster.Submit(r.Context(), api.SubmitRequest{
			Lane:   api.Lane(r.URL.Query().Get("lane")),
			Tenant: r.URL.Query().Get("tenant"),
			Trace:  trace,
		})
		if err != nil {
			rt.writeErr(w, "submit", err)
			return
		}
		server.WriteJSON(w, http.StatusAccepted, info)
	})
	// Streaming submission. With the api.DigestHeader header the router
	// never reads the body at all: placement comes from the header, and
	// the bytes pipe straight from the inbound request to the owning
	// daemon. Without it, spool-then-route (spoolAndRoute).
	handle("POST /v1/jobs/stream", func(w http.ResponseWriter, r *http.Request) {
		opts := client.StreamOpts{
			Lane:   api.Lane(r.URL.Query().Get("lane")),
			Tenant: r.URL.Query().Get("tenant"),
			Digest: r.Header.Get(api.DigestHeader),
		}
		if opts.Digest != "" {
			if !darshan.ValidContentDigest(opts.Digest) {
				server.WriteError(w, api.Errorf(api.CodeBadRequest,
					"malformed %s header (want 64 hex chars)", api.DigestHeader))
				return
			}
			info, err := rt.cluster.SubmitStream(r.Context(),
				http.MaxBytesReader(w, r.Body, rt.cfg.MaxBody), opts)
			if err != nil {
				rt.writeErr(w, "stream submit", err)
				return
			}
			w.Header().Set(api.DigestHeader, opts.Digest)
			server.WriteJSON(w, http.StatusAccepted, info)
			return
		}
		rt.spoolAndRoute(w, r, opts)
	})
	// Upload sessions: open on the claimed digest's owner (cache
	// locality for the eventual job), then follow the session ID's node
	// prefix for every append/status/complete/abort.
	handle("POST /v1/uploads", func(w http.ResponseWriter, r *http.Request) {
		opts := client.StreamOpts{
			Lane:   api.Lane(r.URL.Query().Get("lane")),
			Tenant: r.URL.Query().Get("tenant"),
			Digest: r.Header.Get(api.DigestHeader),
		}
		if opts.Digest != "" && !darshan.ValidContentDigest(opts.Digest) {
			server.WriteError(w, api.Errorf(api.CodeBadRequest,
				"malformed %s header (want 64 hex chars)", api.DigestHeader))
			return
		}
		info, err := rt.cluster.UploadOpen(r.Context(), opts)
		if err != nil {
			rt.writeErr(w, "open upload", err)
			return
		}
		server.WriteJSON(w, http.StatusCreated, info)
	})
	handle("PATCH /v1/uploads/{id}", func(w http.ResponseWriter, r *http.Request) {
		offset, perr := strconv.ParseInt(r.Header.Get(api.UploadOffsetHeader), 10, 64)
		if perr != nil || offset < 0 {
			server.WriteError(w, api.Errorf(api.CodeBadRequest,
				"missing or malformed %s header", api.UploadOffsetHeader))
			return
		}
		// No size hint: see server.ReadBody on upload chunks.
		chunk, apiErr := server.ReadBody(w, r, rt.cfg.MaxBody, 0, "trace body", "router")
		if apiErr != nil {
			server.WriteError(w, apiErr)
			return
		}
		info, err := rt.cluster.UploadAppend(r.Context(), r.PathValue("id"), offset, chunk)
		if err != nil {
			rt.writeErr(w, "append upload", err)
			return
		}
		server.WriteJSON(w, http.StatusOK, info)
	})
	handle("GET /v1/uploads/{id}", func(w http.ResponseWriter, r *http.Request) {
		info, err := rt.cluster.UploadStatus(r.Context(), r.PathValue("id"))
		if err != nil {
			rt.writeErr(w, "upload status", err)
			return
		}
		w.Header().Set(api.UploadOffsetHeader, strconv.FormatInt(info.Offset, 10))
		server.WriteJSON(w, http.StatusOK, info)
	})
	handle("DELETE /v1/uploads/{id}", func(w http.ResponseWriter, r *http.Request) {
		if err := rt.cluster.UploadAbort(r.Context(), r.PathValue("id")); err != nil {
			rt.writeErr(w, "abort upload", err)
			return
		}
		w.WriteHeader(http.StatusNoContent)
	})
	handle("POST /v1/uploads/{id}/complete", func(w http.ResponseWriter, r *http.Request) {
		info, err := rt.cluster.UploadComplete(r.Context(), r.PathValue("id"))
		if err != nil {
			rt.writeErr(w, "complete upload", err)
			return
		}
		server.WriteJSON(w, http.StatusAccepted, info)
	})
	handle("GET /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		infos, err := rt.cluster.Jobs(r.Context())
		if err != nil {
			rt.writeErr(w, "list jobs", err)
			return
		}
		if infos == nil {
			infos = []api.JobInfo{}
		}
		server.WriteJSON(w, http.StatusOK, infos)
	})
	handle("GET /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		info, err := rt.cluster.Job(r.Context(), r.PathValue("id"))
		if err != nil {
			rt.writeErr(w, "job", err)
			return
		}
		server.WriteJSON(w, http.StatusOK, info)
	})
	handle("GET /v1/jobs/{id}/diagnosis", func(w http.ResponseWriter, r *http.Request) {
		diag, err := rt.cluster.Diagnosis(r.Context(), r.PathValue("id"))
		if err != nil {
			rt.writeErr(w, "diagnosis", err)
			return
		}
		if server.WantsText(r) {
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			fmt.Fprintln(w, diag.Text)
			return
		}
		server.WriteJSON(w, http.StatusOK, diag)
	})
	// Knowledge plane (api 1.4): mutations broadcast to every member —
	// each daemon stages and promotes its own ring shard of the corpus —
	// status aggregates, and search scatter-gathers across shards. The
	// router stays stateless: the corpus lives on the daemons.
	handle("POST /v1/knowledge/docs", func(w http.ResponseWriter, r *http.Request) {
		body, apiErr := readBody(w, r, rt.cfg.MaxBody)
		if apiErr != nil {
			server.WriteError(w, apiErr)
			return
		}
		var req api.KnowledgeUpsertRequest
		if err := json.Unmarshal(body, &req); err != nil {
			server.WriteError(w, api.Errorf(api.CodeBadRequest, "malformed JSON body: %v", err))
			return
		}
		if err := rt.cluster.KnowledgeUpsert(r.Context(), req); err != nil {
			rt.writeErr(w, "knowledge upsert", err)
			return
		}
		ks, err := rt.cluster.KnowledgeStatus(r.Context())
		if err != nil {
			rt.writeErr(w, "knowledge status", err)
			return
		}
		server.WriteJSON(w, http.StatusOK, ks)
	})
	handle("POST /v1/knowledge/swap", func(w http.ResponseWriter, r *http.Request) {
		epoch, err := rt.cluster.KnowledgeSwap(r.Context())
		if err != nil {
			rt.writeErr(w, "knowledge swap", err)
			return
		}
		server.WriteJSON(w, http.StatusOK, api.KnowledgeSwapResponse{Epoch: epoch})
	})
	handle("GET /v1/knowledge", func(w http.ResponseWriter, r *http.Request) {
		ks, err := rt.cluster.KnowledgeStatus(r.Context())
		if err != nil {
			rt.writeErr(w, "knowledge status", err)
			return
		}
		server.WriteJSON(w, http.StatusOK, ks)
	})
	handle("POST /v1/knowledge/search", func(w http.ResponseWriter, r *http.Request) {
		body, apiErr := readBody(w, r, rt.cfg.MaxBody)
		if apiErr != nil {
			server.WriteError(w, apiErr)
			return
		}
		var req api.KnowledgeSearchRequest
		if err := json.Unmarshal(body, &req); err != nil {
			server.WriteError(w, api.Errorf(api.CodeBadRequest, "malformed JSON body: %v", err))
			return
		}
		resp, err := rt.cluster.KnowledgeSearch(r.Context(), req)
		if err != nil {
			rt.writeErr(w, "knowledge search", err)
			return
		}
		server.WriteJSON(w, http.StatusOK, resp)
	})
	handle("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		m, err := rt.cluster.Metrics(r.Context())
		if err != nil {
			rt.writeErr(w, "metrics", err)
			return
		}
		if server.WantsText(r) {
			w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
			m.WritePrometheus(w)
			return
		}
		server.WriteJSON(w, http.StatusOK, m)
	})
	handle("GET /v1/cluster", func(w http.ResponseWriter, r *http.Request) {
		h := rt.cluster.Health(r.Context())
		h.Router = rt.cfg.ID
		server.WriteJSON(w, http.StatusOK, h)
	})
	handle("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	handle("/", func(w http.ResponseWriter, r *http.Request) {
		server.WriteError(w, api.Errorf(api.CodeNotFound, "unknown endpoint %s", r.URL.Path))
	})

	// Loop check inside the version middleware: a request that already
	// crossed a router means the member list points at a router, and
	// forwarding it again would bounce until something times out.
	loopChecked := func(w http.ResponseWriter, r *http.Request) {
		if via := r.Header.Get(api.ForwardedHeader); via != "" {
			server.WriteError(w, api.Errorf(api.CodeLoopDetected,
				"request already routed by %q reached router %q; member lists must name daemons, not routers", via, rt.cfg.ID))
			return
		}
		mux.ServeHTTP(w, r)
	}
	return server.WithVersion(rt.cfg.ID, loopChecked)
}

// spoolAndRoute handles a streaming submission with no digest header.
// The spool exists to wait for the trailer: a well-formed trailer claim
// (what the SDK's single-pass streams send) places the stream exactly
// like a header claim — the router parses nothing and the owning daemon
// verifies the claim. Only a stream without one runs the front door
// (internal/fleet/ingest) here, over the finished spool.
func (rt *Router) spoolAndRoute(w http.ResponseWriter, r *http.Request, opts client.StreamOpts) {
	f, err := os.CreateTemp(rt.cfg.SpoolDir, "iofleet-spool-*")
	if err != nil {
		log.Printf("iofleet-router: create spool: %v", err)
		server.WriteError(w, api.Errorf(api.CodeInternal, "internal error; see router log"))
		return
	}
	defer func() {
		f.Close()
		os.Remove(f.Name())
	}()

	n, err := io.Copy(f, http.MaxBytesReader(w, r.Body, rt.cfg.SpoolMax))
	if err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			server.WriteError(w, api.Errorf(api.CodeTraceTooLarge,
				"stream exceeds the %d-byte spool bound (router -spool-max); assert %s to stream without spooling",
				rt.cfg.SpoolMax, api.DigestHeader))
			return
		}
		log.Printf("iofleet-router: spool stream from %s: %v", r.RemoteAddr, err)
		server.WriteError(w, api.Errorf(api.CodeBadRequest, "read body: request aborted"))
		return
	}

	claim := r.Trailer.Get(api.DigestHeader)
	if darshan.ValidContentDigest(claim) {
		opts.Digest = claim
	} else {
		// A copy cut short (parse error, spool read error) yields no
		// digest. Undecodable spools keep an empty Digest: the stream
		// still forwards (to the digest-less route) and the owning daemon
		// answers bad_trace with its usual server-side detail.
		parser := ingest.NewParser(0)
		if _, err := io.Copy(parser, io.NewSectionReader(f, 0, n)); err == nil {
			if _, cd, err := parser.Finish(); err == nil {
				opts.Digest = cd
			}
		}
		if claim != "" && opts.Digest != "" {
			server.WriteError(w, api.Errorf(api.CodeDigestMismatch,
				"trailer %s %.12s… does not match the received trace (%.12s…)", api.DigestHeader, claim, opts.Digest))
			return
		}
	}
	// A section of the spool is rewindable, so failover and per-node
	// retries replay it from the start.
	info, err := rt.cluster.SubmitStream(r.Context(), io.NewSectionReader(f, 0, n), opts)
	if err != nil {
		rt.writeErr(w, "stream submit (spooled)", err)
		return
	}
	if opts.Digest != "" {
		w.Header().Set(api.DigestHeader, opts.Digest)
	}
	server.WriteJSON(w, http.StatusAccepted, info)
}

// readBody slurps a bounded, length-declared request body (buffered
// submissions, knowledge documents) through the daemons' own
// server.ReadBody, so an overrun is the same trace_too_large envelope a
// daemon serves. Validation stays with the owning daemon (bad_trace);
// the router only runs the front door where placement requires it
// (Cluster.Submit's route key, spoolAndRoute).
func readBody(w http.ResponseWriter, r *http.Request, maxBody int64) ([]byte, *api.Error) {
	return server.ReadBody(w, r, maxBody, r.ContentLength, "trace body", "router")
}

// writeErr maps a cluster-call failure onto the wire: api errors pass
// through on their canonical status — with any Retry-After hint the
// owning daemon sent (quota, drain) re-stamped, so the SDK's backoff
// floor works identically behind a router; anything else (a decode bug,
// an unclassified transport corner) is logged here and served as the
// opaque internal envelope.
func (rt *Router) writeErr(w http.ResponseWriter, op string, err error) {
	hint := client.RetryAfterHint(err)
	if hint <= 0 {
		hint = time.Second // the router's own retryable refusals hint too
	}
	var apiErr *api.Error
	if errors.As(err, &apiErr) {
		server.WriteErrorHinted(w, apiErr, hint)
		return
	}
	log.Printf("iofleet-router: %s: %v", op, err)
	server.WriteErrorHinted(w, api.Errorf(api.CodeInternal, "internal error; see router log"), hint)
}
