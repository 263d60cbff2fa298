// Package server implements the iofleetd HTTP surface over the versioned
// wire contract in internal/fleet/api: route registration, version
// negotiation, node-identity stamping, and the error-envelope
// discipline. (The metrics document and both its renderings live in api.)
//
// It exists as a package (rather than living inside cmd/iofleetd) so that
// every party that needs a real daemon surface can build one in-process:
// the iofleetd binary itself, the iofleet-router's failover tests, and
// examples that boot a miniature cluster. The split also keeps the
// daemon's and the router's HTTP conventions literally the same code —
// WriteError, WriteJSON, WantsText, and WithVersion are shared, so "every
// non-2xx response is an api.Error envelope stamped with version and node
// headers" holds across the whole fleet by construction.
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"ioagent/internal/darshan"
	"ioagent/internal/fleet"
	"ioagent/internal/fleet/api"
	"ioagent/internal/fleet/ingest"
	"ioagent/internal/fleet/knowledge"
	"ioagent/internal/fleet/store"
	"ioagent/internal/vectordb"
)

// Config assembles one daemon surface. Pool is required; everything else
// has a safe zero value.
type Config struct {
	// Pool runs the diagnoses.
	Pool *fleet.Pool
	// Store, when non-nil, journals refused submissions (the audit trail
	// behind iofleetd -state-dir).
	Store *store.Store
	// Uploads holds the streaming upload sessions behind /v1/uploads.
	// Nil builds a memory-only manager (sessions then die with the
	// process; iofleetd passes a spool-backed one when -state-dir is
	// set).
	Uploads *ingest.Manager
	// Draining, when non-nil and true, refuses new submissions with
	// api.CodeDraining (and journals the refusal) while reads keep
	// serving — the SIGTERM drain contract. Nil means never draining.
	Draining *atomic.Bool
	// MaxBody bounds trace upload size in bytes; exceeding it returns
	// api.CodeTraceTooLarge (default 64 MiB).
	MaxBody int64
	// NodeID is this daemon's fleet identity (iofleetd -node-id): stamped
	// on every response as api.NodeHeader and advertised in
	// Metrics.Node. Empty for an unnamed single daemon.
	NodeID string
	// OnTenantClass, when non-nil, is invoked after a successful
	// POST /v1/sched/tenants assignment took effect in the pool, so the
	// daemon can journal it (iofleetd -state-dir) and replay it on
	// restart. A journal error is logged, never surfaced: the in-memory
	// assignment already happened.
	OnTenantClass func(tenant, class string) error
	// Elastic, when non-nil, serves the dynamic-membership surface (the
	// /v1/roster gossip protocol) and routes received cache pushes
	// through the roster manager so they never re-replicate. Nil means
	// static membership: /v1/roster refuses with api.CodeRosterDisabled,
	// while the cache-handoff endpoints stay available (a static daemon
	// can still be seeded by a peer).
	Elastic Elastic
}

// Elastic is the roster-manager surface the server serves, implemented
// by internal/fleet/roster.Manager. It is an interface here so the
// server package (which the router and every test harness link) does not
// depend on the gossip layer.
type Elastic interface {
	// Snapshot returns the node's current membership view.
	Snapshot() api.Roster
	// HandleAnnounce merges one incoming gossip exchange and returns the
	// node's view for the sender to merge back.
	HandleAnnounce(api.RosterAnnounce) api.Roster
	// ReceiveEntries ingests a peer's cache push.
	ReceiveEntries(api.CachePushRequest) api.CachePushResponse
	// Metrics reports the handoff/replication counters for /metrics.
	Metrics() api.HandoffMetrics
}

// retryAfter is the delay hint stamped (api.RetryAfterHeader) on retryable
// refusals — quota_exceeded, breaker_open, draining — which the SDK's
// adaptive backoff honors as a floor.
const retryAfter = time.Second

// NewMux builds the daemon's HTTP surface. Every response shape and error
// code comes from internal/fleet/api, and the whole surface — including
// unmatched paths — sits behind the version-negotiation middleware.
func NewMux(cfg Config) http.Handler {
	if cfg.MaxBody <= 0 {
		cfg.MaxBody = 64 << 20
	}
	if cfg.Draining == nil {
		cfg.Draining = new(atomic.Bool)
	}
	if cfg.Uploads == nil {
		cfg.Uploads = mustManager(ingest.Config{NodeID: cfg.NodeID, MaxBytes: cfg.MaxBody})
	}
	pool, st := cfg.Pool, cfg.Store
	mux := http.NewServeMux()
	handle := mux.HandleFunc

	// reject refuses a submission, journaling the refusal when a store is
	// attached. Retryable refusals carry the Retry-After hint.
	reject := func(w http.ResponseWriter, r *http.Request, e *api.Error) {
		if st != nil {
			if jerr := st.Reject(e.Message + " (from " + r.RemoteAddr + ")"); jerr != nil {
				log.Printf("iofleetd: journal reject: %v", jerr)
			}
		}
		WriteErrorHinted(w, e, retryAfter)
	}
	// refuseSubmission applies the accept gates shared by every
	// submission shape (buffered, streamed, upload completion): drain
	// state and the LLM-backend circuit breaker.
	refuseSubmission := func(w http.ResponseWriter, r *http.Request) bool {
		if cfg.Draining.Load() {
			reject(w, r, api.Errorf(api.CodeDraining, "daemon is draining; resubmit to the replacement instance"))
			return true
		}
		// An open breaker means every accepted job would fail fast with
		// ErrBreakerOpen and surface as a non-retryable diagnosis_failed.
		// Refusing up front with a retryable code is honest — the work
		// was not attempted — and lets routers and cluster clients fail
		// this node's shard over to a ring successor until the half-open
		// probe recovers the backend.
		if pool.BreakerOpen() {
			reject(w, r, api.Errorf(api.CodeBreakerOpen,
				"llm backend circuit breaker is open; resubmit to another node or retry later"))
			return true
		}
		return false
	}
	// submitPreparsed funnels every submission shape into the pool and
	// maps the pool's refusals onto the taxonomy. The content digest is
	// echoed on the response (api.DigestHeader) so clients learn the
	// canonical address to assert next time. The return reports whether
	// the pool ACCEPTED the job — upload completion keeps its session
	// alive when it did not, so a retryable refusal (quota, drain) costs
	// a re-complete, never a re-upload.
	submitPreparsed := func(w http.ResponseWriter, r *http.Request, pp fleet.Preparsed, opts fleet.SubmitOpts) (accepted bool) {
		job, err := pool.SubmitPreparsed(r.Context(), pp, opts)
		switch {
		case errors.Is(err, fleet.ErrClosed):
			reject(w, r, api.Errorf(api.CodeDraining, "daemon is shutting down; resubmit to the replacement instance"))
			return false
		case errors.Is(err, fleet.ErrTenantQuota):
			reject(w, r, api.Errorf(api.CodeQuotaExceeded,
				"tenant %q is at its in-flight job quota; retry after some jobs finish", opts.Tenant))
			return false
		case errors.Is(err, fleet.ErrSLOExceeded):
			reject(w, r, api.Errorf(api.CodeSLOExceeded,
				"tenant %q's queue already exceeds its SLO class target; retry after the backlog drains", opts.Tenant))
			return false
		case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
			// The client hung up while the submission waited out
			// backpressure; the pool aborted the job and nobody is
			// listening for this response anyway.
			log.Printf("iofleetd: submit abandoned by %s: %v", r.RemoteAddr, err)
			WriteError(w, api.Errorf(api.CodeInternal, "submission abandoned"))
			return false
		case err != nil:
			internalError(w, "submit", err)
			return false
		}
		w.Header().Set(api.DigestHeader, pp.ContentDigest)
		WriteJSON(w, http.StatusAccepted, toAPIJob(job.Info()))
		return true
	}

	// submitTrace serves both one-request submission shapes: they differ
	// only in how the body reaches the front door (internal/fleet/ingest),
	// which is what parse does. The digest may be asserted up front
	// (header — what a router routes by), computed on the fly by the
	// client (trailer), or left to the server; an asserted digest that
	// does not match the parsed bytes is refused.
	submitTrace := func(parse func(w http.ResponseWriter, r *http.Request) (fleet.Preparsed, error)) http.HandlerFunc {
		return func(w http.ResponseWriter, r *http.Request) {
			if refuseSubmission(w, r) {
				return
			}
			lane, tenant, apiErr := parseSubmitParams(r)
			if apiErr != nil {
				WriteError(w, apiErr)
				return
			}
			pp, err := parse(w, r)
			if err != nil {
				if !errors.As(err, &apiErr) {
					apiErr = ingestError(r, "submit", err, cfg.MaxBody)
				}
				WriteError(w, apiErr)
				return
			}
			claim := r.Header.Get(api.DigestHeader)
			if claim == "" {
				claim = r.Trailer.Get(api.DigestHeader) // readable after body EOF
			}
			if apiErr := verifyDigestClaim(claim, pp.ContentDigest); apiErr != nil {
				WriteError(w, apiErr)
				return
			}
			submitPreparsed(w, r, pp, fleet.SubmitOpts{Lane: fleet.Lane(lane), Tenant: tenant})
		}
	}
	// Buffered submission: one bounded read, then the front door behind
	// this node's memo (see ingest.Memo) — bytes it has decoded before
	// cost one hash, and the pool gets their digest plus the means to
	// decode them should the job have to run. An asserted digest is only
	// ever compared against the memo's answer, never stored in it.
	memo := ingest.NewMemo()
	handle("POST /v1/jobs", submitTrace(func(w http.ResponseWriter, r *http.Request) (fleet.Preparsed, error) {
		body, apiErr := ReadBody(w, r, cfg.MaxBody, r.ContentLength, "trace body", "server")
		if apiErr != nil {
			return fleet.Preparsed{}, apiErr
		}
		trace, cd, _, err := memo.Decode(body)
		if err != nil {
			return fleet.Preparsed{}, err
		}
		pp := fleet.Preparsed{Log: trace, ContentDigest: cd}
		if trace == nil {
			pp.Decode = func() (*darshan.Log, error) {
				decoded, _, err := ingest.Decode(body)
				return decoded, err
			}
		}
		return pp, nil
	}))
	// Streaming submission: the body is fed to the incremental parser as
	// it arrives — for the text renderings, pre-processing starts on the
	// first complete line, long before the final chunk lands — and the
	// raw bytes are never buffered.
	handle("POST /v1/jobs/stream", submitTrace(func(w http.ResponseWriter, r *http.Request) (fleet.Preparsed, error) {
		if claim := r.Header.Get(api.DigestHeader); claim != "" && !darshan.ValidContentDigest(claim) {
			return fleet.Preparsed{}, api.Errorf(api.CodeBadRequest,
				"malformed %s header (want 64 hex chars)", api.DigestHeader)
		}
		parser := ingest.NewParser(cfg.MaxBody)
		if _, err := io.Copy(parser, r.Body); err != nil {
			return fleet.Preparsed{}, err
		}
		trace, cd, err := parser.Finish()
		return fleet.Preparsed{Log: trace, ContentDigest: cd}, err
	}))

	// Resumable upload sessions: open, append chunks at asserted offsets
	// (each chunk hits the incremental parser immediately), resume after
	// a disconnect from GET's offset, and complete into a job.
	handle("POST /v1/uploads", func(w http.ResponseWriter, r *http.Request) {
		if refuseSubmission(w, r) {
			return
		}
		lane, tenant, apiErr := parseSubmitParams(r)
		if apiErr != nil {
			WriteError(w, apiErr)
			return
		}
		claim := r.Header.Get(api.DigestHeader)
		if claim != "" && !darshan.ValidContentDigest(claim) {
			WriteError(w, api.Errorf(api.CodeBadRequest,
				"malformed %s header (want 64 hex chars)", api.DigestHeader))
			return
		}
		info, err := cfg.Uploads.Open(ingest.OpenOpts{Lane: string(lane), Tenant: tenant, Digest: claim})
		if err != nil {
			WriteErrorHinted(w, ingestError(r, "open upload", err, cfg.MaxBody), retryAfter)
			return
		}
		WriteJSON(w, http.StatusCreated, toAPIUpload(info))
	})
	handle("PATCH /v1/uploads/{id}", func(w http.ResponseWriter, r *http.Request) {
		offset, err := strconv.ParseInt(r.Header.Get(api.UploadOffsetHeader), 10, 64)
		if err != nil || offset < 0 {
			WriteError(w, api.Errorf(api.CodeBadRequest,
				"missing or malformed %s header", api.UploadOffsetHeader))
			return
		}
		chunk, apiErr := ReadBody(w, r, cfg.MaxBody, 0, "upload chunk", "server")
		if apiErr != nil {
			WriteError(w, apiErr)
			return
		}
		info, err := cfg.Uploads.Append(r.PathValue("id"), offset, chunk)
		if err != nil {
			var oe *ingest.OffsetError
			if errors.As(err, &oe) {
				// Tell the client where to resume, both machine-readable
				// (header) and in the envelope.
				w.Header().Set(api.UploadOffsetHeader, strconv.FormatInt(oe.Want, 10))
			}
			WriteError(w, ingestError(r, "append upload", err, cfg.MaxBody))
			return
		}
		WriteJSON(w, http.StatusOK, toAPIUpload(info))
	})
	handle("GET /v1/uploads/{id}", func(w http.ResponseWriter, r *http.Request) {
		info, err := cfg.Uploads.Status(r.PathValue("id"))
		if err != nil {
			WriteError(w, ingestError(r, "upload status", err, cfg.MaxBody))
			return
		}
		w.Header().Set(api.UploadOffsetHeader, strconv.FormatInt(info.Offset, 10))
		WriteJSON(w, http.StatusOK, toAPIUpload(info))
	})
	handle("DELETE /v1/uploads/{id}", func(w http.ResponseWriter, r *http.Request) {
		if err := cfg.Uploads.Abort(r.PathValue("id")); err != nil {
			WriteError(w, ingestError(r, "abort upload", err, cfg.MaxBody))
			return
		}
		w.WriteHeader(http.StatusNoContent)
	})
	handle("POST /v1/uploads/{id}/complete", func(w http.ResponseWriter, r *http.Request) {
		if refuseSubmission(w, r) {
			return // session untouched: re-complete once admissible
		}
		id := r.PathValue("id")
		// Finish does NOT discard: the uploaded bytes outlive a refused
		// handoff, so quota_exceeded / draining cost a re-complete, not a
		// re-upload. (A parse failure closes the session inside Finish —
		// identical bytes would fail identically.)
		trace, cd, info, err := cfg.Uploads.Finish(id)
		if err != nil {
			WriteError(w, ingestError(r, "complete upload", err, cfg.MaxBody))
			return
		}
		if apiErr := verifyDigestClaim(info.Digest, cd); apiErr != nil {
			// Permanent for these bytes: the session is not worth keeping.
			cfg.Uploads.Discard(id)
			WriteError(w, apiErr)
			return
		}
		if submitPreparsed(w, r, fleet.Preparsed{Log: trace, ContentDigest: cd},
			fleet.SubmitOpts{Lane: fleet.Lane(api.Lane(info.Lane).WithDefault()), Tenant: info.Tenant}) {
			cfg.Uploads.Discard(id)
		}
	})
	handle("GET /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		jobs := pool.Jobs()
		infos := make([]api.JobInfo, len(jobs))
		for i, j := range jobs {
			infos[i] = toAPIJob(j.Info())
		}
		WriteJSON(w, http.StatusOK, infos)
	})
	handle("GET /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		job, ok := pool.Job(r.PathValue("id"))
		if !ok {
			WriteError(w, api.Errorf(api.CodeJobNotFound, "unknown job %q", r.PathValue("id")))
			return
		}
		WriteJSON(w, http.StatusOK, toAPIJob(job.Info()))
	})
	handle("GET /v1/jobs/{id}/diagnosis", func(w http.ResponseWriter, r *http.Request) {
		job, ok := pool.Job(r.PathValue("id"))
		if !ok {
			WriteError(w, api.Errorf(api.CodeJobNotFound, "unknown job %q", r.PathValue("id")))
			return
		}
		select {
		case <-job.Done():
		default:
			WriteError(w, api.Errorf(api.CodeJobNotDone, "job %s is %s; poll it and retry", job.ID(), job.Status()))
			return
		}
		res, err := job.Wait()
		if err != nil {
			// The pipeline's error chain is server-side detail; the wire
			// carries only the stable code.
			log.Printf("iofleetd: diagnosis %s: %v", job.ID(), err)
			WriteError(w, api.Errorf(api.CodeDiagnosisFailed, "job %s failed permanently", job.ID()))
			return
		}
		if WantsText(r) {
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			fmt.Fprintln(w, res.Text)
			return
		}
		info := job.Info()
		WriteJSON(w, http.StatusOK, api.Diagnosis{
			JobID:         info.ID,
			Digest:        info.Digest,
			Lane:          api.Lane(info.Lane),
			CacheHit:      info.CacheHit,
			SimilarityHit: info.SimilarityHit,
			SourceDigest:  info.SourceDigest,
			Confidence:    info.Confidence,
			Text:          res.Text,
		})
	})
	// Knowledge-plane administration (api 1.4): staged corpus mutation,
	// atomic epoch promotion, plane status, and a direct retrieval probe
	// that bypasses the diagnosis pipeline. Every endpoint refuses with
	// knowledge_disabled when the daemon runs without a plane (iofleetd
	// without -knowledge), so clients can distinguish "not configured"
	// from "unknown endpoint".
	knowledgePlane := func(w http.ResponseWriter) *knowledge.Plane {
		kp := pool.Knowledge()
		if kp == nil {
			WriteError(w, api.Errorf(api.CodeKnowledgeDisabled,
				"this node serves no knowledge plane (start iofleetd with -knowledge)"))
		}
		return kp
	}
	handle("POST /v1/knowledge/docs", func(w http.ResponseWriter, r *http.Request) {
		kp := knowledgePlane(w)
		if kp == nil {
			return
		}
		var req api.KnowledgeUpsertRequest
		if apiErr := decodeJSONBody(w, r, cfg.MaxBody, &req); apiErr != nil {
			WriteError(w, apiErr)
			return
		}
		if len(req.Docs) == 0 && len(req.Remove) == 0 {
			WriteError(w, api.Errorf(api.CodeBadRequest, "upsert carries no documents and no removals"))
			return
		}
		docs := make([]vectordb.Document, len(req.Docs))
		for i, d := range req.Docs {
			if d.Key == "" {
				WriteError(w, api.Errorf(api.CodeBadRequest, "document %d has an empty key", i))
				return
			}
			if len(d.Text) > api.MaxKnowledgeDocLen {
				WriteError(w, api.Errorf(api.CodeBadRequest,
					"document %q exceeds the %d-byte text limit", d.Key, api.MaxKnowledgeDocLen))
				return
			}
			docs[i] = vectordb.Document{Key: d.Key, Title: d.Title, Text: d.Text}
		}
		if err := kp.Upsert(docs, req.Remove); err != nil {
			WriteError(w, api.Errorf(api.CodeBadRequest, "upsert refused: %v", err))
			return
		}
		WriteJSON(w, http.StatusOK, kp.Metrics())
	})
	handle("POST /v1/knowledge/swap", func(w http.ResponseWriter, r *http.Request) {
		kp := knowledgePlane(w)
		if kp == nil {
			return
		}
		epoch, err := kp.Swap()
		switch {
		case errors.Is(err, knowledge.ErrNothingStaged):
			WriteError(w, api.Errorf(api.CodeNothingStaged,
				"no staged corpus changes to promote; POST /v1/knowledge/docs first"))
			return
		case err != nil:
			internalError(w, "knowledge swap", err)
			return
		}
		WriteJSON(w, http.StatusOK, api.KnowledgeSwapResponse{Epoch: epoch})
	})
	handle("GET /v1/knowledge", func(w http.ResponseWriter, r *http.Request) {
		kp := knowledgePlane(w)
		if kp == nil {
			return
		}
		WriteJSON(w, http.StatusOK, kp.Metrics())
	})
	handle("POST /v1/knowledge/search", func(w http.ResponseWriter, r *http.Request) {
		kp := knowledgePlane(w)
		if kp == nil {
			return
		}
		var req api.KnowledgeSearchRequest
		if apiErr := decodeJSONBody(w, r, cfg.MaxBody, &req); apiErr != nil {
			WriteError(w, apiErr)
			return
		}
		if strings.TrimSpace(req.Query) == "" {
			WriteError(w, api.Errorf(api.CodeBadRequest, "search query is empty"))
			return
		}
		k := req.K
		if k <= 0 {
			k = api.DefaultKnowledgeK
		}
		hits := kp.Retrieve(req.Query, k)
		out := api.KnowledgeSearchResponse{Epoch: kp.Epoch(), Hits: make([]api.KnowledgeHit, len(hits))}
		for i, h := range hits {
			out.Hits[i] = api.KnowledgeHit{
				Key:   h.Chunk.DocKey,
				Title: h.Chunk.DocTitle,
				Seq:   h.Chunk.Seq,
				Text:  h.Chunk.Text,
				Score: h.Score,
			}
		}
		WriteJSON(w, http.StatusOK, out)
	})
	// Elastic-cluster surface (api 1.5): the roster gossip protocol and
	// the digest-addressed cache handoff endpoints. The roster endpoints
	// need a manager (iofleetd -advertise); the cache endpoints are
	// always on — handoff pushes and inventory reads are pool-level
	// operations, so even a statically configured daemon can receive a
	// departing peer's warm entries.
	elasticRoster := func(w http.ResponseWriter) Elastic {
		if cfg.Elastic == nil {
			WriteError(w, api.Errorf(api.CodeRosterDisabled,
				"this node runs a static member set (start iofleetd with -advertise)"))
		}
		return cfg.Elastic
	}
	handle("GET /v1/roster", func(w http.ResponseWriter, r *http.Request) {
		el := elasticRoster(w)
		if el == nil {
			return
		}
		WriteJSON(w, http.StatusOK, el.Snapshot())
	})
	handle("POST /v1/roster", func(w http.ResponseWriter, r *http.Request) {
		el := elasticRoster(w)
		if el == nil {
			return
		}
		var ann api.RosterAnnounce
		if apiErr := decodeJSONBody(w, r, cfg.MaxBody, &ann); apiErr != nil {
			WriteError(w, apiErr)
			return
		}
		if ann.From.URL == "" {
			WriteError(w, api.Errorf(api.CodeBadRequest, "announce carries no sender URL"))
			return
		}
		WriteJSON(w, http.StatusOK, el.HandleAnnounce(ann))
	})
	handle("GET /v1/cache/digests", func(w http.ResponseWriter, r *http.Request) {
		digests := pool.CacheDigests()
		if digests == nil {
			digests = []string{} // an empty inventory is [], not null
		}
		WriteJSON(w, http.StatusOK, api.CacheDigests{Digests: digests})
	})
	handle("POST /v1/cache/entries", func(w http.ResponseWriter, r *http.Request) {
		var req api.CachePushRequest
		if apiErr := decodeJSONBody(w, r, cfg.MaxBody, &req); apiErr != nil {
			WriteError(w, apiErr)
			return
		}
		if cfg.Elastic != nil {
			WriteJSON(w, http.StatusOK, cfg.Elastic.ReceiveEntries(req))
			return
		}
		// Static daemon: ingest directly, cache entry before similarity
		// vector (the vector-residency invariant), skipping digests
		// already resident so a push never disturbs a live TTL clock.
		var received int
		for _, e := range req.Entries {
			if pool.CacheIngest(e.Digest, e.Text, e.Added) {
				if e.Features != "" {
					pool.SemAdd(e.Digest, e.Features)
				}
				received++
			}
		}
		WriteJSON(w, http.StatusOK, api.CachePushResponse{Received: received})
	})
	// Fair-scheduler surface (api 1.6): the scheduler's mode, class
	// catalog, and tenant assignments; POST moves a tenant between SLO
	// classes at runtime (journaled via Config.OnTenantClass when the
	// daemon keeps state).
	handle("GET /v1/sched", func(w http.ResponseWriter, r *http.Request) {
		WriteJSON(w, http.StatusOK, toAPISchedStatus(pool.SchedStatus()))
	})
	handle("POST /v1/sched/tenants", func(w http.ResponseWriter, r *http.Request) {
		var req api.TenantClassRequest
		if apiErr := decodeJSONBody(w, r, cfg.MaxBody, &req); apiErr != nil {
			WriteError(w, apiErr)
			return
		}
		if req.Tenant == "" {
			WriteError(w, api.Errorf(api.CodeBadRequest, "assignment carries no tenant"))
			return
		}
		if len(req.Tenant) > api.MaxTenantLen {
			WriteError(w, api.Errorf(api.CodeBadRequest, "tenant exceeds %d bytes", api.MaxTenantLen))
			return
		}
		if err := pool.SetTenantClass(req.Tenant, req.Class); err != nil {
			// The only pool-level refusal is an unknown class name; the
			// valid names are worth echoing.
			WriteError(w, api.Errorf(api.CodeBadRequest,
				"cannot assign tenant %q to class %q: %v", req.Tenant, req.Class, err))
			return
		}
		if cfg.OnTenantClass != nil {
			if err := cfg.OnTenantClass(req.Tenant, req.Class); err != nil {
				log.Printf("iofleetd: journal tenant class %q=%q: %v", req.Tenant, req.Class, err)
			}
		}
		WriteJSON(w, http.StatusOK, toAPISchedStatus(pool.SchedStatus()))
	})
	handle("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		m := pool.Metrics()
		m.Node = cfg.NodeID
		if cfg.Elastic != nil {
			hm := cfg.Elastic.Metrics()
			m.Handoff = &hm
		}
		if WantsText(r) {
			w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
			m.WritePrometheus(w)
			return
		}
		WriteJSON(w, http.StatusOK, m)
	})
	handle("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	// Catch-all: unmatched paths get the api.Error envelope instead of
	// the mux's plain-text 404, so "every non-2xx response is an
	// envelope" holds across the whole surface. (Method mismatches on
	// registered patterns still get the mux's bare 405; the middleware
	// below stamps the version header on those too.)
	handle("/", func(w http.ResponseWriter, r *http.Request) {
		WriteError(w, api.Errorf(api.CodeNotFound, "unknown endpoint %s", r.URL.Path))
	})
	return WithVersion(cfg.NodeID, mux.ServeHTTP)
}

// WithVersion advertises the server's protocol version (and, when node is
// non-empty, its fleet identity) on every response and refuses requests
// from an incompatible protocol major. Both the daemon and the router
// wrap their whole surface in it.
func WithVersion(node string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set(api.VersionHeader, api.Current.String())
		if node != "" {
			w.Header().Set(api.NodeHeader, node)
		}
		if hdr := r.Header.Get(api.VersionHeader); hdr != "" {
			v, err := api.ParseVersion(hdr)
			if err != nil {
				WriteError(w, api.Errorf(api.CodeBadRequest, "malformed %s header %q", api.VersionHeader, hdr))
				return
			}
			if !v.CompatibleWith(api.Current) {
				WriteError(w, api.Errorf(api.CodeUnsupportedVersion,
					"client speaks api %s, this server speaks %s", v, api.Current))
				return
			}
		}
		h(w, r)
	}
}

// parseLane reads the "lane" query parameter (default interactive).
func parseLane(r *http.Request) (api.Lane, *api.Error) {
	lane := api.Lane(r.URL.Query().Get("lane")).WithDefault()
	if !lane.Valid() {
		return "", api.Errorf(api.CodeBadRequest, "unknown lane %q (want %s or %s)",
			r.URL.Query().Get("lane"), api.LaneInteractive, api.LaneBatch)
	}
	return lane, nil
}

// parseTenant reads the "tenant" query parameter (empty = anonymous),
// bounding its length so per-tenant metric labels cannot be inflated by a
// single hostile submission.
func parseTenant(r *http.Request) (string, *api.Error) {
	tenant := r.URL.Query().Get("tenant")
	if len(tenant) > api.MaxTenantLen {
		return "", api.Errorf(api.CodeBadRequest, "tenant exceeds %d bytes", api.MaxTenantLen)
	}
	return tenant, nil
}

// parseSubmitParams reads the lane and tenant query parameters shared by
// every submission shape.
func parseSubmitParams(r *http.Request) (api.Lane, string, *api.Error) {
	lane, apiErr := parseLane(r)
	if apiErr != nil {
		return "", "", apiErr
	}
	tenant, apiErr := parseTenant(r)
	if apiErr != nil {
		return "", "", apiErr
	}
	return lane, tenant, nil
}

// ReadBody is the fleet's one bounded body read: buffered submissions and
// upload chunks, at a daemon and at the router. It reads at most maxBody
// bytes (http.MaxBytesReader enforces the bound) and maps an overrun onto
// trace_too_large. what names the body in the refusals ("trace body",
// "upload chunk"); owner names whose -max-body flag set the limit
// ("server", "router").
//
// A positive sizeHint — the request's declared Content-Length — sizes the
// buffer once, clamped to maxBody so a lying header reserves no more than
// the bound, instead of growing from 512 B. Without one the body is read
// with io.ReadAll's growth. Upload chunks pass none for now: sizing them
// speeds the upload path enough (~11 % on the benchmark's stream_large)
// to run the frozen harness out of pre-generated inputs, so that half
// waits for ROADMAP item 3(a).
func ReadBody(w http.ResponseWriter, r *http.Request, maxBody, sizeHint int64, what, owner string) ([]byte, *api.Error) {
	rd := http.MaxBytesReader(w, r.Body, maxBody)
	var body []byte
	var err error
	if sizeHint > 0 {
		// bytes.MinRead spare bytes let ReadFrom meet EOF without growing.
		buf := bytes.NewBuffer(make([]byte, 0, min(sizeHint, maxBody)+bytes.MinRead))
		_, err = buf.ReadFrom(rd)
		body = buf.Bytes()
	} else {
		body, err = io.ReadAll(rd)
	}
	if err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			return nil, api.Errorf(api.CodeTraceTooLarge,
				"%s exceeds the %d-byte limit (%s -max-body)", what, maxBody, owner)
		}
		log.Printf("%s: read %s from %s: %v", owner, what, r.RemoteAddr, err)
		// The refusal names the body by its noun alone ("read chunk: …").
		return nil, api.Errorf(api.CodeBadRequest, "read %s: request aborted", what[strings.LastIndexByte(what, ' ')+1:])
	}
	return body, nil
}

// decodeJSONBody reads a size-bounded JSON request body into v, mapping
// oversized and malformed bodies onto the wire taxonomy.
func decodeJSONBody(w http.ResponseWriter, r *http.Request, maxBody int64, v any) *api.Error {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBody))
	if err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			return api.Errorf(api.CodeBadRequest, "request body exceeds the %d-byte limit", maxBody)
		}
		log.Printf("iofleetd: read json body from %s: %v", r.RemoteAddr, err)
		return api.Errorf(api.CodeBadRequest, "read body: request aborted")
	}
	if err := json.Unmarshal(body, v); err != nil {
		return api.Errorf(api.CodeBadRequest, "malformed JSON body: %v", err)
	}
	return nil
}

// verifyDigestClaim compares a client-asserted content digest against the
// one the server derived from the bytes it actually parsed. An empty
// claim verifies trivially (nothing was asserted); a mismatch is refused —
// the claim may have routed the request, but it never overrides content.
func verifyDigestClaim(claim, computed string) *api.Error {
	if claim == "" || claim == computed {
		return nil
	}
	return api.Errorf(api.CodeDigestMismatch,
		"asserted %s %.12s… does not match the received trace (%.12s…)", api.DigestHeader, claim, computed)
}

// ingestError maps the ingest layer's failures onto the wire taxonomy.
// Parse detail stays server-side, where the operator debugging a
// client's bad_trace loop can see it.
func ingestError(r *http.Request, op string, err error, maxBody int64) *api.Error {
	switch {
	case errors.Is(err, ingest.ErrTooLarge):
		return api.Errorf(api.CodeTraceTooLarge,
			"trace exceeds the %d-byte limit (server -max-body)", maxBody)
	case errors.Is(err, ingest.ErrSessionNotFound):
		return api.Errorf(api.CodeUploadNotFound,
			"unknown upload session (completed, aborted, expired, or never opened); open a new one")
	case errors.Is(err, ingest.ErrTooManySessions):
		return api.Errorf(api.CodeQuotaExceeded,
			"too many open upload sessions; retry after one completes or expires")
	case errors.Is(err, ingest.ErrSessionFinished):
		return api.Errorf(api.CodeBadRequest,
			"upload session is finalized; complete it (or abort and reopen) instead of appending")
	default:
		var oe *ingest.OffsetError
		if errors.As(err, &oe) {
			return api.Errorf(api.CodeUploadOffsetMismatch,
				"server is at offset %d, chunk asserted %d; resynchronize and resend", oe.Want, oe.Got)
		}
		log.Printf("iofleetd: %s from %s: %v", op, r.RemoteAddr, err)
		return api.Errorf(api.CodeBadTrace,
			"body is not a binary Darshan log, darshan-parser text or DXT text trace with module data")
	}
}

// toAPIUpload maps a session snapshot onto the wire shape.
func toAPIUpload(info ingest.Info) api.UploadInfo {
	return api.UploadInfo{
		ID:               info.ID,
		Offset:           info.Offset,
		Lane:             api.Lane(info.Lane).WithDefault(),
		Tenant:           info.Tenant,
		Digest:           info.Digest,
		PreparsedLines:   info.Lines,
		PreparsedModules: info.Modules,
		CreatedAt:        info.CreatedAt,
	}
}

// mustManager builds the fallback in-memory upload manager; its config
// has no failure mode (no spool dir to create), so an error is a bug.
func mustManager(cfg ingest.Config) *ingest.Manager {
	m, err := ingest.NewManager(cfg)
	if err != nil {
		panic(err)
	}
	return m
}

// WriteErrorHinted is WriteError plus the Retry-After hint on retryable
// codes, telling well-behaved clients when refused work is worth
// resubmitting. The daemon stamps its configured hint; the router passes
// through whichever hint the owning daemon sent.
func WriteErrorHinted(w http.ResponseWriter, e *api.Error, retryAfter time.Duration) {
	if e.Code.Retryable() {
		secs := int(retryAfter / time.Second)
		if secs < 1 {
			secs = 1
		}
		w.Header().Set(api.RetryAfterHeader, strconv.Itoa(secs))
	}
	WriteError(w, e)
}

// WantsText reports whether the client asked for a plain-text rendering
// (Accept: text/plain) instead of the default JSON document. A
// `text/plain;q=0` range explicitly excludes it per RFC 9110 and keeps
// the JSON default.
func WantsText(r *http.Request) bool {
	for _, part := range strings.Split(r.Header.Get("Accept"), ",") {
		mediaRange, params, _ := strings.Cut(strings.TrimSpace(part), ";")
		if strings.TrimSpace(mediaRange) != "text/plain" {
			continue
		}
		for _, p := range strings.Split(params, ";") {
			if k, v, ok := strings.Cut(strings.TrimSpace(p), "="); ok &&
				strings.TrimSpace(k) == "q" && strings.TrimSpace(v) == "0" {
				return false
			}
		}
		return true
	}
	return false
}

// toAPIJob maps the pool's job snapshot onto the wire shape. The pool's
// free-text error (pipeline internals) never crosses the wire: failed
// jobs carry the stable diagnosis_failed code instead, and the detail is
// logged where the job fails.
func toAPIJob(info fleet.JobInfo) api.JobInfo {
	out := api.JobInfo{
		ID:            info.ID,
		Digest:        info.Digest,
		Status:        api.Status(info.Status),
		Lane:          api.Lane(info.Lane),
		Tenant:        info.Tenant,
		CacheHit:      info.CacheHit,
		SimilarityHit: info.SimilarityHit,
		SourceDigest:  info.SourceDigest,
		Confidence:    info.Confidence,
		Attempts:      info.Attempts,
		SubmittedAt:   info.SubmittedAt,
		StartedAt:     info.StartedAt,
		FinishedAt:    info.FinishedAt,
	}
	if info.Status == fleet.StatusFailed {
		out.Error = string(api.CodeDiagnosisFailed)
	}
	return out
}

// toAPISchedStatus maps the pool's scheduler configuration onto the wire
// payload of GET /v1/sched.
func toAPISchedStatus(st fleet.SchedStatus) api.SchedStatus {
	out := api.SchedStatus{FIFO: st.FIFO, Admission: st.Admission}
	if len(st.Classes) > 0 {
		out.Classes = make(map[string]api.SchedClass, len(st.Classes))
		for name, c := range st.Classes {
			out.Classes[name] = api.SchedClass{Weight: c.Weight, MaxQueueAge: c.MaxQueueAge}
		}
	}
	if len(st.Assignments) > 0 {
		out.Assignments = make(map[string]string, len(st.Assignments))
		for tenant, class := range st.Assignments {
			out.Assignments[tenant] = class
		}
	}
	return out
}

// WriteJSON serves v as an indented JSON document on the given status.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// WriteError serves the wire error envelope on its canonical HTTP status.
func WriteError(w http.ResponseWriter, e *api.Error) {
	WriteJSON(w, e.Code.HTTPStatus(), e)
}

// internalError logs the real failure server-side and serves an opaque
// api.CodeInternal envelope: internal error chains (which can embed
// filesystem paths and addresses) never reach the wire.
func internalError(w http.ResponseWriter, op string, err error) {
	log.Printf("iofleetd: %s: %v", op, err)
	WriteError(w, api.Errorf(api.CodeInternal, "internal error; see server log"))
}
