package client

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"ioagent/internal/fleet/api"
	"ioagent/internal/fleet/ingest"
	"ioagent/internal/fleet/ring"
)

// RouteKey maps submitted trace bytes onto the cluster routing key.
// Ownership is a pure function of this key and the member list, so every
// router and every cluster-mode client agrees on which node owns a
// submission without any coordination.
//
// Bytes the fleet's front door (ingest.Decode — the same sniff and decode
// every daemon runs) accepts route by their canonical content digest, so
// every rendering of one trace lands on the SAME node and shares its
// digest cache — the property the streaming path's api.DigestHeader
// asserts without shipping the body first. Bytes it refuses fall back to
// a hash of the wire bytes: they still route consistently (to the node
// that will refuse them with bad_trace).
//
// RouteKey is the pure definition. A Cluster answers the same key for the
// same bytes through its ingest.Memo, which spares a byte-identical
// resubmission the decode.
func RouteKey(trace []byte) string {
	if _, cd, err := ingest.Decode(trace); err == nil {
		return cd
	}
	sum := sha256.Sum256(trace)
	return hex.EncodeToString(sum[:])
}

// membership is one immutable view of the cluster: the member list, the
// ring built over it, and a client per member. Every call loads ONE view
// and works entirely inside it, so a concurrent UpdateMembers never
// leaves a call holding a ring that disagrees with its client map.
type membership struct {
	members []string // listing order
	ring    *ring.Ring
	clients map[string]*Client
}

// Cluster is the SDK's multi-node mode: it takes the fleet member list
// and routes every call client-side over the same consistent-hash ring
// iofleet-router uses, so heavy SDK users skip the router hop entirely.
//
// Submissions go to the owner of the trace's RouteKey and walk the ring
// successors when the owner is down — safe because the daemons
// deduplicate by content digest, so a resubmission at the next node
// either re-runs the work there or coalesces with a previous attempt.
// Job lookups route by the node prefix that -node-id daemons put in
// every job ID. Metrics aggregates across reachable members. All methods
// are safe for concurrent use.
//
// The member list is NOT fixed at construction: UpdateMembers swaps in a
// new membership view atomically (reusing the clients of members that
// stayed), which is how routers and long-lived SDK users follow an
// elastic fleet's live roster.
type Cluster struct {
	opts []Option // applied to every member client, retained for joins

	cur atomic.Pointer[membership]

	// memo is this hop's wire-bytes→digest memo (see ingest.Memo): the
	// router and cluster-mode SDK callers route a resubmitted body by one
	// hash instead of a decode.
	memo *ingest.Memo

	mu sync.Mutex // guards the maps below and serializes UpdateMembers
	// nodeToMember maps learned daemon -node-id values to member URLs
	// (learned from each member's Metrics.Node on first need).
	nodeToMember map[string]string
	unresolved   map[string]bool // members whose node id is still unknown

	// backoff holds per-endpoint transient-failure memory for the forward
	// paths (see backoff.go); keyed by member base URL so it survives
	// roster swaps for members that stay.
	backoffMu sync.Mutex
	backoff   map[string]*endpointBackoff
}

// normalizeMembers canonicalizes a member URL list: trims whitespace and
// the trailing slash, drops duplicates, preserves first-seen order. Lists
// come from comma-separated flags and roster documents, and "a, b" must
// route identically to "a,b" everywhere or rings disagree and the cache
// fragments.
func normalizeMembers(members []string) ([]string, error) {
	var out []string
	seen := make(map[string]bool, len(members))
	for _, m := range members {
		base := strings.TrimRight(strings.TrimSpace(m), "/")
		if base == "" {
			return nil, api.Errorf(api.CodeBadRequest, "cluster member URL must not be empty")
		}
		if seen[base] {
			continue
		}
		seen[base] = true
		out = append(out, base)
	}
	return out, nil
}

// NewCluster builds a cluster-mode client over the given member base
// URLs. Options apply to every per-member client (retry budget, poll
// interval, HTTP client) plus the cluster itself (WithRingReplicas).
func NewCluster(members []string, opts ...Option) (*Cluster, error) {
	if len(members) == 0 {
		return nil, api.Errorf(api.CodeBadRequest, "cluster needs at least one member")
	}
	bases, err := normalizeMembers(members)
	if err != nil {
		return nil, err
	}
	cl := &Cluster{
		opts:         opts,
		memo:         ingest.NewMemo(),
		nodeToMember: make(map[string]string),
		unresolved:   make(map[string]bool),
	}
	ms := &membership{clients: make(map[string]*Client, len(bases))}
	for _, base := range bases {
		ms.members = append(ms.members, base)
		ms.clients[base] = New(base, opts...)
		cl.unresolved[base] = true
	}
	ms.ring = ring.New(ms.clients[ms.members[0]].ringReplicas)
	ms.ring.Add(ms.members...)
	cl.cur.Store(ms)
	return cl, nil
}

// UpdateMembers swaps the cluster onto a new member list — typically a
// live roster snapshot — and returns which members were added and
// removed. Clients of surviving members are reused (their breakers, node
// learnings, and connection pools carry over); new members get fresh
// clients built from the construction options; removed members' clients
// release their idle connections. An empty or unchanged list is a no-op.
// In-flight calls finish on the view they loaded, so an update never
// breaks a call midway.
func (cl *Cluster) UpdateMembers(members []string) (added, removed []string) {
	bases, err := normalizeMembers(members)
	if err != nil || len(bases) == 0 {
		return nil, nil // a roster with no usable members never evicts the last known-good view
	}
	cl.mu.Lock()
	defer cl.mu.Unlock()
	old := cl.cur.Load()
	next := &membership{clients: make(map[string]*Client, len(bases))}
	for _, base := range bases {
		next.members = append(next.members, base)
		if c, ok := old.clients[base]; ok {
			next.clients[base] = c
		} else {
			next.clients[base] = New(base, cl.opts...)
			cl.unresolved[base] = true
			added = append(added, base)
		}
	}
	for _, base := range old.members {
		if _, ok := next.clients[base]; !ok {
			removed = append(removed, base)
		}
	}
	if len(added) == 0 && len(removed) == 0 {
		return nil, nil // same set (order may differ, which the ring ignores)
	}
	next.ring = ring.New(next.clients[next.members[0]].ringReplicas)
	next.ring.Add(next.members...)
	cl.cur.Store(next)
	for _, base := range removed {
		delete(cl.unresolved, base)
		for node, member := range cl.nodeToMember {
			if member == base {
				delete(cl.nodeToMember, node)
			}
		}
		old.clients[base].Close()
	}
	cl.backoffMu.Lock()
	for _, base := range removed {
		delete(cl.backoff, base)
	}
	cl.backoffMu.Unlock()
	return added, removed
}

// Members returns the current member base URLs in listing order.
func (cl *Cluster) Members() []string {
	return append([]string(nil), cl.cur.Load().members...)
}

// Close releases every member client's idle connections.
func (cl *Cluster) Close() {
	for _, c := range cl.cur.Load().clients {
		c.Close()
	}
}

// Route returns the members that would be tried for these trace bytes, in
// order: the ring owner first, then its failover successors.
func (cl *Cluster) Route(trace []byte) []string {
	return cl.RouteDigest(cl.routeKey(trace))
}

// routeKey is RouteKey through the cluster's memo: the same key for the
// same bytes, with the decode skipped when these exact bytes were keyed
// before and the refused-bytes fallback reusing the hash the memo took.
func (cl *Cluster) routeKey(trace []byte) string {
	_, cd, wire, err := cl.memo.Decode(trace)
	if err != nil {
		return hex.EncodeToString(wire[:])
	}
	return cd
}

// MemoStats reports the route-key memo's counters (Go-side only, for
// tests and debugging; they have no wire form).
func (cl *Cluster) MemoStats() ingest.MemoStats { return cl.memo.Stats() }

// RouteDigest returns the failover order for a canonical content digest —
// what a router uses when a streaming submission asserts api.DigestHeader
// and the body has not (and will not) be read.
func (cl *Cluster) RouteDigest(digest string) []string {
	ms := cl.cur.Load()
	return ms.ring.Successors(digest, len(ms.members))
}

// failover reports whether an error from one member justifies trying the
// next ring successor rather than surfacing to the caller. It is the
// per-call retry classification — transport failures, bare 5xx, and
// retryable taxonomy codes — plus the member's client breaker being
// open (that member is known down; the successor is the whole point). A
// 4xx (bad trace, version skew, ...) will be 4xx everywhere. One
// retryable code deliberately does NOT fail over: quota_exceeded is the
// tenant's own backpressure, and hopping to a successor would both dodge
// the quota and trade a clear 429-with-Retry-After for node_down.
func failover(err error) bool {
	if api.ErrorCode(err) == api.CodeQuotaExceeded {
		return false
	}
	return failoverStream(err)
}

// Submit sends one trace to the owner of its route key, walking ring
// successors while members are down or draining. The returned JobInfo's
// ID carries the accepting node's prefix, which later routes Job and
// Diagnosis calls back to it.
func (cl *Cluster) Submit(ctx context.Context, req api.SubmitRequest) (api.JobInfo, error) {
	// Validate before keying: a submission every member would refuse must
	// not cost the front door a decode first.
	if _, err := validSubmit(req); err != nil {
		return api.JobInfo{}, err
	}
	ms := cl.cur.Load()
	for _, member := range cl.orderByBackoff(ms.ring.Successors(cl.routeKey(req.Trace), len(ms.members))) {
		info, err := ms.clients[member].Submit(ctx, req)
		cl.observeForward(member, err)
		if err == nil {
			cl.learn(info.ID, member)
			return info, nil
		}
		if !failover(err) || ctx.Err() != nil {
			return api.JobInfo{}, err
		}
	}
	return api.JobInfo{}, api.Errorf(api.CodeNodeDown,
		"no fleet node accepted the submission (%d tried; all down or draining)", len(ms.members))
}

// nodeFromID extracts the node prefix a -node-id daemon bakes into its
// job IDs ("n1-job-000042" -> "n1") and upload-session IDs
// ("n1-up-000007" -> "n1"); IDs from unnamed daemons yield "".
func nodeFromID(id string) string {
	for _, sep := range []string{"-job-", "-up-"} {
		if i := strings.LastIndex(id, sep); i > 0 {
			return id[:i]
		}
	}
	return ""
}

// learn records which member produced a job ID, so later lookups for that
// node skip the resolution probe.
func (cl *Cluster) learn(jobID, member string) {
	node := nodeFromID(jobID)
	if node == "" {
		return
	}
	cl.mu.Lock()
	cl.nodeToMember[node] = member
	delete(cl.unresolved, member)
	cl.mu.Unlock()
}

// memberForNode resolves a job-ID node prefix to a member's client,
// probing unresolved members' metrics for their advertised node id on
// demand. Resolution is checked against the caller's membership view: a
// node learned under a member that has since left the roster does not
// resolve.
func (cl *Cluster) memberForNode(ctx context.Context, ms *membership, node string) (*Client, bool) {
	cl.mu.Lock()
	member, ok := cl.nodeToMember[node]
	var probe []string
	if !ok {
		for m := range cl.unresolved {
			if _, present := ms.clients[m]; present {
				probe = append(probe, m)
			}
		}
	}
	cl.mu.Unlock()
	if ok {
		c, present := ms.clients[member]
		return c, present
	}
	sort.Strings(probe) // deterministic probe order
	for _, m := range probe {
		metrics, err := ms.clients[m].Metrics(ctx)
		if err != nil {
			continue // down member: stays unresolved, retried next time
		}
		cl.mu.Lock()
		delete(cl.unresolved, m)
		if metrics.Node != "" {
			cl.nodeToMember[metrics.Node] = m
		}
		cl.mu.Unlock()
		if metrics.Node == node {
			return ms.clients[m], true
		}
	}
	return nil, false
}

// lookup routes a job-scoped call to the member that owns the job ID, or
// fans out across members for IDs without a node prefix. An unreachable
// owning member maps to api.CodeJobNotFound: the job's state is gone with
// the node (or will replay under a fresh ID when it comes back), and
// "not found" is the code that tells callers to use the recovery path —
// resubmit the same bytes, which is idempotent by digest.
func (cl *Cluster) lookup(ctx context.Context, id string, call func(*Client) error) error {
	ms := cl.cur.Load()
	if node := nodeFromID(id); node != "" {
		c, ok := cl.memberForNode(ctx, ms, node)
		if !ok {
			return api.Errorf(api.CodeJobNotFound,
				"job %s belongs to node %q, which is not a reachable cluster member; resubmit the trace (idempotent)", id, node)
		}
		err := call(c)
		if err != nil && failover(err) && ctx.Err() == nil {
			return api.Errorf(api.CodeJobNotFound,
				"job %s is on node %q, which is unreachable; resubmit the trace (idempotent)", id, node)
		}
		return err
	}
	// Prefix-less ID (unnamed daemon): ask everyone.
	var lastErr error = api.Errorf(api.CodeJobNotFound, "unknown job %q on every cluster member", id)
	for _, member := range ms.members {
		err := call(ms.clients[member])
		if err == nil {
			return nil
		}
		if api.ErrorCode(err) == api.CodeJobNotFound || failover(err) {
			lastErr = err
			continue
		}
		return err
	}
	if failover(lastErr) {
		return api.Errorf(api.CodeJobNotFound,
			"job %s not found on any reachable member; resubmit the trace (idempotent)", id)
	}
	return lastErr
}

// Job fetches one job's snapshot from the node that owns its ID.
func (cl *Cluster) Job(ctx context.Context, id string) (api.JobInfo, error) {
	var info api.JobInfo
	err := cl.lookup(ctx, id, func(c *Client) error {
		var cerr error
		info, cerr = c.Job(ctx, id)
		return cerr
	})
	return info, err
}

// Diagnosis fetches the finished report from the node that owns the job.
func (cl *Cluster) Diagnosis(ctx context.Context, id string) (api.Diagnosis, error) {
	var d api.Diagnosis
	err := cl.lookup(ctx, id, func(c *Client) error {
		var cerr error
		d, cerr = c.Diagnosis(ctx, id)
		return cerr
	})
	return d, err
}

// fanOut calls fn once per member of one membership view concurrently and
// returns the results in member order. Fan-out matters operationally: the
// monitoring endpoints (Metrics, Jobs, Health) are polled hardest exactly
// when the cluster is degraded, and probing a dead member costs its full
// per-call retry budget — sequentially, each dead node would add that
// latency to every aggregate call.
func fanOut[T any](ms *membership, fn func(member string, c *Client) (T, error)) ([]T, []error) {
	results := make([]T, len(ms.members))
	errs := make([]error, len(ms.members))
	var wg sync.WaitGroup
	for i, member := range ms.members {
		wg.Add(1)
		go func(i int, member string) {
			defer wg.Done()
			results[i], errs[i] = fn(member, ms.clients[member])
		}(i, member)
	}
	wg.Wait()
	return results, errs
}

// Jobs merges the job listings of every reachable member, in member then
// submission order. Unreachable members are skipped: a listing is a
// monitoring view, and a partial one beats none.
func (cl *Cluster) Jobs(ctx context.Context) ([]api.JobInfo, error) {
	ms := cl.cur.Load()
	lists, errs := fanOut(ms, func(_ string, c *Client) ([]api.JobInfo, error) {
		return c.Jobs(ctx)
	})
	var out []api.JobInfo
	reachable := 0
	var lastErr error
	for i, infos := range lists {
		if errs[i] != nil {
			lastErr = errs[i]
			continue
		}
		reachable++
		out = append(out, infos...)
	}
	if reachable == 0 {
		if lastErr != nil && !failover(lastErr) {
			return nil, lastErr
		}
		return nil, api.Errorf(api.CodeNodeDown, "no fleet node reachable (%d tried)", len(ms.members))
	}
	return out, nil
}

// WaitDiagnosis polls the owning node until the job is terminal and
// returns its diagnosis, mirroring Client.WaitDiagnosis.
func (cl *Cluster) WaitDiagnosis(ctx context.Context, id string) (api.Diagnosis, error) {
	ms := cl.cur.Load()
	proto := ms.clients[ms.members[0]] // poll cadence comes from the shared options
	for {
		info, err := cl.Job(ctx, id)
		if err != nil {
			return api.Diagnosis{}, err
		}
		switch {
		case info.Status == api.StatusFailed:
			return api.Diagnosis{}, api.Errorf(api.CodeDiagnosisFailed,
				"job %s failed after %d attempts", id, info.Attempts)
		case info.Status.Terminal():
			return cl.Diagnosis(ctx, id)
		}
		if err := proto.sleep(ctx, proto.poll); err != nil {
			return api.Diagnosis{}, err
		}
	}
}

// SubmitAndWait is Submit followed by WaitDiagnosis on the accepted job.
func (cl *Cluster) SubmitAndWait(ctx context.Context, req api.SubmitRequest) (api.Diagnosis, error) {
	info, err := cl.Submit(ctx, req)
	if err != nil {
		return api.Diagnosis{}, err
	}
	return cl.WaitDiagnosis(ctx, info.ID)
}

// Metrics aggregates every reachable member's snapshot into one
// cluster-wide document (api.MergeMetrics): counters, cache sizes, and
// per-model/per-tenant maps sum; the latency percentiles take the worst
// (highest) node so the aggregate never understates tail latency;
// BreakerOpen is true if any node's breaker is open. Node is empty on the
// aggregate.
func (cl *Cluster) Metrics(ctx context.Context) (api.Metrics, error) {
	ms := cl.cur.Load()
	all, errs := fanOut(ms, func(_ string, c *Client) (api.Metrics, error) {
		return c.Metrics(ctx)
	})
	var snaps []api.Metrics
	var lastErr error
	for i, m := range all {
		if errs[i] != nil {
			lastErr = errs[i]
			continue
		}
		snaps = append(snaps, m)
	}
	if len(snaps) == 0 {
		if lastErr != nil && !failover(lastErr) {
			return api.Metrics{}, lastErr
		}
		return api.Metrics{}, api.Errorf(api.CodeNodeDown, "no fleet node reachable (%d tried)", len(ms.members))
	}
	return api.MergeMetrics(snaps), nil
}

// SubmitStream streams one trace into the fleet without buffering it.
// With opts.Digest set the stream goes straight to the digest's ring
// owner (walking successors only while zero body bytes have been
// consumed, or after rewinding an io.Seeker body); without it the
// cluster cannot know the owner before reading the body, so the stream
// lands on the digest-less route's first member — any daemon accepts any
// trace; ownership only optimizes cache locality — and the response's
// api.DigestHeader teaches the caller the digest to assert next time.
func (cl *Cluster) SubmitStream(ctx context.Context, body io.Reader, opts StreamOpts) (api.JobInfo, error) {
	ms := cl.cur.Load()
	targets := ms.members
	if opts.Digest != "" {
		targets = ms.ring.Successors(opts.Digest, len(ms.members))
	}
	// The router's spool/forward path rides this loop, so the per-endpoint
	// backoff matters most here: a spooled stream must not pay a known-down
	// owner's full retry schedule on every submission.
	targets = cl.orderByBackoff(targets)
	consumed := newCountingReader(body)
	var lastErr error
	for _, member := range targets {
		if consumed.count() > 0 {
			// A previous attempt shipped bytes; only a rewindable body can
			// honestly be replayed at another member.
			if err := consumed.rewind(); err != nil {
				if lastErr == nil {
					lastErr = err
				}
				return api.JobInfo{}, lastErr
			}
		}
		// consumed preserves the body's io.Seeker (when it has one), so
		// the member client's own per-node retry budget still applies to
		// rewindable streams.
		info, err := ms.clients[member].SubmitStream(ctx, consumed.reader(), opts)
		cl.observeForward(member, err)
		if err == nil {
			cl.learn(info.ID, member)
			return info, nil
		}
		if !failover(err) || ctx.Err() != nil {
			return api.JobInfo{}, err
		}
		lastErr = err
	}
	return api.JobInfo{}, api.Errorf(api.CodeNodeDown,
		"no fleet node accepted the stream (%d candidates tried; all down or draining)", len(targets))
}

// countingReader tracks how many body bytes a stream attempt consumed,
// which is what decides whether failing over to another member is safe.
// When the underlying body is an io.Seeker, the wrapper stays one (via
// seekCountingReader), so downstream retry machinery keeps working.
type countingReader struct {
	r io.Reader
	n int64
}

func newCountingReader(body io.Reader) *countingReader {
	return &countingReader{r: body}
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

func (c *countingReader) count() int64 { return c.n }

// reader returns the value to hand downstream: a seek-preserving view
// when the body can rewind, else the plain counter.
func (c *countingReader) reader() io.Reader {
	if _, ok := c.r.(io.Seeker); ok {
		return seekCountingReader{c}
	}
	return c
}

// seekCountingReader adds Seek to a countingReader over a rewindable
// body, keeping the consumed-byte count honest across rewinds so the
// cluster failover loop's bookkeeping stays correct even when the member
// client rewound internally.
type seekCountingReader struct{ *countingReader }

func (s seekCountingReader) Seek(offset int64, whence int) (int64, error) {
	pos, err := s.r.(io.Seeker).Seek(offset, whence)
	if err == nil && offset == 0 && whence == io.SeekStart {
		s.n = 0
	}
	return pos, err
}

// rewind resets a rewindable body to its start; non-rewindable bodies
// report an error.
func (c *countingReader) rewind() error {
	s, ok := c.r.(io.Seeker)
	if !ok {
		return fmt.Errorf("client: stream partially shipped and not rewindable")
	}
	if _, err := s.Seek(0, io.SeekStart); err != nil {
		return fmt.Errorf("client: rewind stream for failover: %w", err)
	}
	c.n = 0
	return nil
}

// UploadOpen opens a resumable upload session. A session with a claimed
// digest opens on the digest's ring owner — so the eventual job lands
// where its cache shard lives — and otherwise on the first reachable
// member. The returned ID carries the owning node's prefix; every later
// session call routes by it.
func (cl *Cluster) UploadOpen(ctx context.Context, opts StreamOpts) (api.UploadInfo, error) {
	ms := cl.cur.Load()
	targets := ms.members
	if opts.Digest != "" {
		targets = ms.ring.Successors(opts.Digest, len(ms.members))
	}
	var lastErr error = api.Errorf(api.CodeNodeDown, "no fleet node reachable (%d tried)", len(ms.members))
	for _, member := range targets {
		info, err := ms.clients[member].UploadOpen(ctx, opts)
		if err == nil {
			cl.learn(info.ID, member)
			return info, nil
		}
		if !failover(err) || ctx.Err() != nil {
			return api.UploadInfo{}, err
		}
		lastErr = err
	}
	if failover(lastErr) {
		lastErr = api.Errorf(api.CodeNodeDown, "no fleet node accepted the upload (%d tried)", len(targets))
	}
	return api.UploadInfo{}, lastErr
}

// uploadLookup routes a session-scoped call to the member whose node
// prefix the session ID carries. Unlike job lookups, a transient failure
// from the owner passes through UNCHANGED (retryable code and all):
// session state survives drains, open breakers, and — with -state-dir —
// even restarts, so the honest answer to "the owner hiccuped" is "retry",
// never "open a new session and re-upload". Only an owner that is not a
// configured, resolvable member at all maps to upload_not_found.
func (cl *Cluster) uploadLookup(ctx context.Context, id string, call func(*Client) error) error {
	ms := cl.cur.Load()
	node := nodeFromID(id)
	if node == "" {
		// Prefix-less ID (unnamed daemon): single-member fleets only.
		return call(ms.clients[ms.members[0]])
	}
	c, ok := cl.memberForNode(ctx, ms, node)
	if !ok {
		return api.Errorf(api.CodeUploadNotFound,
			"upload %s belongs to node %q, which is not a resolvable cluster member; open a new session", id, node)
	}
	return call(c)
}

// UploadAppend appends a chunk to the session on its owning node.
func (cl *Cluster) UploadAppend(ctx context.Context, id string, offset int64, chunk []byte) (api.UploadInfo, error) {
	var info api.UploadInfo
	err := cl.uploadLookup(ctx, id, func(c *Client) error {
		var cerr error
		info, cerr = c.UploadAppend(ctx, id, offset, chunk)
		return cerr
	})
	return info, err
}

// UploadStatus fetches the session snapshot from its owning node.
func (cl *Cluster) UploadStatus(ctx context.Context, id string) (api.UploadInfo, error) {
	var info api.UploadInfo
	err := cl.uploadLookup(ctx, id, func(c *Client) error {
		var cerr error
		info, cerr = c.UploadStatus(ctx, id)
		return cerr
	})
	return info, err
}

// UploadComplete finalizes the session into a job on its owning node.
// The returned job ID carries the same node prefix as the session, so
// Job/Diagnosis lookups route without any extra learning.
func (cl *Cluster) UploadComplete(ctx context.Context, id string) (api.JobInfo, error) {
	var info api.JobInfo
	err := cl.uploadLookup(ctx, id, func(c *Client) error {
		var cerr error
		info, cerr = c.UploadComplete(ctx, id)
		return cerr
	})
	return info, err
}

// UploadAbort discards the session on its owning node.
func (cl *Cluster) UploadAbort(ctx context.Context, id string) error {
	return cl.uploadLookup(ctx, id, func(c *Client) error {
		return c.UploadAbort(ctx, id)
	})
}

// SubmitChunked mirrors Client.SubmitChunked across the fleet: the
// session opens on the claimed digest's owner (or the first reachable
// member) and every chunk follows the session ID's node prefix home.
func (cl *Cluster) SubmitChunked(ctx context.Context, r io.Reader, chunkSize int, opts StreamOpts) (api.JobInfo, error) {
	return submitChunked(ctx, cl, r, chunkSize, opts)
}

// Health probes every member's metrics endpoint and reports the cluster
// roster: who is reachable, under what node id, and how much of the
// digest space each holds.
func (cl *Cluster) Health(ctx context.Context) api.ClusterHealth {
	rows, _ := fanOut(cl.cur.Load(), func(member string, c *Client) (api.NodeHealth, error) {
		row := api.NodeHealth{URL: member}
		m, err := c.Metrics(ctx)
		if err != nil {
			// Stable classification only: the raw error chain can embed
			// dial targets and is the caller's log's business, not a wire
			// payload's.
			row.Error = string(api.ErrorCode(err))
			if row.Error == "" {
				row.Error = "unreachable"
			}
			return row, nil
		}
		row.Healthy = true
		row.Node = m.Node
		row.OwnedDigests = m.OwnedDigests
		if m.Knowledge != nil {
			row.KnowledgeEpoch = m.Knowledge.Epoch
		}
		if m.Node != "" {
			cl.mu.Lock()
			cl.nodeToMember[m.Node] = member
			delete(cl.unresolved, member)
			cl.mu.Unlock()
		}
		return row, nil
	})
	return api.ClusterHealth{Nodes: rows, KnowledgeEpochSkew: knowledgeSkew(rows)}
}

// knowledgeSkew reports whether two healthy knowledge-serving members
// disagree on the promoted corpus epoch — the signature of a swap that
// reached part of the fleet only. Members without a plane (epoch 0) and
// unhealthy members don't count: they serve no retrievals to skew.
func knowledgeSkew(rows []api.NodeHealth) bool {
	var seen uint64
	for _, row := range rows {
		if !row.Healthy || row.KnowledgeEpoch == 0 {
			continue
		}
		if seen == 0 {
			seen = row.KnowledgeEpoch
		} else if row.KnowledgeEpoch != seen {
			return true
		}
	}
	return false
}
