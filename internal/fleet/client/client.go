// Package client is the Go SDK for the iofleetd wire API
// (internal/fleet/api): a thin, dependency-light HTTP client with
// connection reuse, context-aware retry with exponential backoff on
// transient failures, and a polling helper that waits a submission
// through to its finished diagnosis.
//
// Submissions are idempotent by construction: the daemon content-addresses
// work by trace digest, so a retried POST of the same bytes lands on the
// in-flight job (coalescing) or the result cache instead of re-running
// the pipeline. That is what makes the SDK's automatic resubmit on
// transient errors safe.
//
// Version skew is checked on every response: a server advertising an
// incompatible protocol major (api.VersionHeader) yields an *api.Error
// with api.CodeUnsupportedVersion, never a misparsed payload.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ioagent/internal/fleet/api"
	"ioagent/internal/fleet/bufpool"
)

// Option customizes a Client.
type Option func(*Client)

// WithHTTPClient substitutes the underlying *http.Client (the default
// shares one transport across all calls, so connections are reused).
func WithHTTPClient(h *http.Client) Option { return func(c *Client) { c.httpc = h } }

// WithRetry tunes the retry budget: maxAttempts total tries per call
// (minimum 1) with exponential backoff starting at baseDelay. The default
// is 4 attempts from 100ms.
func WithRetry(maxAttempts int, baseDelay time.Duration) Option {
	return func(c *Client) {
		if maxAttempts >= 1 {
			c.maxAttempts = maxAttempts
		}
		if baseDelay > 0 {
			c.baseDelay = baseDelay
		}
	}
}

// WithPollInterval tunes how often WaitDiagnosis polls (default 100ms).
func WithPollInterval(d time.Duration) Option {
	return func(c *Client) {
		if d > 0 {
			c.poll = d
		}
	}
}

// WithForwardedBy stamps every request with api.ForwardedHeader carrying
// id. iofleet-router sets it so a misconfigured member list (a router
// listing itself, or another router) is detected as a loop instead of
// ricocheting submissions forever. Plain SDK users never need it.
func WithForwardedBy(id string) Option { return func(c *Client) { c.forwardedBy = id } }

// WithRingReplicas sets the virtual-node count of the consistent-hash
// ring in Cluster mode (default ring.DefaultReplicas). Every party that
// must agree on digest ownership — all routers and all cluster-mode
// clients of one fleet — has to use the same value. It has no effect on
// a single-node Client.
func WithRingReplicas(n int) Option {
	return func(c *Client) {
		if n > 0 {
			c.ringReplicas = n
		}
	}
}

// Client talks to one iofleetd instance. It is safe for concurrent use.
type Client struct {
	base        string
	httpc       *http.Client
	maxAttempts int
	baseDelay   time.Duration
	maxDelay    time.Duration
	poll        time.Duration
	forwardedBy string
	window      outcomeWindow // recent-attempt outcomes for adaptive backoff
	// backoff is this member's cross-call failure memory in Cluster mode
	// (see backoff.go); a single-node Client never reads it.
	backoff endpointBackoff
	// ringReplicas is only read by Cluster, which builds its ring from
	// the options applied to its member clients.
	ringReplicas int
	// done holds the diagnosis carried by the last submission reply whose
	// job was already done, for the WaitDiagnosis that follows it (see
	// remember). A Cluster's member clients never fill it.
	done atomic.Pointer[api.Diagnosis]

	// sleep is swapped out by tests to make backoff instantaneous.
	sleep func(context.Context, time.Duration) error
}

// Close releases the idle keep-alive connections held by the underlying
// transport. Tests and short-lived tools that create many clients (or
// whose daemon restarts, stranding pooled conns to the old process)
// should defer it; the Client stays usable afterwards — the next call
// simply dials fresh.
func (c *Client) Close() {
	c.httpc.CloseIdleConnections()
}

// New builds a client for the daemon at baseURL (e.g. "http://host:8080").
func New(baseURL string, opts ...Option) *Client {
	c := &Client{
		base:        strings.TrimRight(baseURL, "/"),
		httpc:       &http.Client{Timeout: 5 * time.Minute},
		maxAttempts: 4,
		baseDelay:   100 * time.Millisecond,
		maxDelay:    5 * time.Second,
		poll:        100 * time.Millisecond,
		sleep:       sleepCtx,
	}
	for _, o := range opts {
		o(c)
	}
	return c
}

func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// Submit sends one trace for diagnosis and returns the accepted job
// record (which is already terminal for cache hits, and then carries the
// diagnosis in Text). Transient failures — network errors, 5xx,
// api.CodeDraining — are retried with backoff; the resubmit is safe
// because the daemon deduplicates by trace digest.
func (c *Client) Submit(ctx context.Context, req api.SubmitRequest) (api.JobInfo, error) {
	path, err := submitPath("/v1/jobs", req.Lane, req.Tenant)
	if err != nil {
		return api.JobInfo{}, err
	}
	var info api.JobInfo
	err = c.fetch(ctx, http.MethodPost, path, bufpool.Wrap(req.Trace), nil, decodeJob(path, &info))
	return c.remember(info, err)
}

// decodeJob is the use of a fetched submission reply that decodes it
// into info, naming path on failure.
func decodeJob(path string, info *api.JobInfo) func(reply []byte) error {
	return func(reply []byte) error {
		return decodeJSON(reply, http.MethodPost, path, info)
	}
}

// remember keeps the diagnosis a submission reply carries — the job was
// done when the reply was written — for the WaitDiagnosis that usually
// follows, and passes the reply through. A later done reply replaces it.
func (c *Client) remember(info api.JobInfo, err error) (api.JobInfo, error) {
	if err == nil && info.Status == api.StatusDone && info.Text != "" {
		c.done.Store(&api.Diagnosis{
			JobID:         info.ID,
			Digest:        info.Digest,
			Lane:          info.Lane,
			CacheHit:      info.CacheHit,
			SimilarityHit: info.SimilarityHit,
			SourceDigest:  info.SourceDigest,
			Confidence:    info.Confidence,
			Text:          info.Text,
		})
	}
	return info, err
}

// submitPath applies the client-side submission checks — a known lane,
// a bounded tenant — and returns endpoint with the ?lane=&tenant= query
// that carries them. Every submission entry point (buffered, streamed,
// upload open) goes through it before sending a byte.
func submitPath(endpoint string, lane api.Lane, tenant string) (string, error) {
	l := lane.WithDefault()
	if !l.Valid() {
		return "", api.Errorf(api.CodeBadRequest, "unknown lane %q", lane)
	}
	if len(tenant) > api.MaxTenantLen {
		return "", api.Errorf(api.CodeBadRequest, "tenant exceeds %d bytes", api.MaxTenantLen)
	}
	if tenant == "" {
		return endpoint + "?lane=" + url.QueryEscape(string(l)), nil
	}
	return endpoint + "?lane=" + url.QueryEscape(string(l)) + "&tenant=" + url.QueryEscape(tenant), nil
}

// Job fetches one job's current snapshot.
func (c *Client) Job(ctx context.Context, id string) (api.JobInfo, error) {
	var info api.JobInfo
	err := c.do(ctx, http.MethodGet, "/v1/jobs/"+url.PathEscape(id), nil, &info)
	return info, err
}

// Jobs lists every job the daemon still remembers, in submission order.
func (c *Client) Jobs(ctx context.Context) ([]api.JobInfo, error) {
	var infos []api.JobInfo
	err := c.do(ctx, http.MethodGet, "/v1/jobs", nil, &infos)
	return infos, err
}

// Diagnosis fetches the finished report for a terminal, successful job.
// A still-running job yields api.CodeJobNotDone (not retried — poll this
// call, as WaitDiagnosis does).
func (c *Client) Diagnosis(ctx context.Context, id string) (api.Diagnosis, error) {
	var d api.Diagnosis
	err := c.do(ctx, http.MethodGet, "/v1/jobs/"+url.PathEscape(id)+"/diagnosis", nil, &d)
	return d, err
}

// Metrics fetches the pool health snapshot.
func (c *Client) Metrics(ctx context.Context) (api.Metrics, error) {
	var m api.Metrics
	err := c.do(ctx, http.MethodGet, "/metrics", nil, &m)
	return m, err
}

// WaitDiagnosis reads job id's diagnosis, polling while the job is not
// done. A failed job yields the daemon's *api.Error with
// api.CodeDiagnosisFailed. Polling cadence is WithPollInterval; the
// context bounds the total wait.
//
// When the last submission reply this client received was job id's and
// already carried its diagnosis (a cache hit), the first wait on id
// returns it without a request. Every other wait — another job, a second
// wait on the same job, a caller that lost the race for it, a server
// older than api 1.7 — reads the daemon.
func (c *Client) WaitDiagnosis(ctx context.Context, id string) (api.Diagnosis, error) {
	if d := c.done.Load(); d != nil && d.JobID == id && c.done.CompareAndSwap(d, nil) {
		return *d, nil
	}
	return c.waitDiagnosis(ctx, id, c.Diagnosis)
}

// waitDiagnosis is the loop behind both WaitDiagnosis methods: it asks
// read for the diagnosis straight away and sleeps c's poll interval only
// while the answer is job_not_done, so a terminal job costs one request.
// Every other outcome — the diagnosis, diagnosis_failed, job_not_found, a
// transport error — is returned as it is. The poll interval paces the
// loop whatever Retry-After a job_not_done carries: that hint times the
// retry of refused work, not the progress of a running job.
func (c *Client) waitDiagnosis(ctx context.Context, id string, read func(context.Context, string) (api.Diagnosis, error)) (api.Diagnosis, error) {
	for {
		d, err := read(ctx, id)
		if api.ErrorCode(err) != api.CodeJobNotDone {
			return d, err
		}
		if err := c.sleep(ctx, c.poll); err != nil {
			return api.Diagnosis{}, err
		}
	}
}

// SubmitAndWait is Submit followed by WaitDiagnosis on the accepted job.
func (c *Client) SubmitAndWait(ctx context.Context, req api.SubmitRequest) (api.Diagnosis, error) {
	info, err := c.Submit(ctx, req)
	if err != nil {
		return api.Diagnosis{}, err
	}
	return c.WaitDiagnosis(ctx, info.ID)
}

// do runs one logical call with retry and decodes its 2xx body into
// out. body may be nil; out may be nil for calls with no interesting
// response.
func (c *Client) do(ctx context.Context, method, path string, body []byte, out any) error {
	return c.doHeaders(ctx, method, path, body, nil, out)
}

// doHeaders is do with extra per-call request headers (empty values are
// skipped).
func (c *Client) doHeaders(ctx context.Context, method, path string, body []byte, headers map[string]string, out any) error {
	var held *bufpool.Buf
	if body != nil {
		held = bufpool.Wrap(body)
	}
	return c.fetch(ctx, method, path, held, headers, func(data []byte) error {
		if out == nil {
			return nil
		}
		return decodeJSON(data, method, path, out)
	})
}

// fetch runs one logical call with retry — build request, send, read —
// and lends the 2xx body, as the server sent it, to use. The body's
// buffer is recycled when use returns, so use must copy out whatever it
// keeps. body, when not nil, is held by the caller for the whole call.
func (c *Client) fetch(ctx context.Context, method, path string, body *bufpool.Buf, headers map[string]string, use func(data []byte) error) error {
	var reply *bufpool.Buf
	err := c.retry(ctx, func() (err error) {
		reply, err = c.once(ctx, method, path, body, headers)
		return err
	}, nil)
	if err != nil {
		return err
	}
	defer reply.Release()
	return use(reply.B)
}

// retry is the SDK's one retry loop: it runs attempt until it succeeds,
// fails with a non-retryable error, or spends the WithRetry budget,
// recording every outcome in the adaptive-backoff window. rewind, when
// set, runs before each retry with the failure that prompted it; a
// non-nil return ends the call with that error (a streamed body that
// cannot be replayed stops there).
//
// The retry delay starts from the exponential base but is shaped by two
// live signals: the transient-failure rate observed over this client's
// recent attempts widens it (a struggling server earns a wider berth
// than a single blip), and a server-sent Retry-After floors it (the
// server knows when the quota frees or the drain completes better than
// any client-side formula).
func (c *Client) retry(ctx context.Context, attempt func() error, rewind func(last error) error) error {
	delay := c.baseDelay
	for n := 1; ; n++ {
		err := attempt()
		c.window.record(err != nil && retryable(err))
		if err == nil || !retryable(err) || n >= c.maxAttempts {
			return err
		}
		if rewind != nil {
			if rerr := rewind(err); rerr != nil {
				return rerr
			}
		}
		if serr := c.sleep(ctx, c.nextDelay(delay, err)); serr != nil {
			return fmt.Errorf("%w (last attempt: %w)", serr, err)
		}
		if delay *= 2; delay > c.maxDelay {
			delay = c.maxDelay
		}
	}
}

// nextDelay shapes the base exponential delay for this retry: widened by
// the transient-failure rate observed over the client's recent attempts —
// a client talking to a struggling server backs off harder than one that
// hit a single blip, instead of every client doubling in lockstep — then
// floored by any server-sent Retry-After hint.
func (c *Client) nextDelay(base time.Duration, err error) time.Duration {
	d := widen(base, c.window.rate(), c.maxDelay)
	if ra := retryAfterIn(err); ra > d {
		d = ra // the server's own hint outranks the cap: it knows
	}
	return d
}

// once performs a single HTTP round trip, enforcing version compatibility
// and mapping error bodies onto *api.Error.
//
// A pooled body is sent as a bufpool.Body: it holds the buffer until the
// transport closes it, which may be after the round trip returns, and
// its Replay is the request's GetBody, so the transport's own resend and
// a redirect read the same held bytes. Any other body is the caller's
// memory and goes as a bytes.Reader, which net/http sends with its
// headers in one write.
func (c *Client) once(ctx context.Context, method, path string, body *bufpool.Buf, headers map[string]string) (*bufpool.Buf, error) {
	var rd io.Reader
	var held *bufpool.Body
	switch {
	case body == nil:
	case body.Pooled() && len(body.B) > 0:
		held = body.NewBody()
		rd = held
	default:
		rd = bytes.NewReader(body.B)
	}
	req, err := c.newRequest(ctx, method, path, rd)
	if err != nil {
		if held != nil {
			held.Close()
		}
		return nil, err
	}
	if held != nil {
		req.ContentLength = int64(len(body.B))
		req.GetBody = held.Replay
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/octet-stream")
	}
	for k, v := range headers {
		if v != "" {
			req.Header.Set(k, v)
		}
	}
	resp, err := c.httpc.Do(req)
	if err != nil {
		return nil, &transportError{err}
	}
	return c.readResponse(resp)
}

// newRequest builds a request carrying the client's standing headers.
func (c *Client) newRequest(ctx context.Context, method, path string, body io.Reader) (*http.Request, error) {
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, body)
	if err != nil {
		return nil, err
	}
	req.Header.Set(api.VersionHeader, api.CurrentHeader)
	req.Header.Set("Accept", "application/json")
	if c.forwardedBy != "" {
		req.Header.Set(api.ForwardedHeader, c.forwardedBy)
	}
	return req, nil
}

// maxResponse bounds one response body.
const maxResponse = 64 << 20

// readResponse consumes and closes the response body, enforcing the
// version handshake and mapping error envelopes onto *api.Error. It
// returns a 2xx body as the server sent it, in a buffer the caller holds
// and releases; only 2xx bodies are pooled.
func (c *Client) readResponse(resp *http.Response) (*bufpool.Buf, error) {
	defer resp.Body.Close()

	// Version skew check before trusting any payload: an incompatible
	// major means the shapes below may not mean what we think they mean.
	if adv := resp.Header.Get(api.VersionHeader); adv != "" {
		v, perr := api.ParseVersion(adv)
		if perr != nil {
			return nil, api.Errorf(api.CodeUnsupportedVersion, "server sent malformed version %q", adv)
		}
		if !v.CompatibleWith(api.Current) {
			return nil, api.Errorf(api.CodeUnsupportedVersion,
				"server speaks api %s, this client speaks %s", v, api.Current)
		}
	}

	if resp.StatusCode >= 400 {
		data, err := readAll(resp.Body)
		if err != nil {
			return nil, err
		}
		var outErr error
		var apiErr api.Error
		if json.Unmarshal(data, &apiErr) == nil && apiErr.Code != "" {
			outErr = &apiErr
		} else {
			// No structured body (proxy error page, panic, ...): keep the
			// status so retryable() can classify 5xx as transient. This
			// branch also covers header-less errors: a proxy in front of a
			// healthy daemon never stamps the version header, so an error
			// without one must stay retryable rather than be refused as skew.
			outErr = &httpError{status: resp.StatusCode, body: string(data)}
		}
		// A Retry-After hint (delay-seconds form) rides along so the
		// retry loop can floor its backoff on the server's own estimate.
		if secs, perr := strconv.Atoi(strings.TrimSpace(resp.Header.Get(api.RetryAfterHeader))); perr == nil && secs > 0 {
			outErr = &hintedError{err: outErr, retryAfter: time.Duration(secs) * time.Second}
		}
		return nil, outErr
	}
	// A versioned server stamps every successful response, so a 2xx
	// without the header means a pre-versioning daemon (or not a fleet
	// daemon at all) — refuse it rather than misparse its payload.
	if resp.Header.Get(api.VersionHeader) == "" {
		return nil, api.Errorf(api.CodeUnsupportedVersion,
			"server sent no %s header; it does not speak the versioned fleet api", api.VersionHeader)
	}
	return readBody(resp)
}

// readBody reads a 2xx response body of up to maxResponse bytes. A
// declared Content-Length sizes one exact read into a pooled buffer; a
// body cut short of it is a transport failure, and one declared over the
// cap is refused unread. Without a length (chunked replies) the body is
// read to EOF, bounded, into an unpooled Buf.
func readBody(resp *http.Response) (*bufpool.Buf, error) {
	n := resp.ContentLength
	if n > maxResponse {
		return nil, fmt.Errorf("client: response too large: %d bytes declared, limit %d", n, maxResponse)
	}
	if n < 0 {
		data, err := readAll(resp.Body)
		if err != nil {
			return nil, err
		}
		return bufpool.Wrap(data), nil
	}
	buf := bufpool.Get(int(n))
	if _, err := io.ReadFull(resp.Body, buf.B); err != nil {
		buf.Release()
		return nil, &transportError{err}
	}
	return buf, nil
}

// readAll reads a body of unknown length to EOF, bounded by maxResponse.
func readAll(body io.Reader) ([]byte, error) {
	data, err := io.ReadAll(io.LimitReader(body, maxResponse))
	if err != nil {
		return nil, &transportError{err}
	}
	return data, nil
}

// decodeJSON unmarshals a 2xx body into out, naming the call on failure.
func decodeJSON(data []byte, method, path string, out any) error {
	if err := json.Unmarshal(data, out); err != nil {
		return fmt.Errorf("client: decode %s %s response: %w", method, path, err)
	}
	return nil
}

// transportError wraps a failure to complete the HTTP round trip at all
// (dial refused, reset, timeout). Always retryable.
type transportError struct{ err error }

func (e *transportError) Error() string { return "client: " + e.err.Error() }
func (e *transportError) Unwrap() error { return e.err }

// httpError is a non-2xx response without a structured api.Error body.
type httpError struct {
	status int
	body   string
}

func (e *httpError) Error() string {
	return fmt.Sprintf("client: http %d: %.200s", e.status, e.body)
}

// hintedError carries a server-sent Retry-After alongside the failure it
// decorated; errors.As/Is see through it to the wrapped error.
type hintedError struct {
	err        error
	retryAfter time.Duration
}

func (e *hintedError) Error() string { return e.err.Error() }
func (e *hintedError) Unwrap() error { return e.err }

// retryAfterIn extracts a Retry-After hint from an attempt's error chain
// (zero when the server sent none).
func retryAfterIn(err error) time.Duration {
	var he *hintedError
	if errors.As(err, &he) {
		return he.retryAfter
	}
	return 0
}

// RetryAfterHint exposes a server-sent Retry-After carried by an error
// from this SDK (zero when none was sent). iofleet-router uses it to
// propagate the owning daemon's hint to its own caller instead of
// swallowing it.
func RetryAfterHint(err error) time.Duration { return retryAfterIn(err) }

// outcomeWindow is a fixed ring of recent attempt outcomes; its failure
// rate drives the adaptive backoff widening. Safe for concurrent use.
type outcomeWindow struct {
	mu       sync.Mutex
	outcomes [32]bool // true = transient failure
	n, idx   int
	fails    int
}

func (w *outcomeWindow) record(fail bool) {
	w.mu.Lock()
	if w.n < len(w.outcomes) {
		w.n++
	} else if w.outcomes[w.idx] {
		w.fails--
	}
	w.outcomes[w.idx] = fail
	w.idx = (w.idx + 1) % len(w.outcomes)
	if fail {
		w.fails++
	}
	w.mu.Unlock()
}

func (w *outcomeWindow) rate() float64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.n == 0 {
		return 0
	}
	return float64(w.fails) / float64(w.n)
}

// retryable classifies one attempt's failure: transport errors, bare
// 5xx/429 statuses, and API codes the taxonomy marks retryable.
func retryable(err error) bool {
	var te *transportError
	if errors.As(err, &te) {
		return true
	}
	var he *httpError
	if errors.As(err, &he) {
		return he.status >= 500 || he.status == http.StatusTooManyRequests
	}
	var ae *api.Error
	if errors.As(err, &ae) {
		return ae.Code.Retryable()
	}
	return false
}
