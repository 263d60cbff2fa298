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
	"time"

	"ioagent/internal/fleet/api"
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

// WithBreaker arms a client-side circuit breaker mirroring the pool's:
// after threshold consecutive retryable failures, calls fail fast with
// ErrBreakerOpen — no dial, no retry budget — until cooldown elapses and
// a half-open probe is admitted. Zero threshold disables (the default).
// Cluster mode treats a member's open breaker as an immediate failover
// signal, so a down node costs nothing once its breaker trips.
func WithBreaker(threshold int, cooldown time.Duration) Option {
	return func(c *Client) {
		if threshold > 0 {
			if cooldown <= 0 {
				cooldown = 5 * time.Second
			}
			c.brk = &clientBreaker{threshold: threshold, cooldown: cooldown, now: time.Now}
		}
	}
}

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

// ErrBreakerOpen is returned by calls refused fast because the client's
// circuit breaker (WithBreaker) is open: the server produced too many
// consecutive retryable failures and the cooldown has not elapsed.
// Nothing was sent; retry later, or let cluster mode fail over.
var ErrBreakerOpen = errors.New("client: circuit breaker open (server marked down); retry later")

// Client talks to one iofleetd instance. It is safe for concurrent use.
type Client struct {
	base        string
	httpc       *http.Client
	maxAttempts int
	baseDelay   time.Duration
	maxDelay    time.Duration
	poll        time.Duration
	forwardedBy string
	brk         *clientBreaker // nil unless WithBreaker armed it
	window      outcomeWindow  // recent-attempt outcomes for adaptive backoff
	// ringReplicas is only read by Cluster, which builds its ring from
	// the options applied to its member clients.
	ringReplicas int

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
// record (which is already terminal for cache hits). Transient failures —
// network errors, 5xx, api.CodeDraining — are retried with backoff; the
// resubmit is safe because the daemon deduplicates by trace digest.
func (c *Client) Submit(ctx context.Context, req api.SubmitRequest) (api.JobInfo, error) {
	lane, err := validSubmit(req)
	if err != nil {
		return api.JobInfo{}, err
	}
	var info api.JobInfo
	path := "/v1/jobs?lane=" + url.QueryEscape(string(lane))
	if req.Tenant != "" {
		path += "&tenant=" + url.QueryEscape(req.Tenant)
	}
	err = c.do(ctx, http.MethodPost, path, req.Trace, &info)
	return info, err
}

// validSubmit applies the client-side submission checks — a known lane,
// a bounded tenant — and returns the defaulted lane.
func validSubmit(req api.SubmitRequest) (api.Lane, error) {
	lane := req.Lane.WithDefault()
	if !lane.Valid() {
		return "", api.Errorf(api.CodeBadRequest, "unknown lane %q", req.Lane)
	}
	if len(req.Tenant) > api.MaxTenantLen {
		return "", api.Errorf(api.CodeBadRequest, "tenant exceeds %d bytes", api.MaxTenantLen)
	}
	return lane, nil
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
// A still-running job yields api.CodeJobNotDone (not retried — poll the
// job instead, or use WaitDiagnosis).
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

// WaitDiagnosis polls job id until it reaches a terminal state and
// returns its diagnosis. A failed job yields an *api.Error with
// api.CodeDiagnosisFailed. Polling cadence is WithPollInterval; the
// context bounds the total wait.
func (c *Client) WaitDiagnosis(ctx context.Context, id string) (api.Diagnosis, error) {
	for {
		info, err := c.Job(ctx, id)
		if err != nil {
			return api.Diagnosis{}, err
		}
		switch {
		case info.Status == api.StatusFailed:
			return api.Diagnosis{}, api.Errorf(api.CodeDiagnosisFailed,
				"job %s failed after %d attempts", id, info.Attempts)
		case info.Status.Terminal():
			return c.Diagnosis(ctx, id)
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

// do runs one logical call with retry: build request, send, decode. body
// may be nil; out may be nil for calls with no interesting response.
//
// The retry delay starts from the exponential base but is shaped by two
// live signals: the transient-failure rate observed over this client's
// recent attempts widens it (a struggling server earns a wider berth
// than a single blip), and a server-sent Retry-After floors it (the
// server knows when the quota frees or the drain completes better than
// any client-side formula).
func (c *Client) do(ctx context.Context, method, path string, body []byte, out any) error {
	if c.brk != nil && !c.brk.allow() {
		return ErrBreakerOpen
	}
	delay := c.baseDelay
	var lastErr error
	for attempt := 1; ; attempt++ {
		err := c.once(ctx, method, path, body, out)
		c.observe(err)
		if err == nil || !retryable(err) || attempt >= c.maxAttempts {
			return err
		}
		lastErr = err
		if serr := c.sleep(ctx, c.nextDelay(delay, err)); serr != nil {
			return fmt.Errorf("%w (last attempt: %w)", serr, lastErr)
		}
		if delay *= 2; delay > c.maxDelay {
			delay = c.maxDelay
		}
	}
}

// observe feeds one attempt's outcome to the adaptive-backoff window and
// the breaker (when armed).
func (c *Client) observe(err error) {
	fail := err != nil && retryable(err)
	c.window.record(fail)
	if c.brk != nil {
		c.brk.record(fail)
	}
}

// nextDelay shapes the base exponential delay for this retry: widened by
// the transient-failure rate observed over the client's recent attempts —
// a client talking to a struggling server backs off harder than one that
// hit a single blip, instead of every client doubling in lockstep — then
// floored by any server-sent Retry-After hint.
func (c *Client) nextDelay(base time.Duration, err error) time.Duration {
	// rate 0 leaves the exponential schedule untouched; a fully failing
	// window quadruples it (on top of the doubling).
	d := time.Duration(float64(base) * (1 + 3*c.window.rate()))
	if d > c.maxDelay {
		d = c.maxDelay
	}
	if ra := retryAfterIn(err); ra > d {
		d = ra // the server's own hint outranks the cap: it knows
	}
	return d
}

// once performs a single HTTP round trip, enforcing version compatibility
// and mapping error bodies onto *api.Error.
func (c *Client) once(ctx context.Context, method, path string, body []byte, out any) error {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := c.newRequest(ctx, method, path, rd)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/octet-stream")
	}
	resp, err := c.httpc.Do(req)
	if err != nil {
		return &transportError{err}
	}
	return c.decodeResponse(resp, method, path, out)
}

// newRequest builds a request carrying the client's standing headers.
func (c *Client) newRequest(ctx context.Context, method, path string, body io.Reader) (*http.Request, error) {
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, body)
	if err != nil {
		return nil, err
	}
	req.Header.Set(api.VersionHeader, api.Current.String())
	req.Header.Set("Accept", "application/json")
	if c.forwardedBy != "" {
		req.Header.Set(api.ForwardedHeader, c.forwardedBy)
	}
	return req, nil
}

// decodeResponse consumes and closes the response body, enforcing the
// version handshake and mapping error envelopes onto *api.Error.
func (c *Client) decodeResponse(resp *http.Response, method, path string, out any) error {
	defer resp.Body.Close()

	// Version skew check before trusting any payload: an incompatible
	// major means the shapes below may not mean what we think they mean.
	if adv := resp.Header.Get(api.VersionHeader); adv != "" {
		v, perr := api.ParseVersion(adv)
		if perr != nil {
			return api.Errorf(api.CodeUnsupportedVersion, "server sent malformed version %q", adv)
		}
		if !v.CompatibleWith(api.Current) {
			return api.Errorf(api.CodeUnsupportedVersion,
				"server speaks api %s, this client speaks %s", v, api.Current)
		}
	}

	data, err := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	if err != nil {
		return &transportError{err}
	}
	if resp.StatusCode >= 400 {
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
		return outErr
	}
	// A versioned server stamps every successful response, so a 2xx
	// without the header means a pre-versioning daemon (or not a fleet
	// daemon at all) — refuse it rather than misparse its payload.
	if resp.Header.Get(api.VersionHeader) == "" {
		return api.Errorf(api.CodeUnsupportedVersion,
			"server sent no %s header; it does not speak the versioned fleet api", api.VersionHeader)
	}
	if out == nil {
		return nil
	}
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

// clientBreaker mirrors the pool's transient-failure breaker on the
// client side: consecutive retryable failures trip it open, calls fail
// fast with ErrBreakerOpen through the cooldown, then a half-open probe
// is admitted — its outcome closes or re-arms the breaker.
type clientBreaker struct {
	threshold int
	cooldown  time.Duration
	now       func() time.Time

	mu          sync.Mutex
	consecutive int
	open        bool
	openSince   time.Time
	trips       int64
}

// allow reports whether a call may proceed: always while closed, and
// once per cooldown while open (the half-open probe).
func (b *clientBreaker) allow() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if !b.open {
		return true
	}
	return b.now().Sub(b.openSince) >= b.cooldown
}

// record feeds one attempt's outcome. A success closes the breaker; a
// retryable failure counts toward the threshold and re-arms an open
// breaker's cooldown (a failed half-open probe starts a fresh wait).
func (b *clientBreaker) record(fail bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if !fail {
		b.consecutive = 0
		b.open = false
		return
	}
	b.consecutive++
	if b.consecutive >= b.threshold {
		if !b.open {
			b.trips++
		}
		b.open = true
		b.openSince = b.now()
	}
}

// Trips reports how many times the breaker has opened (for tests and
// metrics).
func (b *clientBreaker) Trips() int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.trips
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
