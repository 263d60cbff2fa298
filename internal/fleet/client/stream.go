package client

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"

	"ioagent/internal/fleet/api"
	"ioagent/internal/fleet/ingest"
)

// StreamOpts parameterizes a streaming submission.
type StreamOpts struct {
	// Lane selects the priority class; empty means interactive.
	Lane api.Lane
	// Tenant names the submitting tenant (per-tenant accounting/quota).
	Tenant string
	// Digest, when known, is the trace's canonical content digest
	// (darshan.ContentDigest), asserted as the api.DigestHeader request
	// header — which is what lets iofleet-router place the stream on its
	// owning node without spooling a byte. When empty, SubmitStream
	// computes the digest on the fly (teeing the outgoing bytes through
	// the incremental parser) and sends it as an HTTP trailer: a router
	// spools the body to wait for it, then places by it just the same,
	// and the server verifies it end-to-end.
	Digest string
}

// SubmitStream submits one trace without ever holding it in memory: the
// reader's bytes flow straight onto the wire (chunked transfer
// encoding), the daemon's incremental parser starts pre-processing them
// as they land, and the response is the accepted job.
//
// Retries: a failed attempt consumes an unknown amount of body, so only
// a body that can be rewound — an io.Seeker, e.g. an *os.File — is
// retried or failed over; for anything else (a pipe, stdin) the first
// transport or retryable failure is final and the caller decides whether
// to re-produce the stream.
func (c *Client) SubmitStream(ctx context.Context, body io.Reader, opts StreamOpts) (api.JobInfo, error) {
	lane := opts.Lane.WithDefault()
	if !lane.Valid() {
		return api.JobInfo{}, api.Errorf(api.CodeBadRequest, "unknown lane %q", opts.Lane)
	}
	if len(opts.Tenant) > api.MaxTenantLen {
		return api.JobInfo{}, api.Errorf(api.CodeBadRequest, "tenant exceeds %d bytes", api.MaxTenantLen)
	}
	if c.brk != nil && !c.brk.allow() {
		return api.JobInfo{}, ErrBreakerOpen
	}
	path := "/v1/jobs/stream?lane=" + url.QueryEscape(string(lane))
	if opts.Tenant != "" {
		path += "&tenant=" + url.QueryEscape(opts.Tenant)
	}

	seeker, rewindable := body.(io.Seeker)
	delay := c.baseDelay
	for attempt := 1; ; attempt++ {
		info, err := c.streamOnce(ctx, path, body, opts.Digest)
		c.observe(err)
		if err == nil || !retryable(err) || !rewindable || attempt >= c.maxAttempts {
			return info, err
		}
		if _, serr := seeker.Seek(0, io.SeekStart); serr != nil {
			return info, fmt.Errorf("client: rewind stream for retry: %w (after: %w)", serr, err)
		}
		if serr := c.sleep(ctx, c.nextDelay(delay, err)); serr != nil {
			return info, fmt.Errorf("%w (last attempt: %w)", serr, err)
		}
		if delay *= 2; delay > c.maxDelay {
			delay = c.maxDelay
		}
	}
}

func (c *Client) streamOnce(ctx context.Context, path string, body io.Reader, digest string) (api.JobInfo, error) {
	rd := body
	var tee *digestTee
	if digest == "" {
		// No digest known up front: hash on the fly and deliver the
		// result as a trailer for end-to-end verification.
		tee = &digestTee{r: body, parser: ingest.NewParser(0)}
		rd = tee
	}
	req, err := c.newRequest(ctx, http.MethodPost, path, rd)
	if err != nil {
		return api.JobInfo{}, err
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	req.ContentLength = -1 // stream: chunked transfer encoding
	if digest != "" {
		req.Header.Set(api.DigestHeader, digest)
	} else {
		// Declare the trailer up front; digestTee fills it at body EOF,
		// which is before the transport serializes the trailer block.
		req.Trailer = http.Header{api.DigestHeader: nil}
		tee.trailer = req.Trailer
	}
	resp, err := c.httpc.Do(req)
	if err != nil {
		return api.JobInfo{}, &transportError{err}
	}
	var info api.JobInfo
	if err := c.decodeResponse(resp, http.MethodPost, path, &info); err != nil {
		return api.JobInfo{}, err
	}
	return info, nil
}

// digestTee feeds the bytes it relays through an incremental parser and,
// if the whole stream parses, deposits the canonical content digest into
// the request trailer at EOF. It never fails the upload: a stream the
// client-side parser cannot handle (binary rendering — hashing it would
// mean buffering it — or malformed text) simply ships without a claim,
// and the server's own parse is authoritative anyway.
type digestTee struct {
	r       io.Reader
	parser  *ingest.Parser
	sniffed bool // the parser has named the rendering; asked once
	dead    bool // parser abandoned; stream continues unhashed
	trailer http.Header
}

func (t *digestTee) Read(p []byte) (int, error) {
	n, err := t.r.Read(p)
	if n > 0 && !t.dead {
		if _, werr := t.parser.Write(p[:n]); werr != nil {
			t.dead = true
		} else if !t.sniffed {
			st := t.parser.Stats()
			t.sniffed, t.dead = st.Decided, st.Decided && st.Binary
		}
	}
	if err == io.EOF && !t.dead {
		if _, digest, ferr := t.parser.Finish(); ferr == nil {
			t.trailer.Set(api.DigestHeader, digest)
		}
	}
	return n, err
}

// UploadOpen opens a resumable upload session on the daemon. A known
// digest may be asserted for routing and end-to-end verification.
func (c *Client) UploadOpen(ctx context.Context, opts StreamOpts) (api.UploadInfo, error) {
	lane := opts.Lane.WithDefault()
	if !lane.Valid() {
		return api.UploadInfo{}, api.Errorf(api.CodeBadRequest, "unknown lane %q", opts.Lane)
	}
	path := "/v1/uploads?lane=" + url.QueryEscape(string(lane))
	if opts.Tenant != "" {
		path += "&tenant=" + url.QueryEscape(opts.Tenant)
	}
	var info api.UploadInfo
	err := c.doHeaders(ctx, http.MethodPost, path, nil, map[string]string{api.DigestHeader: opts.Digest}, &info)
	return info, err
}

// UploadAppend appends one chunk at the asserted offset. On an offset
// mismatch (api.CodeUploadOffsetMismatch) resynchronize via UploadStatus.
func (c *Client) UploadAppend(ctx context.Context, id string, offset int64, chunk []byte) (api.UploadInfo, error) {
	var info api.UploadInfo
	err := c.doHeaders(ctx, http.MethodPatch, "/v1/uploads/"+url.PathEscape(id), chunk,
		map[string]string{api.UploadOffsetHeader: strconv.FormatInt(offset, 10)}, &info)
	return info, err
}

// UploadStatus fetches a session's snapshot — its offset is where the
// next append must start, the resume handshake after a disconnect or a
// daemon restart.
func (c *Client) UploadStatus(ctx context.Context, id string) (api.UploadInfo, error) {
	var info api.UploadInfo
	err := c.do(ctx, http.MethodGet, "/v1/uploads/"+url.PathEscape(id), nil, &info)
	return info, err
}

// UploadComplete finalizes the session into an accepted job.
func (c *Client) UploadComplete(ctx context.Context, id string) (api.JobInfo, error) {
	var info api.JobInfo
	err := c.do(ctx, http.MethodPost, "/v1/uploads/"+url.PathEscape(id)+"/complete", nil, &info)
	return info, err
}

// UploadAbort discards the session.
func (c *Client) UploadAbort(ctx context.Context, id string) error {
	return c.do(ctx, http.MethodDelete, "/v1/uploads/"+url.PathEscape(id), nil, nil)
}

// uploader is the resumable-session slice of the SDK shared by the
// single-endpoint Client and the multi-node Cluster, so SubmitChunked
// drives either.
type uploader interface {
	UploadOpen(ctx context.Context, opts StreamOpts) (api.UploadInfo, error)
	UploadAppend(ctx context.Context, id string, offset int64, chunk []byte) (api.UploadInfo, error)
	UploadStatus(ctx context.Context, id string) (api.UploadInfo, error)
	UploadComplete(ctx context.Context, id string) (api.JobInfo, error)
}

// SubmitChunked drives a whole resumable-upload conversation: open a
// session, append chunkSize-sized pieces of r (resynchronizing the
// offset after a retryable hiccup instead of abandoning the transfer),
// and complete it into a job. It trades SubmitStream's single-request
// efficiency for mid-transfer durability: on daemons with -state-dir, a
// crashed-and-restarted server resumes the session where its spool ends.
func (c *Client) SubmitChunked(ctx context.Context, r io.Reader, chunkSize int, opts StreamOpts) (api.JobInfo, error) {
	return submitChunked(ctx, c, r, chunkSize, opts)
}

func submitChunked(ctx context.Context, u uploader, r io.Reader, chunkSize int, opts StreamOpts) (api.JobInfo, error) {
	if chunkSize <= 0 {
		chunkSize = 64 << 10
	}
	up, err := u.UploadOpen(ctx, opts)
	if err != nil {
		return api.JobInfo{}, err
	}
	offset := up.Offset
	buf := make([]byte, chunkSize)
	for {
		n, rerr := io.ReadFull(r, buf)
		if rerr == io.EOF {
			break
		}
		if rerr != nil && rerr != io.ErrUnexpectedEOF {
			return api.JobInfo{}, fmt.Errorf("client: read chunk: %w", rerr)
		}
		info, aerr := u.UploadAppend(ctx, up.ID, offset, buf[:n])
		if api.ErrorCode(aerr) == api.CodeUploadOffsetMismatch {
			// A retried PATCH can double-deliver; the authoritative offset
			// says whether this chunk already landed.
			if info, aerr = u.UploadStatus(ctx, up.ID); aerr == nil && info.Offset != offset+int64(n) {
				aerr = api.Errorf(api.CodeUploadOffsetMismatch,
					"upload %s diverged: server at %d, client at %d", up.ID, info.Offset, offset+int64(n))
			}
		}
		if aerr != nil {
			return api.JobInfo{}, aerr
		}
		offset = info.Offset
		if rerr == io.ErrUnexpectedEOF {
			break
		}
	}
	return u.UploadComplete(ctx, up.ID)
}

// doHeaders is do with extra per-call request headers (empty values are
// skipped).
func (c *Client) doHeaders(ctx context.Context, method, path string, body []byte, headers map[string]string, out any) error {
	if c.brk != nil && !c.brk.allow() {
		return ErrBreakerOpen
	}
	delay := c.baseDelay
	var lastErr error
	for attempt := 1; ; attempt++ {
		err := c.onceHeaders(ctx, method, path, body, headers, out)
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

func (c *Client) onceHeaders(ctx context.Context, method, path string, body []byte, headers map[string]string, out any) error {
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
	for k, v := range headers {
		if v != "" {
			req.Header.Set(k, v)
		}
	}
	resp, err := c.httpc.Do(req)
	if err != nil {
		return &transportError{err}
	}
	return c.decodeResponse(resp, method, path, out)
}

// failoverStream reports whether an error from one member justifies
// retrying a stream elsewhere; breaker-open members fail over instantly.
func failoverStream(err error) bool {
	return retryable(err) || errors.Is(err, ErrBreakerOpen)
}
