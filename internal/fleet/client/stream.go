package client

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"

	"ioagent/internal/fleet/api"
	"ioagent/internal/fleet/bufpool"
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
	var info api.JobInfo
	err := c.submitStream(ctx, body, opts, decodeJob("/v1/jobs/stream", &info))
	return c.remember(info, err)
}

// submitStream is SubmitStream lending the reply, as the daemon sent it,
// to use (see fetch): Cluster forwards through it, so a relay serves
// those bytes and no member client remembers a diagnosis.
func (c *Client) submitStream(ctx context.Context, body io.Reader, opts StreamOpts, use func(reply []byte) error) error {
	path, err := submitPath("/v1/jobs/stream", opts.Lane, opts.Tenant)
	if err != nil {
		return err
	}
	rewind := func(last error) error { return last }
	if seeker, ok := body.(io.Seeker); ok {
		rewind = func(last error) error {
			if _, err := seeker.Seek(0, io.SeekStart); err != nil {
				return fmt.Errorf("client: rewind stream for retry: %w (after: %w)", err, last)
			}
			return nil
		}
	}
	var reply *bufpool.Buf
	err = c.retry(ctx, func() (err error) {
		reply, err = c.streamOnce(ctx, path, body, opts.Digest)
		return err
	}, rewind)
	if err != nil {
		return err
	}
	defer reply.Release()
	return use(reply.B)
}

func (c *Client) streamOnce(ctx context.Context, path string, body io.Reader, digest string) (*bufpool.Buf, error) {
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
		return nil, err
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
		return nil, &transportError{err}
	}
	return c.readResponse(resp)
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
	path, err := submitPath("/v1/uploads", opts.Lane, opts.Tenant)
	if err != nil {
		return api.UploadInfo{}, err
	}
	var info api.UploadInfo
	err = c.doHeaders(ctx, http.MethodPost, path, nil, map[string]string{api.DigestHeader: opts.Digest}, &info)
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
	err := c.uploadComplete(ctx, id, decodeJob("/v1/uploads/{id}/complete", &info))
	return c.remember(info, err)
}

// uploadComplete is UploadComplete lending the reply, as the daemon sent
// it, to use, as submitStream does.
func (c *Client) uploadComplete(ctx context.Context, id string, use func(reply []byte) error) error {
	return c.fetch(ctx, http.MethodPost, "/v1/uploads/"+url.PathEscape(id)+"/complete", nil, nil, use)
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
