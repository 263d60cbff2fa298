package api

import (
	"errors"
	"fmt"
	"net/http"
)

// Code is a stable, machine-readable error identifier. Codes are part of
// the versioned contract: within a major version they are append-only and
// never change meaning, so clients may switch on them.
type Code string

const (
	// CodeBadRequest: the request itself is malformed (unknown lane,
	// unparseable version header, ...).
	CodeBadRequest Code = "bad_request"
	// CodeBadTrace: the body is not a binary Darshan log, darshan-parser
	// text or DXT text trace, or parses to a trace with no module data.
	CodeBadTrace Code = "bad_trace"
	// CodeTraceTooLarge: the body exceeds the server's configured limit
	// (iofleetd -max-body). The message names the limit.
	CodeTraceTooLarge Code = "trace_too_large"
	// CodeUnsupportedVersion: the peer speaks an incompatible protocol
	// major (see Version).
	CodeUnsupportedVersion Code = "unsupported_version"
	// CodeJobNotFound: no job with the requested ID exists (it may have
	// been pruned from the bounded history).
	CodeJobNotFound Code = "job_not_found"
	// CodeNotFound: the request named an endpoint the server does not
	// serve (unknown path).
	CodeNotFound Code = "not_found"
	// CodeJobNotDone: the diagnosis was requested before the job reached
	// a terminal state; poll the job and retry.
	CodeJobNotDone Code = "job_not_done"
	// CodeDraining: the daemon is shutting down and refuses new work;
	// resubmit to a replacement instance (retryable).
	CodeDraining Code = "draining"
	// CodeDiagnosisFailed: the job ran and failed permanently; the
	// pipeline exhausted its retry budget or hit a non-transient error.
	CodeDiagnosisFailed Code = "diagnosis_failed"
	// CodeInternal: an unexpected server-side failure. Detail lives in
	// the server log, never on the wire (retryable).
	CodeInternal Code = "internal"
	// CodeNodeDown: every fleet node that could serve the request is
	// unreachable (router/cluster mode). The submission was not accepted
	// anywhere; retry later (retryable). Added in 1.1.
	CodeNodeDown Code = "node_down"
	// CodeBreakerOpen: this node's LLM-backend circuit breaker is open,
	// so accepted work would only fail fast; the submission is refused
	// instead. Retryable — a router or cluster client fails over to the
	// ring successor, and the same node recovers once a half-open probe
	// succeeds. Added in 1.1.
	CodeBreakerOpen Code = "breaker_open"
	// CodeLoopDetected: the request already traversed a fleet router
	// (ForwardedHeader present) and arrived at a router again — the
	// member list is misconfigured. Never retryable: the loop will not
	// fix itself. Added in 1.1.
	CodeLoopDetected Code = "loop_detected"
	// CodeDigestMismatch: the client asserted a content digest
	// (DigestHeader) that does not match the digest the server computed
	// from the bytes it received — the trace was corrupted in transit, or
	// the client hashed something else. Not retryable as-is: resubmit
	// with the correct digest (or none). Added in 1.2.
	CodeDigestMismatch Code = "digest_mismatch"
	// CodeQuotaExceeded: the submitting tenant is at its in-flight job
	// quota (iofleetd -tenant-max-inflight), or the daemon is at its open
	// upload-session cap. Retryable — the quota frees as jobs finish; the
	// response carries Retry-After. Added in 1.2.
	CodeQuotaExceeded Code = "quota_exceeded"
	// CodeUploadNotFound: no upload session with the requested ID exists
	// (never opened, already completed, aborted, or expired). Open a new
	// session and resend from offset 0. Added in 1.2.
	CodeUploadNotFound Code = "upload_not_found"
	// CodeUploadOffsetMismatch: a PATCH asserted an UploadOffsetHeader
	// that is not the session's current offset (a lost or duplicated
	// chunk). Not blindly retryable: resynchronize via GET /v1/uploads/{id}
	// and resend from the server's offset. Added in 1.2.
	CodeUploadOffsetMismatch Code = "upload_offset_mismatch"
	// CodeKnowledgeDisabled: the node does not run a knowledge plane
	// (iofleetd started without -knowledge), so /v1/knowledge endpoints
	// have nothing to serve. Not retryable against this node. Added in 1.4.
	CodeKnowledgeDisabled Code = "knowledge_disabled"
	// CodeNothingStaged: POST /v1/knowledge/swap found no staged corpus
	// changes to promote — the upserts either never arrived or were
	// already swapped. Not blindly retryable: check GET /v1/knowledge.
	// Added in 1.4.
	CodeNothingStaged Code = "nothing_staged"
	// CodeSLOExceeded: the submitting tenant's queue is already (or would
	// be, with this job added) older than its SLO class's max queue-age
	// target, so accepting the job could only violate the class promise.
	// Retryable — the backlog drains at the tenant's weighted rate and
	// the response carries Retry-After. Distinct from quota_exceeded,
	// which bounds in-flight count rather than queueing delay. Added in
	// 1.6.
	CodeSLOExceeded Code = "slo_exceeded"
	// CodeRosterDisabled: the node runs with a static member set (iofleetd
	// started without -advertise), so the /v1/roster endpoints have
	// nothing to serve. Not retryable against this node; pollers treat it
	// as "membership is whatever you were configured with". Added in 1.5.
	CodeRosterDisabled Code = "roster_disabled"
)

// HTTPStatus maps the code to its canonical HTTP status.
func (c Code) HTTPStatus() int {
	switch c {
	case CodeBadRequest, CodeBadTrace, CodeUnsupportedVersion:
		return http.StatusBadRequest
	case CodeTraceTooLarge:
		return http.StatusRequestEntityTooLarge
	case CodeJobNotFound, CodeNotFound, CodeUploadNotFound, CodeKnowledgeDisabled, CodeRosterDisabled:
		return http.StatusNotFound
	case CodeJobNotDone, CodeUploadOffsetMismatch, CodeNothingStaged:
		return http.StatusConflict
	case CodeDraining, CodeNodeDown, CodeBreakerOpen:
		return http.StatusServiceUnavailable
	case CodeQuotaExceeded, CodeSLOExceeded:
		return http.StatusTooManyRequests
	case CodeDigestMismatch:
		return http.StatusUnprocessableEntity
	case CodeDiagnosisFailed:
		return http.StatusBadGateway
	case CodeLoopDetected:
		return http.StatusLoopDetected
	default:
		return http.StatusInternalServerError
	}
}

// Retryable reports whether an identical request may succeed later
// against this or another instance, so SDK retry loops can key off the
// taxonomy instead of raw HTTP statuses.
func (c Code) Retryable() bool {
	switch c {
	case CodeDraining, CodeInternal, CodeNodeDown, CodeBreakerOpen, CodeQuotaExceeded, CodeSLOExceeded:
		return true
	default:
		return false
	}
}

// Error is the wire error envelope: every non-2xx response from the
// daemon is this JSON document. Message is a stable, human-readable
// summary that never embeds server internals (paths, addresses, wrapped
// Go error chains) — those stay in the server log.
type Error struct {
	Code    Code   `json:"code"`
	Message string `json:"message"`
}

// Error implements the error interface.
func (e *Error) Error() string {
	if e.Message == "" {
		return string(e.Code)
	}
	return string(e.Code) + ": " + e.Message
}

// Errorf builds an *Error with a formatted message.
func Errorf(code Code, format string, args ...any) *Error {
	return &Error{Code: code, Message: fmt.Sprintf(format, args...)}
}

// ErrorCode extracts the taxonomy code from an error returned by this
// package or the client SDK; non-API errors map to the empty code.
func ErrorCode(err error) Code {
	var e *Error
	if errors.As(err, &e) {
		return e.Code
	}
	return ""
}
