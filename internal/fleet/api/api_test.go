package api

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"testing"
)

func TestParseVersionRoundTrip(t *testing.T) {
	v, err := ParseVersion(Current.String())
	if err != nil {
		t.Fatal(err)
	}
	if v != Current {
		t.Errorf("round trip = %v, want %v", v, Current)
	}
	for _, bad := range []string{"", "1", "one.two", "1.2.3", "-1.0", "1.-2"} {
		if _, err := ParseVersion(bad); err == nil {
			t.Errorf("ParseVersion(%q) should fail", bad)
		}
	}
	if v, err := ParseVersion(" 1.7 "); err != nil || v != (Version{Major: 1, Minor: 7}) {
		t.Errorf("whitespace-tolerant parse = %v, %v", v, err)
	}
}

func TestVersionCompatibility(t *testing.T) {
	if !Current.CompatibleWith(Version{Major: Current.Major, Minor: Current.Minor + 5}) {
		t.Error("minor skew within a major must be compatible")
	}
	if Current.CompatibleWith(Version{Major: Current.Major + 1}) {
		t.Error("major skew must be incompatible")
	}
}

func TestLaneDefaultsAndValidity(t *testing.T) {
	if got := Lane("").WithDefault(); got != LaneInteractive {
		t.Errorf("empty lane default = %q, want interactive", got)
	}
	if got := LaneBatch.WithDefault(); got != LaneBatch {
		t.Errorf("batch lane must survive WithDefault, got %q", got)
	}
	if Lane("bulk").Valid() || Lane("").Valid() {
		t.Error("unknown and empty lanes must be invalid")
	}
}

func TestErrorCodeHTTPStatus(t *testing.T) {
	cases := map[Code]int{
		CodeBadRequest:         http.StatusBadRequest,
		CodeBadTrace:           http.StatusBadRequest,
		CodeUnsupportedVersion: http.StatusBadRequest,
		CodeTraceTooLarge:      http.StatusRequestEntityTooLarge,
		CodeJobNotFound:        http.StatusNotFound,
		CodeNotFound:           http.StatusNotFound,
		CodeJobNotDone:         http.StatusConflict,
		CodeDraining:           http.StatusServiceUnavailable,
		CodeDiagnosisFailed:    http.StatusBadGateway,
		CodeInternal:           http.StatusInternalServerError,
		// 1.2 streaming-ingest vocabulary.
		CodeDigestMismatch:       http.StatusUnprocessableEntity,
		CodeQuotaExceeded:        http.StatusTooManyRequests,
		CodeUploadNotFound:       http.StatusNotFound,
		CodeUploadOffsetMismatch: http.StatusConflict,
		Code("future_code"):      http.StatusInternalServerError,
	}
	for code, want := range cases {
		if got := code.HTTPStatus(); got != want {
			t.Errorf("%s -> %d, want %d", code, got, want)
		}
	}
}

func TestErrorRetryability(t *testing.T) {
	// quota_exceeded IS retryable (the quota frees as jobs finish), but
	// digest_mismatch and the upload-session codes are not: identical
	// bytes will mismatch identically, and a lost session needs a new
	// open, not a blind retry.
	for _, code := range []Code{CodeDraining, CodeInternal, CodeQuotaExceeded} {
		if !code.Retryable() {
			t.Errorf("%s must be retryable", code)
		}
	}
	for _, code := range []Code{CodeBadRequest, CodeBadTrace, CodeTraceTooLarge,
		CodeUnsupportedVersion, CodeJobNotFound, CodeNotFound, CodeJobNotDone, CodeDiagnosisFailed,
		CodeDigestMismatch, CodeUploadNotFound, CodeUploadOffsetMismatch} {
		if code.Retryable() {
			t.Errorf("%s must not be retryable", code)
		}
	}
}

func TestErrorEnvelopeJSONAndUnwrap(t *testing.T) {
	e := Errorf(CodeTraceTooLarge, "trace body exceeds the %d-byte limit", 1024)
	data, err := json.Marshal(e)
	if err != nil {
		t.Fatal(err)
	}
	var back Error
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Code != CodeTraceTooLarge || back.Message != e.Message {
		t.Errorf("round trip = %+v", back)
	}

	wrapped := fmt.Errorf("submit: %w", e)
	if got := ErrorCode(wrapped); got != CodeTraceTooLarge {
		t.Errorf("ErrorCode through a wrap = %q", got)
	}
	if got := ErrorCode(errors.New("plain")); got != "" {
		t.Errorf("non-API error code = %q, want empty", got)
	}
}
