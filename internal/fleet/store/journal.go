package store

import (
	"bytes"
	"fmt"
	"slices"
	"time"

	"ioagent/internal/darshan"
	"ioagent/internal/fleet"
)

// journalName is the write-ahead journal file inside the state directory.
const journalName = "journal.wal"

// Journal record operations. A "submit" opens a job; "done", "fail", and
// "replayed" cover it (the job no longer needs replay); "reject" records a
// refused submission for the audit trail and never needs covering.
// "upload_open" opens a streaming upload session whose bytes spool beside
// the journal; "upload_close" covers it (completed into a job, aborted,
// or expired — in every case the spool is gone and there is nothing left
// to restore).
// "member_join" and "member_leave" record elastic-roster transitions seen
// by this node; like rejects they are audit-only — never replayed, never
// pending, dropped at compaction.
// "tenant_class" records an SLO-class assignment (POST /v1/sched/tenants).
// Unlike submits it is never covered by a later record — the latest
// assignment per tenant is durable configuration, kept across compactions
// until an empty-class record clears it.
const (
	opSubmit      = "submit"
	opDone        = "done"
	opFail        = "fail"
	opReplayed    = "replayed"
	opReject      = "reject"
	opUploadOpen  = "upload_open"
	opUploadClose = "upload_close"
	opMemberJoin  = "member_join"
	opMemberLeave = "member_leave"
	opTenantClass = "tenant_class"
)

// classKey namespaces a tenant_class record in the pending-line
// bookkeeping, so a tenant named like a job ID can never collide.
func classKey(tenant string) string { return "class:" + tenant }

// record is one journal line. Submit records carry the full encoded trace
// so a restarted daemon can reconstruct and resubmit the job; covering
// records carry only the ID.
type record struct {
	Op     string `json:"op"`
	ID     string `json:"id,omitempty"`
	Digest string `json:"digest,omitempty"`
	// Lane is the submission's priority lane; absent in journals written
	// before lanes existed, which replay as the default lane.
	Lane string `json:"lane,omitempty"`
	// Tenant is the submission's tenant identifier; absent for anonymous
	// submissions and in journals written before tenants existed.
	Tenant string    `json:"tenant,omitempty"`
	At     time.Time `json:"at,omitzero"`
	Error  string    `json:"error,omitempty"`
	Reason string    `json:"reason,omitempty"`
	// URL is the member base URL of a member_join/member_leave record.
	URL string `json:"url,omitempty"`
	// Class is the SLO class name of a tenant_class record (empty clears
	// the tenant's assignment).
	Class string `json:"class,omitempty"`
	// Trace is the darshan.Encode serialization of the submitted log
	// (base64 in the JSON encoding).
	Trace []byte `json:"trace,omitempty"`
}

// PendingJob is a journaled submission with no covering record: the job was
// accepted by a previous process but never finished, so it must be replayed.
type PendingJob struct {
	ID          string // the ID in the PREVIOUS process; replay assigns a new one
	Digest      string
	Lane        fleet.Lane // empty in pre-lane journals (replays as default)
	Tenant      string     // empty for anonymous or pre-tenant journals
	SubmittedAt time.Time
	Log         *darshan.Log
}

// PendingUpload is a journaled upload session with no covering record:
// the previous process accepted part of a streamed trace, whose bytes
// (if any) wait in the spool directory. Restore keeps the original ID so
// the client can resume at the recovered offset.
type PendingUpload struct {
	ID        string
	Lane      string
	Tenant    string
	Digest    string // client-claimed content digest, if asserted at open
	CreatedAt time.Time
}

// journalScan is what opening the journal yields: the log itself, open for
// appending, plus the uncovered records in append order with their raw
// lines (kept for compaction).
type journalScan struct {
	log      *recordLog
	pending  []PendingJob
	uploads  []PendingUpload
	classes  map[string]string // latest SLO class per tenant
	raw      map[string][]byte // retained line per job ID, upload ID and classKey
	warnings []string
}

// scanJournal opens the journal at path (see openRecordLog for the torn or
// corrupt tail — the expected state after a crash mid-append) and folds
// its records into the uncovered set. A structurally valid record that
// cannot be used — a submit whose embedded trace fails to decode, an
// unknown op — is skipped with a warning instead of ending the scan.
func scanJournal(path string, fsync FsyncMode) (journalScan, error) {
	sc := journalScan{classes: make(map[string]string), raw: make(map[string][]byte)}
	warnf := func(format string, args ...any) {
		sc.warnings = append(sc.warnings, fmt.Sprintf("journal: "+format, args...))
	}
	byID := make(map[string]int)   // pending index by previous-process ID
	upByID := make(map[string]int) // uploads index by session ID
	log, tail, err := openRecordLog(path, "journal", fsync, func(off int, rec record, line []byte) {
		switch rec.Op {
		case opSubmit:
			if rec.ID == "" || len(rec.Trace) == 0 {
				warnf("skipping malformed submit at offset %d", off)
				break
			}
			trace, derr := darshan.Decode(bytes.NewReader(rec.Trace))
			if derr != nil {
				warnf("skipping submit %s with undecodable trace: %v", rec.ID, derr)
				break
			}
			p := PendingJob{ID: rec.ID, Digest: rec.Digest, Lane: fleet.Lane(rec.Lane), Tenant: rec.Tenant, SubmittedAt: rec.At, Log: trace}
			if i, dup := byID[rec.ID]; dup {
				sc.pending[i] = p
			} else {
				byID[rec.ID] = len(sc.pending)
				sc.pending = append(sc.pending, p)
			}
			sc.raw[rec.ID] = bytes.Clone(line)
		case opDone, opFail, opReplayed:
			if i, ok := byID[rec.ID]; ok {
				sc.pending[i].ID = "" // tombstone; filtered below
				delete(byID, rec.ID)
				delete(sc.raw, rec.ID)
			}
		case opUploadOpen:
			if rec.ID == "" {
				warnf("skipping malformed upload_open at offset %d", off)
				break
			}
			u := PendingUpload{ID: rec.ID, Lane: rec.Lane, Tenant: rec.Tenant, Digest: rec.Digest, CreatedAt: rec.At}
			if i, dup := upByID[rec.ID]; dup {
				sc.uploads[i] = u
			} else {
				upByID[rec.ID] = len(sc.uploads)
				sc.uploads = append(sc.uploads, u)
			}
			sc.raw[rec.ID] = bytes.Clone(line)
		case opUploadClose:
			if i, ok := upByID[rec.ID]; ok {
				sc.uploads[i].ID = "" // tombstone; filtered below
				delete(upByID, rec.ID)
				delete(sc.raw, rec.ID)
			}
		case opTenantClass:
			if rec.Tenant == "" {
				warnf("skipping malformed tenant_class at offset %d", off)
				break
			}
			// Last record per tenant wins; an empty class clears the
			// assignment (and lets compaction drop its lines entirely).
			if rec.Class == "" {
				delete(sc.classes, rec.Tenant)
				delete(sc.raw, classKey(rec.Tenant))
				break
			}
			sc.classes[rec.Tenant] = rec.Class
			sc.raw[classKey(rec.Tenant)] = bytes.Clone(line)
		case opReject, opMemberJoin, opMemberLeave:
			// Audit-only; nothing to replay.
		default:
			warnf("ignoring unknown op %q at offset %d", rec.Op, off)
		}
	})
	if err != nil {
		return journalScan{}, err
	}
	sc.log = log
	if tail != "" {
		sc.warnings = append(sc.warnings, tail)
	}
	// Compact out the tombstoned (covered) submits and uploads.
	sc.pending = slices.DeleteFunc(sc.pending, func(p PendingJob) bool { return p.ID == "" })
	sc.uploads = slices.DeleteFunc(sc.uploads, func(u PendingUpload) bool { return u.ID == "" })
	return sc, nil
}

// appendLocked appends rec to the journal, maintaining the pending-record
// bookkeeping used by compaction. Caller holds s.mu.
func (s *Store) appendLocked(rec record) error {
	line, err := s.log.append(rec)
	if err != nil {
		return err
	}
	switch rec.Op {
	case opSubmit, opUploadOpen:
		if _, dup := s.pendingRaw[rec.ID]; !dup {
			s.pendingOrder = append(s.pendingOrder, rec.ID)
		}
		s.pendingRaw[rec.ID] = line
	case opDone, opFail, opReplayed, opUploadClose:
		delete(s.pendingRaw, rec.ID)
	case opTenantClass:
		// Durable configuration: the latest assignment per tenant survives
		// every compaction; an empty class erases it.
		key := classKey(rec.Tenant)
		if rec.Class == "" {
			delete(s.pendingRaw, key)
			return nil
		}
		if _, dup := s.pendingRaw[key]; !dup {
			s.pendingOrder = append(s.pendingOrder, key)
		}
		s.pendingRaw[key] = line
	}
	return nil
}

// compactLocked rewrites the journal to contain only the still-pending
// records — everything else is covered by completions and (for results)
// by the snapshot. Caller holds s.mu, which is what makes the cut exact:
// nothing is appended between choosing the lines and replacing the file.
func (s *Store) compactLocked() error {
	var buf bytes.Buffer
	order := s.pendingOrder[:0]
	for _, id := range s.pendingOrder {
		line, ok := s.pendingRaw[id]
		if !ok {
			continue // covered since it was journaled
		}
		order = append(order, id)
		buf.Write(line)
	}
	s.pendingOrder = order
	return s.log.rewrite(buf.Bytes(), s.log.size)
}
