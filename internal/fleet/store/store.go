package store

import (
	"bytes"
	"errors"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"ioagent/internal/darshan"
	"ioagent/internal/fleet"
	"ioagent/internal/fleet/ingest"
	"ioagent/internal/ioagent"
	"ioagent/internal/llm"
)

// ErrClosed is returned by Store operations after Close.
var ErrClosed = errors.New("store: closed")

// FsyncMode selects how aggressively the store flushes to stable storage.
type FsyncMode string

const (
	// FsyncAlways fsyncs the journal after every append and snapshots
	// through fsync+rename. Nothing acknowledged is lost even on power
	// failure; each submission pays one fsync of latency.
	FsyncAlways FsyncMode = "always"
	// FsyncBatch lets journal appends ride the OS page cache (they still
	// survive a process kill, which only loses the page cache on power
	// loss) and fsyncs at checkpoints and on Close.
	FsyncBatch FsyncMode = "batch"
	// FsyncOff never fsyncs. State still survives SIGKILL on a healthy
	// machine; a power failure may lose or tear recent records (the
	// journal scanner tolerates the torn tail).
	FsyncOff FsyncMode = "off"
)

// Options tune a Store. The zero value selects FsyncAlways.
type Options struct {
	Fsync FsyncMode
	// Logf receives recovery warnings and hook-path write errors (hooks
	// cannot return errors to the pool). Defaults to log.Printf.
	Logf func(format string, args ...any)
}

// prepare is the first step of both Open functions: it validates and
// defaults the options and creates the state directory.
func (o Options) prepare(dir string) (Options, error) {
	var err error
	if o.Fsync, err = ParseFsyncMode(string(o.Fsync)); err != nil {
		return o, err
	}
	if o.Logf == nil {
		o.Logf = log.Printf
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return o, fmt.Errorf("store: create state dir: %w", err)
	}
	return o, nil
}

// ParseFsyncMode is the one place a durability mode is validated (the
// -fsync flag, both Open functions): "" selects FsyncAlways, anything
// but always, batch or off is an error.
func ParseFsyncMode(s string) (FsyncMode, error) {
	switch m := FsyncMode(s); m {
	case "":
		return FsyncAlways, nil
	case FsyncAlways, FsyncBatch, FsyncOff:
		return m, nil
	}
	return "", fmt.Errorf("store: fsync mode must be always, batch, or off (got %q)", s)
}

// Recovery is what a previous process left behind: the persisted result
// cache and the journaled jobs it accepted but never finished.
type Recovery struct {
	// Cache holds the last snapshot's entries, most recently used first.
	Cache []SnapshotEntry
	// Sem holds the persisted similarity index (digest → feature text).
	// Replay restores it after the cache, so entries whose backing
	// diagnosis did not survive are dropped by the pool.
	Sem []fleet.SemEntry
	// Pending holds journaled-but-unfinished submissions in accept order.
	Pending []PendingJob
	// Uploads holds upload sessions opened but never closed, in open
	// order; their partial bytes wait in the spool directory (UploadDir).
	Uploads []PendingUpload
	// TenantClasses holds the journaled SLO-class assignments (latest per
	// tenant); Replay re-applies them so POST /v1/sched/tenants survives a
	// restart.
	TenantClasses map[string]string
	// Warnings records non-fatal recovery repairs (torn journal tail
	// truncated, corrupt snapshot ignored, ...).
	Warnings []string
}

// Store persists fleet state in a directory: a write-ahead job journal
// (journal.wal) and a result-cache snapshot (snapshot.json). It is the
// durability layer behind iofleetd's -state-dir flag.
//
// A Store attaches to a fleet.Pool through three Config hooks — OnJobEvent
// (journaling), OnCacheInsert and OnCacheEvict (snapshot dirty tracking) —
// and never reaches into pool internals; everything it persists arrives
// through the hook surface or the pool's CacheExport. All methods are safe
// for concurrent use.
type Store struct {
	dir  string
	opts Options

	mu        sync.Mutex
	log       *recordLog // journal.wal; log.n counts records since the last compaction
	recovered Recovery
	// pendingRaw holds the raw journal line of every uncovered submit,
	// keyed by job ID; pendingOrder preserves append order. Together they
	// let compaction rewrite the journal without rereading it.
	pendingRaw   map[string][]byte
	pendingOrder []string
	dirty        bool // cache changed since the last snapshot
}

// Open attaches to (creating if needed) the state directory and performs
// recovery: the snapshot is loaded, the journal is scanned, and a torn or
// corrupt journal tail is truncated away. The recovered state is available
// through Recovered until Replay consumes it.
func Open(dir string, opts Options) (*Store, error) {
	opts, err := opts.prepare(dir)
	if err != nil {
		return nil, err
	}
	s := &Store{dir: dir, opts: opts}

	cache, warn, err := readSnapshot[snapshotDoc[SnapshotEntry]](filepath.Join(dir, snapshotName), "snapshot")
	if err != nil {
		return nil, err
	}
	sem, semWarn, err := readSnapshot[snapshotDoc[fleet.SemEntry]](filepath.Join(dir, semIndexName), "sem index")
	if err != nil {
		return nil, err
	}
	sc, err := scanJournal(filepath.Join(dir, journalName), opts.Fsync)
	if err != nil {
		return nil, err
	}
	s.log, s.pendingRaw = sc.log, sc.raw
	s.recovered = Recovery{Cache: cache.Entries, Sem: sem.Entries, Pending: sc.pending, Uploads: sc.uploads, TenantClasses: sc.classes}
	for _, w := range append([]string{warn, semWarn}, sc.warnings...) {
		if w != "" {
			s.recovered.Warnings = append(s.recovered.Warnings, w)
			opts.Logf("store: %s", w)
		}
	}
	for _, p := range sc.pending {
		s.pendingOrder = append(s.pendingOrder, p.ID)
	}
	for _, u := range sc.uploads {
		s.pendingOrder = append(s.pendingOrder, u.ID)
	}
	for _, tenant := range sortedKeys(sc.classes) { // deterministic compaction order
		s.pendingOrder = append(s.pendingOrder, classKey(tenant))
	}
	return s, nil
}

// Dir returns the state directory.
func (s *Store) Dir() string { return s.dir }

// Recovered returns what Open found on disk. Replay consumes the same
// state; calling both is fine (Recovered is read-only).
func (s *Store) Recovered() Recovery {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.recovered
}

// Replay pushes the recovered state into a freshly built pool: snapshot
// entries are restored into the result cache (keeping their original TTL
// clocks), and every pending job is resubmitted. The pool must already be
// wired to this store's hooks, so each resubmission write-ahead-journals
// itself under its new job ID before the old record is marked replayed —
// a crash during Replay re-replays the not-yet-covered remainder on the
// next boot (at-least-once, deduplicated by the content-addressed cache).
// Resubmission blocks when the pool queue is full, exactly like Submit.
func (s *Store) Replay(p *fleet.Pool) (restored, resubmitted int, err error) {
	rec := s.Recovered()

	entries := make([]fleet.CacheEntry, 0, len(rec.Cache))
	for _, e := range rec.Cache {
		if e.Digest == "" || e.Text == "" {
			continue
		}
		entries = append(entries, fleet.CacheEntry{
			Digest: e.Digest,
			Result: &ioagent.Result{Text: e.Text, Report: llm.ParseReport(e.Text)},
			Added:  e.Added,
		})
	}
	p.CacheRestore(entries)
	restored = len(entries)
	// The similarity index restores strictly after the cache: SemRestore
	// drops any vector whose digest the restored cache cannot serve, so
	// reuse never cites a diagnosis that did not survive the restart.
	p.SemRestore(rec.Sem)

	// Journaled SLO-class assignments are re-applied before the pending
	// jobs resubmit, so the replayed backlog schedules under the weights
	// the operator had configured. A class this build's catalog does not
	// know (journal written under a different -slo-classes set) is logged
	// and skipped — the tenant degrades to the default weight instead of
	// bricking the boot.
	for _, tenant := range sortedKeys(rec.TenantClasses) {
		if cerr := p.SetTenantClass(tenant, rec.TenantClasses[tenant]); cerr != nil {
			s.opts.Logf("store: replay tenant class %q=%q: %v (skipping)", tenant, rec.TenantClasses[tenant], cerr)
		}
	}

	for _, job := range rec.Pending {
		// The lane survives the restart: an interactive job keeps its
		// priority, a batch job keeps yielding it. Pre-lane journal
		// records have no lane and replay on the default; so does a lane
		// this build doesn't know (e.g. written by a newer minor version,
		// whose contract allows added lanes) — a single odd record must
		// degrade, not brick the boot.
		lane := job.Lane
		if lane != "" && !lane.Valid() {
			s.opts.Logf("store: replay %s: unknown lane %q, using the default", job.ID, lane)
			lane = ""
		}
		// The tenant survives too, so per-tenant accounting stays honest
		// across a bounce (the replayed job re-counts under its tenant).
		if _, serr := p.SubmitWith(job.Log, fleet.SubmitOpts{Lane: lane, Tenant: job.Tenant}); serr != nil {
			return restored, resubmitted, fmt.Errorf("store: replay %s: %w", job.ID, serr)
		}
		resubmitted++
		if aerr := s.journal(record{Op: opReplayed, ID: job.ID, Digest: job.Digest, At: time.Now()}); aerr != nil {
			return restored, resubmitted, aerr
		}
	}
	return restored, resubmitted, nil
}

// OnJobEvent is the fleet.Config.OnJobEvent hook: it write-ahead-journals
// every submission that will occupy a worker, and covers it when the job
// reaches a terminal state. Cache hits and coalesced duplicates are not
// journaled — on replay they are re-answered by the cache or re-coalesced
// onto the one journaled primary for their digest.
func (s *Store) OnJobEvent(ev fleet.Event) {
	switch ev.Kind {
	case fleet.EventSubmitted:
		if ev.Job.CacheHit || ev.Job.Status != fleet.StatusQueued || ev.Log == nil {
			return
		}
		// The pool owns ev.Log and other submissions may be digesting it
		// concurrently; Encode only reads it.
		var buf bytes.Buffer
		if err := darshan.Encode(&buf, ev.Log); err != nil {
			s.opts.Logf("store: encode trace for %s: %v (job will not survive a restart)", ev.Job.ID, err)
			return
		}
		s.append(record{
			Op: opSubmit, ID: ev.Job.ID, Digest: ev.Job.Digest,
			Lane: string(ev.Job.Lane), Tenant: ev.Job.Tenant,
			At: ev.Job.SubmittedAt, Trace: buf.Bytes(),
		})
	case fleet.EventDone:
		s.cover(record{Op: opDone, ID: ev.Job.ID, Digest: ev.Job.Digest, At: ev.Job.FinishedAt})
	case fleet.EventFailed:
		s.cover(record{Op: opFail, ID: ev.Job.ID, Digest: ev.Job.Digest, At: ev.Job.FinishedAt, Error: ev.Job.Error})
	}
}

// UploadDir returns the spool directory for streaming upload sessions,
// beside the journal: internal/fleet/ingest appends accepted bytes there
// while this store journals the session opens, and the two recover
// together.
func (s *Store) UploadDir() string { return filepath.Join(s.dir, "uploads") }

// OnUploadEvent is the ingest.Config.OnEvent hook: it write-ahead-journals
// every opened upload session and covers it when the session closes
// (completed into a job — which journals itself as a submit — aborted, or
// expired). An uncovered open at boot means a half-finished upload whose
// spooled bytes should be revived; see ReplayUploads.
func (s *Store) OnUploadEvent(ev ingest.Event) {
	switch ev.Kind {
	case ingest.EventOpened:
		s.append(record{
			Op: opUploadOpen, ID: ev.ID,
			Lane: ev.Lane, Tenant: ev.Tenant, Digest: ev.Digest, At: ev.At,
		})
	case ingest.EventClosed:
		s.cover(record{Op: opUploadClose, ID: ev.ID, At: ev.At})
	}
}

// ReplayUploads revives every journaled-but-unclosed upload session into
// the manager, re-feeding each session's spooled bytes so the client can
// resume at the recovered offset under the original session ID. A session
// whose spool no longer parses (torn mid-byte binary, disk trouble) is
// dropped and covered in the journal — the client will see
// upload_not_found and restart from offset zero, which is the honest
// outcome. The manager must already be wired to this store's
// OnUploadEvent hook so the eventual close covers the journaled open.
func (s *Store) ReplayUploads(m *ingest.Manager) (restored int, err error) {
	rec := s.Recovered()
	for _, u := range rec.Uploads {
		if _, rerr := m.Restore(ingest.RestoreSession{
			ID: u.ID, Lane: u.Lane, Tenant: u.Tenant, Digest: u.Digest, CreatedAt: u.CreatedAt,
		}); rerr != nil {
			s.opts.Logf("store: replay upload %s: %v (dropping the session)", u.ID, rerr)
			if aerr := s.journal(record{Op: opUploadClose, ID: u.ID, At: time.Now()}); aerr != nil {
				return restored, aerr
			}
			continue
		}
		restored++
	}
	return restored, nil
}

// CacheChanged is both the fleet.Config.OnCacheInsert and OnCacheEvict
// hook: any membership change marks the snapshot dirty so the next
// Checkpoint rewrites it.
func (s *Store) CacheChanged(string) {
	s.mu.Lock()
	s.dirty = true
	s.mu.Unlock()
}

// sortedKeys returns m's keys in lexical order, for deterministic replay
// and logging.
func sortedKeys(m map[string]string) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// TenantClass journals an SLO-class assignment (the server's
// Config.OnTenantClass hook). The latest record per tenant survives
// compaction as durable configuration; an empty class clears the
// assignment. The in-memory pool assignment has already happened by the
// time this runs — the journal only makes it outlive the process.
func (s *Store) TenantClass(tenant, class string) error {
	if tenant == "" {
		return errors.New("store: tenant_class with no tenant")
	}
	return s.journal(record{Op: opTenantClass, Tenant: tenant, Class: class, At: time.Now()})
}

// Reject journals a refused submission (e.g. a 503 during drain) for the
// audit trail. Rejected work is the client's to retry; it is never
// replayed.
func (s *Store) Reject(reason string) error {
	return s.journal(record{Op: opReject, Reason: reason, At: time.Now()})
}

// MemberJoined and MemberLeft journal elastic-roster transitions this
// node observed, for the audit trail: after an incident, the journal
// answers "when did the ring change under this daemon" without
// correlating logs across the fleet. Like rejects, the records are
// audit-only — never replayed, dropped at compaction. Hook-shaped (no
// error return): iofleetd wires them to roster.Config.OnChange, which
// runs off the gossip loop.
func (s *Store) MemberJoined(url string) { s.memberEvent(opMemberJoin, url) }

// MemberLeft journals a member's departure; see MemberJoined.
func (s *Store) MemberLeft(url string) { s.memberEvent(opMemberLeave, url) }

func (s *Store) memberEvent(op, url string) {
	if err := s.journal(record{Op: op, URL: url, At: time.Now()}); err != nil {
		s.opts.Logf("store: journal %s %s: %v", op, url, err)
	}
}

// journal appends one record to the journal.
func (s *Store) journal(rec record) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.appendLocked(rec)
}

// append journals one record, reporting hook-path failures through Logf
// (the pool's hook signature cannot carry an error).
func (s *Store) append(rec record) {
	if err := s.journal(rec); err != nil {
		s.opts.Logf("store: journal %s %s: %v", rec.Op, rec.ID, err)
	}
}

// cover appends a terminal record, but only for jobs this store journaled:
// completions of cache-hit, coalesced, or pre-recovery jobs are no-ops.
func (s *Store) cover(rec record) {
	s.mu.Lock()
	if _, ok := s.pendingRaw[rec.ID]; !ok {
		s.mu.Unlock()
		return
	}
	err := s.appendLocked(rec)
	s.mu.Unlock()
	if err != nil {
		s.opts.Logf("store: journal %s %s: %v", rec.Op, rec.ID, err)
	}
}

// pendingCount returns the number of journaled jobs not yet covered by a
// terminal record.
func (s *Store) pendingCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.pendingRaw)
}

// Checkpoint persists a consistent cut of pool state: the result cache is
// snapshotted (if it changed since the last checkpoint, or force is set)
// and the journal is compacted down to the still-pending submissions.
// Ordering matters: the snapshot lands before compaction, so every journal
// record dropped by compaction is covered by either a terminal record
// already written or the snapshot just renamed into place. iofleetd calls
// this periodically (-snapshot-interval) and once more after the pool
// drains on shutdown.
func (s *Store) Checkpoint(p *fleet.Pool) error {
	return s.checkpoint(p, false)
}

// FinalCheckpoint is Checkpoint with the dirty-check skipped, for the
// drain path: the snapshot is written even if no change was observed.
func (s *Store) FinalCheckpoint(p *fleet.Pool) error {
	return s.checkpoint(p, true)
}

func (s *Store) checkpoint(p *fleet.Pool, force bool) error {
	s.mu.Lock()
	snapshot := force || s.dirty
	clean := !snapshot && s.log.n == 0
	// Clear the flag before exporting: a change landing mid-export is
	// either captured by this snapshot or re-marks dirty for the next
	// one; clearing afterwards could silently swallow it.
	s.dirty = false
	s.mu.Unlock()
	if clean {
		return nil
	}

	if snapshot {
		exported := p.CacheExport()
		entries := make([]SnapshotEntry, 0, len(exported))
		for _, e := range exported {
			if e.Result == nil {
				continue
			}
			entries = append(entries, SnapshotEntry{Digest: e.Digest, Text: e.Result.Text, Added: e.Added})
		}
		sync, now := s.opts.Fsync != FsyncOff, time.Now()
		err := writeSnapshot(filepath.Join(s.dir, snapshotName), "snapshot", &snapshotDoc[SnapshotEntry]{SavedAt: now, Entries: entries}, sync)
		if err == nil {
			// The similarity index rides the same dirty cadence as the
			// cache snapshot: every sem entry is pinned to a cache digest
			// (eviction drops both), so any index change implies a cache
			// change.
			err = writeSnapshot(filepath.Join(s.dir, semIndexName), "sem index", &snapshotDoc[fleet.SemEntry]{SavedAt: now, Entries: p.SemExport()}, sync)
		}
		if err != nil {
			s.mu.Lock()
			s.dirty = true
			s.mu.Unlock()
			return err
		}
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.log.n == 0 {
		return nil
	}
	return s.compactLocked()
}

// Close flushes and closes the journal. The Store must not be used
// afterwards; iofleetd checkpoints first, so a clean shutdown leaves a
// fresh snapshot and a journal holding only never-finished jobs.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.log.close()
}
