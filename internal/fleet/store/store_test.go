package store

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"ioagent/internal/darshan"
	"ioagent/internal/fleet"
	"ioagent/internal/ioagent"
	"ioagent/internal/iosim"
	"ioagent/internal/knowledge"
	"ioagent/internal/llm"
)

// sharedIndex is built once: corpus embedding dominates pool construction
// and is identical across tests.
var sharedIndex = knowledge.BuildIndex()

func testConfig(workers int, st *Store) fleet.Config {
	cfg := fleet.Config{
		Workers:    workers,
		RetryDelay: time.Millisecond,
		Agent:      ioagent.Options{Index: sharedIndex},
	}
	if st != nil {
		cfg.OnJobEvent = st.OnJobEvent
		cfg.OnCacheInsert = st.CacheChanged
		cfg.OnCacheEvict = st.CacheChanged
	}
	return cfg
}

// testTrace generates a small deterministic trace; distinct seeds give
// distinct digests.
func testTrace(seed int) *darshan.Log {
	sim := iosim.New(iosim.Config{
		Seed: int64(seed)*11 + 3, NProcs: 4, UsesMPI: true,
		Exe: fmt.Sprintf("/apps/store/test%02d.ex", seed),
	})
	f := sim.OpenShared(fmt.Sprintf("/scratch/store-%03d.dat", seed), iosim.POSIX, false, nil)
	for rank := 0; rank < 4; rank++ {
		for i := int64(0); i < 8; i++ {
			f.WriteAt(rank, (int64(rank)*8+i)*4096, 4096)
		}
	}
	f.Close()
	return sim.Finalize()
}

func mustOpen(t *testing.T, dir string, opts Options) *Store {
	t.Helper()
	if opts.Logf == nil {
		opts.Logf = t.Logf
	}
	s, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// submitEvent fabricates the pool event for a queued job carrying trace.
func submitEvent(id, digest string, trace *darshan.Log) fleet.Event {
	return fleet.Event{
		Kind: fleet.EventSubmitted,
		Job: fleet.JobInfo{
			ID: id, Digest: digest, Status: fleet.StatusQueued,
			SubmittedAt: time.Now(),
		},
		Log: trace,
	}
}

func doneEvent(id, digest string) fleet.Event {
	return fleet.Event{
		Kind: fleet.EventDone,
		Job:  fleet.JobInfo{ID: id, Digest: digest, Status: fleet.StatusDone},
	}
}

func TestJournalWriteAheadReplay(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{})
	s.OnJobEvent(submitEvent("job-000001", "d1", testTrace(1)))
	s.OnJobEvent(submitEvent("job-000002", "d2", testTrace(2)))
	s.OnJobEvent(submitEvent("job-000003", "d3", testTrace(3)))
	s.OnJobEvent(doneEvent("job-000002", "d2"))
	s.OnJobEvent(fleet.Event{
		Kind: fleet.EventFailed,
		Job:  fleet.JobInfo{ID: "job-000003", Digest: "d3", Status: fleet.StatusFailed, Error: "boom"},
	})
	if got := s.pendingCount(); got != 1 {
		t.Fatalf("pending = %d, want 1", got)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2 := mustOpen(t, dir, Options{})
	defer s2.Close()
	rec := s2.Recovered()
	if len(rec.Pending) != 1 || rec.Pending[0].ID != "job-000001" || rec.Pending[0].Digest != "d1" {
		t.Fatalf("recovered pending = %+v, want only job-000001", rec.Pending)
	}
	if rec.Pending[0].Log == nil || len(rec.Pending[0].Log.Modules) == 0 {
		t.Fatal("recovered pending job must carry a decodable trace")
	}
	// The recovered trace digests identically to the original submission.
	orig, err := fleet.Digest(ioagent.Options{}, testTrace(1))
	if err != nil {
		t.Fatal(err)
	}
	got, err := fleet.Digest(ioagent.Options{}, rec.Pending[0].Log)
	if err != nil {
		t.Fatal(err)
	}
	if got != orig {
		t.Error("journal round trip changed the trace digest")
	}
}

func TestJournalDoesNotMutateSubmittedLog(t *testing.T) {
	// darshan.Encode sorts records in place; the journal must serialize a
	// clone, because the pool still owns the log and concurrent
	// submissions may be digesting it.
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{})
	defer s.Close()
	trace := testTrace(1)
	order := func() []string {
		var out []string
		for _, m := range trace.ModuleList() {
			for _, r := range trace.Modules[m].Records {
				out = append(out, fmt.Sprintf("%s/%d", r.Name, r.Rank))
			}
		}
		return out
	}
	before := order()
	s.OnJobEvent(submitEvent("job-000001", "d1", trace))
	after := order()
	for i := range before {
		if after[i] != before[i] {
			t.Fatalf("record order changed at %d: %s != %s", i, after[i], before[i])
		}
	}
}

func TestJournalIgnoresUnjournaledCompletions(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{})
	defer s.Close()
	// Cache hits and coalesced duplicates complete without ever being
	// journaled; their terminal events must not append records.
	s.OnJobEvent(fleet.Event{
		Kind: fleet.EventSubmitted,
		Job:  fleet.JobInfo{ID: "job-000009", Digest: "d9", Status: fleet.StatusDone, CacheHit: true},
		Log:  testTrace(9),
	})
	s.OnJobEvent(doneEvent("job-000009", "d9"))
	data, err := os.ReadFile(filepath.Join(dir, journalName))
	if err != nil && !os.IsNotExist(err) {
		t.Fatal(err)
	}
	if len(data) != 0 {
		t.Errorf("journal should be empty, holds %q", data)
	}
}

func TestJournalToleratesTornTail(t *testing.T) {
	for _, tail := range []struct {
		name string
		junk []byte
	}{
		{"torn-no-newline", []byte(`{"op":"submit","id":"job-9`)},
		{"corrupt-line", append([]byte("\x00\x01\x02 not json at all"), '\n')},
		{"binary-garbage", []byte{0xde, 0xad, 0xbe, 0xef, '\n', 0x00}},
	} {
		t.Run(tail.name, func(t *testing.T) {
			dir := t.TempDir()
			s := mustOpen(t, dir, Options{})
			s.OnJobEvent(submitEvent("job-000001", "d1", testTrace(1)))
			s.OnJobEvent(submitEvent("job-000002", "d2", testTrace(2)))
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(dir, journalName)
			intact, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, append(intact, tail.junk...), 0o644); err != nil {
				t.Fatal(err)
			}

			s2 := mustOpen(t, dir, Options{})
			rec := s2.Recovered()
			if len(rec.Pending) != 2 {
				t.Fatalf("pending after tail damage = %d, want 2", len(rec.Pending))
			}
			if len(rec.Warnings) == 0 {
				t.Error("tail repair should be reported as a warning")
			}
			// The tail was truncated away, so new appends produce a clean
			// journal again.
			s2.OnJobEvent(submitEvent("job-000003", "d3", testTrace(3)))
			if err := s2.Close(); err != nil {
				t.Fatal(err)
			}
			s3 := mustOpen(t, dir, Options{})
			defer s3.Close()
			if got := len(s3.Recovered().Pending); got != 3 {
				t.Errorf("pending after repair+append = %d, want 3", got)
			}
			if w := s3.Recovered().Warnings; len(w) != 0 {
				t.Errorf("repaired journal should scan cleanly, got warnings %v", w)
			}
		})
	}
}

func TestJournalCompactionEquivalence(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{})
	for i := 1; i <= 4; i++ {
		s.OnJobEvent(submitEvent(fmt.Sprintf("job-%06d", i), fmt.Sprintf("d%d", i), testTrace(i)))
	}
	s.OnJobEvent(doneEvent("job-000002", "d2"))
	s.OnJobEvent(doneEvent("job-000004", "d4"))

	// What replay would see before compaction.
	scan, err := scanJournal(filepath.Join(dir, journalName), FsyncOff)
	if err != nil {
		t.Fatal(err)
	}
	scan.log.close()
	before := scan.pending

	// Compact (via the checkpoint path; the cache is clean so only the
	// journal is rewritten) and compare.
	pool := fleet.New(llm.NewSim(), testConfig(1, nil))
	defer pool.Close()
	if err := s.Checkpoint(pool); err != nil {
		t.Fatal(err)
	}
	scan, err = scanJournal(filepath.Join(dir, journalName), FsyncOff)
	if err != nil {
		t.Fatal(err)
	}
	scan.log.close()
	after, warns := scan.pending, scan.warnings
	if len(warns) != 0 {
		t.Errorf("compacted journal has warnings: %v", warns)
	}
	if len(after) != len(before) {
		t.Fatalf("compaction changed pending set: %d != %d", len(after), len(before))
	}
	for i := range after {
		if after[i].ID != before[i].ID || after[i].Digest != before[i].Digest {
			t.Errorf("pending[%d] = %s/%s after compaction, want %s/%s",
				i, after[i].ID, after[i].Digest, before[i].ID, before[i].Digest)
		}
	}
	// The rewritten journal holds exactly the two pending records.
	data, err := os.ReadFile(filepath.Join(dir, journalName))
	if err != nil {
		t.Fatal(err)
	}
	if lines := bytes.Count(data, []byte{'\n'}); lines != 2 {
		t.Errorf("compacted journal has %d records, want 2", lines)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestSemIndexSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{})
	cfg := testConfig(1, s)
	cfg.SemCache = true
	pool := fleet.New(llm.NewSim(), cfg)
	j, err := pool.Submit(testTrace(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := j.Wait(); err != nil {
		t.Fatal(err)
	}
	if pool.SemLen() != 1 {
		t.Fatalf("SemLen = %d before checkpoint, want 1", pool.SemLen())
	}
	if err := s.Checkpoint(pool); err != nil {
		t.Fatal(err)
	}
	pool.Close()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, semIndexName)); err != nil {
		t.Fatalf("checkpoint did not write the sem index sidecar: %v", err)
	}

	s2 := mustOpen(t, dir, Options{})
	defer s2.Close()
	if got := len(s2.Recovered().Sem); got != 1 {
		t.Fatalf("recovered %d sem entries, want 1", got)
	}
	cfg2 := testConfig(1, s2)
	cfg2.SemCache = true
	pool2 := fleet.New(llm.NewSim(), cfg2)
	defer pool2.Close()
	restored, _, err := s2.Replay(pool2)
	if err != nil {
		t.Fatal(err)
	}
	if restored != 1 {
		t.Fatalf("restored %d cache entries, want 1", restored)
	}
	if pool2.SemLen() != 1 {
		t.Errorf("SemLen = %d after replay, want 1 (vector should survive with its cache backing)", pool2.SemLen())
	}

	// A sem index with no cache snapshot behind it must restore empty: the
	// pool drops vectors whose diagnosis the cache cannot serve.
	if err := os.Remove(filepath.Join(dir, snapshotName)); err != nil {
		t.Fatal(err)
	}
	s3 := mustOpen(t, dir, Options{})
	defer s3.Close()
	cfg3 := testConfig(1, s3)
	cfg3.SemCache = true
	pool3 := fleet.New(llm.NewSim(), cfg3)
	defer pool3.Close()
	if _, _, err := s3.Replay(pool3); err != nil {
		t.Fatal(err)
	}
	if pool3.SemLen() != 0 {
		t.Errorf("SemLen = %d after cache-less replay, want 0 (orphaned vectors must drop)", pool3.SemLen())
	}
}

func TestRejectIsJournaledButNeverReplayed(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{})
	if err := s.Reject("daemon is draining"); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, journalName))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"op":"reject"`) || !strings.Contains(string(data), "draining") {
		t.Errorf("journal should record the refusal, got %q", data)
	}
	s2 := mustOpen(t, dir, Options{})
	defer s2.Close()
	if got := len(s2.Recovered().Pending); got != 0 {
		t.Errorf("rejects must not replay, pending = %d", got)
	}
}

func TestMemberEventsAreJournaledButNeverReplayed(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{})
	s.MemberJoined("http://10.0.0.2:8080")
	s.MemberLeft("http://10.0.0.3:8080")
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, journalName))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"op":"member_join"`) || !strings.Contains(string(data), "10.0.0.2") {
		t.Errorf("journal should record the join, got %q", data)
	}
	if !strings.Contains(string(data), `"op":"member_leave"`) || !strings.Contains(string(data), "10.0.0.3") {
		t.Errorf("journal should record the departure, got %q", data)
	}
	s2 := mustOpen(t, dir, Options{})
	defer s2.Close()
	rec := s2.Recovered()
	if got := len(rec.Pending); got != 0 {
		t.Errorf("member events must not replay, pending = %d", got)
	}
	// Known audit ops: recovery must not warn about them.
	for _, w := range rec.Warnings {
		if strings.Contains(w, "unknown op") {
			t.Errorf("member events flagged as unknown: %s", w)
		}
	}
}

func TestSnapshotCorruptFileIgnored(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, snapshotName), []byte("{torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	s := mustOpen(t, dir, Options{})
	defer s.Close()
	rec := s.Recovered()
	if len(rec.Cache) != 0 {
		t.Errorf("corrupt snapshot should yield no cache entries, got %d", len(rec.Cache))
	}
	if len(rec.Warnings) == 0 {
		t.Error("corrupt snapshot should be reported as a warning")
	}
}

func TestSnapshotAtomicWriteLeavesNoTemp(t *testing.T) {
	dir := t.TempDir()
	if err := writeSnapshot(filepath.Join(dir, snapshotName), "snapshot", &snapshotDoc[SnapshotEntry]{Entries: []SnapshotEntry{
		{Digest: "d1", Text: "I/O Performance Diagnosis\nok", Added: time.Now()},
	}}, true); err != nil {
		t.Fatal(err)
	}
	names, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range names {
		if strings.Contains(e.Name(), ".tmp-") {
			t.Errorf("temp file %s left behind", e.Name())
		}
	}
	doc, warn, err := readSnapshot[snapshotDoc[SnapshotEntry]](filepath.Join(dir, snapshotName), "snapshot")
	if entries := doc.Entries; err != nil || warn != "" || len(entries) != 1 || entries[0].Digest != "d1" {
		t.Errorf("round trip = (%v, %q, %v)", entries, warn, err)
	}
}

// TestJournalPersistsLaneAcrossRestart pins the priority-lane durability
// contract: a batch-lane submission journaled by one process replays onto
// the batch lane in the next, and pre-lane journal records (no lane
// field) replay on the default lane instead of failing.
func TestJournalPersistsLaneAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{})
	ev := submitEvent("job-000001", "d1", testTrace(1))
	ev.Job.Lane = fleet.LaneBatch
	s.OnJobEvent(ev)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2 := mustOpen(t, dir, Options{})
	defer s2.Close()
	rec := s2.Recovered()
	if len(rec.Pending) != 1 || rec.Pending[0].Lane != fleet.LaneBatch {
		t.Fatalf("recovered pending = %+v, want the batch lane preserved", rec.Pending)
	}

	pool := fleet.New(llm.NewSim(), testConfig(1, s2))
	defer pool.Close()
	if _, _, err := s2.Replay(pool); err != nil {
		t.Fatal(err)
	}
	pool.Wait()
	jobs := pool.Jobs()
	if len(jobs) != 1 || jobs[0].Lane() != fleet.LaneBatch {
		t.Fatalf("replayed job lane = %v, want batch", jobs)
	}
}

// TestJournalPersistsTenantAcrossRestart: the tenant identifier journals
// with the submission and replays with it, so per-tenant accounting stays
// honest across a bounce; anonymous submissions journal without a tenant
// key (wire compatibility with pre-tenant journals is the same property).
func TestJournalPersistsTenantAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{})
	ev := submitEvent("job-000001", "d1", testTrace(1))
	ev.Job.Tenant = "acme"
	s.OnJobEvent(ev)
	s.OnJobEvent(submitEvent("job-000002", "d2", testTrace(2))) // anonymous
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2 := mustOpen(t, dir, Options{})
	defer s2.Close()
	rec := s2.Recovered()
	if len(rec.Pending) != 2 || rec.Pending[0].Tenant != "acme" || rec.Pending[1].Tenant != "" {
		t.Fatalf("recovered pending = %+v, want tenant acme then anonymous", rec.Pending)
	}

	pool := fleet.New(llm.NewSim(), testConfig(1, s2))
	defer pool.Close()
	if _, _, err := s2.Replay(pool); err != nil {
		t.Fatal(err)
	}
	pool.Wait()
	jobs := pool.Jobs()
	if len(jobs) != 2 || jobs[0].Tenant() != "acme" || jobs[1].Tenant() != "" {
		t.Fatalf("replayed tenants = %v, want acme then anonymous", jobs)
	}
	if m := pool.Metrics(); m.Tenants["acme"] != 1 {
		t.Errorf("replay did not re-count the tenant: %v", m.Tenants)
	}
}

// TestJournalPreLaneRecordReplaysOnDefault feeds a journal line written
// before lanes existed (no "lane" key) through recovery.
func TestJournalPreLaneRecordReplaysOnDefault(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{})
	s.OnJobEvent(submitEvent("job-000001", "d1", testTrace(1)))
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// The event above carried no lane, exactly like an old journal.
	data, err := os.ReadFile(filepath.Join(dir, journalName))
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(data, []byte(`"lane"`)) {
		t.Fatalf("laneless submit should journal without a lane key: %s", data)
	}

	s2 := mustOpen(t, dir, Options{})
	defer s2.Close()
	pool := fleet.New(llm.NewSim(), testConfig(1, s2))
	defer pool.Close()
	if _, _, err := s2.Replay(pool); err != nil {
		t.Fatal(err)
	}
	pool.Wait()
	jobs := pool.Jobs()
	if len(jobs) != 1 || jobs[0].Lane() != fleet.LaneInteractive {
		t.Fatalf("pre-lane replay lane = %v, want the interactive default", jobs)
	}
}

// TestReplayUnknownLaneFallsBackToDefault: a journal record carrying a
// lane this build doesn't know (newer minor version, corrupt field) must
// replay on the default lane with a warning — never abort recovery and
// crash-loop the daemon.
func TestReplayUnknownLaneFallsBackToDefault(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{})
	ev := submitEvent("job-000001", "d1", testTrace(1))
	ev.Job.Lane = "express" // not a lane this build knows
	s.OnJobEvent(ev)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	var warned []string
	s2 := mustOpen(t, dir, Options{Logf: func(format string, args ...any) {
		warned = append(warned, fmt.Sprintf(format, args...))
		t.Logf(format, args...)
	}})
	defer s2.Close()
	pool := fleet.New(llm.NewSim(), testConfig(1, s2))
	defer pool.Close()
	if _, resubmitted, err := s2.Replay(pool); err != nil || resubmitted != 1 {
		t.Fatalf("replay = %d resubmitted, %v; unknown lane must not abort recovery", resubmitted, err)
	}
	pool.Wait()
	jobs := pool.Jobs()
	if len(jobs) != 1 || jobs[0].Lane() != fleet.LaneInteractive {
		t.Fatalf("unknown-lane replay = %v, want the interactive default", jobs)
	}
	found := false
	for _, w := range warned {
		if strings.Contains(w, "unknown lane") {
			found = true
		}
	}
	if !found {
		t.Errorf("fallback must be warned about, got %v", warned)
	}
}

// TestTenantClassSurvivesRestartAndCompaction journals SLO-class
// assignments and verifies the latest one per tenant is recovered, is
// re-applied by Replay, outlives compaction, and is erased by an
// empty-class clear.
func TestTenantClassSurvivesRestartAndCompaction(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{})
	if err := s.TenantClass("acme", "bronze"); err != nil {
		t.Fatal(err)
	}
	if err := s.TenantClass("acme", "gold"); err != nil {
		t.Fatal(err) // reassignment: last record wins
	}
	if err := s.TenantClass("umbrella", "silver"); err != nil {
		t.Fatal(err)
	}
	if err := s.TenantClass("ghost", "bronze"); err != nil {
		t.Fatal(err)
	}
	if err := s.TenantClass("ghost", ""); err != nil {
		t.Fatal(err) // cleared: must not be recovered
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2 := mustOpen(t, dir, Options{})
	got := s2.Recovered().TenantClasses
	want := map[string]string{"acme": "gold", "umbrella": "silver"}
	if len(got) != len(want) {
		t.Fatalf("recovered classes %v, want %v", got, want)
	}
	for tenant, class := range want {
		if got[tenant] != class {
			t.Fatalf("recovered classes %v, want %v", got, want)
		}
	}

	// Replay applies the assignments to the pool.
	pool := fleet.New(llm.NewSim(), testConfig(1, s2))
	defer pool.Close()
	if _, _, err := s2.Replay(pool); err != nil {
		t.Fatal(err)
	}
	if tc := pool.TenantClasses(); tc["acme"] != "gold" || tc["umbrella"] != "silver" {
		t.Fatalf("pool classes after replay = %v", tc)
	}

	// Compaction keeps the assignments (they are durable configuration,
	// not covered work).
	if err := s2.Checkpoint(pool); err != nil {
		t.Fatal(err)
	}
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
	s3 := mustOpen(t, dir, Options{})
	defer s3.Close()
	got = s3.Recovered().TenantClasses
	if got["acme"] != "gold" || got["umbrella"] != "silver" || len(got) != 2 {
		t.Fatalf("classes after compaction %v, want %v", got, want)
	}
	if w := s3.Recovered().Warnings; len(w) != 0 {
		t.Fatalf("compacted journal has warnings: %v", w)
	}
}

// TestParseFsyncMode: one validator for the -fsync flag and both stores —
// a typo is an error everywhere, never a mode that is neither always nor
// off.
func TestParseFsyncMode(t *testing.T) {
	for in, want := range map[string]FsyncMode{
		"": FsyncAlways, "always": FsyncAlways, "batch": FsyncBatch, "off": FsyncOff,
		"alway": "", "Always": "", "none": "",
	} {
		got, err := ParseFsyncMode(in)
		if got != want || (err == nil) != (want != "") {
			t.Errorf("ParseFsyncMode(%q) = %q, %v; want %q", in, got, err, want)
		}
	}
	if _, err := Open(t.TempDir(), Options{Fsync: "alway"}); err == nil {
		t.Error("Open accepted fsync mode \"alway\"")
	}
	if _, err := OpenKnowledge(t.TempDir(), Options{Fsync: "alway"}); err == nil {
		t.Error("OpenKnowledge accepted fsync mode \"alway\"")
	}
}
