package store

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"ioagent/internal/fleet"
	"ioagent/internal/fleet/ingest"
	"ioagent/internal/fleet/knowledge"
	"ioagent/internal/ioagent"
	"ioagent/internal/llm"
	"ioagent/internal/vectordb"
)

// noEmbedPlane is a plane config that shards with a member owning every
// key, so upserts and replays never pay for embedding: these tests are
// about the corpus view and the files, not retrieval.
func noEmbedPlane() knowledge.Config {
	return knowledge.Config{Seed: kseed(), NodeID: "self", Members: []string{"other"}, Replicas: 1}
}

// reopened is one recovery of a state directory, in comparable form.
type reopened struct {
	state    string   // the recovered model state, rendered
	warnings []string // everything recovery logged
}

// reopen recovers the store that owns logName in dir, renders what it
// recovered, and closes it again.
func reopen(t testing.TB, dir, logName string) reopened {
	t.Helper()
	var r reopened
	opts := Options{Fsync: FsyncOff, Logf: func(format string, args ...any) {
		r.warnings = append(r.warnings, fmt.Sprintf(format, args...))
	}}
	var b strings.Builder
	if logName == journalName {
		s, err := Open(dir, opts)
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		defer s.Close()
		rec := s.Recovered()
		for _, p := range rec.Pending {
			fmt.Fprintf(&b, "job %s %s lane=%q tenant=%q traced=%v\n", p.ID, p.Digest, p.Lane, p.Tenant, p.Log != nil)
		}
		for _, u := range rec.Uploads {
			fmt.Fprintf(&b, "upload %s lane=%q tenant=%q digest=%q\n", u.ID, u.Lane, u.Tenant, u.Digest)
		}
		for _, tenant := range sortedKeys(rec.TenantClasses) {
			fmt.Fprintf(&b, "class %s=%s\n", tenant, rec.TenantClasses[tenant])
		}
		fmt.Fprintf(&b, "cache=%d sem=%d\n", len(rec.Cache), len(rec.Sem))
	} else {
		ks, err := OpenKnowledge(dir, opts)
		if err != nil {
			t.Fatalf("OpenKnowledge: %v", err)
		}
		defer ks.Close()
		p := knowledge.New(noEmbedPlane())
		ks.Replay(p)
		st := p.Export()
		fmt.Fprintf(&b, "epoch %d docs %s staged %s remove %v\n", st.Epoch, docKeys(st.Docs), docKeys(st.StagedDocs), st.StagedRemove)
	}
	r.state = b.String()
	return r
}

func docKeys(docs []vectordb.Document) string {
	keys := make([]string, len(docs))
	for i, d := range docs {
		keys[i] = d.Key
	}
	return fmt.Sprint(keys)
}

// historyStep is one point of the scripted history: the state directory
// as it was on disk right after the step, and the log the step wrote.
type historyStep struct {
	name  string
	log   string            // journalName or knowledgeWALName
	want  string            // what a clean reopen must recover (see reopen)
	files map[string][]byte // the state directory's files after the step
}

// scriptedHistory drives both stores through every record kind, a journal
// compaction and a knowledge checkpoint, copying the directory after each
// step. It is the input of the crash-point sweep and the seed corpus of
// FuzzRecordLogOpen.
func scriptedHistory(t testing.TB) []historyStep {
	t.Helper()
	dir := t.TempDir()
	s, err := Open(dir, quietOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ks, err := OpenKnowledge(dir, quietOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer ks.Close()
	cfg := noEmbedPlane()
	cfg.OnEvent = ks.OnEvent
	p := knowledge.New(cfg)
	pool := fleet.New(llm.NewSim(), testConfig(1, nil))
	defer pool.Close()

	at := time.Date(2026, 10, 3, 12, 0, 0, 0, time.UTC)
	submit := func(id string, lane fleet.Lane, tenant string) func() {
		return func() {
			ev := submitEvent(id, "d-"+id, testTrace(1))
			ev.Job.Lane, ev.Job.Tenant = lane, tenant
			s.OnJobEvent(ev)
		}
	}
	class := func(tenant, class string) func() {
		return func() {
			if err := s.TenantClass(tenant, class); err != nil {
				t.Fatal(err)
			}
		}
	}
	upsert := func(remove []string, keys ...string) func() {
		return func() {
			var docs []vectordb.Document
			for _, k := range keys {
				docs = append(docs, vectordb.Document{Key: k, Text: "text of " + k})
			}
			if err := p.Upsert(docs, remove); err != nil {
				t.Fatal(err)
			}
		}
	}
	swap := func() {
		if _, err := p.Swap(); err != nil {
			t.Fatal(err)
		}
	}
	const (
		job1  = "job j1 d-j1 lane=\"batch\" tenant=\"acme\" traced=true\n"
		job2  = "job j2 d-j2 lane=\"\" tenant=\"\" traced=true\n"
		job3  = "job j3 d-j3 lane=\"interactive\" tenant=\"\" traced=true\n"
		job4  = "job j4 d-j4 lane=\"\" tenant=\"beta\" traced=true\n"
		up1   = "upload up-1 lane=\"interactive\" tenant=\"acme\" digest=\"dg-1\"\n"
		up2   = "upload up-2 lane=\"batch\" tenant=\"\" digest=\"\"\n"
		acme  = "class acme=gold\n"
		beta  = "class beta=bronze\n"
		empty = "cache=0 sem=0\n"
	)
	steps := []struct {
		name, log string
		do        func()
		want      string
	}{
		{"submit", journalName, submit("j1", fleet.LaneBatch, "acme"), job1 + empty},
		{"submit pre-lane", journalName, submit("j2", "", ""), job1 + job2 + empty},
		{"done", journalName, func() { s.OnJobEvent(doneEvent("j1", "d-j1")) }, job2 + empty},
		{"submit again", journalName, submit("j3", fleet.LaneInteractive, ""), job2 + job3 + empty},
		{"fail", journalName, func() {
			s.OnJobEvent(fleet.Event{Kind: fleet.EventFailed, Job: fleet.JobInfo{ID: "j3", Digest: "d-j3", Status: fleet.StatusFailed, Error: "boom"}})
		}, job2 + empty},
		{"upload open", journalName, func() {
			s.OnUploadEvent(ingest.Event{Kind: ingest.EventOpened, ID: "up-1", Lane: "interactive", Tenant: "acme", Digest: "dg-1", At: at})
		}, job2 + up1 + empty},
		{"upload open 2", journalName, func() {
			s.OnUploadEvent(ingest.Event{Kind: ingest.EventOpened, ID: "up-2", Lane: "batch", At: at})
		}, job2 + up1 + up2 + empty},
		{"upload close", journalName, func() {
			s.OnUploadEvent(ingest.Event{Kind: ingest.EventClosed, ID: "up-1", At: at})
		}, job2 + up2 + empty},
		{"class set", journalName, class("acme", "gold"), job2 + up2 + acme + empty},
		{"class set 2", journalName, class("beta", "bronze"), job2 + up2 + acme + beta + empty},
		{"class clear", journalName, class("beta", ""), job2 + up2 + acme + empty},
		{"reject", journalName, func() {
			if err := s.Reject("daemon is draining"); err != nil {
				t.Fatal(err)
			}
		}, job2 + up2 + acme + empty},
		{"compaction", journalName, func() {
			if err := s.Checkpoint(pool); err != nil {
				t.Fatal(err)
			}
		}, job2 + up2 + acme + empty},
		{"submit after compaction", journalName, submit("j4", "", "beta"), job2 + job4 + up2 + acme + empty},
		{"done after compaction", journalName, func() { s.OnJobEvent(doneEvent("j2", "d-j2")) }, job4 + up2 + acme + empty},

		{"upsert", knowledgeWALName, upsert(nil, "k-c", "k-d"), "epoch 1 docs [k-a k-b] staged [k-c k-d] remove []\n"},
		{"remove", knowledgeWALName, upsert([]string{"k-a", "k-d"}), "epoch 1 docs [k-a k-b] staged [k-c] remove [k-a k-d]\n"},
		{"swap", knowledgeWALName, swap, "epoch 2 docs [k-b k-c] staged [] remove []\n"},
		{"upsert staged", knowledgeWALName, upsert(nil, "k-e"), "epoch 2 docs [k-b k-c] staged [k-e] remove []\n"},
		{"checkpoint", knowledgeWALName, func() {
			if err := ks.Checkpoint(p); err != nil {
				t.Fatal(err)
			}
		}, "epoch 2 docs [k-b k-c] staged [k-e] remove []\n"},
		{"upsert after checkpoint", knowledgeWALName, upsert([]string{"k-b"}, "k-f"), "epoch 2 docs [k-b k-c] staged [k-e k-f] remove [k-b]\n"},
		{"swap after checkpoint", knowledgeWALName, swap, "epoch 3 docs [k-c k-e k-f] staged [] remove []\n"},
	}
	var history []historyStep
	for _, st := range steps {
		st.do()
		files := make(map[string][]byte)
		for _, name := range []string{journalName, snapshotName, semIndexName, knowledgeWALName, knowledgeSnapshotName} {
			data, err := os.ReadFile(filepath.Join(dir, name))
			if err == nil {
				files[name] = data
			} else if !os.IsNotExist(err) {
				t.Fatal(err)
			}
		}
		history = append(history, historyStep{name: st.name, log: st.log, want: st.want, files: files})
	}
	return history
}

// lastRecordStart returns the offset of the final line of a whole log.
func lastRecordStart(log []byte) int {
	if len(log) == 0 {
		return 0
	}
	return bytes.LastIndexByte(log[:len(log)-1], '\n') + 1
}

// TestCrashPointSweep is the "SIGKILL at any point" contract, one table
// for both logs: after every step of a scripted history the directory must
// reopen to exactly that step's state, and with the step's log cut at
// every byte offset inside its last record — the only damage a kill can
// do to an append-only file — recovery must not fail, must yield exactly
// the state of the complete records, and must repair the file so that a
// second open is a fixed point: nothing further truncated, nothing warned.
func TestCrashPointSweep(t *testing.T) {
	for _, step := range scriptedHistory(t) {
		t.Run(step.name, func(t *testing.T) {
			t.Parallel()
			dir := t.TempDir()
			for name, data := range step.files {
				if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			logPath, whole := filepath.Join(dir, step.log), step.files[step.log]
			if got := reopen(t, dir, step.log); got.state != step.want || len(got.warnings) != 0 {
				t.Fatalf("clean reopen recovered\n%swarnings %q, want\n%s", got.state, got.warnings, step.want)
			}

			start := lastRecordStart(whole)
			if err := os.WriteFile(logPath, whole[:start], 0o644); err != nil {
				t.Fatal(err)
			}
			complete := reopen(t, dir, step.log)
			if len(complete.warnings) != 0 {
				t.Fatalf("log of complete records warned: %q", complete.warnings)
			}
			for cut := start + 1; cut < len(whole); cut++ {
				if err := os.WriteFile(logPath, whole[:cut], 0o644); err != nil {
					t.Fatal(err)
				}
				first := reopen(t, dir, step.log)
				if first.state != complete.state {
					t.Fatalf("cut at %d of %d recovered\n%swant the complete records' state\n%s", cut, len(whole), first.state, complete.state)
				}
				if len(first.warnings) != 1 || !strings.Contains(first.warnings[0], "dropping") {
					t.Fatalf("cut at %d: warnings = %q, want exactly the dropped-tail one", cut, first.warnings)
				}
				if repaired, err := os.ReadFile(logPath); err != nil || !bytes.Equal(repaired, whole[:start]) {
					t.Fatalf("cut at %d: repaired log is %d bytes (err %v), want the %d bytes of complete records", cut, len(repaired), err, start)
				}
				second := reopen(t, dir, step.log)
				if second.state != complete.state || len(second.warnings) != 0 {
					t.Fatalf("cut at %d: second open is not a fixed point: warnings %q, state\n%s", cut, second.warnings, second.state)
				}
				if again, err := os.ReadFile(logPath); err != nil || !bytes.Equal(again, whole[:start]) {
					t.Fatalf("cut at %d: second open changed the log (%d bytes, err %v)", cut, len(again), err)
				}
			}
		})
	}
}

// FuzzRecordLogOpen feeds arbitrary bytes to the one torn-tail scanner:
// opening never panics or errors, the valid prefix — the complete lines
// that decode — survives byte for byte and is what apply saw, the rest is
// cut off with a warning, an append lands right behind the prefix, and a
// second open finds nothing left to repair.
func FuzzRecordLogOpen(f *testing.F) {
	f.Add([]byte(nil))
	f.Add([]byte("\n"))
	f.Add([]byte("{\"op\":\"reject\"}\nnull\n{\"op\":7}\n{\"op\":\"done\"}\n"))
	for _, step := range scriptedHistory(f) {
		whole := step.files[step.log]
		f.Add(whole)
		for cut := lastRecordStart(whole) + 1; cut < len(whole); cut += 13 {
			f.Add(whole[:cut])
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		valid := 0
		for {
			nl := bytes.IndexByte(data[valid:], '\n')
			var rec record
			if nl < 0 || json.Unmarshal(data[valid:valid+nl], &rec) != nil {
				break
			}
			valid += nl + 1
		}
		path := filepath.Join(t.TempDir(), "fuzz.wal")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		open := func() (*recordLog, []byte, string) {
			var seen []byte
			l, tail, err := openRecordLog(path, "fuzz", FsyncOff, func(off int, _ record, line []byte) {
				if off != len(seen) {
					t.Fatalf("apply at offset %d, want %d", off, len(seen))
				}
				seen = append(append(seen, line...), '\n')
			})
			if err != nil {
				t.Fatalf("open: %v", err)
			}
			return l, seen, tail
		}
		l, seen, tail := open()
		onDisk, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(seen, data[:valid]) || !bytes.Equal(onDisk, data[:valid]) || l.size != int64(valid) {
			t.Fatalf("valid prefix is %d bytes; apply saw %d, the file keeps %d, size = %d", valid, len(seen), len(onDisk), l.size)
		}
		if (tail != "") != (valid < len(data)) {
			t.Fatalf("tail warning %q for %d dropped bytes", tail, len(data)-valid)
		}
		line, err := l.append(record{Op: opReject, Reason: "after repair"})
		if err != nil {
			t.Fatal(err)
		}
		if err := l.close(); err != nil {
			t.Fatal(err)
		}
		want := append(append([]byte(nil), data[:valid]...), line...)
		l, seen, tail = open()
		defer l.close()
		if onDisk, _ := os.ReadFile(path); !bytes.Equal(seen, want) || !bytes.Equal(onDisk, want) || tail != "" {
			t.Fatalf("reopen is not a fixed point: saw %d bytes, file has %d, want %d, warning %q", len(seen), len(onDisk), len(want), tail)
		}
	})
}

var savedAt = regexp.MustCompile(`"saved_at":"[^"]*"`)

// TestStateDirV1 pins the on-disk format against files the PARENT of the
// record-log refactor wrote (testdata/README.md has the provenance):
// testdata/statedir-v1 must recover to the state it was written from, and
// checkpointing that state must produce, byte for byte (saved_at aside),
// what the parent produced from the same directory.
func TestStateDirV1(t *testing.T) {
	dir := t.TempDir()
	if err := os.CopyFS(dir, os.DirFS("testdata/statedir-v1")); err != nil {
		t.Fatal(err)
	}
	var warnings []string
	s, err := Open(dir, Options{Fsync: FsyncOff, Logf: func(format string, args ...any) {
		warnings = append(warnings, fmt.Sprintf(format, args...))
	}})
	if err != nil {
		t.Fatal(err)
	}
	if len(warnings) != 1 || !strings.HasPrefix(warnings[0], "store: journal: dropping torn tail (69 bytes)") {
		t.Errorf("warnings = %q, want only the 69-byte torn tail", warnings)
	}
	rec := s.Recovered()
	type job struct {
		id, digest string
		lane       fleet.Lane
		tenant     string
	}
	var jobs []job
	for _, p := range rec.Pending {
		if p.Log == nil || len(p.Log.Modules) == 0 || !p.SubmittedAt.Equal(time.Date(2026, 10, 3, 12, 0, 0, 0, time.UTC)) {
			t.Errorf("pending %s: trace or submit time did not survive", p.ID)
		}
		jobs = append(jobs, job{p.ID, p.Digest, p.Lane, p.Tenant})
	}
	// job-000102 is the pre-lane record: no lane and no tenant on disk.
	if want := []job{{"job-000101", "d-a", fleet.LaneBatch, "acme"}, {"job-000102", "d-b", "", ""}}; fmt.Sprint(jobs) != fmt.Sprint(want) {
		t.Errorf("pending = %v, want %v", jobs, want)
	}
	if len(rec.Uploads) != 1 || rec.Uploads[0].ID != "up-1" || rec.Uploads[0].Lane != "interactive" ||
		rec.Uploads[0].Tenant != "acme" || rec.Uploads[0].Digest != "dg-1" {
		t.Errorf("uploads = %+v, want only up-1", rec.Uploads)
	}
	if got := fmt.Sprint(rec.TenantClasses); got != "map[acme:gold zeta:silver]" {
		t.Errorf("tenant classes = %s, want acme:gold zeta:silver", got)
	}
	// The second diagnosis was a similarity hit on the first, so two cached
	// reports share one feature vector.
	if len(rec.Cache) != 2 || len(rec.Sem) != 1 || rec.Sem[0].Digest != rec.Cache[1].Digest || rec.Sem[0].Features == "" {
		t.Fatalf("recovered %d cache and %d sem entries, want 2 and the 1 vector of the older report", len(rec.Cache), len(rec.Sem))
	}
	for i, e := range rec.Cache {
		if len(e.Digest) != 64 || !strings.Contains(e.Text, "I/O Performance Diagnosis") || e.Added.IsZero() {
			t.Errorf("cache entry %d did not survive: %+v", i, e)
		}
	}

	// Checkpoint without running a job: the cache and the similarity index
	// are restored by hand (Replay would also resubmit the pending jobs,
	// whose completions would race the checkpoint), and one audit record
	// makes the journal compact. The fixture's `added` stamps are fixed, so
	// under the default 1 h TTL CacheRestore would drop both entries as
	// expired (and SemRestore the vector they back) an hour after they were
	// written: the pool runs with a cache that never expires. Expiry on
	// restore is pinned by TestCacheRestoreDropsExpired and
	// TestSemRestoreDropsUnbackedEntries in internal/fleet; this test pins
	// the format.
	cfg := testConfig(1, s)
	cfg.SemCache = true
	cfg.CacheTTL = -1
	pool := fleet.New(llm.NewSim(), cfg)
	defer pool.Close()
	var entries []fleet.CacheEntry
	for _, e := range rec.Cache {
		entries = append(entries, fleet.CacheEntry{Digest: e.Digest, Result: &ioagent.Result{Text: e.Text, Report: llm.ParseReport(e.Text)}, Added: e.Added})
	}
	pool.CacheRestore(entries)
	pool.SemRestore(rec.Sem)
	if n, sem := pool.Metrics().CacheLen, pool.SemLen(); n != 2 || sem != 1 {
		t.Fatalf("restore kept %d cache and %d sem entries, want 2 and 1: the fixture's added stamps are fixed, so CacheTTL must be negative (never expire), is %v (0 = the 1h default)",
			n, sem, cfg.CacheTTL)
	}
	if err := s.Reject("fixture"); err != nil {
		t.Fatal(err)
	}
	if err := s.FinalCheckpoint(pool); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	ks, err := OpenKnowledge(dir, quietOpts())
	if err != nil {
		t.Fatal(err)
	}
	p := knowledge.New(knowledge.Config{Seed: kseed()})
	ks.Replay(p)
	st := p.Export()
	if st.Epoch != 3 || docKeys(st.Docs) != "[k-b k-c k-d]" || docKeys(st.StagedDocs) != "[k-e]" || len(st.StagedRemove) != 0 {
		t.Errorf("knowledge recovered as epoch %d docs %s staged %s remove %v, want 3 [k-b k-c k-d] [k-e] []",
			st.Epoch, docKeys(st.Docs), docKeys(st.StagedDocs), st.StagedRemove)
	}
	if err := ks.FinalCheckpoint(p); err != nil {
		t.Fatal(err)
	}
	if err := ks.Close(); err != nil {
		t.Fatal(err)
	}

	for _, name := range []string{journalName, knowledgeWALName, knowledgeSnapshotName, snapshotName, semIndexName} {
		got, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		want, err := os.ReadFile(filepath.Join("testdata/statedir-v1-checkpointed", name))
		if err != nil {
			t.Fatal(err)
		}
		if got, want = savedAt.ReplaceAll(got, nil), savedAt.ReplaceAll(want, nil); !bytes.Equal(got, want) {
			t.Errorf("%s after checkpoint differs from what the parent commit wrote:\n got %s\nwant %s", name, got, want)
		}
	}
}
