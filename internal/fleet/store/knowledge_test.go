package store

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync/atomic"
	"testing"

	"ioagent/internal/fleet/knowledge"
	"ioagent/internal/vectordb"
)

func kseed() []vectordb.Document {
	return []vectordb.Document{
		{Key: "k-a", Text: "small write aggregation improves bandwidth"},
		{Key: "k-b", Text: "metadata operations overload the metadata server"},
	}
}

func quietOpts() Options {
	return Options{Fsync: FsyncOff, Logf: func(string, ...any) {}}
}

// TestKnowledgeStoreSurvivesKill pins the SIGKILL contract: mutations
// journaled through OnEvent are recovered by a second store opened on the
// same directory with no Checkpoint ever taken — exactly the state after
// a kill -9.
func TestKnowledgeStoreSurvivesKill(t *testing.T) {
	dir := t.TempDir()
	ks, err := OpenKnowledge(dir, quietOpts())
	if err != nil {
		t.Fatal(err)
	}
	p := knowledge.New(knowledge.Config{Seed: kseed(), OnEvent: ks.OnEvent})
	doc := vectordb.Document{Key: "k-new", Text: "burst buffer drain contention during checkpoints"}
	if err := p.Upsert([]vectordb.Document{doc}, []string{"k-b"}); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Swap(); err != nil {
		t.Fatal(err)
	}
	// Stage one more mutation without swapping; it must survive too.
	if err := p.Upsert([]vectordb.Document{{Key: "k-staged", Text: "collective buffering aggregates small writes"}}, nil); err != nil {
		t.Fatal(err)
	}
	// No Close, no Checkpoint: the process dies here.

	ks2, err := OpenKnowledge(dir, quietOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer ks2.Close()
	if !ks2.HasRecovered() {
		t.Fatal("nothing recovered from the WAL")
	}
	p2 := knowledge.New(knowledge.Config{Seed: kseed()})
	ks2.Replay(p2)
	if p2.Epoch() != 2 {
		t.Fatalf("recovered epoch = %d, want 2", p2.Epoch())
	}
	if _, ok := p2.Doc("k-new"); !ok {
		t.Fatal("journaled upsert lost across kill")
	}
	if _, ok := p2.Doc("k-b"); ok {
		t.Fatal("journaled removal lost across kill")
	}
	if m := p2.Metrics(); m.StagedOps != 1 {
		t.Fatalf("staged-but-unswapped mutation lost: StagedOps = %d, want 1", m.StagedOps)
	}
	if v, err := p2.Swap(); err != nil || v != 3 {
		t.Fatalf("swap of recovered staged delta = (%d, %v), want (3, nil)", v, err)
	}
}

// TestKnowledgeStoreCheckpoint pins snapshot-collapse: after Checkpoint the
// WAL is empty, and recovery comes from knowledge.json alone — including a
// staged delta captured mid-stage.
func TestKnowledgeStoreCheckpoint(t *testing.T) {
	dir := t.TempDir()
	ks, err := OpenKnowledge(dir, quietOpts())
	if err != nil {
		t.Fatal(err)
	}
	p := knowledge.New(knowledge.Config{Seed: kseed(), OnEvent: ks.OnEvent})
	if err := p.Upsert([]vectordb.Document{{Key: "k-c", Text: "stripe alignment avoids read modify write"}}, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Swap(); err != nil {
		t.Fatal(err)
	}
	if err := p.Upsert([]vectordb.Document{{Key: "k-d", Text: "rank imbalance stragglers dominate runtime"}}, nil); err != nil {
		t.Fatal(err)
	}
	if ks.log.n != 3 {
		t.Fatalf("uncheckpointed records = %d, want 3", ks.log.n)
	}
	if err := ks.Checkpoint(p); err != nil {
		t.Fatal(err)
	}
	if ks.log.n != 0 {
		t.Fatalf("uncheckpointed records = %d after checkpoint, want 0", ks.log.n)
	}
	if data, err := os.ReadFile(filepath.Join(dir, knowledgeWALName)); err != nil || len(data) != 0 {
		t.Fatalf("WAL not empty after checkpoint: %d bytes, err %v", len(data), err)
	}
	if err := ks.Close(); err != nil {
		t.Fatal(err)
	}

	ks2, err := OpenKnowledge(dir, quietOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer ks2.Close()
	p2 := knowledge.New(knowledge.Config{Seed: kseed()})
	ks2.Replay(p2)
	if p2.Epoch() != 2 {
		t.Fatalf("epoch from snapshot = %d, want 2", p2.Epoch())
	}
	if _, ok := p2.Doc("k-c"); !ok {
		t.Fatal("promoted doc lost across checkpoint")
	}
	if m := p2.Metrics(); m.StagedOps != 1 {
		t.Fatalf("staged delta lost across checkpoint: StagedOps = %d, want 1", m.StagedOps)
	}
}

// TestKnowledgeStoreTornTail pins crash-mid-append tolerance: a WAL whose
// final line is garbage recovers everything before it.
func TestKnowledgeStoreTornTail(t *testing.T) {
	dir := t.TempDir()
	ks, err := OpenKnowledge(dir, quietOpts())
	if err != nil {
		t.Fatal(err)
	}
	p := knowledge.New(knowledge.Config{Seed: kseed(), OnEvent: ks.OnEvent})
	if err := p.Upsert([]vectordb.Document{{Key: "k-t", Text: "sequential access enables readahead"}}, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Swap(); err != nil {
		t.Fatal(err)
	}
	// Simulate a crash mid-append: garbage with no trailing newline.
	f, err := os.OpenFile(filepath.Join(dir, knowledgeWALName), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"op":"kdoc","docs":[{"key":"torn`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	warned := false
	ks2, err := OpenKnowledge(dir, Options{Fsync: FsyncOff, Logf: func(string, ...any) { warned = true }})
	if err != nil {
		t.Fatal(err)
	}
	defer ks2.Close()
	if !warned {
		t.Error("torn tail dropped without a warning")
	}
	p2 := knowledge.New(knowledge.Config{Seed: kseed()})
	ks2.Replay(p2)
	if p2.Epoch() != 2 {
		t.Fatalf("epoch = %d after torn-tail recovery, want 2", p2.Epoch())
	}
	if _, ok := p2.Doc("k-t"); !ok {
		t.Fatal("intact record before the torn tail was lost")
	}
	// The truncated WAL must accept new appends cleanly.
	p3 := knowledge.New(knowledge.Config{Seed: kseed(), OnEvent: ks2.OnEvent})
	ks2.Replay(p3)
	if err := p3.Upsert([]vectordb.Document{{Key: "k-after", Text: "new document after recovery"}}, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := p3.Swap(); err != nil {
		t.Fatal(err)
	}
}

// TestKnowledgeStoreDoubleReplayAfterPartialCheckpoint pins the
// crash-between-snapshot-and-truncate window: records the snapshot already
// covers replay as no-ops.
func TestKnowledgeStoreDoubleReplayAfterPartialCheckpoint(t *testing.T) {
	dir := t.TempDir()
	ks, err := OpenKnowledge(dir, quietOpts())
	if err != nil {
		t.Fatal(err)
	}
	p := knowledge.New(knowledge.Config{Seed: kseed(), OnEvent: ks.OnEvent})
	if err := p.Upsert([]vectordb.Document{{Key: "k-p", Text: "posix interface bypasses collective optimizations"}}, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Swap(); err != nil {
		t.Fatal(err)
	}
	// Write the snapshot but "crash" before the WAL truncation: steal the
	// WAL bytes, checkpoint, then put them back.
	wal, err := os.ReadFile(filepath.Join(dir, knowledgeWALName))
	if err != nil {
		t.Fatal(err)
	}
	if err := ks.Checkpoint(p); err != nil {
		t.Fatal(err)
	}
	ks.Close()
	if err := os.WriteFile(filepath.Join(dir, knowledgeWALName), wal, 0o644); err != nil {
		t.Fatal(err)
	}

	ks2, err := OpenKnowledge(dir, quietOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer ks2.Close()
	p2 := knowledge.New(knowledge.Config{Seed: kseed()})
	ks2.Replay(p2)
	if p2.Epoch() != 2 {
		t.Fatalf("epoch = %d, want 2", p2.Epoch())
	}
	if m := p2.Metrics(); m.StagedOps != 0 {
		t.Fatalf("covered WAL records left %d staged ops, want 0", m.StagedOps)
	}
}

// TestKnowledgeCheckpointKeepsConcurrentMutations pins the checkpoint-cut
// invariant: every WAL record a checkpoint drops is inside the snapshot it
// just wrote. Upserts, removals and swaps race a checkpoint loop; then the
// process "dies" (no final checkpoint, no Close) and the directory is
// reopened: the replayed plane must equal the live one. The interleaving
// that loses a mutation — it journals itself between the checkpoint's
// export and its WAL rewrite — cannot be forced from outside, so this is a
// bounded stress: the seed corpus is large enough that serializing the
// export leaves that window open for many upserts.
func TestKnowledgeCheckpointKeepsConcurrentMutations(t *testing.T) {
	seed := make([]vectordb.Document, 1500)
	for i := range seed {
		seed[i] = vectordb.Document{Key: fmt.Sprintf("seed-%04d", i), Text: "collective buffering aggregates small strided writes into large contiguous ones"}
	}
	dir := t.TempDir()
	ks, err := OpenKnowledge(dir, quietOpts())
	if err != nil {
		t.Fatal(err)
	}
	cfg := noEmbedPlane()
	cfg.Seed = seed
	live := cfg
	live.OnEvent = ks.OnEvent
	p := knowledge.New(live)

	stop, stopped := make(chan struct{}), make(chan struct{})
	var checkpoints atomic.Int32
	go func() {
		defer close(stopped)
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := ks.Checkpoint(p); err != nil {
				t.Errorf("checkpoint: %v", err)
				return
			}
			checkpoints.Add(1)
		}
	}()
	const upserts = 3000
	for i := 0; i < upserts || checkpoints.Load() < 3; i++ {
		var remove []string
		if i%7 == 3 {
			remove = []string{fmt.Sprintf("k-%05d", i-3)}
		}
		doc := vectordb.Document{Key: fmt.Sprintf("k-%05d", i), Text: fmt.Sprintf("acknowledged upsert %d", i)}
		if err := p.Upsert([]vectordb.Document{doc}, remove); err != nil {
			t.Fatal(err)
		}
		if i%100 == 99 {
			if _, err := p.Swap(); err != nil {
				t.Fatal(err)
			}
		}
	}
	close(stop)
	<-stopped
	// Leave a staged, unswapped delta behind as well.
	if err := p.Upsert([]vectordb.Document{{Key: "k-staged", Text: "staged at the kill"}}, []string{"seed-0000"}); err != nil {
		t.Fatal(err)
	}
	want := p.Export()

	ks2, err := OpenKnowledge(dir, quietOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer ks2.Close()
	p2 := knowledge.New(cfg)
	ks2.Replay(p2)
	got := p2.Export()
	if got.Epoch != want.Epoch {
		t.Errorf("recovered epoch = %d, live plane had %d", got.Epoch, want.Epoch)
	}
	if len(got.Docs) != len(want.Docs) {
		t.Errorf("recovered %d docs, live plane had %d (%d checkpoints raced %d upserts)", len(got.Docs), len(want.Docs), checkpoints.Load(), upserts)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("recovered plane differs from the live one: an acknowledged mutation was in neither knowledge.json nor knowledge.wal")
	}
}

// TestOpenRemovesStaleTempFiles pins the cleanup of a kill between
// atomicWrite's CreateTemp and Rename: the orphaned temp file (as large as
// the snapshot it was to become) is removed by the next open, and files
// the stores do not own are left alone.
func TestOpenRemovesStaleTempFiles(t *testing.T) {
	dir := t.TempDir()
	stale := []string{
		"snapshot.json.tmp-123", "semindex.json.tmp-9", "journal.wal.tmp-77",
		"knowledge.json.tmp-4242", "knowledge.wal.tmp-1",
	}
	foreign := []string{"notes.tmp-1", "snapshot.json.bak"}
	for _, name := range append(stale, foreign...) {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("{half"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
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
	for _, name := range stale {
		if _, err := os.Stat(filepath.Join(dir, name)); !os.IsNotExist(err) {
			t.Errorf("stale temp file %s survived the open (stat err = %v)", name, err)
		}
	}
	for _, name := range foreign {
		if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
			t.Errorf("open removed %s, which no store owns: %v", name, err)
		}
	}
}
