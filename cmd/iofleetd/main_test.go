package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"ioagent/internal/darshan"
	"ioagent/internal/fleet"
	"ioagent/internal/fleet/api"
	"ioagent/internal/ioagent"
	"ioagent/internal/iosim"
)

// e2eTrace builds a deterministic small-write trace; distinct seeds give
// distinct digests.
func e2eTrace(seed int) *darshan.Log {
	sim := iosim.New(iosim.Config{
		Seed: int64(seed)*17 + 9, NProcs: 4, UsesMPI: true,
		Exe: fmt.Sprintf("/apps/e2e/job%02d.ex", seed),
	})
	f := sim.OpenShared(fmt.Sprintf("/scratch/e2e-%03d.dat", seed), iosim.POSIX, false, nil)
	for rank := 0; rank < 4; rank++ {
		for i := int64(0); i < 8; i++ {
			f.WriteAt(rank, (int64(rank)*8+i)*4096, 4096)
		}
	}
	f.Close()
	return sim.Finalize()
}

func encodeTraceBytes(t *testing.T, log *darshan.Log) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := darshan.Encode(&buf, log); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// daemon is one running iofleetd under test.
type daemon struct {
	cmd  *exec.Cmd
	base string // http://host:port

	mu   sync.Mutex
	logs []string
}

// startDaemon launches the binary and waits for its listening log line.
func startDaemon(t *testing.T, bin string, args ...string) *daemon {
	t.Helper()
	d := &daemon{}
	d.cmd = exec.Command(bin, append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	stderr, err := d.cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := d.cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		d.cmd.Process.Kill()
		d.cmd.Wait()
	})

	addrRe := regexp.MustCompile(`listening on (127\.0\.0\.1:\d+)`)
	ready := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			d.mu.Lock()
			d.logs = append(d.logs, line)
			d.mu.Unlock()
			if m := addrRe.FindStringSubmatch(line); m != nil {
				select {
				case ready <- m[1]:
				default:
				}
			}
		}
	}()
	select {
	case addr := <-ready:
		d.base = "http://" + addr
	case <-time.After(30 * time.Second):
		t.Fatalf("daemon did not start; logs:\n%s", strings.Join(d.snapshotLogs(), "\n"))
	}
	return d
}

func (d *daemon) snapshotLogs() []string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return append([]string(nil), d.logs...)
}

// waitLog polls the captured stderr for a line matching re.
func (d *daemon) waitLog(t *testing.T, re *regexp.Regexp, timeout time.Duration) []string {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		for _, line := range d.snapshotLogs() {
			if m := re.FindStringSubmatch(line); m != nil {
				return m
			}
		}
		time.Sleep(25 * time.Millisecond)
	}
	t.Fatalf("log line %q never appeared; logs:\n%s", re, strings.Join(d.snapshotLogs(), "\n"))
	return nil
}

func (d *daemon) submit(t *testing.T, trace []byte) api.JobInfo {
	t.Helper()
	resp, err := http.Post(d.base+"/v1/jobs", "application/octet-stream", bytes.NewReader(trace))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %s: %s", resp.Status, body)
	}
	var info api.JobInfo
	if err := json.Unmarshal(body, &info); err != nil {
		t.Fatal(err)
	}
	return info
}

// waitJobDone polls the job listing until the given digest reaches a
// terminal state.
func (d *daemon) waitJobDone(t *testing.T, digest string, timeout time.Duration) api.JobInfo {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		resp, err := http.Get(d.base + "/v1/jobs")
		if err == nil {
			var infos []api.JobInfo
			if json.NewDecoder(resp.Body).Decode(&infos) == nil {
				for _, info := range infos {
					if info.Digest == digest && (info.Status == api.StatusDone || info.Status == api.StatusFailed) {
						resp.Body.Close()
						return info
					}
				}
			}
			resp.Body.Close()
		}
		time.Sleep(50 * time.Millisecond)
	}
	t.Fatalf("digest %.12s never finished; logs:\n%s", digest, strings.Join(d.snapshotLogs(), "\n"))
	return api.JobInfo{}
}

// diagnosis fetches the raw report text ("Accept: text/plain" selects the
// plain rendering over the default api.Diagnosis JSON document).
func (d *daemon) diagnosis(t *testing.T, id string) string {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, d.base+"/v1/jobs/"+id+"/diagnosis", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Accept", "text/plain")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("diagnosis: %s: %s", resp.Status, body)
	}
	return string(body)
}

// sigkill terminates the daemon the hard way and reaps it.
func (d *daemon) sigkill(t *testing.T) {
	t.Helper()
	if err := d.cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	d.cmd.Wait()
}

// TestDaemonKillRestartRecovery is the ISSUE acceptance scenario at the
// process level: a started-then-SIGKILLed iofleetd with -state-dir set
// resumes its queued jobs and serves previously cached digests from the
// snapshot on restart.
func TestDaemonKillRestartRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the daemon binary")
	}
	bin := filepath.Join(t.TempDir(), "iofleetd")
	build := exec.Command("go", "build", "-o", bin, ".")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	stateDir := filepath.Join(t.TempDir(), "state")

	traceA, traceB := e2eTrace(1), e2eTrace(2)
	digestA, err := fleet.Digest(ioagent.Options{}, traceA)
	if err != nil {
		t.Fatal(err)
	}
	digestB, err := fleet.Digest(ioagent.Options{}, traceB)
	if err != nil {
		t.Fatal(err)
	}
	rawA, rawB := encodeTraceBytes(t, traceA), encodeTraceBytes(t, traceB)

	// Phase 1: diagnose trace A, wait for a checkpoint to persist it,
	// then SIGKILL.
	d1 := startDaemon(t, bin, "-state-dir", stateDir, "-workers", "1", "-snapshot-interval", "100ms")
	infoA := d1.submit(t, rawA)
	done := d1.waitJobDone(t, digestA, 60*time.Second)
	if done.Status != api.StatusDone {
		t.Fatalf("trace A finished as %s (%s)", done.Status, done.Error)
	}
	wantText := d1.diagnosis(t, infoA.ID)
	waitSnapshotEntries(t, stateDir, 1, 30*time.Second)
	d1.sigkill(t)

	// Phase 2: restart, submit trace B against a slow backend so it
	// cannot finish, and SIGKILL with the job in flight. The 202 response
	// means the submit record is already fsynced to the journal.
	d2 := startDaemon(t, bin, "-state-dir", stateDir, "-workers", "1", "-api-latency", "500ms")
	d2.waitLog(t, regexp.MustCompile(`recovered state .*1 cached diagnoses restored, 0 unfinished jobs resubmitted`), 10*time.Second)
	d2.submit(t, rawB)
	d2.sigkill(t)

	// Phase 3: restart again. Trace B must replay and finish; trace A
	// must be a cache hit served from the snapshot, byte-identical.
	d3 := startDaemon(t, bin, "-state-dir", stateDir, "-workers", "1", "-snapshot-interval", "100ms")
	m := d3.waitLog(t, regexp.MustCompile(`recovered state .*: (\d+) cached diagnoses restored, (\d+) unfinished jobs resubmitted`), 10*time.Second)
	if m[1] != "1" || m[2] != "1" {
		t.Fatalf("recovery = %s restored / %s resubmitted, want 1 / 1", m[1], m[2])
	}
	replayed := d3.waitJobDone(t, digestB, 60*time.Second)
	if replayed.Status != api.StatusDone {
		t.Fatalf("replayed trace B finished as %s (%s)", replayed.Status, replayed.Error)
	}
	hit := d3.submit(t, rawA)
	if !hit.CacheHit || hit.Status != api.StatusDone {
		t.Fatalf("trace A after restart = %+v, want an instant cache hit", hit)
	}
	if got := d3.diagnosis(t, hit.ID); got != wantText {
		t.Error("restored diagnosis differs from the pre-kill one")
	}
}

// waitSnapshotEntries polls the on-disk snapshot until it holds at least n
// entries.
func waitSnapshotEntries(t *testing.T, stateDir string, n int, timeout time.Duration) {
	t.Helper()
	path := filepath.Join(stateDir, "snapshot.json")
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if data, err := os.ReadFile(path); err == nil {
			var snap struct {
				Entries []json.RawMessage `json:"entries"`
			}
			if json.Unmarshal(data, &snap) == nil && len(snap.Entries) >= n {
				return
			}
		}
		time.Sleep(25 * time.Millisecond)
	}
	t.Fatalf("snapshot at %s never reached %d entries", path, n)
}
