package jobsummary

import (
	"strings"
	"testing"

	"ioagent/internal/darshan"
	"ioagent/internal/iosim"
)

func testLog() *darshan.Log {
	s := iosim.New(iosim.Config{Seed: 4, NProcs: 4, UsesMPI: true, Exe: "/bin/app.x"})
	f := s.OpenShared("/scratch/big.dat", iosim.MPIIndep, false, nil)
	for rank := 0; rank < 4; rank++ {
		f.WriteAt(rank, int64(rank)*(4<<20), 4<<20)
	}
	f.Close()
	cfg := s.Open("/scratch/run.cfg", 0, iosim.STDIO, nil) // rank 0 reads a config file
	cfg.ReadAt(0, 0, 2048)
	cfg.Close(0)
	return s.Finalize()
}

func TestBuild(t *testing.T) {
	sum := Build(testLog())
	if sum.NProcs != 4 || sum.Exe != "/bin/app.x" {
		t.Errorf("header wrong: %+v", sum)
	}
	var posix *ModuleSummary
	for i := range sum.Modules {
		if sum.Modules[i].Module == darshan.ModulePOSIX {
			posix = &sum.Modules[i]
		}
	}
	if posix == nil {
		t.Fatal("POSIX module missing")
	}
	if posix.BytesWritten != 16<<20 {
		t.Errorf("POSIX write volume = %d, want 16 MiB", posix.BytesWritten)
	}
	if posix.Writes != 4 {
		t.Errorf("POSIX writes = %d, want 4", posix.Writes)
	}
	if len(sum.TopFiles) == 0 || sum.TopFiles[0].Name != "/scratch/big.dat" {
		t.Errorf("busiest file wrong: %+v", sum.TopFiles)
	}
}

func TestFormat(t *testing.T) {
	out := Build(testLog()).Format()
	for _, want := range []string{
		"Darshan Job Summary",
		"/bin/app.x",
		"per-module activity",
		"POSIX",
		"MPI-IO",
		"busiest files",
		"/scratch/big.dat",
		"16.00 MiB",
		"POSIX access sizes",
		"4M_10M",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("summary missing %q:\n%s", want, out)
		}
	}
}

func TestHumanBytes(t *testing.T) {
	cases := map[int64]string{
		512:     "512 B",
		2048:    "2.00 KiB",
		3 << 20: "3.00 MiB",
		5 << 30: "5.00 GiB",
	}
	for in, want := range cases {
		if got := humanBytes(in); got != want {
			t.Errorf("humanBytes(%d) = %q, want %q", in, got, want)
		}
	}
}

func TestEmptyLog(t *testing.T) {
	sum := Build(darshan.NewLog())
	if len(sum.Modules) != 0 || len(sum.TopFiles) != 0 {
		t.Errorf("empty log should summarize empty: %+v", sum)
	}
	if out := sum.Format(); !strings.Contains(out, "Darshan Job Summary") {
		t.Error("empty summary still renders a header")
	}
}
