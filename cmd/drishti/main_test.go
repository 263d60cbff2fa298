package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"ioagent/internal/scenario"
)

// TestCLIFrontDoor drives the built binary: the CLI loads traces through
// the fleet's front door, so it takes a DXT rendering and refuses text
// with no module data the way every daemon does.
func TestCLIFrontDoor(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the drishti binary")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "drishti")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	write := func(name string, body []byte) string {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, body, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}

	var dxtText []byte
	for _, sc := range scenario.Matrix() {
		if sc.Name == "shared-file-contention-dxt" {
			dxtText, _ = sc.Build()
		}
	}
	if out, err := exec.Command(bin, write("trace.dxt.txt", dxtText)).CombinedOutput(); err != nil || len(out) == 0 {
		t.Errorf("DXT trace: err=%v, output %q", err, out)
	}

	out, err := exec.Command(bin, write("header-only.txt", []byte("# darshan log version: 3.41\n"))).CombinedOutput()
	if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 1 {
		t.Errorf("header-only text: err=%v, want exit status 1", err)
	}
	if !strings.Contains(string(out), "no module data") {
		t.Errorf("header-only text: output %q does not name the rejection", out)
	}
}
