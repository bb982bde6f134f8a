package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// runMainEnv makes a re-executed test binary run main with its arguments.
const runMainEnv = "PRACSIM_TEST_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestBadCSVDirExitsBeforeWork runs pracleak with a -csvdir that is
// missing or a file: it must exit 2 with a -csvdir error before running
// Figure 4, so nothing reaches stdout.
func TestBadCSVDirExitsBeforeWork(t *testing.T) {
	dir := t.TempDir()
	file := filepath.Join(dir, "out.csv")
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, bad := range []string{filepath.Join(dir, "missing"), file} {
		cmd := exec.Command(os.Args[0], "-exp", "fig4", "-quick", "-store", "off", "-csvdir", bad)
		cmd.Env = append(os.Environ(), runMainEnv+"=1")
		var stdout, stderr bytes.Buffer
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		err := cmd.Run()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Fatalf("-csvdir %s: %v, want exit status 2; stderr: %s", bad, err, stderr.String())
		}
		if !strings.Contains(stderr.String(), "pracleak: -csvdir:") {
			t.Errorf("-csvdir %s: stderr %q does not name the flag", bad, stderr.String())
		}
		if stdout.Len() != 0 {
			t.Errorf("-csvdir %s: printed %q before failing, want no work done", bad, stdout.String())
		}
	}
}
