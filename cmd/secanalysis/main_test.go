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

// runMain re-executes the test binary as secanalysis with args and
// returns its stdout, stderr and exit error.
func runMain(args ...string) (stdout, stderr string, err error) {
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), runMainEnv+"=1")
	var out, errOut bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errOut
	err = cmd.Run()
	return out.String(), errOut.String(), err
}

// TestBadCSVDirExitsBeforeWork runs secanalysis with a -csvdir that is
// missing or a file: it must exit 2 with a -csvdir error before running
// the Figure 7 sweep, so nothing reaches stdout.
func TestBadCSVDirExitsBeforeWork(t *testing.T) {
	dir := t.TempDir()
	file := filepath.Join(dir, "out.csv")
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, bad := range []string{filepath.Join(dir, "missing"), file} {
		stdout, stderr, err := runMain("-store", "off", "-csvdir", bad)
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Fatalf("-csvdir %s: %v, want exit status 2; stderr: %s", bad, err, stderr)
		}
		if !strings.Contains(stderr, "secanalysis: -csvdir:") {
			t.Errorf("-csvdir %s: stderr %q does not name the flag", bad, stderr)
		}
		if stdout != "" {
			t.Errorf("-csvdir %s: printed %q before failing, want no work done", bad, stdout)
		}
	}
}

// TestBadNBOExitsBeforeWork runs secanalysis with a -nbo below 1: it must
// exit 2 with a -nbo error right after flag parsing, before the Figure 7
// sweep, so nothing reaches stdout.
func TestBadNBOExitsBeforeWork(t *testing.T) {
	for _, bad := range []string{"0", "-5"} {
		stdout, stderr, err := runMain("-store", "off", "-empirical", "-nbo", bad)
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Fatalf("-nbo %s: %v, want exit status 2; stderr: %s", bad, err, stderr)
		}
		if !strings.Contains(stderr, "secanalysis: -nbo:") {
			t.Errorf("-nbo %s: stderr %q does not name the flag", bad, stderr)
		}
		if stdout != "" {
			t.Errorf("-nbo %s: printed %q before failing, want no work done", bad, stdout)
		}
	}
}
