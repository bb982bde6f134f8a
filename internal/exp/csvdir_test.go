package exp

import (
	"os"
	"path/filepath"
	"testing"
)

func TestCheckCSVDir(t *testing.T) {
	dir := t.TempDir()
	file := filepath.Join(dir, "fig10.csv")
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		dir string
		ok  bool
	}{
		{"", true},
		{dir, true},
		{filepath.Join(dir, "missing"), false},
		{file, false},
	} {
		if err := CheckCSVDir(tc.dir); (err == nil) != tc.ok {
			t.Errorf("CheckCSVDir(%q) = %v, want ok=%v", tc.dir, err, tc.ok)
		}
	}
}
