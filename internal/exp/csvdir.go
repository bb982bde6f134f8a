package exp

import (
	"fmt"
	"os"
)

// CheckCSVDir rejects a -csvdir that is not an existing directory, so the
// CLIs can fail on a typo at once instead of after the experiment has
// run. The empty string (no CSV output) passes.
func CheckCSVDir(dir string) error {
	if dir == "" {
		return nil
	}
	fi, err := os.Stat(dir)
	if err != nil {
		return err
	}
	if !fi.IsDir() {
		return fmt.Errorf("%s is not a directory", dir)
	}
	return nil
}
