package wexec

import (
	"strconv"
	"strings"
	"testing"
)

func TestJobDir(t *testing.T) {
	for id, want := range map[string]string{
		"0":                       "lwj.0.0.0",
		"42":                      "lwj.0.0.42",
		"job-42":                  "lwj.0.0.job-42",
		"1234":                    "lwj.0.12.1234",
		"job-1234":                "lwj.0.12.job-1234",
		"123456":                  "lwj.12.34.123456",
		"job-1000000":             "lwj.100.0.job-1000000",
		"batch7":                  "lwj.0.0.batch7",
		"sleeper":                 "lwj.0.0.sleeper",
		"99999999999999999999999": "lwj.0.0.99999999999999999999999", // past 64 bits
	} {
		if got := JobDir(id); got != want {
			t.Errorf("JobDir(%q) = %q, want %q", id, got, want)
		}
	}
}

// TestJobDirBoundsDirectories counts, for every job id up to 10^6 in
// both the jobsvc ("N") and the wexec ("job-N") form, the entries of
// each directory on the path a job's commit rewrites above the job's
// own directory: none may exceed 256, however many jobs came first.
func TestJobDirBoundsDirectories(t *testing.T) {
	const maxID = 1_000_000
	entries := map[string]int{} // directory -> entries
	seen := map[string]bool{}   // directories already counted in their parent
	for n := 0; n <= maxID; n++ {
		for _, id := range []string{strconv.Itoa(n), "job-" + strconv.Itoa(n)} {
			dir := JobDir(id)
			if !strings.HasSuffix(dir, "."+id) {
				t.Fatalf("JobDir(%q) = %q does not end in the id", id, dir)
			}
			// Walk up from the job's bucket: each new directory is one
			// more entry in its parent.
			for child := dir; ; {
				parent := child[:strings.LastIndexByte(child, '.')]
				if child == dir {
					entries[parent]++
				} else if !seen[child] {
					seen[child] = true
					entries[parent]++
				}
				if parent == "lwj" {
					break
				}
				child = parent
			}
		}
	}
	largest, at := 0, ""
	for dir, n := range entries {
		if n > largest {
			largest, at = n, dir
		}
	}
	if largest > 256 {
		t.Fatalf("directory %s holds %d entries, want <= 256", at, largest)
	}
	t.Logf("largest directory: %s with %d entries (%d directories)", at, largest, len(entries))
}
