package report

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestGenerateMatchesCheckedInReport pins REPORT.md: the full evaluation
// must reproduce the checked-in report byte for byte, so a refactor that
// claims to change no behaviour can prove it. A deliberate change to a
// paper figure regenerates the file with `mltcp-figures -report REPORT.md`.
func TestGenerateMatchesCheckedInReport(t *testing.T) {
	want, err := os.ReadFile(filepath.FromSlash("../../REPORT.md"))
	if err != nil {
		t.Fatal(err)
	}
	var got strings.Builder
	if err := Generate(&got); err != nil {
		t.Fatal(err)
	}
	if got.String() == string(want) {
		return
	}
	gl, wl := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			t.Fatalf("Generate diverged from REPORT.md at line %d:\n got  %q\n want %q", i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("Generate wrote %d lines, REPORT.md has %d", len(gl), len(wl))
}
