package checker

import (
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"enclaves/internal/model"
)

// defaultReport is the full default-bound run: the (2,2) model with the
// Figure 4 diagram, both extension ablations and the legacy search. The
// tests that read it share one run.
var defaultReport = sync.OnceValue(func() *Report {
	return Run(model.DefaultConfig(), model.DefaultLegacyConfig())
})

// goldenCases are the configurations whose reports TestGoldenVerdicts pins:
// the default bound, a small bound, and one mutation per extension. Every
// report also carries the legacy attack search at its default bound.
var goldenCases = []struct {
	name string
	cfg  model.Config
}{
	{"default", model.DefaultConfig()},
	{"s1_a1", model.Config{MaxSessions: 1, MaxAdmin: 1}},
	{"weak_admin", model.Config{MaxSessions: 1, MaxAdmin: 2, WeakAdminFreshness: true}},
	{"weak_resume", model.Config{MaxSessions: 1, MaxAdmin: 1, Failover: true, WeakResumeFreshness: true}},
	{"weak_lkh", model.Config{MaxSessions: 1, MaxAdmin: 1, LKH: true, Failover: true, WeakLKHRotation: true}},
}

// goldenReport renders rep without its wall-time line: every obligation's
// ID, verdict, detail and witness, the extension ablations, Figure 4's box
// and edge counts, and the legacy attacks with their traces.
func goldenReport(rep *Report) string {
	r := *rep
	r.Elapsed = 0
	return r.String()
}

// TestGoldenVerdicts compares each golden configuration's report with the
// one in testdata/golden, byte for byte. The files were recorded before the
// checker began discharging obligations during the search, so a changed
// verdict, detail, witness or count fails here.
func TestGoldenVerdicts(t *testing.T) {
	for _, tc := range goldenCases {
		t.Run(tc.name, func(t *testing.T) {
			var rep *Report
			if tc.name == "default" {
				if testing.Short() {
					t.Skip("full verification in -short mode")
				}
				rep = defaultReport()
			} else {
				rep = Run(tc.cfg, model.DefaultLegacyConfig())
			}
			want, err := os.ReadFile(filepath.Join("testdata", "golden", tc.name+".txt"))
			if err != nil {
				t.Fatal(err)
			}
			got := goldenReport(rep)
			if got == string(want) {
				return
			}
			gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
			for i := range max(len(gl), len(wl)) {
				var g, w string
				if i < len(gl) {
					g = gl[i]
				}
				if i < len(wl) {
					w = wl[i]
				}
				if g != w {
					t.Fatalf("report differs from testdata/golden/%s.txt at line %d:\n got: %s\nwant: %s", tc.name, i+1, g, w)
				}
			}
		})
	}
}
