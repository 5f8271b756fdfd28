package analyzers

import (
	"os"
	"path/filepath"
	"testing"
)

// TestTreeIsClean runs the full registry over the real module — the same
// gate CI runs via cmd/enclavelint. The repo must stay clean: a finding
// here means either a real invariant regression or an exemption that lost
// its justification.
func TestTreeIsClean(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	cwd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(root); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(cwd)

	units, err := Load([]string{"./..."})
	if err != nil {
		t.Fatalf("loading module: %v", err)
	}
	if len(units) == 0 {
		t.Fatal("no units loaded")
	}
	diags := Check(units)
	for _, d := range diags {
		t.Errorf("unexpected finding: %s", d)
	}

	// The gate must actually be exercising the scoped packages, not
	// silently skipping them.
	loaded := map[string]bool{}
	for _, u := range units {
		loaded[u.Path] = true
	}
	for _, sa := range Registry() {
		for _, p := range sa.Packages {
			if !loaded[p] {
				t.Errorf("%s scopes %s, which was not loaded", sa.Name, p)
			}
		}
	}
}
