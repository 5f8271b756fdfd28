package enclaves

import (
	"errors"
	"go/build"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"strings"
	"testing"
)

// TestEveryInternalPackageShips fails on any internal package that no
// shipped entry point reaches: the binaries under cmd/ and the benchmark
// driver in bench/. Tests and examples importing a package do not make it
// ship. The closure follows non-test imports inside the module, as
// `go list -deps ./cmd/... ./bench` does, reading each directory with
// go/build.
func TestEveryInternalPackageShips(t *testing.T) {
	const module = "enclaves"
	cmds, err := os.ReadDir("cmd")
	if err != nil {
		t.Fatal(err)
	}
	todo := []string{"bench"}
	for _, e := range cmds {
		if e.IsDir() {
			todo = append(todo, path.Join("cmd", e.Name()))
		}
	}

	// reached holds module-relative directories in slash form.
	reached := make(map[string]bool)
	for len(todo) > 0 {
		dir := todo[len(todo)-1]
		todo = todo[:len(todo)-1]
		if reached[dir] {
			continue
		}
		reached[dir] = true
		pkg, err := build.ImportDir(filepath.FromSlash(dir), 0)
		if err != nil {
			t.Fatalf("%s: %v", dir, err)
		}
		for _, imp := range pkg.Imports {
			if rel, ok := strings.CutPrefix(imp, module+"/"); ok {
				todo = append(todo, rel)
			}
		}
	}

	err = filepath.WalkDir("internal", func(dir string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if d.Name() == "testdata" {
			return filepath.SkipDir
		}
		pkg, err := build.ImportDir(dir, 0)
		var noGo *build.NoGoError
		if errors.As(err, &noGo) || (err == nil && len(pkg.GoFiles) == 0) {
			return nil // no package, or a test-only one
		}
		if err != nil {
			return err
		}
		if rel := filepath.ToSlash(dir); !reached[rel] {
			t.Errorf("%s/%s: neither a cmd/* binary nor bench imports it", module, rel)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
