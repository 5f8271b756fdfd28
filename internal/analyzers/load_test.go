package analyzers

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestLoadErrorNamesBrokenDependency pins that a dependency which does not
// compile is a load error, not a panic: package b imports a broken package
// a, and both Load and LoadDir report a's file and line, as the go tool
// prints them.
func TestLoadErrorNamesBrokenDependency(t *testing.T) {
	root := t.TempDir()
	for name, src := range map[string]string{
		"go.mod": "module example.com/m\n\ngo 1.24\n",
		"a/a.go": "package a\n\nfunc A() int {\n\treturn undefinedName\n}\n",
		"b/b.go": "package b\n\nimport \"example.com/m/a\"\n\nvar B = a.A()\n",
	} {
		path := filepath.Join(root, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	check := func(what string, err error) {
		t.Helper()
		if err == nil {
			t.Fatalf("%s: loaded a package whose dependency does not compile", what)
		}
		if !strings.Contains(err.Error(), "a.go:4") {
			t.Errorf("%s: error does not name a.go:4:\n%v", what, err)
		}
	}
	_, err := LoadDir(filepath.Join(root, "b"), "example.com/m/b")
	check("LoadDir", err)

	cwd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(root); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(cwd)
	_, err = Load([]string{"./b"})
	check("Load", err)
}
