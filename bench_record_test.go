package enclaves

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"
)

// benchFiles holds the BENCH_*.json documents this process has written:
// each file is loaded once, so separate invocations (one -cpu value, one
// size) refine it instead of truncating it.
var benchFiles struct {
	sync.Mutex
	docs   map[string]map[string][]map[string]any
	commit string
}

// recordBench upserts entry into section of the BENCH_*.json file at the
// repo root and rewrites the file. A row is identified by its key fields
// plus GOMAXPROCS, so one sweep run with -cpu 1,2 keeps both rows. Every row
// is stamped with the environment that produced it: go version, GOMAXPROCS,
// NumCPU, commit and date.
func recordBench(b *testing.B, file, section string, entry map[string]any, keys ...string) {
	benchFiles.Lock()
	defer benchFiles.Unlock()
	if benchFiles.docs == nil {
		benchFiles.docs = map[string]map[string][]map[string]any{}
		benchFiles.commit = "unknown"
		if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
			benchFiles.commit = strings.TrimSpace(string(out))
		}
	}
	doc := benchFiles.docs[file]
	if doc == nil {
		doc = map[string][]map[string]any{}
		if data, err := os.ReadFile(file); err == nil {
			json.Unmarshal(data, &doc)
		}
		benchFiles.docs[file] = doc
	}
	entry["go"] = runtime.Version()
	entry["gomaxprocs"] = runtime.GOMAXPROCS(0)
	entry["numcpu"] = runtime.NumCPU()
	entry["commit"] = benchFiles.commit
	entry["date"] = time.Now().UTC().Format(time.DateOnly)
	keys = append(keys, "gomaxprocs")
	rows := doc[section]
	i := slices.IndexFunc(rows, func(row map[string]any) bool {
		for _, k := range keys {
			if fmt.Sprint(row[k]) != fmt.Sprint(entry[k]) {
				return false
			}
		}
		return true
	})
	if i >= 0 {
		rows[i] = entry
	} else {
		doc[section] = append(rows, entry)
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		b.Fatal(err)
	}
	if err := os.WriteFile(file, append(data, '\n'), 0o644); err != nil {
		b.Fatal(err)
	}
}
