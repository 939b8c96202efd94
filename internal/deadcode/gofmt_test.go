package deadcode

import (
	"bytes"
	"go/format"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestGofmt is the module's gofmt check, run by go test so that tier-1 sees
// what CI sees: every .go file under the module root — the files `gofmt -l .`
// visits, names starting with a dot excepted — must be byte-identical to
// what go/format.Source makes of it. It fails naming each file that differs
// or does not parse.
//
//	go test ./internal/deadcode -run '^TestGofmt$' -v
func TestGofmt(t *testing.T) {
	root, _ := moduleRoot(t)
	checked := 0
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() || strings.HasPrefix(d.Name(), ".") || !strings.HasSuffix(d.Name(), ".go") {
			return err
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		checked++
		if out, err := format.Source(src); err != nil {
			t.Errorf("%s: %v", rel, err)
		} else if !bytes.Equal(out, src) {
			t.Errorf("%s is not gofmt-formatted (run gofmt -w %s)", rel, rel)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if checked == 0 {
		t.Fatalf("no .go files under %s", root)
	}
	t.Logf("%d files formatted", checked)
}
