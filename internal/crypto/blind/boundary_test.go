package blind

import (
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// blindUsers are the only places outside tests that may import this
// package: the §4.2 membership and evidence chain, the one part of the
// system that needs blind signatures. Cluster statements (votes,
// certificates, tickets, provenance) are Ed25519; keeping RSA off that
// path is what this list enforces. A trailing slash names a directory.
var blindUsers = []string{
	"internal/crypto/blind/",
	"internal/evidence/",
	"pkg/dla/membership.go",
	"cmd/benchtab/",
	"examples/membership/",
}

// TestImportBoundary parses every non-test Go file of the module and
// fails on any import of this package from outside blindUsers.
func TestImportBoundary(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("..", "..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	mod, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		t.Fatal(err)
	}
	module := strings.TrimSpace(strings.TrimPrefix(strings.SplitN(string(mod), "\n", 2)[0], "module"))
	self := module + "/internal/crypto/blind"
	fset := token.NewFileSet()
	parsed := 0
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path) // path is under root by construction
		rel = filepath.ToSlash(rel)
		if d.IsDir() {
			if rel == "." {
				return nil
			}
			// Hidden and testdata directories hold no module code, and a
			// nested go.mod starts another module (bench/).
			if strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata" {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(rel, ".go") || strings.HasSuffix(rel, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ImportsOnly)
		if err != nil {
			return err
		}
		parsed++
		for _, imp := range f.Imports {
			p, err := strconv.Unquote(imp.Path.Value)
			if err != nil || p != self || allowedBlindUser(rel) {
				continue
			}
			t.Errorf("%s imports %s; blind signatures belong only to %v", rel, self, blindUsers)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if parsed < 50 {
		t.Fatalf("parsed only %d files under %s; the walk did not reach the module", parsed, root)
	}
}

func allowedBlindUser(rel string) bool {
	for _, u := range blindUsers {
		if rel == u || (strings.HasSuffix(u, "/") && strings.HasPrefix(rel, u)) {
			return true
		}
	}
	return false
}
