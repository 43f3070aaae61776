package confaudit_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// surfaceAllowed are the exported names in internal/ and pkg/ that no
// non-test code calls and that stay anyway, each with its reason. A key
// ending in "/" names a directory; otherwise it is "<dir>.<Name>" for
// the package in that directory, with the receiver type between them
// for a method.
var surfaceAllowed = map[string]string{
	"internal/chaos/":                         "the fault-schedule suites behind the chaos and torture build tags",
	"internal/storage/faultfs/":               "the storage fault seam the crash-torture suite drives",
	"internal/telemetry.Registry.Reset":       "isolates tests that share the process-wide registry",
	"internal/telemetry.Tracer.Reset":         "isolates tests that share the process-wide tracer",
	"internal/telemetry.Flight.Reset":         "isolates tests that share the process-wide flight recorder",
	"internal/telemetry.Ledger.Reset":         "isolates tests that share the process-wide leak ledger",
	"internal/telemetry.Tracer.SetClock":      "deterministic span times in tests",
	"internal/telemetry.Flight.SetClock":      "deterministic event times in tests",
	"internal/telemetry.SetEnabled":           "the disabled registry instrumentation overhead is measured against",
	"internal/transport.MemNetwork.SetDropFn": "scripted loss on the in-memory network",
	"internal/transport.WithLatency":          "simulated link latency on the in-memory network",
	"internal/cluster.Node.SetIndexDisabled":  "the scan reference TestIndexScanEquivalence compares the index against",
	"internal/cluster.Client.OutboxLen":       "read by the chaos suites",
	"internal/ticket.AccessTable.Glsns":       "grant inspection for ACL consistency tests",
	"internal/cluster.Node.Provenance":        "writer provenance (DESIGN row 29); removing it changes the wire item and journal format",
	"internal/cluster.Node.VerifyProvenance":  "writer provenance (DESIGN row 29); removing it changes the wire item and journal format",
	"internal/smc/circuit.LessThan":           "the section 3.3 garbled-comparison baseline BenchmarkGarbledLessThan32 measures",
	"internal/smc/circuit.Adder":              "the section 3.3 garbled-comparison baseline BenchmarkGarbledLessThan32 measures",
	"internal/smc/circuit.BitsToUint64":       "the section 3.3 garbled-comparison baseline BenchmarkGarbledLessThan32 measures",
	"internal/smc/circuit.Circuit.CountAND":   "the section 3.3 garbled-comparison baseline BenchmarkGarbledLessThan32 measures",
}

// interfaceMethods are method names a type declares to satisfy a
// standard-library interface; a method that only an interface call
// reaches has no reference by name. Interfaces declared in this module
// add their method names as the files are parsed.
var interfaceMethods = []string{
	"String", "Error", "Unwrap", "Is", "MarshalJSON", "UnmarshalJSON",
	"Read", "Write", "Close", "Sync", "Len", "Less", "Swap", "ServeHTTP",
}

// surfaceDecl is one exported top-level declaration in internal/ or pkg/.
type surfaceDecl struct {
	key, name  string // key is "<dir>.[<Recv>.]<Name>"
	dir        string
	file       string
	start, end token.Pos
	method     bool
}

// TestNoTestOnlyExports parses every non-test Go file of the module and
// of bench/, and fails on any exported top-level func, method, type,
// var or const in internal/ or pkg/ whose name is never used outside
// its own declaration. Matching is by name, so a name shared with
// another symbol can hide an unused one, but a reported name is unused.
func TestNoTestOnlyExports(t *testing.T) {
	root, err := filepath.Abs(".")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	var decls []surfaceDecl
	type ref struct {
		file string
		pos  token.Pos
	}
	refs := make(map[string][]ref)
	ifaceMethods := make(map[string]bool)
	for _, m := range interfaceMethods {
		ifaceMethods[m] = true
	}
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
			// Hidden and testdata directories hold no module code. A
			// nested go.mod starts another module; bench/ is the one
			// that calls into this one.
			if strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata" {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil && rel != "bench" {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(rel, ".go") || strings.HasSuffix(rel, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		parsed++
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.Ident:
				refs[n.Name] = append(refs[n.Name], ref{rel, n.Pos()})
			case *ast.InterfaceType:
				for _, m := range n.Methods.List {
					for _, name := range m.Names {
						ifaceMethods[name.Name] = true
					}
				}
			}
			return true
		})
		dir := filepath.ToSlash(filepath.Dir(rel))
		if !strings.HasPrefix(dir, "internal/") && !strings.HasPrefix(dir, "pkg/") {
			return nil
		}
		for _, decl := range f.Decls {
			switch decl := decl.(type) {
			case *ast.FuncDecl:
				if decl.Name.IsExported() {
					key := dir + "." + decl.Name.Name
					if decl.Recv != nil {
						key = dir + "." + recvName(decl.Recv.List[0].Type) + "." + decl.Name.Name
					}
					decls = append(decls, surfaceDecl{key, decl.Name.Name, dir, rel, decl.Pos(), decl.End(), decl.Recv != nil})
				}
			case *ast.GenDecl:
				for _, spec := range decl.Specs {
					switch spec := spec.(type) {
					case *ast.TypeSpec:
						if spec.Name.IsExported() {
							decls = append(decls, surfaceDecl{dir + "." + spec.Name.Name, spec.Name.Name, dir, rel, spec.Pos(), spec.End(), false})
						}
					case *ast.ValueSpec:
						for _, name := range spec.Names {
							if name.IsExported() {
								decls = append(decls, surfaceDecl{dir + "." + name.Name, name.Name, dir, rel, spec.Pos(), spec.End(), false})
							}
						}
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if parsed < 50 {
		t.Fatalf("parsed only %d files under %s; the walk did not reach the module", parsed, root)
	}
	var unused []string
	declared := make(map[string]bool)
	for _, d := range decls {
		declared[d.key] = true
		if d.method && ifaceMethods[d.name] {
			continue
		}
		if surfaceAllowed[d.key] != "" || allowedSurfaceDir(d.dir) {
			continue
		}
		used := false
		for _, r := range refs[d.name] {
			if r.file != d.file || r.pos < d.start || r.pos >= d.end {
				used = true
				break
			}
		}
		if !used {
			unused = append(unused, d.file+": "+d.name)
		}
	}
	sort.Strings(unused)
	for _, u := range unused {
		t.Errorf("%s is exported but only tests use it; delete it, or allowlist it with a reason in surfaceAllowed", u)
	}
	for k := range surfaceAllowed {
		if !strings.HasSuffix(k, "/") && !declared[k] {
			t.Errorf("surfaceAllowed names %s, which is no longer declared", k)
		}
	}
}

// recvName is the type name of a method receiver, without pointer or
// type parameters.
func recvName(expr ast.Expr) string {
	for {
		switch e := expr.(type) {
		case *ast.StarExpr:
			expr = e.X
		case *ast.IndexExpr:
			expr = e.X
		case *ast.IndexListExpr:
			expr = e.X
		case *ast.Ident:
			return e.Name
		default:
			return ""
		}
	}
}

func allowedSurfaceDir(dir string) bool {
	for k := range surfaceAllowed {
		if strings.HasSuffix(k, "/") && strings.HasPrefix(dir+"/", k) {
			return true
		}
	}
	return false
}
