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
	"internal/smc/circuit.Equality":           "the classical baseline of claim C1 that BenchmarkClaimC1GarbledEquality measures",
	"internal/smc/circuit.Uint64ToBits":       "the classical baseline of claim C1 that BenchmarkClaimC1GarbledEquality measures",
	"internal/smc/garbled.Garble":             "the classical baseline of claim C1 that BenchmarkClaimC1GarbledEquality measures",
	"internal/smc/garbled.Evaluate":           "the classical baseline of claim C1 that BenchmarkClaimC1GarbledEquality measures",
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
	walkModule(t, func(rel string, f *ast.File) {
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
			return
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
	})
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

// walkModule parses every non-test Go file of the module and of
// bench/ (the other module that calls into this one) and hands each to
// fn with its slash-separated path relative to the module root. It
// fails the test if the walk reaches too few files to be the module.
func walkModule(t *testing.T, fn func(rel string, f *ast.File)) {
	t.Helper()
	root, err := filepath.Abs(".")
	if err != nil {
		t.Fatal(err)
	}
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
		fn(rel, f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if parsed < 50 {
		t.Fatalf("parsed only %d files under %s; the walk did not reach the module", parsed, root)
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

// optionAllowed are the exported option fields no non-test code writes
// that stay anyway, each with its reason. A key ending in "/" names a
// directory; "<dir>.<Type>" names every field of that type; otherwise
// the key is "<dir>.<Type>.<Field>".
var optionAllowed = map[string]string{
	"internal/chaos/": "the fault-schedule suites behind the chaos and torture build tags",
	"internal/cluster.AppendOptions.AckTimeout": "the tier-1 ack-loss suite shortens the store ack wait until the ack wait is reworked (ROADMAP B(a))",
	"internal/resilience.DetectorConfig":        "tests compress failure detection to milliseconds; production takes the defaults (ROADMAP finding)",
	"internal/cluster.ClientConfig.Signer":      "writer provenance (DESIGN row 29)",
	"internal/smc/sum.Config.Weights":           "the section 3.5 weighted sum",
	"internal/smc/garbled.Config":               "the classical baseline of claim C1 that BenchmarkClaimC1GarbledEquality runs",
}

// optionField is one exported field of an option struct.
type optionField struct {
	key, typ, name, file string
}

// isOptionType reports whether an exported struct type name is an
// option type: a *Config, an *Options, or a Policy.
func isOptionType(name string) bool {
	return strings.HasSuffix(name, "Config") || strings.HasSuffix(name, "Options") || name == "Policy"
}

// TestEveryOptionIsSet parses every non-test Go file of the module and
// of bench/, and fails on any exported field of an exported *Config,
// *Options or Policy struct in internal/ or pkg/ that no file writes
// outside the field's own file. A write is a key in a composite literal
// of the type (matched by the literal's type name, so a facade alias
// counts), a key in a literal whose type is elided, an unkeyed literal
// of the type, or an assignment, increment or address-of through a
// selector of the field's name. Selectors are matched by name alone, so
// the guard can miss an unset field; it reports a set one only if every
// write takes another form, such as decoding into the struct.
func TestEveryOptionIsSet(t *testing.T) {
	var fields []optionField
	litKeys := make(map[string]map[string][]string) // type -> field -> files
	selWrites := make(map[string][]string)          // field -> files
	addLit := func(typ, field, file string) {
		if litKeys[typ] == nil {
			litKeys[typ] = make(map[string][]string)
		}
		litKeys[typ][field] = append(litKeys[typ][field], file)
	}
	walkModule(t, func(rel string, f *ast.File) {
		selWrite := func(e ast.Expr) {
			if sel, ok := e.(*ast.SelectorExpr); ok {
				selWrites[sel.Sel.Name] = append(selWrites[sel.Sel.Name], rel)
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CompositeLit:
				typ := litTypeName(n.Type)
				if n.Type != nil && typ == "" {
					return true // a slice, map or array literal
				}
				if typ == "" {
					typ = "*" // elided type: the key may belong to any option type
				}
				for _, elt := range n.Elts {
					kv, ok := elt.(*ast.KeyValueExpr)
					if !ok {
						addLit(typ, "*", rel) // unkeyed: every field is written
						break
					}
					if key, ok := kv.Key.(*ast.Ident); ok {
						addLit(typ, key.Name, rel)
					}
				}
			case *ast.AssignStmt:
				if n.Tok != token.DEFINE {
					for _, lhs := range n.Lhs {
						selWrite(lhs)
					}
				}
			case *ast.IncDecStmt:
				selWrite(n.X)
			case *ast.UnaryExpr:
				if n.Op == token.AND {
					selWrite(n.X)
				}
			}
			return true
		})
		dir := filepath.ToSlash(filepath.Dir(rel))
		if !strings.HasPrefix(dir, "internal/") && !strings.HasPrefix(dir, "pkg/") {
			return
		}
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.TYPE {
				continue
			}
			for _, spec := range gd.Specs {
				ts := spec.(*ast.TypeSpec)
				st, ok := ts.Type.(*ast.StructType)
				if !ok || !ts.Name.IsExported() || !isOptionType(ts.Name.Name) {
					continue
				}
				for _, fl := range st.Fields.List {
					for _, name := range fl.Names {
						if name.IsExported() {
							key := dir + "." + ts.Name.Name + "." + name.Name
							fields = append(fields, optionField{key, ts.Name.Name, name.Name, rel})
						}
					}
				}
			}
		}
	})
	elsewhere := func(files []string, own string) bool {
		for _, f := range files {
			if f != own {
				return true
			}
		}
		return false
	}
	declared := make(map[string]bool)
	var unset []string
	for _, fd := range fields {
		declared[fd.key] = true
		declared[strings.TrimSuffix(fd.key, "."+fd.name)] = true
		if optionAllowed[fd.key] != "" || optionAllowed[strings.TrimSuffix(fd.key, "."+fd.name)] != "" || allowedOptionDir(fd.file) {
			continue
		}
		if elsewhere(litKeys[fd.typ][fd.name], fd.file) || elsewhere(litKeys[fd.typ]["*"], fd.file) ||
			elsewhere(litKeys["*"][fd.name], fd.file) || elsewhere(selWrites[fd.name], fd.file) {
			continue
		}
		unset = append(unset, fd.file+": "+fd.typ+"."+fd.name)
	}
	sort.Strings(unset)
	for _, u := range unset {
		t.Errorf("%s is an option no program sets; make it a constant, or allowlist it with a reason in optionAllowed", u)
	}
	for k := range optionAllowed {
		if !strings.HasSuffix(k, "/") && !declared[k] {
			t.Errorf("optionAllowed names %s, which is no longer declared", k)
		}
	}
}

// litTypeName is the type name of a composite literal, without package
// qualifier or type arguments; "" for an elided type or a literal of a
// slice, map or array type.
func litTypeName(expr ast.Expr) string {
	switch e := expr.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return e.Sel.Name
	case *ast.IndexExpr:
		return litTypeName(e.X)
	case *ast.IndexListExpr:
		return litTypeName(e.X)
	}
	return ""
}

func allowedOptionDir(file string) bool {
	for k := range optionAllowed {
		if strings.HasSuffix(k, "/") && strings.HasPrefix(file, k) {
			return true
		}
	}
	return false
}
