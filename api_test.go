package repro

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// apiAllowlist names the exported functions and methods under internal/
// that stay although no non-test code calls them, each with its reason.
// A key is "<dir>.<Func>" or "<dir>.<Type>.<Method>".
var apiAllowlist = map[string]string{
	// Options that tests need to reach the behaviour they check.
	"internal/agent.WithTransferBatchSize": "test option: the migration tests shrink the frame to reach batch boundaries",
	"internal/agent.WithBatchBytes":        "test option: the migration tests shrink the frame byte bound",
	"internal/agent.WithMaxInflight":       "test option: the migration tests bound the in-flight window they check",
	"internal/client.WithDialTimeout":      "test option: the client timeouts",
	"internal/client.WithOpTimeout":        "test option: the client timeouts the failure tests shorten",
	"internal/workload.WithPareto":         "the generator's twin of store.WithPareto, which benchmark/ sets (ROADMAP item 2)",

	// Probes that tests read to check a safety property.
	"internal/agent.Agent.PendingOffers":       "safety probe: no offer outlives its round",
	"internal/cache.Cache.ShardCount":          "safety probe: per-shard stats cover every stripe",
	"internal/core.Master.ListenerCounts":      "safety probe: a retired node's listeners are unsubscribed",
	"internal/autoscaler.Config.DecideTenants": "multi-tenant sizing, wired in by ROADMAP item 4",
	"internal/cache.MultiItem.ValueIn":         "GetMultiInto's value accessor: benchmark/ still times GetMultiInto until its row moves to GetFunc (ROADMAP item 18)",

	// Client methods that mirror memcached commands.
	"internal/client.Cluster.SetTTL":     "memcached mirror: set with an exptime",
	"internal/client.Cluster.GetWithCAS": "memcached mirror: gets",

	// Methods the standard library calls through an interface.
	"internal/fusecache.headHeap.Less":         "heap.Interface",
	"internal/fusecache.headHeap.Swap":         "heap.Interface",
	"internal/memproto.desyncError.Unwrap":     "errors.Unwrap",
	"internal/taskgroup.permanentError.Unwrap": "errors.Unwrap",
}

// apiDecl is one exported function or method declared under internal/.
type apiDecl struct {
	key      string // "<dir>.<Func>" or "<dir>.<Type>.<Method>"
	dir      string
	name     string
	isMethod bool
	pos      token.Position
}

// TestNoUnusedExportedAPI fails when an exported function or method under
// internal/ has no reference from non-test code in cmd/, examples/,
// internal/ or benchmark/, and is not on apiAllowlist. The check is by
// name, from the parsed source: a function counts as used when another
// package selects it through its import or its own package names it; a
// method counts as used when any selector names it. It also fails on an
// allowlist entry that names nothing or that a caller now uses.
func TestNoUnusedExportedAPI(t *testing.T) {
	const module = "repro/"
	fset := token.NewFileSet()
	var decls []apiDecl
	qualified := map[string]bool{} // "<dir>.<Name>" selected through an import
	local := map[string]bool{}     // "<dir>.<Name>" named inside its own package
	selected := map[string]bool{}  // any other selector's name
	walkNonTestGo(t, fset, func(dir string, f *ast.File) {
		imports := map[string]string{}
		for _, im := range f.Imports {
			p, _ := strconv.Unquote(im.Path.Value)
			if !strings.HasPrefix(p, module) {
				continue
			}
			p = strings.TrimPrefix(p, module)
			name := p[strings.LastIndex(p, "/")+1:]
			if im.Name != nil {
				name = im.Name.Name
			}
			imports[name] = p
		}
		declared := map[*ast.Ident]bool{}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			declared[fd.Name] = true
			if strings.HasPrefix(dir, "internal/") && fd.Name.IsExported() {
				d := apiDecl{key: dir + "." + fd.Name.Name, dir: dir, name: fd.Name.Name, pos: fset.Position(fd.Pos())}
				if fd.Recv != nil {
					d.isMethod = true
					d.key = dir + "." + receiverName(fd.Recv.List[0].Type) + "." + fd.Name.Name
				}
				decls = append(decls, d)
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				if x, ok := n.X.(*ast.Ident); ok {
					if p, ok := imports[x.Name]; ok {
						qualified[p+"."+n.Sel.Name] = true
						return false
					}
				}
				selected[n.Sel.Name] = true
			case *ast.Ident:
				if !declared[n] {
					local[dir+"."+n.Name] = true
				}
			}
			return true
		})
	})

	known := map[string]bool{}
	var unused []string
	for _, d := range decls {
		known[d.key] = true
		used := qualified[d.dir+"."+d.name] || local[d.dir+"."+d.name]
		if d.isMethod {
			used = selected[d.name]
		}
		_, allowed := apiAllowlist[d.key]
		switch {
		case !used && !allowed:
			unused = append(unused, d.pos.Filename+":"+strconv.Itoa(d.pos.Line)+" "+d.key)
		case used && allowed:
			t.Errorf("allowlist entry %s has a non-test caller now; drop the entry", d.key)
		}
	}
	sort.Strings(unused)
	for _, u := range unused {
		t.Errorf("exported but called only from tests (delete it, or allowlist it with a reason): %s", u)
	}
	for key := range apiAllowlist {
		if !known[key] {
			t.Errorf("allowlist entry %s names no exported function or method", key)
		}
	}
}

// configAllowlist names the exported fields of config structs under
// internal/ that stay although no non-test code sets them, each with its
// reason. A key is "<dir>.<Type>.<Field>".
var configAllowlist = map[string]string{}

// TestNoTestOnlyConfigFields fails when an exported field of an exported
// *Config, *Options or *Spec struct under internal/ is set only from
// tests, and is not on configAllowlist. A field counts as set when non-test
// code in cmd/, examples/, internal/ or benchmark/ names it as a
// composite-literal key, assigns to it, or takes its address (as a
// Sscanf target). The check is by name, from the parsed source, like
// TestNoUnusedExportedAPI's. It also fails on an allowlist entry that
// names no such field or whose field non-test code now sets.
func TestNoTestOnlyConfigFields(t *testing.T) {
	fset := token.NewFileSet()
	type field struct {
		key, name string
		pos       token.Position
	}
	var fields []field
	set := map[string]bool{} // field names non-test code sets
	markSet := func(e ast.Expr) {
		if sel, ok := e.(*ast.SelectorExpr); ok {
			set[sel.Sel.Name] = true
		}
	}
	walkNonTestGo(t, fset, func(dir string, f *ast.File) {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.TypeSpec:
				st, ok := n.Type.(*ast.StructType)
				name := n.Name.Name
				if !ok || !strings.HasPrefix(dir, "internal/") || !n.Name.IsExported() ||
					!(strings.HasSuffix(name, "Config") || strings.HasSuffix(name, "Options") || strings.HasSuffix(name, "Spec")) {
					return true
				}
				for _, fl := range st.Fields.List {
					for _, id := range fl.Names {
						if id.IsExported() {
							fields = append(fields, field{key: dir + "." + name + "." + id.Name, name: id.Name, pos: fset.Position(id.Pos())})
						}
					}
				}
			case *ast.CompositeLit:
				for _, elt := range n.Elts {
					if kv, ok := elt.(*ast.KeyValueExpr); ok {
						if id, ok := kv.Key.(*ast.Ident); ok {
							set[id.Name] = true
						}
					}
				}
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					markSet(lhs)
				}
			case *ast.IncDecStmt:
				markSet(n.X)
			case *ast.UnaryExpr:
				if n.Op == token.AND {
					markSet(n.X)
				}
			}
			return true
		})
	})

	known := map[string]bool{}
	var unset []string
	for _, fl := range fields {
		known[fl.key] = true
		_, allowed := configAllowlist[fl.key]
		switch {
		case !set[fl.name] && !allowed:
			unset = append(unset, fl.pos.Filename+":"+strconv.Itoa(fl.pos.Line)+" "+fl.key)
		case set[fl.name] && allowed:
			t.Errorf("allowlist entry %s is set by non-test code now; drop the entry", fl.key)
		}
	}
	sort.Strings(unset)
	for _, u := range unset {
		t.Errorf("config field set only from tests (delete it, or allowlist it with a reason): %s", u)
	}
	for key := range configAllowlist {
		if !known[key] {
			t.Errorf("allowlist entry %s names no exported config field", key)
		}
	}
}

// walkNonTestGo parses every non-test Go file under cmd/, examples/,
// internal/ and benchmark/, and hands it to fn with its slash-separated
// directory.
func walkNonTestGo(t *testing.T, fset *token.FileSet, fn func(dir string, f *ast.File)) {
	t.Helper()
	for _, top := range []string{"cmd", "examples", "internal", "benchmark"} {
		err := filepath.WalkDir(top, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() && d.Name() == "testdata" {
				return filepath.SkipDir
			}
			if d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return nil
			}
			f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			fn(filepath.ToSlash(filepath.Dir(path)), f)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

// receiverName returns the type name of a method receiver, without the
// pointer or type parameters.
func receiverName(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return "?"
		}
	}
}
