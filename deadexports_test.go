package simdstudy

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// deadExportAllowlist names the exported internal/ identifiers that may go
// without a live non-test reference, each with the reason it stays. A key
// is a directory or file (every export declared under it is exempt),
// "dir.Name" for a function, type, variable or constant, or
// "dir.Type.Method" for a method. An entry that exempts nothing fails the
// guardrail, so the list cannot outlive the code it excuses.
var deadExportAllowlist = map[string]string{
	// The intrinsic surface: api.go re-exports these packages so custom
	// kernels can be written against them, and the paper's instruction
	// tables cover every intrinsic whether or not a shipped kernel issues it.
	"internal/neon": "NEON intrinsic surface for custom kernels",
	"internal/sse2": "SSE2 intrinsic surface for custom kernels",
	"internal/vec":  "vector register model under the intrinsic surface",
	"internal/sat":  "saturating-arithmetic helpers under the intrinsic surface",
	// The IR interpreter is the referee the internal/kernels tests run every
	// benchmark loop against; no binary needs it.
	"internal/exec/exec.go": "IR semantic referee for the internal/kernels tests",

	// Paper artifacts.
	"internal/cv.Ops.RGBToGray": "the paper's vld3 color conversion: BenchmarkHostRGBToGray and the golden tests run it",

	// Cross-package tests.
	"internal/cv.Ops.GradientMagnitude": "internal/kernels tests check the IR magnitude loop against it",
	"internal/ir.Builder.ConstFloat":    "vectorizer tests cost a float-select loop; the IR's only float-literal constructor",
	"internal/obs.Snapshot.Filter":      "harness resume tests compare the replay-stable fault_* families of two runs",
	"internal/trace.Counter.Opcode":     "cv and neon tests pin per-mnemonic instruction counts",
	"internal/trace.Counter.RecordN":    "trace and bench/simdperf tests record synthetic counts",

	// Test seams.
	"internal/obs.Registry.SetClock":     "obs and obs/tsdb tests pin timestamps",
	"internal/super.Supervisor.SetClock": "super tests pin quarantine timestamps",
	"internal/vectorizer.ResetCache":     "vectorizer cache tests start from a cold decision cache",
}

// stdMethods satisfy standard-library interfaces (error, fmt.Stringer,
// errors.Unwrap): the standard library makes the call, so no selector in
// the tree shows it. Add a name here when an internal type first
// implements another such interface.
var stdMethods = map[string]bool{"Error": true, "String": true, "Unwrap": true}

// declNode is one top-level declaration of a non-test file: a function,
// method, type, or one name of a var/const spec.
type declNode struct {
	dir, file string // package directory and file, slash-separated, root-relative
	name      string // declared identifier
	method    string // method name, or "" for a non-method
	root      bool   // always live: outside internal/, init, blank assertion
	pos       token.Position
	refs      []string // keys of same-tree declarations it names
	sels      []string // selector names not qualified by an import (method calls)
}

// declGraph is a syntactic reference graph of a source tree's non-test Go
// files. Resolution is by name only, with no type checking: an identifier
// names its own package's declaration of that name, pkg.Name names the
// imported package's, and x.M names every method called M.
type declGraph struct {
	nodes map[string]*declNode // keyed "dir.Name" or "dir.Type.Method"
}

// scanDecls parses every non-test Go file under root (nested modules
// included, testdata and dot-directories excluded) into a declGraph.
// module is the import-path prefix of root.
func scanDecls(root, module string) (*declGraph, error) {
	type parsed struct {
		dir, file string
		f         *ast.File
	}
	fset := token.NewFileSet()
	var files []parsed
	pkgNames := map[string]string{}
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if p != root && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, p)
		if err != nil {
			return err
		}
		rel = filepath.ToSlash(rel)
		files = append(files, parsed{path.Dir(rel), rel, f})
		pkgNames[path.Dir(rel)] = f.Name.Name
		return nil
	})
	if err != nil {
		return nil, err
	}

	g := &declGraph{nodes: map[string]*declNode{}}
	for _, pf := range files {
		imports := map[string]string{} // local name -> package dir
		for _, im := range pf.f.Imports {
			ipath, _ := strconv.Unquote(im.Path.Value)
			dir, ok := strings.CutPrefix(ipath, module+"/")
			if !ok {
				continue
			}
			local := pkgNames[dir]
			if im.Name != nil {
				local = im.Name.Name
			}
			imports[local] = dir
		}
		add := func(id *ast.Ident, key, method string, body ast.Node) {
			n := &declNode{dir: pf.dir, file: pf.file, name: id.Name, method: method, pos: fset.Position(id.Pos())}
			n.root = !strings.HasPrefix(pf.dir, "internal/") || stdMethods[method]
			if (id.Name == "init" && method == "") || id.Name == "_" {
				n.root = true
				key += "@" + n.pos.String() // several per package
			}
			n.collect(body, pf.dir, imports)
			g.nodes[key] = n
		}
		for _, decl := range pf.f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil {
					add(d.Name, pf.dir+"."+d.Name.Name, "", d)
				} else if recv := recvName(d.Recv.List[0].Type); recv != "" {
					add(d.Name, pf.dir+"."+recv+"."+d.Name.Name, d.Name.Name, d)
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						add(s.Name, pf.dir+"."+s.Name.Name, "", s)
					case *ast.ValueSpec:
						for _, id := range s.Names {
							add(id, pf.dir+"."+id.Name, "", s)
						}
					}
				}
			}
		}
	}
	return g, nil
}

// recvName returns the receiver's base type name: T for T, *T, T[P].
func recvName(e ast.Expr) string {
	for {
		switch r := e.(type) {
		case *ast.StarExpr:
			e = r.X
		case *ast.IndexExpr:
			e = r.X
		case *ast.IndexListExpr:
			e = r.X
		case *ast.Ident:
			return r.Name
		default:
			return ""
		}
	}
}

// collect records what the syntax under root refers to.
func (n *declNode) collect(root ast.Node, dir string, imports map[string]string) {
	var visit func(ast.Node) bool
	visit = func(x ast.Node) bool {
		switch x := x.(type) {
		case *ast.SelectorExpr:
			if id, ok := x.X.(*ast.Ident); ok {
				if pkg, ok := imports[id.Name]; ok {
					n.refs = append(n.refs, pkg+"."+x.Sel.Name)
					return false
				}
			}
			n.sels = append(n.sels, x.Sel.Name)
			ast.Inspect(x.X, visit)
			return false
		case *ast.Field:
			// Field, parameter and result names declare; only types refer.
			if x.Type != nil {
				ast.Inspect(x.Type, visit)
			}
			return false
		case *ast.Ident:
			n.refs = append(n.refs, dir+"."+x.Name)
		}
		return true
	}
	ast.Inspect(root, visit)
}

// allowKey returns the allowlist entry covering the declaration, or "".
func allowKey(allow map[string]string, key string, n *declNode) string {
	if allow[key] != "" {
		return key
	}
	for p := n.file; p != "."; p = path.Dir(p) {
		if allow[p] != "" {
			return p
		}
	}
	return ""
}

// live marks every declaration reachable from the roots: all declarations
// outside internal/ (binaries, examples, the benchmark, the root package),
// init functions, blank-named assertions and standard-interface methods,
// plus the extra roots given.
func (g *declGraph) live(extra func(key string, n *declNode) bool) map[string]bool {
	byMethod := map[string][]string{}
	for key, n := range g.nodes {
		if n.method != "" {
			byMethod[n.method] = append(byMethod[n.method], key)
		}
	}
	seen := map[string]bool{}
	var queue []string
	mark := func(key string) {
		if _, ok := g.nodes[key]; ok && !seen[key] {
			seen[key] = true
			queue = append(queue, key)
		}
	}
	for key, n := range g.nodes {
		if n.root || extra(key, n) {
			mark(key)
		}
	}
	calledMethods := map[string]bool{}
	for len(queue) > 0 {
		n := g.nodes[queue[0]]
		queue = queue[1:]
		for _, r := range n.refs {
			mark(r)
		}
		for _, m := range n.sels {
			if !calledMethods[m] {
				calledMethods[m] = true
				for _, key := range byMethod[m] {
					mark(key)
				}
			}
		}
	}
	return seen
}

// check returns the unexempted internal/ exports that no root reaches and
// the allowlist entries that exempt nothing.
func (g *declGraph) check(allow map[string]string) (dead, stale []string) {
	// Everything outside internal/ is a root, so only internal/
	// declarations can fall outside a live set. An entry exempts something
	// when a declaration under it is alive only because of the allowlist.
	base := g.live(func(string, *declNode) bool { return false })
	exempting := map[string]bool{}
	for key, n := range g.nodes {
		if !base[key] && ast.IsExported(n.name) {
			if a := allowKey(allow, key, n); a != "" {
				exempting[a] = true
			}
		}
	}
	full := g.live(func(key string, n *declNode) bool { return allowKey(allow, key, n) != "" })
	for key, n := range g.nodes {
		if !full[key] && ast.IsExported(n.name) {
			dead = append(dead, key+" ("+n.file+":"+strconv.Itoa(n.pos.Line)+")")
		}
	}
	for key := range allow {
		if !exempting[key] {
			stale = append(stale, key)
		}
	}
	sort.Strings(dead)
	sort.Strings(stale)
	return dead, stale
}

// TestNoDeadInternalExports fails when an exported identifier under
// internal/ is reachable only from tests, or from nothing, unless the
// allowlist above exempts it, and when an allowlist entry has gone stale.
// Reachability starts at the binaries, examples, the benchmark module and
// the root package, so code kept alive only by other dead code is dead
// too. Delete or unexport such an identifier rather than grow the list: an
// entry must name the test seam, cross-package test or paper artifact that
// needs it.
func TestNoDeadInternalExports(t *testing.T) {
	g, err := scanDecls(".", "simdstudy")
	if err != nil {
		t.Fatal(err)
	}
	dead, stale := g.check(deadExportAllowlist)
	for _, d := range dead {
		t.Errorf("exported identifier has no live non-test reference: %s", d)
	}
	for _, s := range stale {
		t.Errorf("allowlist entry exempts nothing, remove it: %s", s)
	}
}

// TestDeadExportAllowlistStale: an entry naming a live identifier, a
// missing one, or a package with nothing to exempt is reported stale, and
// dropping an entry exposes what it exempted.
func TestDeadExportAllowlistStale(t *testing.T) {
	g, err := scanDecls(".", "simdstudy")
	if err != nil {
		t.Fatal(err)
	}
	allow := map[string]string{}
	for k, v := range deadExportAllowlist {
		allow[k] = v
	}
	allow["internal/trace.Intern"] = "live: the neon and sse2 op tables intern their mnemonics"
	allow["internal/trace.NoSuchIdentifier"] = "never declared"
	allow["internal/platform"] = "every export is live"
	delete(allow, "internal/exec/exec.go")
	dead, stale := g.check(allow)
	want := []string{"internal/platform", "internal/trace.Intern", "internal/trace.NoSuchIdentifier"}
	if strings.Join(stale, ",") != strings.Join(want, ",") {
		t.Errorf("stale = %v, want %v", stale, want)
	}
	var execRun bool
	for _, d := range dead {
		execRun = execRun || strings.HasPrefix(d, "internal/exec.Run ")
	}
	if !execRun {
		t.Errorf("without its entry, exec.Run should be dead; dead = %v", dead)
	}
}
