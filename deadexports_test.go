package simdstudy

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
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
	"internal/cv.Ops.RGBToGray":   "the paper's vld3 color conversion: BenchmarkHostRGBToGray and the golden tests run it",
	"internal/image.SyntheticRGB": "the RGBToGray input: its golden, benchmark and cv tests synthesize their color planes with it",

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

// declNode is one top-level declaration: a function, method, type, or one
// name of a var/const spec.
type declNode struct {
	dir, file string // package directory and file, slash-separated, root-relative
	name      string // declared identifier
	method    string // method name, or "" for a non-method
	root      bool   // always live: a binary, example or benchmark, init, blank assertion
	pos       token.Position
	refs      []string // keys of same-tree declarations it names
	sels      []string // selector names not qualified by an import (method calls)
}

// declGraph is a syntactic reference graph of a source tree's non-test Go
// files and the root package's example tests. Resolution is by name only,
// with no type checking: an identifier names its own package's
// declaration of that name, pkg.Name names the imported package's, and
// x.M names every method called M.
type declGraph struct {
	nodes map[string]*declNode // keyed "dir.Name" or "dir.Type.Method"
}

// srcFile is one parsed file of a srcTree.
type srcFile struct {
	dir, file string // package directory and file, slash-separated, root-relative
	f         *ast.File
	example   bool // a root-package example*_test.go file
}

// srcTree holds the parsed files of a source tree: every non-test Go file
// (nested modules included, testdata and dot-directories excluded) and the
// root package's example*_test.go files, which are the facade's users.
type srcTree struct {
	fset     *token.FileSet
	module   string            // import-path prefix of the root
	files    []srcFile         // in walk order
	pkgNames map[string]string // package directory -> package name
}

// parseTree parses the tree under root; module is its import-path prefix.
func parseTree(root, module string) (*srcTree, error) {
	t := &srcTree{fset: token.NewFileSet(), module: module, pkgNames: map[string]string{}}
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
		example := filepath.Dir(p) == filepath.Clean(root) && strings.HasPrefix(name, "example") && strings.HasSuffix(name, "_test.go")
		if !strings.HasSuffix(name, ".go") || (strings.HasSuffix(name, "_test.go") && !example) {
			return nil
		}
		f, err := parser.ParseFile(t.fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, p)
		if err != nil {
			return err
		}
		rel = filepath.ToSlash(rel)
		t.files = append(t.files, srcFile{path.Dir(rel), rel, f, example})
		if !example {
			t.pkgNames[path.Dir(rel)] = f.Name.Name
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return t, nil
}

// imports maps a file's local package names to the tree's package
// directories; imports from outside the tree are left out.
func (t *srcTree) imports(f *ast.File) map[string]string {
	imports := map[string]string{}
	for _, im := range f.Imports {
		ipath, _ := strconv.Unquote(im.Path.Value)
		dir, ok := strings.CutPrefix(ipath, t.module+"/")
		if ipath == t.module {
			dir, ok = ".", true
		}
		if !ok {
			continue
		}
		local := t.pkgNames[dir]
		if im.Name != nil {
			local = im.Name.Name
		}
		imports[local] = dir
	}
	return imports
}

// scanDecls parses the tree under root into a declGraph. Declarations in
// binaries, examples, the benchmark module and the root example tests are
// roots; those under internal/ and the root package's own (the api.go
// facade) are live only if a root reaches them.
func scanDecls(root, module string) (*declGraph, error) {
	t, err := parseTree(root, module)
	if err != nil {
		return nil, err
	}
	g := &declGraph{nodes: map[string]*declNode{}}
	for _, pf := range t.files {
		imports := t.imports(pf.f)
		dir := pf.dir
		if pf.example {
			dir += "_test" // the external test package, apart from the facade
		}
		add := func(id *ast.Ident, key, method string, body ast.Node) {
			n := &declNode{dir: dir, file: pf.file, name: id.Name, method: method, pos: t.fset.Position(id.Pos())}
			n.root = pf.example || stdMethods[method] || !(strings.HasPrefix(dir, "internal/") || dir == ".")
			if (id.Name == "init" && method == "") || id.Name == "_" {
				n.root = true
				key += "@" + n.pos.String() // several per package
			}
			n.collect(body, dir, imports)
			g.nodes[key] = n
		}
		for _, decl := range pf.f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil {
					add(d.Name, dir+"."+d.Name.Name, "", d)
				} else if recv := recvName(d.Recv.List[0].Type); recv != "" {
					add(d.Name, dir+"."+recv+"."+d.Name.Name, d.Name.Name, d)
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						add(s.Name, dir+"."+s.Name.Name, "", s)
					case *ast.ValueSpec:
						for _, id := range s.Names {
							add(id, dir+"."+id.Name, "", s)
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

// live marks every declaration reachable from the roots (binaries,
// examples, the benchmark module, the root example tests, init functions,
// blank-named assertions and standard-interface methods) plus the extra
// roots given.
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

// check returns the unexempted internal/ and facade exports that no root
// reaches and the allowlist entries that exempt nothing.
func (g *declGraph) check(allow map[string]string) (dead, stale []string) {
	// Only internal/ and facade declarations are not roots, so only they
	// can fall outside a live set. An entry exempts something
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

// TestDeadFacadeExportReported: in a synthetic tree, a facade export that
// only a plain test uses is dead, and so is the internal export that only
// it reached; what an example test uses stays live.
func TestDeadFacadeExportReported(t *testing.T) {
	dir := t.TempDir()
	files := map[string]string{
		"api.go": "package m\n\nimport \"m/internal/p\"\n\n" +
			"func Used() int { return p.Live() }\n\nfunc Unused() int { return p.OnlyFacade() }\n",
		"api_test.go":          "package m\n\nimport \"testing\"\n\nfunc TestUnused(t *testing.T) { Unused() }\n",
		"example_used_test.go": "package m_test\n\nimport \"m\"\n\nfunc ExampleUsed() { m.Used() }\n",
		"internal/p/p.go":      "package p\n\nfunc Live() int { return 1 }\n\nfunc OnlyFacade() int { return 2 }\n",
	}
	writeTree(t, dir, files)
	g, err := scanDecls(dir, "m")
	if err != nil {
		t.Fatal(err)
	}
	dead, stale := g.check(nil)
	want := []string{"..Unused (api.go:7)", "internal/p.OnlyFacade (internal/p/p.go:5)"}
	if strings.Join(dead, ",") != strings.Join(want, ",") || len(stale) != 0 {
		t.Errorf("dead = %v, stale = %v; want dead = %v", dead, stale, want)
	}
}

// configFieldAllowlist names the exported fields of internal/ config types
// ("dir.Type.Field") that no non-test code sets, each with the reason it
// stays. An entry that exempts nothing fails the census.
var configFieldAllowlist = map[string]string{
	"internal/resilience.BreakerConfig.Clock":        "breaker, cv and serve tests inject a manual clock to expire cooldowns deterministically",
	"internal/par.Config.MinRowsPerBand":             "parallel bit-exactness tests band tiny images with one row per band",
	"internal/harness.CampaignConfig.Burst":          "campaign, checkpoint and audit tests run shorter or longer bursts than the paper's 5 images",
	"internal/harness.CampaignConfig.Policy":         "campaign tests disable retries and the kill-switch so every detection falls back",
	"internal/harness.CampaignConfig.Sites":          "TestFaultCampaignSiteRestriction confines a campaign to store sites",
	"internal/harness.CampaignConfig.Kinds":          "TestFaultCampaignSiteRestriction confines a campaign to bit flips",
	"internal/integrity.ScoreboardConfig.Threshold":  "cv audit tests trip the scoreboard at a low threshold within a few audits",
	"internal/integrity.ScoreboardConfig.MinSamples": "scoreboard tests trip a pair with no minimum or after a short warm-up",
}

// configType reports whether an exported type name declares a knob set:
// a *Config, *Policy or *Options struct.
func configType(name string) bool {
	return ast.IsExported(name) && (strings.HasSuffix(name, "Config") ||
		strings.HasSuffix(name, "Policy") || strings.HasSuffix(name, "Options"))
}

// unsetConfigFields returns the exported fields of the config structs
// declared under internal/ that no non-test code sets, keyed
// "dir.Type.Field". A composite-literal key sets its literal's field,
// resolved through type aliases (api.go's, cv.ParallelConfig). An
// assignment x.F = v sets every config field named F, since resolving x's
// type needs a type checker; only an assignment through the receiver of the
// type's own normalized method, and a literal of the type inside it, does
// not count. The same holds for the type's exported Normalized.
func (t *srcTree) unsetConfigFields() map[string]token.Position {
	fields := map[string]token.Position{} // "dir.Type.Field"
	byName := map[string][]string{}       // field name -> "dir.Type.Field" keys
	alias := map[string]string{}          // "dir.Alias" -> "pkgdir.Type"
	resolve := func(e ast.Expr, dir string, imports map[string]string) string {
		if s, ok := e.(*ast.StarExpr); ok {
			e = s.X
		}
		key := ""
		switch x := e.(type) {
		case *ast.Ident:
			key = dir + "." + x.Name
		case *ast.SelectorExpr:
			if id, ok := x.X.(*ast.Ident); ok && imports[id.Name] != "" {
				key = imports[id.Name] + "." + x.Sel.Name
			}
		}
		for alias[key] != "" {
			key = alias[key]
		}
		return key
	}
	for _, pf := range t.files {
		if pf.example {
			continue
		}
		imports := t.imports(pf.f)
		for _, decl := range pf.f.Decls {
			d, ok := decl.(*ast.GenDecl)
			if !ok {
				continue
			}
			for _, spec := range d.Specs {
				s, ok := spec.(*ast.TypeSpec)
				if !ok {
					continue
				}
				if s.Assign != 0 {
					if target := resolve(s.Type, pf.dir, imports); target != "" {
						alias[pf.dir+"."+s.Name.Name] = target
					}
					continue
				}
				st, ok := s.Type.(*ast.StructType)
				if !ok || !configType(s.Name.Name) || !strings.HasPrefix(pf.dir, "internal/") {
					continue
				}
				for _, f := range st.Fields.List {
					for _, id := range f.Names {
						if id.IsExported() {
							key := pf.dir + "." + s.Name.Name + "." + id.Name
							fields[key] = t.fset.Position(id.Pos())
							byName[id.Name] = append(byName[id.Name], key)
						}
					}
				}
			}
		}
	}

	set := map[string]bool{}
	for _, pf := range t.files {
		if pf.example {
			continue
		}
		imports := t.imports(pf.f)
		for _, decl := range pf.f.Decls {
			own, recv := "", "" // the normalized method's type and receiver
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Recv != nil && strings.EqualFold(fd.Name.Name, "normalized") {
				r := fd.Recv.List[0]
				own = resolve(r.Type, pf.dir, imports)
				if len(r.Names) > 0 {
					recv = r.Names[0].Name
				}
			}
			ast.Inspect(decl, func(n ast.Node) bool {
				switch x := n.(type) {
				case *ast.CompositeLit:
					if x.Type == nil {
						return true
					}
					typ := resolve(x.Type, pf.dir, imports)
					if typ == own {
						return true
					}
					for _, elt := range x.Elts {
						if kv, ok := elt.(*ast.KeyValueExpr); ok {
							if id, ok := kv.Key.(*ast.Ident); ok {
								set[typ+"."+id.Name] = true
							}
						}
					}
				case *ast.AssignStmt:
					for _, lhs := range x.Lhs {
						sel, ok := lhs.(*ast.SelectorExpr)
						if !ok {
							continue
						}
						if id, ok := sel.X.(*ast.Ident); ok && own != "" && id.Name == recv {
							continue
						}
						for _, key := range byName[sel.Sel.Name] {
							set[key] = true
						}
					}
				}
				return true
			})
		}
	}
	for key := range set {
		delete(fields, key)
	}
	return fields
}

// TestNoUnsetConfigFields fails on an exported field of an exported
// *Config, *Policy or *Options struct under internal/ that no binary,
// example, benchmark or facade code sets, unless configFieldAllowlist
// exempts it, and on allowlist entries that exempt nothing. A field only
// its defaults and tests touch is a knob no program turns: delete it and
// keep its default as a constant, rather than grow the list.
func TestNoUnsetConfigFields(t *testing.T) {
	tree, err := parseTree(".", "simdstudy")
	if err != nil {
		t.Fatal(err)
	}
	unset := tree.unsetConfigFields()
	var keys []string
	for key := range unset {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	for _, key := range keys {
		if configFieldAllowlist[key] == "" {
			p := unset[key]
			t.Errorf("config field no program sets: %s (%s:%d)", key, p.Filename, p.Line)
		}
	}
	for key := range configFieldAllowlist {
		if _, ok := unset[key]; !ok {
			t.Errorf("config-field allowlist entry exempts nothing, remove it: %s", key)
		}
	}
}

// writeTree writes a synthetic source tree of slash-separated file names.
func writeTree(t *testing.T, dir string, files map[string]string) {
	t.Helper()
	for name, src := range files {
		p := filepath.Join(dir, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestConfigCensusSynthetic: in a synthetic tree, a field set by a binary
// through a facade alias, or by assignment, is set; one that only its
// type's normalized method or a test sets is not.
func TestConfigCensusSynthetic(t *testing.T) {
	dir := t.TempDir()
	writeTree(t, dir, map[string]string{
		"api.go": "package m\n\nimport \"m/internal/p\"\n\ntype Opts = p.RunConfig\n",
		"internal/p/p.go": "package p\n\ntype RunConfig struct {\n\tKeyed, Assigned, Defaulted, TestOnly int\n}\n\n" +
			"func (c RunConfig) normalized() RunConfig {\n\tc.Defaulted = 1\n\treturn c\n}\n",
		"internal/p/p_test.go": "package p\n\nvar _ = RunConfig{TestOnly: 1}\n",
		"cmd/run/main.go":      "package main\n\nimport \"m\"\n\nfunc main() {\n\to := m.Opts{Keyed: 1}\n\to.Assigned = 2\n\t_ = o\n}\n",
	})
	tree, err := parseTree(dir, "m")
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for key := range tree.unsetConfigFields() {
		got = append(got, key)
	}
	sort.Strings(got)
	want := "internal/p.RunConfig.Defaulted,internal/p.RunConfig.TestOnly"
	if strings.Join(got, ",") != want {
		t.Errorf("unset = %v, want %s", got, want)
	}
}
