package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"maps"
	"strconv"
	"strings"
)

// A skeleton is a body cut down to the loops, ifs and switches that count,
// the statements their headers read and, in place of each intrinsic call,
// increments of one local per op ID the call records, added to the unit's
// bound count array on every exit. What a call of a named closure or of a
// helper body counts is what the callee's straight-line statements count.

// skeletonSuffix names a body's skeleton.
const skeletonSuffix = "Skeleton"

// inc is n counts of op ID id.
type inc struct {
	id string
	n  uint64
}

// vars is a set of variables and field paths ("a", "a.w"); a path covers
// the paths under it.
type vars map[string]bool

// skeleton cuts one body.
type skeleton struct {
	cv      *pkg
	lp      *lanePkg
	body    string
	callees map[string][]inc // a helper's or named closure's counts per call
	sets    map[string]vars  // what a named closure assigns
	locals  vars             // the locals; nX counts op ID opX
	need    vars             // what the kept statements and headers read
	loops   int              // how many loops enclose what is cut now
	errs    []error
}

// newSkeleton starts cutting b, whose calls of helper bodies count what
// helpers says.
func newSkeleton(cv *pkg, b *body, lp *lanePkg, helpers map[string][]inc) *skeleton {
	return &skeleton{cv: cv, lp: lp, body: b.decl.Name.Name, callees: maps.Clone(helpers),
		sets: map[string]vars{}, locals: vars{}, need: vars{}}
}

func (s *skeleton) bad(n ast.Node, format string, args ...any) {
	err := fmt.Errorf("%s: %s has no lane twin: %s", s.cv.fset.Position(n.Pos()), s.body, fmt.Sprintf(format, args...))
	for _, e := range s.errs {
		if e.Error() == err.Error() {
			return
		}
	}
	s.errs = append(s.errs, err)
}

// build returns b's skeleton, or nil with s.errs set. It drops what
// follows the body's last count, which counts nothing, then cuts fresh
// copies of the rest until what the kept statements read stops growing.
func (s *skeleton) build(b *body) *ast.FuncDecl {
	fd := b.decl
	s.prepare(fd.Body)
	all, _ := s.counts(fd.Body)
	for _, c := range all {
		s.locals["n"+strings.TrimPrefix(c.id, "op")] = true
	}
	ast.Inspect(fd, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && (s.locals[id.Name] || id.Name == tallyName || strings.HasPrefix(id.Name, "trips")) {
			s.bad(id, "its skeleton needs the name %s, which the body uses", id.Name)
		}
		return true
	})
	body := &ast.BlockStmt{List: fd.Body.List}
	for n := len(body.List); n > 0 && !s.counting(body.List[n-1]); n-- {
		body.List = body.List[:n-1]
	}
	var list []ast.Stmt
	for n := -1; n < len(s.need); {
		n = len(s.need)
		list = s.cut(copyNode(body).(*ast.BlockStmt).List)
	}
	if n := len(list); n > 0 && isReturn(list[n-1]) {
		list = list[:n-1]
	} else {
		list = append(list, s.flush()...)
	}
	if len(s.errs) > 0 {
		return nil
	}
	var names []*ast.Ident
	for _, name := range sortedKeys(s.locals) {
		names = append(names, ast.NewIdent(name))
	}
	if len(names) > 0 {
		counts := &ast.SelectorExpr{X: &ast.SelectorExpr{X: ast.NewIdent(b.ops), Sel: ast.NewIdent(b.unit)}, Sel: ast.NewIdent("Counts")}
		list = append([]ast.Stmt{
			&ast.DeclStmt{Decl: &ast.GenDecl{Tok: token.VAR, Specs: []ast.Spec{&ast.ValueSpec{Names: names, Type: ast.NewIdent("uint64")}}}},
			&ast.AssignStmt{Lhs: []ast.Expr{ast.NewIdent(tallyName)}, Tok: token.DEFINE, Rhs: []ast.Expr{&ast.CallExpr{Fun: counts}}},
		}, list...)
	}
	sk := &ast.FuncDecl{Recv: fd.Recv, Name: ast.NewIdent(fd.Name.Name + skeletonSuffix), Type: copyNode(fd.Type).(*ast.FuncType), Body: &ast.BlockStmt{List: list}}
	sk.Type.Results = nil
	return sk
}

// prepare records what each named closure (name := func...) under body
// counts and assigns, inner closures first. It refuses a panic, an exit no
// flush follows, and a count in any other closure, which may run any
// number of times, or after the flush.
func (s *skeleton) prepare(body ast.Node) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			lit, ok := n.Rhs[0].(*ast.FuncLit)
			if id, named := n.Lhs[0].(*ast.Ident); ok && named && len(n.Lhs) == 1 && n.Tok == token.DEFINE {
				s.prepare(lit.Body)
				s.callees[id.Name], s.sets[id.Name] = s.straight(id.Name, lit.Body.List), s.assigned(lit.Body)
				return false
			}
		case *ast.FuncLit:
			if _, m := s.counts(n.Body); m != "" {
				s.bad(n, "its skeleton cannot count the call of %s there", m)
			}
		case *ast.CallExpr:
			if id, ok := n.Fun.(*ast.Ident); ok && id.Name == "panic" {
				s.bad(n, "it panics, an exit its skeleton cannot flush on")
			}
		}
		return true
	})
}

// straight returns what one run of a closure's or a helper's statements
// counts, refusing a count under control.
func (s *skeleton) straight(name string, list []ast.Stmt) []inc {
	var incs []inc
	for _, st := range list {
		switch st.(type) {
		case *ast.AssignStmt, *ast.IncDecStmt, *ast.DeclStmt, *ast.ExprStmt, *ast.ReturnStmt:
			c, _ := s.counts(st)
			incs = append(incs, c...)
		default:
			if s.counting(st) {
				s.bad(st, "its skeleton cannot count a call of %s: it counts under control", name)
			}
		}
	}
	return incs
}

// counts returns what one run of n counts outside closures, and the first
// intrinsic or callee that counts ("" for none). It refuses a count in the
// right operand of && or ||, which may not run.
func (s *skeleton) counts(n ast.Node) ([]inc, string) {
	var incs []inc
	first := ""
	ast.Inspect(n, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.BinaryExpr:
			if _, m := s.counts(n.Y); m != "" && (n.Op == token.LAND || n.Op == token.LOR) {
				s.bad(n.Y, "its skeleton cannot count the call of %s there", m)
			}
		case *ast.CallExpr:
			m, c := intrinsic(n), s.callees[calleeName(n)]
			if m != "" {
				c = s.increments(n, m)
			} else if len(c) > 0 {
				m = calleeName(n)
			}
			if first == "" {
				first = m
			}
			incs = append(incs, c...)
		}
		return true
	})
	return incs, first
}

// increments returns what one call of intrinsic m counts.
func (s *skeleton) increments(call *ast.CallExpr, m string) []inc {
	var incs []inc
	for _, k := range s.lp.counts[m] {
		lit := k.lit
		if k.param >= 0 {
			arg, ok := call.Args[k.param].(*ast.BasicLit)
			if !ok || arg.Kind != token.INT {
				s.bad(call, "it passes %s a count that is not an integer constant", m)
				continue
			}
			lit = arg.Value
		}
		if v, err := strconv.ParseUint(lit, 0, 64); err != nil {
			s.bad(call, "%s counts %s: %v", m, lit, err)
		} else if v > 0 {
			incs = append(incs, inc{k.id, v})
		}
	}
	return incs
}

// counting reports whether n counts or holds a return or a branch.
func (s *skeleton) counting(n ast.Node) bool {
	_, m := s.counts(n)
	ast.Inspect(n, func(n ast.Node) bool {
		switch n.(type) {
		case *ast.ReturnStmt, *ast.BranchStmt:
			m = "exit"
		}
		return m == ""
	})
	return m != ""
}

// control keeps a loop, if or switch that counts or assigns what is
// needed, adding what its header reads to s.need. It refuses a count in
// the header, which a skeleton keeps without the lane values it reads.
func (s *skeleton) control(st ast.Stmt, init ast.Stmt, header ...ast.Node) bool {
	read := uses(init)
	for _, n := range header {
		if n == nil {
			continue
		}
		if _, m := s.counts(n); m != "" {
			s.bad(n, "a loop bound, condition or switch tag reads the result of %s", m)
		}
		maps.Copy(read, uses(n))
	}
	if !s.counting(st) && !overlaps(s.assigned(st), s.need) {
		return false
	}
	if as, ok := init.(*ast.AssignStmt); ok && as.Tok == token.DEFINE {
		for _, l := range as.Lhs {
			delete(read, l.(*ast.Ident).Name) // declared for the statement alone
		}
	}
	maps.Copy(s.need, read)
	return true
}

// cut returns what the skeleton keeps of list, each run of increments
// before the next statement kept, and adds what it keeps reads to s.need.
func (s *skeleton) cut(list []ast.Stmt) []ast.Stmt {
	var out []ast.Stmt
	var pending []inc
	for _, st := range list {
		switch st := st.(type) {
		case *ast.AssignStmt, *ast.IncDecStmt, *ast.DeclStmt, *ast.ExprStmt:
			incs, m := s.counts(st)
			if !overlaps(s.assigned(st), s.need) {
				pending = append(pending, incs...)
				continue
			}
			s.keep(st, m)
		case *ast.ReturnStmt:
			incs, _ := s.counts(st)
			out, pending = append(append(out, s.emit(append(pending, incs...))...), s.flush()...), nil
			st.Results = nil
		case *ast.ForStmt:
			if !s.control(st, st.Init, st.Cond, st.Post) {
				continue
			}
			s.loops++
			st.Body.List = s.cut(st.Body.List)
			s.loops--
			if h := s.hoist(st, "trips"+strconv.Itoa(s.loops)); h != nil {
				out, pending = append(append(out, s.emit(pending)...), h), nil
				continue
			}
		case *ast.IfStmt:
			if !s.control(st, st.Init, st.Cond) {
				continue
			}
			if st.Body.List = s.cut(st.Body.List); st.Else != nil {
				s.bad(st.Else, "its skeleton cannot follow an else")
			}
		case *ast.SwitchStmt:
			header := []ast.Node{st.Tag}
			for _, c := range st.Body.List {
				header = append(header, &ast.CompositeLit{Elts: c.(*ast.CaseClause).List})
			}
			if !s.control(st, st.Init, header...) {
				continue
			}
			for _, c := range st.Body.List {
				c.(*ast.CaseClause).Body = s.cut(c.(*ast.CaseClause).Body)
			}
		default:
			if s.counting(st) || overlaps(s.assigned(st), s.need) {
				s.bad(st, "its skeleton cannot follow the statement")
			}
			continue
		}
		out, pending = append(append(out, s.emit(pending)...), st), nil
	}
	return append(out, s.emit(pending)...)
}

// hoist returns a loop whose cut body counts alike on every trip in
// closed form: the body once, its increments scaled by the trip count
// (named trips), behind a test that the loop runs at all, with the loop
// variable left where the loop leaves it. The header must read
// [v := e]; C; v++ (or v += s), where C is v[+c] < R (or <=) or a
// conjunction (&&) of such bounds, and the body neither read v nor keep a
// statement. The loop stops at the first bound it reaches, so a
// conjunction runs the fewest trips of its parts: their distances to go
// are taken at their min. Any other loop gets nil.
func (s *skeleton) hoist(loop *ast.ForStmt, trips string) ast.Stmt {
	v, step := "", "1"
	switch post := loop.Post.(type) {
	case *ast.IncDecStmt:
		if id, ok := post.X.(*ast.Ident); ok && post.Tok == token.INC {
			v = id.Name
		}
	case *ast.AssignStmt:
		id, ok := post.Lhs[0].(*ast.Ident)
		if lit, isLit := post.Rhs[0].(*ast.BasicLit); ok && isLit && lit.Kind == token.INT && post.Tok == token.ADD_ASSIGN {
			v, step = id.Name, lit.Value
		}
	}
	conds := conjuncts(loop.Cond)
	// A kept statement assigns what the skeleton needs; the counts and
	// the trip counts of inner loops it does not.
	if v == "" || conds == nil || s.counting(loop.Body) || uses(loop.Body)[v] || overlaps(s.assigned(loop.Body), s.need) {
		return nil
	}
	var init ast.Expr // where v starts, if the header sets it
	if as, ok := loop.Init.(*ast.AssignStmt); ok && len(as.Lhs) == 1 && isIdent(as.Lhs[0], v) {
		init = as.Rhs[0]
	} else if loop.Init != nil {
		return nil
	}
	var togo []string // each bound's distance to go, as source
	for _, cond := range conds {
		if cond.Op != token.LSS && cond.Op != token.LEQ {
			return nil
		}
		from := cond.X // v or v + c
		if sum, ok := from.(*ast.BinaryExpr); ok && sum.Op == token.ADD && !uses(sum.Y)[v] {
			from = sum.X
		}
		if !isIdent(from, v) || uses(cond.Y)[v] {
			return nil
		}
		first := cond.X // where the left side starts
		if init != nil {
			first = init
			if sum, ok := cond.X.(*ast.BinaryExpr); ok && sum.Op == token.ADD {
				first = &ast.BinaryExpr{X: first, Op: token.ADD, Y: sum.Y}
			}
		}
		start := types.ExprString(first)
		if _, sum := first.(*ast.BinaryExpr); sum {
			start = "(" + start + ")"
		}
		bound := types.ExprString(cond.Y)
		if cond.Op == token.LSS {
			bound += " - 1"
		}
		togo = append(togo, bound+" - "+start)
	}
	diff, count := togo[0], trips+"++"
	if len(togo) > 1 {
		diff = "min(" + strings.Join(togo, ", ") + ")"
	}
	if step != "1" {
		count = fmt.Sprintf("%[1]s = %[1]s/%[2]s + 1", trips, step)
	}
	text := fmt.Sprintf("if %[1]s := %[2]s; %[1]s >= 0 {\n%[3]s\n", trips, diff, count)
	switch {
	case loop.Init != nil:
	case step == "1":
		text += fmt.Sprintf("%s += %s\n", v, trips)
	default:
		text += fmt.Sprintf("%s += %s * %s\n", v, trips, step)
	}
	f, err := parser.ParseFile(token.NewFileSet(), "", "package p\nfunc _() {\n"+text+"}\n}\n", parser.SkipObjectResolution)
	if err != nil {
		s.bad(loop, "its skeleton cannot count the trips of the loop: %v", err)
		return nil
	}
	ifs := f.Decls[0].(*ast.FuncDecl).Body.List[0].(*ast.IfStmt)
	n := &ast.CallExpr{Fun: ast.NewIdent("uint64"), Args: []ast.Expr{ast.NewIdent(trips)}}
	rewriteStmts(loop.Body, func(st ast.Stmt) []ast.Stmt {
		if inc, ok := st.(*ast.IncDecStmt); ok && s.locals[types.ExprString(inc.X)] {
			return []ast.Stmt{&ast.AssignStmt{Lhs: []ast.Expr{inc.X}, Tok: token.ADD_ASSIGN, Rhs: []ast.Expr{n}}}
		}
		if as, ok := st.(*ast.AssignStmt); ok && as.Tok == token.ADD_ASSIGN && s.locals[types.ExprString(as.Lhs[0])] {
			as.Rhs[0] = &ast.BinaryExpr{X: as.Rhs[0], Op: token.MUL, Y: n}
		}
		return []ast.Stmt{st}
	})
	ifs.Body.List = append(ifs.Body.List, loop.Body.List...)
	return ifs
}

// keep checks a plain statement the skeleton keeps, which must count and
// store nothing, adds what it reads to s.need, and drops the names it
// declares that nothing needs.
func (s *skeleton) keep(st ast.Stmt, m string) {
	if m != "" {
		s.bad(st, "a loop bound, condition or switch tag reads the result of %s", m)
	}
	ast.Inspect(st, func(n ast.Node) bool {
		_, bad := n.(*ast.FuncLit)
		for _, l := range lhs(n) {
			_, id := l.(*ast.Ident)
			bad = bad || !id
		}
		if bad {
			s.bad(st, "its skeleton would keep a store or closure its control reads")
		}
		return !bad
	})
	if as, ok := st.(*ast.AssignStmt); ok && as.Tok == token.DEFINE && len(as.Lhs) == len(as.Rhs) {
		l, r := as.Lhs[:0:0], as.Rhs[:0:0]
		for i, id := range as.Lhs {
			if overlaps(vars{id.(*ast.Ident).Name: true}, s.need) {
				l, r = append(l, id), append(r, as.Rhs[i])
			}
		}
		as.Lhs, as.Rhs = l, r
	}
	maps.Copy(s.need, uses(st))
}

// emit returns the increments of incs, one statement per op ID.
func (s *skeleton) emit(incs []inc) []ast.Stmt {
	sum := map[string]uint64{}
	for _, c := range incs {
		sum["n"+strings.TrimPrefix(c.id, "op")] += c.n
	}
	var out []ast.Stmt
	for _, local := range sortedKeys(sum) {
		if sum[local] == 1 {
			out = append(out, &ast.IncDecStmt{X: ast.NewIdent(local), Tok: token.INC})
			continue
		}
		n := &ast.BasicLit{Kind: token.INT, Value: strconv.FormatUint(sum[local], 10)}
		out = append(out, &ast.AssignStmt{Lhs: []ast.Expr{ast.NewIdent(local)}, Tok: token.ADD_ASSIGN, Rhs: []ast.Expr{n}})
	}
	return out
}

// flush adds every local to its entry of the count array.
func (s *skeleton) flush() []ast.Stmt {
	var out []ast.Stmt
	for _, local := range sortedKeys(s.locals) {
		id := &ast.SelectorExpr{X: ast.NewIdent(s.lp.name), Sel: ast.NewIdent("Op" + local[1:])}
		out = append(out, &ast.AssignStmt{Lhs: []ast.Expr{&ast.IndexExpr{X: ast.NewIdent(tallyName), Index: id}},
			Tok: token.ADD_ASSIGN, Rhs: []ast.Expr{ast.NewIdent(local)}})
	}
	return out
}

// conjuncts returns the comparisons a condition joins with &&, nil when
// any part is something else.
func conjuncts(e ast.Expr) []*ast.BinaryExpr {
	b, ok := e.(*ast.BinaryExpr)
	if !ok {
		return nil
	}
	if b.Op != token.LAND {
		return []*ast.BinaryExpr{b}
	}
	x, y := conjuncts(b.X), conjuncts(b.Y)
	if x == nil || y == nil {
		return nil
	}
	return append(x, y...)
}

// lhs returns what an assignment, increment, range or declaration n
// assigns.
func lhs(n ast.Node) []ast.Expr {
	switch n := n.(type) {
	case *ast.AssignStmt:
		return n.Lhs
	case *ast.IncDecStmt:
		return []ast.Expr{n.X}
	case *ast.RangeStmt:
		return []ast.Expr{n.Key, n.Value}
	case *ast.ValueSpec:
		var ids []ast.Expr
		for _, id := range n.Names {
			ids = append(ids, id)
		}
		return ids
	}
	return nil
}

// assigned returns the paths n assigns, wholly or in part, itself or
// through the named closures it calls.
func (s *skeleton) assigned(n ast.Node) vars {
	out := vars{}
	ast.Inspect(n, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			maps.Copy(out, s.sets[calleeName(call)])
		}
		for _, l := range lhs(n) {
			if p, _ := pathOf(l); p != "" {
				out[p] = true
			}
		}
		return true
	})
	return out
}

// uses returns the paths n names: a selector chain as one path, any other
// identifier but a field name. What a statement assigns is among them,
// which adds nothing to a skeleton's needs: it keeps the statement only
// when that is needed already.
func uses(n ast.Node) vars {
	out, skip := vars{}, map[*ast.Ident]bool{}
	if n == nil {
		return out
	}
	ast.Inspect(n, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SelectorExpr:
			skip[n.Sel] = true
			if p, root := pathOf(n); p != "" && !skip[root] {
				out[p], skip[root] = true, true
			}
		case *ast.Ident:
			if !skip[n] {
				out[n.Name] = true
			}
		}
		return true
	})
	return out
}

// pathOf returns the variable or field path e names, indexes, slices or
// dereferences ("a.wv" for a.wv[3]), and the variable it starts from.
func pathOf(e ast.Expr) (string, *ast.Ident) {
	switch x := e.(type) {
	case *ast.Ident:
		return x.Name, x
	case *ast.SelectorExpr:
		if p, root := pathOf(x.X); p != "" {
			return p + "." + x.Sel.Name, root
		}
	case *ast.IndexExpr:
		return pathOf(x.X)
	case *ast.SliceExpr:
		return pathOf(x.X)
	case *ast.StarExpr:
		return pathOf(x.X)
	case *ast.ParenExpr:
		return pathOf(x.X)
	}
	return "", nil
}

// overlaps reports whether a path of a is one of b's or lies under it, or
// the other way round.
func overlaps(a, b vars) bool {
	for p := range a {
		for q := range b {
			if p == q || strings.HasPrefix(p, q+".") || strings.HasPrefix(q, p+".") {
				return true
			}
		}
	}
	return false
}
