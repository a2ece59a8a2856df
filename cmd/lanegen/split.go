package main

import (
	"go/ast"
	"go/token"
	"go/types"
	"reflect"
	"strconv"
)

// The split tap-chain rule. The SSE2 Gaussian's vector loop widens eight
// bytes against zero, multiplies them by each tap, sums, adds a rounding
// half, shifts and packs:
//
//	v := u.UnpackloEpi8(X0, Z)
//	acc := u.MulloEpi16(v, T[i0])
//	for k := i; k < j; k++ {
//		v = u.UnpackloEpi8(Xk, Z)
//		acc = u.AddEpi16(acc, u.MulloEpi16(v, T[k]))
//	}
//	r := u.SrliEpi16(u.AddEpi16(acc, H), N)
//	u.StorelEpi64U8(Q, u.PackusEpi16(r, r))
//
// followed by intrinsic calls that do not read v, acc or r. When no lane
// can carry or saturate, the chain runs on split registers (Lo the even
// bytes' lanes, Hi the odd ones'): one mask per word to widen, one
// multiply and one plain add per word and tap, a mask and a shift to pack
// (vec's Split* helpers); the per-lane shift runs unchanged. So a plain
// twin runs such a loop as `if vec.SplitFits(Z, T[:], H, N) { split copy }
// else { the loop }`: Z zero, every tap a 16-bit broadcast below 2^8, H a
// broadcast, 255·ΣT + H below 2^16 and that bound shifted by N below 2^8.
// The test reads the whole tap array, a superset of the taps used (i0 < i).
//
// The rule is narrow: the intrinsics are matched by their lane forms
// (laneForm); Z, H and T must be fields of a value parameter the body never
// assigns, declares anew, takes the address of or calls a method on; i0, i,
// j and N integer constants; X0, Xk and Q may not read v, acc or r, take an
// address or hold a closure. Any other shape, such as NEON's vmull/vmlal
// chain, is left as it is.

// The lane forms (laneForm) the chain's intrinsics must have.
const (
	widenForm = "return vec.InterleaveLoU8($0, $1)"
	mulForm   = "return vec.MulLoU16($0, $1)"
	addForm   = "return vec.AddU16($0, $1)"
	shiftForm = "if $1 > 15 { return vec.V128{} } return vec.ShrU16($0, $1)"
	packForm  = "return packus($0, $1)"
	storeForm = "vec.StoreV64($0, $1.Low())"
)

// splitArgs is how many leading arguments of the intrinsic call each vec
// helper of a split chain takes.
var splitArgs = map[string]int{"SplitU8": 1, "SplitMulU16": 2, "SplitAddU16": 2, "SplitPackU8": 1}

// tapChain is one vector loop the rule matched: the intrinsic calls the
// split copy replaces, each with the vec helper replacing it, and the row
// test's operands.
type tapChain struct {
	calls   map[*ast.CallExpr]string
	z, h, n ast.Expr
	taps    ast.Expr // the tap array T
}

// splitChains replaces every vector loop in tw's body that tapChain
// matches with the row test choosing between a split copy of the loop and
// the loop itself.
func (lp *lanePkg) splitChains(tw *ast.FuncDecl, consts map[string]bool) {
	fixed := fixedOperands(tw)
	walkFields(reflect.ValueOf(tw.Body), func(v reflect.Value) {
		if v.Type() != stmtsType {
			return
		}
		list := v.Interface().([]ast.Stmt)
		for i, st := range list {
			loop, ok := st.(*ast.ForStmt)
			if !ok {
				continue
			}
			if _, ok := lp.tapChain(loop, fixed, consts); ok {
				list[i] = lp.guardedSplit(loop, fixed, consts)
			}
		}
	})
}

// guardedSplit returns `if vec.SplitFits(...) { split copy } else { loop }`
// for a loop tapChain matched.
func (lp *lanePkg) guardedSplit(loop *ast.ForStmt, fixed func(ast.Expr) bool, consts map[string]bool) ast.Stmt {
	cp := copyNode(loop).(*ast.ForStmt)
	ch, _ := lp.tapChain(cp, fixed, consts)
	rewriteExprs(cp.Body, func(e ast.Expr) ast.Expr {
		call, ok := e.(*ast.CallExpr)
		if !ok || ch.calls[call] == "" {
			return e
		}
		name := ch.calls[call]
		return vecCall(name, call.Args[:splitArgs[name]]...)
	})
	test := vecCall("SplitFits", copyNode(ch.z).(ast.Expr), &ast.SliceExpr{X: copyNode(ch.taps).(ast.Expr)},
		copyNode(ch.h).(ast.Expr), copyNode(ch.n).(ast.Expr))
	return &ast.IfStmt{Cond: test, Body: &ast.BlockStmt{List: []ast.Stmt{cp}}, Else: &ast.BlockStmt{List: []ast.Stmt{loop}}}
}

func vecCall(name string, args ...ast.Expr) *ast.CallExpr {
	return &ast.CallExpr{Fun: &ast.SelectorExpr{X: ast.NewIdent("vec"), Sel: ast.NewIdent(name)}, Args: args}
}

// tapChain matches the body of loop against the rule's shape.
func (lp *lanePkg) tapChain(loop *ast.ForStmt, fixed func(ast.Expr) bool, consts map[string]bool) (*tapChain, bool) {
	body := loop.Body.List
	if len(body) < 5 {
		return nil, false
	}
	// v := widen(X0, Z); acc := mul(v, T[i0])
	v, w0, ok := lp.assignOp(body[0], token.DEFINE, widenForm)
	if !ok {
		return nil, false
	}
	acc, m0, ok := lp.assignOp(body[1], token.DEFINE, mulForm)
	if !ok || !isIdent(m0.Args[0], v) {
		return nil, false
	}
	t0, ok := m0.Args[1].(*ast.IndexExpr)
	if !ok {
		return nil, false
	}
	i0, ok := intLit(t0.Index)
	ch := &tapChain{calls: map[*ast.CallExpr]string{}, z: w0.Args[1], taps: t0.X}
	// for k := i; k < j; k++ { v = widen(Xk, Z); acc = add(acc, mul(v, T[k])) }
	inner, isFor := body[2].(*ast.ForStmt)
	if !ok || !isFor || len(inner.Body.List) != 2 {
		return nil, false
	}
	k, i, ok := tapLoop(inner, consts)
	if !ok || i <= i0 {
		return nil, false
	}
	vk, w1, ok := lp.assignOp(inner.Body.List[0], token.ASSIGN, widenForm)
	if !ok || vk != v || intrinsic(w1) != intrinsic(w0) || types.ExprString(w1.Args[1]) != types.ExprString(ch.z) {
		return nil, false
	}
	acck, a1, ok := lp.assignOp(inner.Body.List[1], token.ASSIGN, addForm)
	if !ok || acck != acc || !isIdent(a1.Args[0], acc) {
		return nil, false
	}
	m1, ok := lp.op(a1.Args[1], mulForm)
	if !ok || intrinsic(m1) != intrinsic(m0) || !isIdent(m1.Args[0], v) {
		return nil, false
	}
	tk, ok := m1.Args[1].(*ast.IndexExpr)
	if !ok || !isIdent(tk.Index, k) || types.ExprString(tk.X) != types.ExprString(ch.taps) {
		return nil, false
	}
	// r := shift(add(acc, H), N); store(Q, pack(r, r))
	r, sh, ok := lp.assignOp(body[3], token.DEFINE, shiftForm)
	if !ok {
		return nil, false
	}
	a2, ok := lp.op(sh.Args[0], addForm)
	if !ok || !isIdent(a2.Args[0], acc) {
		return nil, false
	}
	ch.h, ch.n = a2.Args[1], sh.Args[1]
	es, ok := body[4].(*ast.ExprStmt)
	if !ok {
		return nil, false
	}
	st, ok := lp.op(es.X, storeForm)
	if !ok {
		return nil, false
	}
	pk, ok := lp.op(st.Args[1], packForm)
	if !ok || !isIdent(pk.Args[0], r) || !isIdent(pk.Args[1], r) {
		return nil, false
	}
	// What else the loop runs or reads must not see a split register, and
	// the row test's operands must hold for the whole loop.
	chain := []string{v, acc, r}
	for _, st := range body[5:] {
		es, ok := st.(*ast.ExprStmt)
		if !ok {
			return nil, false
		}
		if call, ok := es.X.(*ast.CallExpr); !ok || intrinsic(call) == "" || !inert(call, chain...) {
			return nil, false
		}
	}
	if !inert(w0.Args[0], chain...) || !inert(w1.Args[0], chain...) || !inert(st.Args[0], chain...) {
		return nil, false
	}
	if !fixed(ch.z) || !fixed(ch.h) || !fixed(ch.taps) || !constant(ch.n, consts) {
		return nil, false
	}
	for call, name := range map[*ast.CallExpr]string{w0: "SplitU8", w1: "SplitU8", m0: "SplitMulU16", m1: "SplitMulU16",
		a1: "SplitAddU16", a2: "SplitAddU16", pk: "SplitPackU8"} {
		ch.calls[call] = name
	}
	return ch, true
}

// assignOp matches `name := op(...)` (tok DEFINE) or `name = op(...)`
// (ASSIGN) where op is an intrinsic whose lane form is form.
func (lp *lanePkg) assignOp(st ast.Stmt, tok token.Token, form string) (string, *ast.CallExpr, bool) {
	as, ok := st.(*ast.AssignStmt)
	if !ok || as.Tok != tok || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
		return "", nil, false
	}
	id, ok := as.Lhs[0].(*ast.Ident)
	if !ok {
		return "", nil, false
	}
	call, ok := lp.op(as.Rhs[0], form)
	return id.Name, call, ok
}

// op matches a call of an intrinsic on u whose lane form is form.
func (lp *lanePkg) op(e ast.Expr, form string) (*ast.CallExpr, bool) {
	call, ok := e.(*ast.CallExpr)
	if !ok || intrinsic(call) == "" || lp.laneForm(intrinsic(call)) != form {
		return nil, false
	}
	return call, true
}

// tapLoop matches the header `for k := i; k < j; k++` with integer
// constants i and j and returns k and i.
func tapLoop(loop *ast.ForStmt, consts map[string]bool) (string, int64, bool) {
	init, ok := loop.Init.(*ast.AssignStmt)
	if !ok || init.Tok != token.DEFINE || len(init.Lhs) != 1 || len(init.Rhs) != 1 {
		return "", 0, false
	}
	k, ok := init.Lhs[0].(*ast.Ident)
	if !ok {
		return "", 0, false
	}
	i, ok := intLit(init.Rhs[0])
	cond, isBin := loop.Cond.(*ast.BinaryExpr)
	post, isInc := loop.Post.(*ast.IncDecStmt)
	if !ok || !isBin || cond.Op != token.LSS || !isIdent(cond.X, k.Name) || !constant(cond.Y, consts) ||
		!isInc || post.Tok != token.INC || !isIdent(post.X, k.Name) {
		return "", 0, false
	}
	return k.Name, i, true
}

func isIdent(e ast.Expr, name string) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == name
}

// intLit reads an integer literal.
func intLit(e ast.Expr) (int64, bool) {
	lit, ok := e.(*ast.BasicLit)
	if !ok || lit.Kind != token.INT {
		return 0, false
	}
	v, err := strconv.ParseInt(lit.Value, 0, 64)
	return v, err == nil
}

// constant reports whether e is an integer literal or a constant declared
// at the top level of cv.
func constant(e ast.Expr, consts map[string]bool) bool {
	if _, ok := intLit(e); ok {
		return true
	}
	id, ok := e.(*ast.Ident)
	return ok && consts[id.Name]
}

// constNames returns the names of p's top-level constants.
func constNames(p *pkg) map[string]bool {
	names := map[string]bool{}
	for _, f := range p.files {
		for _, d := range f.Decls {
			if gd, ok := d.(*ast.GenDecl); ok && gd.Tok == token.CONST {
				for _, sp := range gd.Specs {
					for _, id := range sp.(*ast.ValueSpec).Names {
						names[id.Name] = true
					}
				}
			}
		}
	}
	return names
}

// inert reports whether e reads none of names, takes no address and holds
// no closure.
func inert(e ast.Expr, names ...string) bool {
	ok := true
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			ok = false
		case *ast.UnaryExpr:
			ok = ok && n.Op != token.AND
		case *ast.Ident:
			for _, name := range names {
				ok = ok && n.Name != name
			}
		}
		return ok
	})
	return ok
}

// fixedOperands returns a test for operands no statement of fn can change:
// a value parameter of fn, or a field path of one, that fn never assigns,
// declares anew, takes the address of or calls a method on.
func fixedOperands(fn *ast.FuncDecl) func(ast.Expr) bool {
	params := map[string]bool{}
	for _, f := range fn.Type.Params.List {
		if _, ptr := f.Type.(*ast.StarExpr); !ptr {
			for _, id := range f.Names {
				params[id.Name] = true
			}
		}
	}
	touched := map[string]bool{}
	touch := func(e ast.Expr) {
		if _, id := pathOf(e); id != nil {
			touched[id.Name] = true
		}
	}
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		for _, l := range lhs(n) {
			touch(l)
		}
		switch n := n.(type) {
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				touch(n.X)
			}
		case *ast.CallExpr:
			if sel, ok := n.Fun.(*ast.SelectorExpr); ok {
				touch(sel.X)
			}
		case *ast.Field:
			for _, id := range n.Names {
				touched[id.Name] = true // a closure's parameter or result
			}
		}
		return true
	})
	return func(e ast.Expr) bool {
		for {
			sel, ok := e.(*ast.SelectorExpr)
			if !ok {
				break
			}
			e = sel.X
		}
		id, ok := e.(*ast.Ident)
		return ok && params[id.Name] && !touched[id.Name]
	}
}
