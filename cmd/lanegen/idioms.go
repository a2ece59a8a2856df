package main

import (
	"go/ast"
	"go/token"
	"reflect"
)

// The SSE2 idiom rules. SSE2 spells two things NEON has one instruction
// for, and the plain twins run them as the one lane form:
//
//	s := u.SraiEpi16(v, 15)                  // |v| with MinInt16 saturating
//	... u.SubsEpi16(u.XorSi128(v, s), s) ...  // (vqabs.s16): vec.AbsSatI16(v)
//
//	m := u.CmpgtEpi16(a, b)                  // every lane 0 or -1, which
//	... u.PacksEpi16(m, m) ...                // packsswb keeps: vec.NarrowU16(m)
//
// psraw by 15 is each lane's sign mask; xor with it complements a negative
// lane and psubsw of the mask adds one back, saturating only at MinInt16,
// which is vqabs. A compare's lanes are 0 or -1, inside int8, so packing
// them saturates nothing and is the truncating narrow. The statements must
// be adjacent; the first rule also needs v a variable and s read nowhere
// else, since it drops s's statement. Intrinsics are matched by their lane
// forms (laneForm), as the other rules match them.

// The lane forms the idiom rules match.
const (
	sarForm   = "return vec.SarI16($0, $1)"
	subsForm  = "return vec.SubSatI16($0, $1)"
	xorForm   = "return vec.Xor($0, $1)"
	packsForm = "return vec.Combine(vec.SatI8I16($0), vec.SatI8I16($1))"
)

// maskForms are the lane forms whose every int16 lane is 0 or -1.
var maskForms = map[string]bool{
	"return vec.GtI16($0, $1)": true,
	"return vec.GtI16($1, $0)": true,
	"return vec.EqU16($0, $1)": true,
}

// rewriteIdioms applies the idiom rules to every statement list under
// body.
func (lp *lanePkg) rewriteIdioms(body *ast.BlockStmt) {
	walkFields(reflect.ValueOf(body), func(v reflect.Value) {
		if v.Type() != stmtsType {
			return
		}
		list := v.Interface().([]ast.Stmt)
		var out []ast.Stmt
		for i, st := range list {
			if i+1 < len(list) {
				lp.maskPack(st, list[i+1])
				if lp.absIdiom(st, list[i+1], list[i+2:]) {
					continue
				}
			}
			out = append(out, st)
		}
		v.Set(reflect.ValueOf(out))
	})
}

// defined matches `x := call` or `x = call` of an intrinsic, returning
// x, the call, the intrinsic's lane form and the assignment's token.
func (lp *lanePkg) defined(st ast.Stmt) (*ast.Ident, *ast.CallExpr, string, token.Token) {
	as, ok := st.(*ast.AssignStmt)
	if !ok || len(as.Lhs) != 1 || len(as.Rhs) != 1 || as.Tok != token.DEFINE && as.Tok != token.ASSIGN {
		return nil, nil, "", token.ILLEGAL
	}
	id, _ := as.Lhs[0].(*ast.Ident)
	call, _ := as.Rhs[0].(*ast.CallExpr)
	if id == nil || call == nil {
		return nil, nil, "", token.ILLEGAL
	}
	return id, call, lp.laneForm(intrinsic(call)), as.Tok
}

// absIdiom rewrites, in second, the sign-mask absolute value whose mask
// first defines, and reports whether first can go: nothing but the
// rewritten call read the mask.
func (lp *lanePkg) absIdiom(first, second ast.Stmt, rest []ast.Stmt) bool {
	s, sar, form, tok := lp.defined(first)
	if form != sarForm || tok != token.DEFINE || len(sar.Args) != 2 {
		return false
	}
	v, ok := sar.Args[0].(*ast.Ident)
	if n, lit := intLit(sar.Args[1]); !ok || !lit || n != 15 {
		return false
	}
	var abs *ast.CallExpr
	ast.Inspect(second, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || abs != nil || lp.laneForm(intrinsic(call)) != subsForm || !isIdent(call.Args[1], s.Name) {
			return abs == nil
		}
		x, ok := call.Args[0].(*ast.CallExpr)
		if ok && lp.laneForm(intrinsic(x)) == xorForm &&
			(isIdent(x.Args[0], v.Name) && isIdent(x.Args[1], s.Name) || isIdent(x.Args[0], s.Name) && isIdent(x.Args[1], v.Name)) {
			abs = call
		}
		return abs == nil
	})
	if abs == nil {
		return false
	}
	saved := *abs
	abs.Fun, abs.Args = vecFn("AbsSatI16"), []ast.Expr{v}
	for _, st := range append([]ast.Stmt{second}, rest...) {
		if uses(st)[s.Name] {
			*abs = saved
			return false
		}
	}
	return true
}

// maskPack rewrites, in second, each pack of the mask first defines with
// itself.
func (lp *lanePkg) maskPack(first, second ast.Stmt) {
	m, _, form, _ := lp.defined(first)
	if !maskForms[form] {
		return
	}
	ast.Inspect(second, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok && lp.laneForm(intrinsic(call)) == packsForm &&
			isIdent(call.Args[0], m.Name) && isIdent(call.Args[1], m.Name) {
			narrow := &ast.CallExpr{Fun: vecFn("NarrowU16"), Args: []ast.Expr{ast.NewIdent(m.Name)}}
			call.Fun, call.Args = vecFn("Combine"), []ast.Expr{narrow, copyNode(narrow).(ast.Expr)}
		}
		return true
	})
}

// vecFn is vec.name.
func vecFn(name string) ast.Expr {
	return &ast.SelectorExpr{X: ast.NewIdent("vec"), Sel: ast.NewIdent(name)}
}
