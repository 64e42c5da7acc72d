package lint

import (
	"go/ast"
	"go/token"
)

// Seqlock enforces the odd-before/even-after stamp discipline on fields
// annotated //repro:seqlock: the stats histogram shards and the trace ring
// slots both bracket their updates between two stamp writes (odd while the
// protected fields are torn, even once they are stable), and their readers
// prove snapshot consistency from exactly that bracket. A writer that returns mid-bracket, writes the
// stamp an odd number of times on some path, or hides one stamp write
// inside a conditional silently breaks every reader's correctness
// argument without any test necessarily failing.
//
// Mechanically: within any function, statement-level writes to an
// annotated stamp field (x.stamp.Add(...) / x.stamp.Store(...)) must come
// in pairs inside one block — the first write of a pair opens the bracket,
// the second closes it — no return, break, continue, goto, or fallthrough
// may appear while a bracket is open (statements between the writes may
// contain loops; a loop-local break is fine because it stays inside the
// bracket), and a stamp write may not appear in a nested block or in
// non-statement position, where path-sensitivity would be lost. Reads
// (Load) are unconstrained — reader validation loops are the point of the
// idiom. The analyzer checks bracket shape, not that the odd write
// actually precedes the protected stores: which fields a stamp protects
// is not declared, so that remains the writer's contract.
var Seqlock = &Analyzer{
	Name: "seqlock",
	Doc:  "//repro:seqlock stamp fields must be written in odd/even bracket pairs on every path",
	Run:  runSeqlock,
}

func runSeqlock(pass *Pass) {
	for _, f := range pass.Pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			c := &seqlockChecker{pass: pass}
			c.block(fd.Body.List)
			if c.open {
				pass.Reportf(c.openPos, "seqlock stamp bracket opened here is never closed in %s", fd.Name.Name)
			}
		}
	}
}

type seqlockChecker struct {
	pass    *Pass
	open    bool
	openPos token.Pos
}

// stampWriteCall returns the call if n is a statement-level write
// (Add/Store/Swap/CompareAndSwap) to an annotated stamp field.
func (c *seqlockChecker) stampWriteCall(n ast.Node) *ast.CallExpr {
	es, ok := n.(*ast.ExprStmt)
	if !ok {
		return nil
	}
	call, ok := es.X.(*ast.CallExpr)
	if !ok {
		return nil
	}
	if c.isStampWriteExpr(call) {
		return call
	}
	return nil
}

// isStampWriteExpr reports whether call writes an annotated stamp field.
func (c *seqlockChecker) isStampWriteExpr(call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	switch sel.Sel.Name {
	case "Add", "Store", "Swap", "CompareAndSwap":
	default:
		return false
	}
	inner, ok := ast.Unparen(sel.X).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	fld := fieldOfSelector(c.pass.Pkg.Info, inner)
	return fld != nil && c.pass.Index.DeclHas(fld.Pos(), KindSeqlock)
}

// block checks one statement list. Brackets must open and close within a
// single block; while open, nested statements are scanned for escapes.
func (c *seqlockChecker) block(stmts []ast.Stmt) {
	for _, s := range stmts {
		if call := c.stampWriteCall(s); call != nil {
			if c.open {
				c.open = false
			} else {
				c.open = true
				c.openPos = call.Pos()
			}
			continue
		}
		if c.open {
			c.scanOpen(s)
			continue
		}
		c.nested(s)
	}
	if c.open {
		c.pass.Reportf(c.openPos, "seqlock stamp bracket is still open at the end of its block (odd number of stamp writes on this path)")
		c.open = false
	}
}

// scanOpen inspects a statement executed while a bracket is open: any
// return or function-exiting branch inside it escapes the bracket.
func (c *seqlockChecker) scanOpen(s ast.Stmt) {
	ast.Inspect(s, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.ReturnStmt:
			c.pass.Reportf(x.Pos(), "return inside an open seqlock stamp bracket (opened at %s)", c.pass.Pkg.Fset.Position(c.openPos))
		case *ast.BranchStmt:
			if x.Tok == token.GOTO {
				c.pass.Reportf(x.Pos(), "goto inside an open seqlock stamp bracket (opened at %s)", c.pass.Pkg.Fset.Position(c.openPos))
			}
		case *ast.CallExpr:
			if c.isStampWriteExpr(x) {
				c.pass.Reportf(x.Pos(), "seqlock stamp write nested inside another statement while a bracket is open (path-dependent parity)")
			}
		}
		return true
	})
}

// nested recurses into compound statements so brackets inside branches and
// loops are checked within their own blocks, and catches stamp writes in
// positions where the bracket discipline cannot be verified.
func (c *seqlockChecker) nested(s ast.Stmt) {
	switch x := s.(type) {
	case *ast.BlockStmt:
		c.checkSubBlock(x.List)
	case *ast.IfStmt:
		c.checkSubBlock(x.Body.List)
		if x.Else != nil {
			c.nested(x.Else)
		}
	case *ast.ForStmt:
		c.checkSubBlock(x.Body.List)
	case *ast.RangeStmt:
		c.checkSubBlock(x.Body.List)
	case *ast.SwitchStmt:
		for _, cl := range x.Body.List {
			c.checkSubBlock(cl.(*ast.CaseClause).Body)
		}
	case *ast.TypeSwitchStmt:
		for _, cl := range x.Body.List {
			c.checkSubBlock(cl.(*ast.CaseClause).Body)
		}
	case *ast.SelectStmt:
		for _, cl := range x.Body.List {
			c.checkSubBlock(cl.(*ast.CommClause).Body)
		}
	case *ast.LabeledStmt:
		c.nested(x.Stmt)
	default:
		// Leaf statement outside any bracket: a stamp write hiding in an
		// expression here (an if condition, an assignment's rhs) is
		// unauditable; statement-position writes were consumed by block.
		ast.Inspect(s, func(n ast.Node) bool {
			if _, ok := n.(*ast.FuncLit); ok {
				return false
			}
			if call, ok := n.(*ast.CallExpr); ok && c.isStampWriteExpr(call) {
				c.pass.Reportf(call.Pos(), "seqlock stamp write in non-statement position (bracket discipline cannot be checked)")
			}
			return true
		})
	}
}

// checkSubBlock runs a fresh bracket check over a nested block: brackets
// may not span block boundaries, so the sub-block must balance on its own.
func (c *seqlockChecker) checkSubBlock(stmts []ast.Stmt) {
	sub := &seqlockChecker{pass: c.pass}
	sub.block(stmts)
}
