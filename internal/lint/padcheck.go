package lint

import (
	"go/ast"
	"go/types"
)

// PadCheck verifies the cache-line padding convention: a type annotated
// //repro:padded must have a go/types.Sizes-computed size that is a
// multiple of 64 bytes, so that adjacent elements of a per-worker shard
// array can never share a cache line. A struct field may carry the same
// annotation; for slice, array, and pointer fields the *element* type is
// checked (the field declares "this is a shard array"), for plain struct
// fields the field's own type.
//
// The analyzer proves sizes, not placement: Go does not guarantee that an
// allocation starts on a cache-line boundary, so a 64-byte-multiple stride
// guarantees at most one false-sharing neighbor pair per array, which is
// the documented convention (see internal/stats/histogram.go). Generic types
// cannot be sized at their declaration and are rejected — annotate a
// concrete instantiation or the enclosing field instead.
var PadCheck = &Analyzer{
	Name: "padcheck",
	Doc:  "//repro:padded types and shard-array fields must be sized to 64-byte multiples",
	Run:  runPadCheck,
}

const cacheLine = 64

func runPadCheck(pass *Pass) {
	info := pass.Pkg.Info
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch d := n.(type) {
			case *ast.TypeSpec:
				if pass.Index.DeclHas(d.Name.Pos(), KindPadded) {
					if obj := info.Defs[d.Name]; obj != nil {
						checkPadded(pass, d.Name, obj.Type(), false)
					}
				}
			case *ast.StructType:
				for _, fld := range d.Fields.List {
					for _, name := range fld.Names {
						if pass.Index.DeclHas(name.Pos(), KindPadded) {
							if obj := info.Defs[name]; obj != nil {
								checkPadded(pass, name, obj.Type(), true)
							}
						}
					}
				}
			}
			return true
		})
	}
}

// checkPadded verifies one annotated declaration. For fields, container
// types (slice/array/pointer) check their element type.
func checkPadded(pass *Pass, name *ast.Ident, t types.Type, isField bool) {
	if t == nil {
		return
	}
	target := t
	what := "type"
	if isField {
		what = "field type"
		switch u := t.Underlying().(type) {
		case *types.Slice:
			target, what = u.Elem(), "shard element type"
		case *types.Array:
			target, what = u.Elem(), "shard element type"
		case *types.Pointer:
			target, what = u.Elem(), "pointed-to type"
		}
	}
	if hasTypeParam(target, nil) {
		pass.Reportf(name.Pos(),
			"//repro:padded cannot verify generic type %s (no concrete size); annotate a concrete instantiation or field", types.TypeString(target, nil))
		return
	}
	size := pass.Pkg.Sizes.Sizeof(target)
	if size%cacheLine != 0 {
		pass.Reportf(name.Pos(),
			"%s %s annotated //repro:padded has size %d bytes, not a multiple of the %d-byte cache line (pad by %d)",
			what, name.Name, size, cacheLine, cacheLine-size%cacheLine)
	}
}

// hasTypeParam reports whether t contains a type parameter anywhere a size
// computation would need to look.
func hasTypeParam(t types.Type, seen map[types.Type]bool) bool {
	if seen == nil {
		seen = make(map[types.Type]bool)
	}
	if seen[t] {
		return false
	}
	seen[t] = true
	switch u := t.(type) {
	case *types.TypeParam:
		return true
	case *types.Named:
		if u.TypeParams().Len() > 0 && u.TypeArgs().Len() == 0 {
			return true
		}
		for i := 0; i < u.TypeArgs().Len(); i++ {
			if hasTypeParam(u.TypeArgs().At(i), seen) {
				return true
			}
		}
		return hasTypeParam(u.Underlying(), seen)
	case *types.Alias:
		return hasTypeParam(types.Unalias(u), seen)
	case *types.Array:
		return hasTypeParam(u.Elem(), seen)
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if hasTypeParam(u.Field(i).Type(), seen) {
				return true
			}
		}
	}
	return false
}
