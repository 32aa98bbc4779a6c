package analysis

import "go/types"

// pkgVarKey names one package-level variable: key is globally unique
// (package path qualified), display is the short human-readable form.
type pkgVarKey struct {
	key     string
	display string
}

// isPackageLevel reports whether v is a package-scope variable.
func isPackageLevel(v *types.Var) bool {
	return v.Pkg() != nil && v.Parent() == v.Pkg().Scope()
}

func packageVarSym(v *types.Var) pkgVarKey {
	return pkgVarKey{
		key:     v.Pkg().Path() + "." + v.Name(),
		display: v.Pkg().Name() + "." + v.Name(),
	}
}

// namedOf unwraps t (through one pointer) to its named type, or nil.
func namedOf(t types.Type) *types.Named {
	if t == nil {
		return nil
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, _ := t.(*types.Named)
	return named
}
