package lint

import (
	"go/ast"
	"go/types"
	"slices"
	"strings"
)

// checkpointedTypes names, per snapshot scope, the struct types whose
// every field the checkpoint codec must cover. The analyzer checks a type
// in its defining package, against that package's own codec surface, so
// each package must expose one: core's Snapshot/write* and Restore/read*,
// sim's Pending/NextSeq/Traffic.Snapshot and Restore*, randx's State and
// Restore.
var checkpointedTypes = map[string][]string{
	"p3q/internal/core":  {"Engine", "Node", "PersonalNetwork", "Entry", "QueryRun", "queryWork", "eagerEvent"},
	"p3q/internal/sim":   {"EventQueue", "Traffic"},
	"p3q/internal/randx": {"Source"},
}

// SnapshotComplete enforces struct-field coverage of the checkpoint
// codec: every field of a checkpointed type must be referenced both on
// the snapshot path (functions reachable in-package from Snapshot, a
// write* function, or a state accessor named State/Pending/NextSeq) and
// on the restore path (reachable from Restore, a Restore* function, or a
// read* function), or carry `//p3q:transient <reason>` saying why it need
// not survive a checkpoint. A newly added field that silently misses the
// codec is then a lint error instead of a latent resume-divergence.
var SnapshotComplete = &Analyzer{Name: "snapshotcomplete", Run: runSnapshotComplete}

// isSnapshotRoot and isRestoreRoot classify function names as codec
// entry points; path membership is the in-package call-graph closure of
// these roots.
func isSnapshotRoot(name string) bool {
	switch name {
	case "Snapshot", "State", "Pending", "NextSeq":
		return true
	}
	return strings.HasPrefix(name, "write")
}

func isRestoreRoot(name string) bool {
	return name == "Restore" || strings.HasPrefix(name, "Restore") || strings.HasPrefix(name, "read")
}

func runSnapshotComplete(pass *Pass) {
	var typeNames []string
	for scope, names := range checkpointedTypes {
		if inScope(pass.Path, []string{scope}) {
			typeNames = names
			break
		}
	}
	if typeNames == nil {
		return
	}
	snapFuncs, restFuncs := codecPathFuncs(pass)
	snapRefs := fieldRefs(pass, snapFuncs)
	restRefs := fieldRefs(pass, restFuncs)
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			ts, ok := n.(*ast.TypeSpec)
			if !ok {
				return true
			}
			st, ok := ts.Type.(*ast.StructType)
			if !ok || !slices.Contains(typeNames, ts.Name.Name) {
				return true
			}
			for _, field := range st.Fields.List {
				for _, name := range field.Names {
					checkField(pass, ts.Name.Name, name, snapRefs, restRefs)
				}
			}
			return true
		})
	}
}

// checkField applies the coverage rule to one named field.
func checkField(pass *Pass, typeName string, name *ast.Ident, snapRefs, restRefs map[types.Object]bool) {
	obj := pass.Info.Defs[name]
	inSnap, inRest := snapRefs[obj], restRefs[obj]
	switch {
	case len(pass.directivesAt(name.Pos(), transientVerb)) > 0:
		if inSnap && inRest {
			pass.Reportf(name.Pos(), "stale //p3q:%s directive: field %s.%s is referenced on both checkpoint paths, so it is not transient", transientVerb, typeName, name.Name)
		}
	case !inSnap && !inRest:
		pass.Reportf(name.Pos(), "field %s.%s is captured by neither the Snapshot nor the Restore path: serialize it in the checkpoint codec, or annotate it //p3q:%s <reason>", typeName, name.Name, transientVerb)
	case !inSnap:
		pass.Reportf(name.Pos(), "field %s.%s is restored but never referenced on the Snapshot path (Snapshot/write*): a checkpoint would silently drop it", typeName, name.Name)
	case !inRest:
		pass.Reportf(name.Pos(), "field %s.%s is written by Snapshot but never referenced on the Restore path (Restore/read*): a restored engine would not get it back", typeName, name.Name)
	}
}

// codecPathFuncs computes the snapshot-path and restore-path function
// sets: the in-package call-graph closure of the codec roots.
func codecPathFuncs(pass *Pass) (snap, rest map[types.Object]bool) {
	callees := map[types.Object][]types.Object{}
	var snapRoots, restRoots []types.Object
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			obj := pass.Info.Defs[fd.Name]
			if obj == nil {
				continue
			}
			if isSnapshotRoot(fd.Name.Name) {
				snapRoots = append(snapRoots, obj)
			}
			if isRestoreRoot(fd.Name.Name) {
				restRoots = append(restRoots, obj)
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				if obj2 := pass.Info.Uses[calleeIdent(call)]; obj2 != nil && obj2.Pkg() == pass.Types {
					callees[obj] = append(callees[obj], obj2)
				}
				return true
			})
		}
	}
	closure := func(roots []types.Object) map[types.Object]bool {
		seen := map[types.Object]bool{}
		stack := append([]types.Object(nil), roots...)
		for len(stack) > 0 {
			o := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if seen[o] {
				continue
			}
			seen[o] = true
			stack = append(stack, callees[o]...)
		}
		return seen
	}
	return closure(snapRoots), closure(restRoots)
}

// fieldRefs collects every struct-field object referenced in the bodies
// of the given functions: through selectors, keyed composite-literal
// fields, and unkeyed composite literals (which initialize every field).
func fieldRefs(pass *Pass, funcs map[types.Object]bool) map[types.Object]bool {
	refs := map[types.Object]bool{}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !funcs[pass.Info.Defs[fd.Name]] {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				switch x := n.(type) {
				case *ast.SelectorExpr:
					if sel, ok := pass.Info.Selections[x]; ok && sel.Kind() == types.FieldVal {
						refs[sel.Obj()] = true
					}
				case *ast.CompositeLit:
					st, ok := structOf(pass.Info.TypeOf(x))
					if !ok {
						return true
					}
					keyed := false
					for _, elt := range x.Elts {
						kv, ok := elt.(*ast.KeyValueExpr)
						if !ok {
							continue
						}
						keyed = true
						if key, ok := kv.Key.(*ast.Ident); ok {
							if obj := pass.Info.Uses[key]; obj != nil {
								refs[obj] = true
							}
						}
					}
					if !keyed && len(x.Elts) > 0 {
						// A positional struct literal names no fields but
						// initializes all of them.
						for i := 0; i < st.NumFields(); i++ {
							refs[st.Field(i)] = true
						}
					}
				}
				return true
			})
		}
	}
	return refs
}

// structOf unwraps t (possibly behind a pointer) to a struct type.
func structOf(t types.Type) (*types.Struct, bool) {
	if t == nil {
		return nil, false
	}
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	st, ok := t.Underlying().(*types.Struct)
	return st, ok
}
