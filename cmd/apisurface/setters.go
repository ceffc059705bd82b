package main

import (
	"errors"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Every setting has a caller. A setting is an exported field of an exported
// struct type whose name ends in Options or Config, declared anywhere in the
// module; a setting that only tests set doubles the configurations the tests
// must cover and serves no user. A setter is a composite-literal key (an
// unkeyed literal sets every field), an assignment or increment, or the
// field's address taken (a flag bound to it), in a non-test file of the
// module or of a module nested in it — the repository benchmark's calls
// count. Fields are matched through go/types by where they are declared, so
// a same-named field of another struct never vouches for one.

// unsetSetting is a setting no non-test code sets.
type unsetSetting struct {
	pos  token.Position
	name string // Type.Field
}

func (u unsetSetting) String() string {
	return fmt.Sprintf("%s:%d: %s", u.pos.Filename, u.pos.Line, u.name)
}

// modulePackage is one package directory to type-check; declares is false
// for a nested module's packages, whose settings are not checked but whose
// setters count.
type modulePackage struct {
	dir, path string
	declares  bool
}

// unsetSettings type-checks every package of the module at root and of the
// modules nested in it, and returns the module's settings that no non-test
// file sets, sorted by position; file names are relative to root.
func unsetSettings(root string) ([]unsetSetting, error) {
	root, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	pkgs, err := modulePackages(root)
	if err != nil {
		return nil, err
	}
	// The source importer checks every import from source, the standard
	// library included, so no export data is needed; one importer serves
	// every package, so each import is checked once. It resolves import
	// paths with build.Default, which asks the go command from
	// build.Default.Dir: set per package below, so that a nested module's
	// imports resolve in that module. Without cgo the standard library's
	// pure-Go files stand in for its cgo ones.
	build.Default.CgoEnabled = false
	fset := token.NewFileSet()
	conf := types.Config{Importer: importer.ForCompiler(fset, "source", nil)}

	var settings []unsetSetting
	set := map[string]bool{}
	for _, p := range pkgs {
		files, err := parsePackage(fset, p.dir)
		if err != nil {
			return nil, err
		}
		if len(files) == 0 {
			continue
		}
		build.Default.Dir = p.dir
		info := &types.Info{
			Types:      map[ast.Expr]types.TypeAndValue{},
			Uses:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
		}
		if _, err := conf.Check(p.path, fset, files, info); err != nil {
			return nil, fmt.Errorf("type-checking %s: %w", p.path, err)
		}
		for _, f := range files {
			if p.declares {
				settings = append(settings, declaredSettings(fset, f)...)
			}
			markSetters(fset, f, info, set)
		}
	}

	var unset []unsetSetting
	for _, s := range settings {
		if !set[s.pos.String()] {
			if rel, err := filepath.Rel(root, s.pos.Filename); err == nil {
				s.pos.Filename = rel
			}
			unset = append(unset, s)
		}
	}
	sort.Slice(unset, func(i, j int) bool {
		a, b := unset[i].pos, unset[j].pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		return a.Line < b.Line
	})
	return unset, nil
}

// modulePackages lists the package directories under root with their import
// paths: root's own module, then — each under its own go.mod — the modules
// nested in it. Hidden directories, testdata and directories starting with
// an underscore are skipped, as the go tool skips them.
func modulePackages(root string) ([]modulePackage, error) {
	var pkgs []modulePackage
	var walk func(dir, modDir, modPath string, declares bool) error
	walk = func(dir, modDir, modPath string, declares bool) error {
		if dir != modDir {
			if mp, err := modulePath(dir); err == nil {
				modDir, modPath, declares = dir, mp, false
			} else if !errors.Is(err, os.ErrNotExist) {
				return err
			}
		}
		path := modPath
		if rel, _ := filepath.Rel(modDir, dir); rel != "." {
			path += "/" + filepath.ToSlash(rel)
		}
		pkgs = append(pkgs, modulePackage{dir: dir, path: path, declares: declares})
		entries, err := os.ReadDir(dir)
		if err != nil {
			return err
		}
		for _, e := range entries {
			name := e.Name()
			if !e.IsDir() || name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
				continue
			}
			if err := walk(filepath.Join(dir, name), modDir, modPath, declares); err != nil {
				return err
			}
		}
		return nil
	}
	mp, err := modulePath(root)
	if err != nil {
		return nil, err
	}
	return pkgs, walk(root, root, mp, true)
}

// modulePath reads the module path from dir's go.mod.
func modulePath(dir string) (string, error) {
	data, err := os.ReadFile(filepath.Join(dir, "go.mod"))
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) == 2 && f[0] == "module" {
			return strings.Trim(f[1], `"`), nil
		}
	}
	return "", fmt.Errorf("%s/go.mod names no module", dir)
}

// parsePackage parses the non-test Go files of dir that the build context
// selects, under absolute names so that positions match the importer's.
func parsePackage(fset *token.FileSet, dir string) ([]*ast.File, error) {
	bp, err := build.ImportDir(dir, 0)
	var noGo *build.NoGoError
	if errors.As(err, &noGo) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}

// declaredSettings lists f's settings: the exported fields of its exported
// …Options and …Config struct types.
func declaredSettings(fset *token.FileSet, f *ast.File) []unsetSetting {
	var out []unsetSetting
	for _, d := range f.Decls {
		gd, ok := d.(*ast.GenDecl)
		if !ok || gd.Tok != token.TYPE {
			continue
		}
		for _, spec := range gd.Specs {
			ts := spec.(*ast.TypeSpec)
			st, ok := ts.Type.(*ast.StructType)
			name := ts.Name.Name
			if !ok || !ts.Name.IsExported() || !(strings.HasSuffix(name, "Options") || strings.HasSuffix(name, "Config")) {
				continue
			}
			for _, field := range st.Fields.List {
				for _, n := range field.Names {
					if n.IsExported() {
						out = append(out, unsetSetting{pos: fset.Position(n.Pos()), name: name + "." + n.Name})
					}
				}
			}
		}
	}
	return out
}

// markSetters records in set the declaring position of every struct field
// f sets.
func markSetters(fset *token.FileSet, f *ast.File, info *types.Info, set map[string]bool) {
	mark := func(v *types.Var) {
		set[fset.Position(v.Origin().Pos()).String()] = true
	}
	markSelector := func(e ast.Expr) {
		if sel, ok := ast.Unparen(e).(*ast.SelectorExpr); ok {
			if s := info.Selections[sel]; s != nil && s.Kind() == types.FieldVal {
				mark(s.Obj().(*types.Var))
			}
		}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CompositeLit:
			t := info.Types[n].Type
			if p, ok := t.(*types.Pointer); ok {
				t = p.Elem()
			}
			st, ok := t.Underlying().(*types.Struct)
			if !ok {
				break
			}
			for _, el := range n.Elts {
				kv, ok := el.(*ast.KeyValueExpr)
				if !ok { // unkeyed: every field is set
					for i := 0; i < st.NumFields(); i++ {
						mark(st.Field(i))
					}
					break
				}
				if v, ok := info.Uses[kv.Key.(*ast.Ident)].(*types.Var); ok {
					mark(v)
				}
			}
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				markSelector(lhs)
			}
		case *ast.IncDecStmt:
			markSelector(n.X)
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				markSelector(n.X)
			}
		}
		return true
	})
}
