// Command apisurface dumps the exported API surface of the public packages
// (the root distme package, internal/engine, and internal/distnet) as one
// sorted line per symbol. The output is checked in at api/surface.txt; CI
// runs `make api-check`, so any change to the exported surface — a renamed
// method, a dropped deprecated wrapper, a new option — shows up as a
// reviewable diff instead of slipping through.
//
//	apisurface -out api/surface.txt   # refresh the checked-in surface
//	apisurface -check                 # exit 1 if the live surface differs
//
// -check also fails, naming the symbol, when an exported symbol of a surface
// package carries a "Deprecated:" paragraph: every operation has one entry
// point, and an old spelling kept "temporarily" as a deprecated wrapper is
// the way a second one comes back. And it fails, naming file:line, on a
// setting — an exported field of an exported …Options or …Config struct
// anywhere in the module — that no non-test code sets (setters.go): a
// setting only tests turn on is a second configuration with no user.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/printer"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// surfacePackages are the packages whose exported surface is the project's
// API contract, in the order they appear in the dump.
var surfacePackages = []struct{ name, dir string }{
	{"distme", "."},
	{"distme/internal/engine", "internal/engine"},
	{"distme/internal/distnet", "internal/distnet"},
}

func main() {
	out := flag.String("out", "api/surface.txt", "file the surface is written to (or compared against with -check)")
	check := flag.Bool("check", false, "compare the live surface against -out instead of writing; exit 1 on any difference")
	flag.Parse()

	var buf bytes.Buffer
	var deprecated []string
	for _, p := range surfacePackages {
		lines, dep, err := packageSurface(p.dir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "apisurface: %s: %v\n", p.name, err)
			os.Exit(2)
		}
		for _, sym := range dep {
			deprecated = append(deprecated, p.name+": "+sym)
		}
		fmt.Fprintf(&buf, "# %s\n", p.name)
		for _, l := range lines {
			buf.WriteString(l)
			buf.WriteByte('\n')
		}
		buf.WriteByte('\n')
	}

	if *check {
		if len(deprecated) > 0 {
			for _, sym := range deprecated {
				fmt.Fprintf(os.Stderr, "apisurface: %s is marked Deprecated: — delete it and move its callers instead\n", sym)
			}
			os.Exit(1)
		}
		unset, err := unsetSettings(".")
		if err != nil {
			fmt.Fprintf(os.Stderr, "apisurface: %v\n", err)
			os.Exit(2)
		}
		if len(unset) > 0 {
			for _, u := range unset {
				fmt.Fprintf(os.Stderr, "apisurface: %s is a setting no non-test code sets — delete it and the paths only it reaches\n", u)
			}
			os.Exit(1)
		}
		want, err := os.ReadFile(*out)
		if err != nil {
			fmt.Fprintf(os.Stderr, "apisurface: reading %s: %v (run `make api-surface` to create it)\n", *out, err)
			os.Exit(1)
		}
		if !bytes.Equal(want, buf.Bytes()) {
			fmt.Fprintf(os.Stderr, "apisurface: exported API surface differs from %s\n", *out)
			printDiff(os.Stderr, string(want), buf.String())
			fmt.Fprintf(os.Stderr, "apisurface: run `make api-surface` and review the diff\n")
			os.Exit(1)
		}
		fmt.Printf("apisurface: surface matches %s\n", *out)
		return
	}
	if dir := filepath.Dir(*out); dir != "." {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "apisurface: %v\n", err)
			os.Exit(2)
		}
	}
	if err := os.WriteFile(*out, buf.Bytes(), 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "apisurface: %v\n", err)
		os.Exit(2)
	}
	fmt.Printf("apisurface: wrote %s\n", *out)
}

// symbol is one exported name of a package: its line in the dump and the
// doc comment that describes it most closely.
type symbol struct {
	line string
	doc  *ast.CommentGroup
}

// packageSurface parses one package directory (tests excluded) and returns
// a sorted line per exported symbol: funcs with full signatures, methods
// keyed by receiver, types with their kind, exported struct fields and
// interface methods, consts and vars. deprecated lists the lines of the
// symbols whose doc comment has a "Deprecated:" paragraph.
func packageSurface(dir string) (lines, deprecated []string, err error) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, dir, func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.ParseComments)
	if err != nil {
		return nil, nil, err
	}
	for name, pkg := range pkgs {
		if strings.HasSuffix(name, "_test") || name == "main" {
			continue
		}
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				for _, sym := range declSurface(fset, d) {
					lines = append(lines, sym.line)
					if isDeprecated(sym.doc) {
						deprecated = append(deprecated, sym.line)
					}
				}
			}
		}
	}
	sort.Strings(lines)
	sort.Strings(deprecated)
	return lines, deprecated, nil
}

// isDeprecated reports whether a doc comment has a paragraph that starts
// with "Deprecated:", the convention godoc and linters recognise.
func isDeprecated(doc *ast.CommentGroup) bool {
	for _, line := range strings.Split(doc.Text(), "\n") {
		if strings.HasPrefix(line, "Deprecated:") {
			return true
		}
	}
	return false
}

func declSurface(fset *token.FileSet, d ast.Decl) []symbol {
	switch d := d.(type) {
	case *ast.FuncDecl:
		if !d.Name.IsExported() {
			return nil
		}
		if d.Recv == nil {
			return []symbol{{"func " + d.Name.Name + typeParams(fset, d.Type.TypeParams) + signature(fset, d.Type), d.Doc}}
		}
		recv := exprString(fset, d.Recv.List[0].Type)
		if !ast.IsExported(strings.TrimLeft(recv, "*")) {
			return nil
		}
		return []symbol{{"method (" + recv + ") " + d.Name.Name + signature(fset, d.Type), d.Doc}}
	case *ast.GenDecl:
		var syms []symbol
		for _, spec := range d.Specs {
			switch s := spec.(type) {
			case *ast.TypeSpec:
				syms = append(syms, typeSurface(fset, s, specDoc(s.Doc, d))...)
			case *ast.ValueSpec:
				kind := "const"
				if d.Tok == token.VAR {
					kind = "var"
				}
				for _, n := range s.Names {
					if !n.IsExported() {
						continue
					}
					line := kind + " " + n.Name
					if s.Type != nil {
						line += " " + exprString(fset, s.Type)
					}
					syms = append(syms, symbol{line, specDoc(s.Doc, d)})
				}
			}
		}
		return syms
	}
	return nil
}

// specDoc is a spec's own doc comment, or the declaration's when the spec
// is written without parentheses (the parser then attaches it there).
func specDoc(doc *ast.CommentGroup, d *ast.GenDecl) *ast.CommentGroup {
	if doc == nil && !d.Lparen.IsValid() {
		return d.Doc
	}
	return doc
}

// typeSurface renders one type declaration: the type line itself plus one
// line per exported struct field or interface method.
func typeSurface(fset *token.FileSet, s *ast.TypeSpec, doc *ast.CommentGroup) []symbol {
	if !s.Name.IsExported() {
		return nil
	}
	name := s.Name.Name + typeParams(fset, s.TypeParams)
	switch t := s.Type.(type) {
	case *ast.StructType:
		syms := []symbol{{"type " + name + " struct", doc}}
		for _, f := range t.Fields.List {
			if len(f.Names) == 0 { // embedded
				emb := exprString(fset, f.Type)
				if ast.IsExported(baseName(emb)) {
					syms = append(syms, symbol{"field " + s.Name.Name + "." + baseName(emb) + " " + emb, f.Doc})
				}
				continue
			}
			for _, n := range f.Names {
				if n.IsExported() {
					syms = append(syms, symbol{"field " + s.Name.Name + "." + n.Name + " " + exprString(fset, f.Type), f.Doc})
				}
			}
		}
		return syms
	case *ast.InterfaceType:
		syms := []symbol{{"type " + name + " interface", doc}}
		for _, m := range t.Methods.List {
			if len(m.Names) == 0 {
				syms = append(syms, symbol{"embedded " + s.Name.Name + "." + exprString(fset, m.Type), m.Doc})
				continue
			}
			for _, n := range m.Names {
				if n.IsExported() {
					if ft, ok := m.Type.(*ast.FuncType); ok {
						syms = append(syms, symbol{"ifacemethod " + s.Name.Name + "." + n.Name + signature(fset, ft), m.Doc})
					}
				}
			}
		}
		return syms
	default:
		kind := exprString(fset, s.Type)
		if s.Assign.IsValid() {
			return []symbol{{"type " + name + " = " + kind, doc}}
		}
		return []symbol{{"type " + name + " " + kind, doc}}
	}
}

// signature renders a func type's parameter and result lists.
func signature(fset *token.FileSet, t *ast.FuncType) string {
	var b strings.Builder
	b.WriteByte('(')
	writeFieldList(fset, &b, t.Params)
	b.WriteByte(')')
	if t.Results != nil && len(t.Results.List) > 0 {
		b.WriteByte(' ')
		if len(t.Results.List) == 1 && len(t.Results.List[0].Names) == 0 {
			b.WriteString(exprString(fset, t.Results.List[0].Type))
		} else {
			b.WriteByte('(')
			writeFieldList(fset, &b, t.Results)
			b.WriteByte(')')
		}
	}
	return b.String()
}

func typeParams(fset *token.FileSet, tp *ast.FieldList) string {
	if tp == nil || len(tp.List) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('[')
	writeFieldList(fset, &b, tp)
	b.WriteByte(']')
	return b.String()
}

// writeFieldList renders parameters as types only — parameter names are not
// part of the API contract, so renaming one doesn't churn the surface.
func writeFieldList(fset *token.FileSet, b *strings.Builder, fl *ast.FieldList) {
	if fl == nil {
		return
	}
	first := true
	for _, f := range fl.List {
		n := len(f.Names)
		if n == 0 {
			n = 1
		}
		for i := 0; i < n; i++ {
			if !first {
				b.WriteString(", ")
			}
			first = false
			b.WriteString(exprString(fset, f.Type))
		}
	}
}

func exprString(fset *token.FileSet, e ast.Expr) string {
	var b bytes.Buffer
	if err := printer.Fprint(&b, fset, e); err != nil {
		return fmt.Sprintf("<%v>", err)
	}
	// Collapse any multi-line rendering (struct literals in types, long
	// func types) to a single line for stable one-line-per-symbol output.
	return strings.Join(strings.Fields(b.String()), " ")
}

func baseName(s string) string {
	s = strings.TrimLeft(s, "*")
	if i := strings.LastIndex(s, "."); i >= 0 {
		s = s[i+1:]
	}
	if i := strings.Index(s, "["); i >= 0 {
		s = s[:i]
	}
	return s
}

// printDiff prints a minimal line diff: lines only in want prefixed with
// "-", lines only in got prefixed with "+".
func printDiff(w *os.File, want, got string) {
	wantSet := map[string]int{}
	for _, l := range strings.Split(want, "\n") {
		wantSet[l]++
	}
	gotSet := map[string]int{}
	for _, l := range strings.Split(got, "\n") {
		gotSet[l]++
	}
	for _, l := range strings.Split(want, "\n") {
		if gotSet[l] == 0 && l != "" {
			fmt.Fprintf(w, "  - %s\n", l)
		}
	}
	for _, l := range strings.Split(got, "\n") {
		if wantSet[l] == 0 && l != "" {
			fmt.Fprintf(w, "  + %s\n", l)
		}
	}
}
