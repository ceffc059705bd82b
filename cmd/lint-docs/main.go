// Command lint-docs compiles every ```go fence in README.md and docs/*.md
// against the current API, so documentation examples cannot rot: a snippet
// that no longer builds fails `make lint-docs` (and CI) with the markdown
// file and fence line in the error.
//
// Two snippet shapes are accepted:
//
//   - full programs (the fence contains a `package` clause) build verbatim;
//   - fragments are wrapped in `package main`, given imports inferred from
//     the package qualifiers they use, placed inside func main(), and every
//     top-level `x := …` binding is blank-assigned afterwards so
//     fragments may declare results they don't consume.
//
// Fences whose info string is anything other than exactly "go" (sh, json,
// text, or "go skip" to opt a pseudo-code block out) are ignored.
//
// It also fails, naming file and line, when README.md, DESIGN.md or a
// docs/*.md file mentions an internal/<pkg>, cmd/<name> or examples/<name>
// path that does not exist — a package table that outlives its package —
// or names in backticks an exported `pkg.Name` or `pkg.Type.Member`, with
// pkg one of the knownImports qualifiers, that the package's non-test
// source does not declare, or an unqualified `Type.Member` that none of
// them declares — prose that outlives its field or function — or names in
// backticks a `make <target>` the Makefile does not define.
package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
)

// snippet is one ```go fence: where it came from and its body.
type snippet struct {
	file string // markdown path, for error reporting
	line int    // 1-based line of the opening fence
	body string
}

// knownImports maps package qualifiers that may appear in doc fragments to
// their import paths. Qualifiers outside this table are assumed to be
// local variables and ignored.
var knownImports = map[string]string{
	"distme":  "distme",
	"distnet": "distme/internal/distnet",
	"serve":   "distme/internal/serve",
	"obs":     "distme/internal/obs",
	"metrics": "distme/internal/metrics",
	"plan":    "distme/internal/plan",
	"bmat":    "distme/internal/bmat",
	"core":    "distme/internal/core",
	"gpu":     "distme/internal/gpu",
	"cluster": "distme/internal/cluster",
	"engine":  "distme/internal/engine",
	"fmt":     "fmt",
	"log":     "log",
	"os":      "os",
	"rand":    "math/rand",
	"time":    "time",
	"runtime": "runtime",
	"sort":    "sort",
	"strings": "strings",
	"context": "context",
	"errors":  "errors",
	"math":    "math",
}

var (
	fenceOpen  = regexp.MustCompile("^```(.*)$")
	qualifier  = regexp.MustCompile(`(^|[^\w."'/])([a-z]\w*)\.`)
	shortDecl  = regexp.MustCompile(`^([A-Za-z_]\w*(?:\s*,\s*[A-Za-z_]\w*)*)\s*:=`)
	loopOpener = regexp.MustCompile(`^(for|if|switch|select|go|defer|return|case)\b`)
	pathRef    = regexp.MustCompile(`\b(?:internal|cmd|examples)/[A-Za-z0-9_-]+`)
	codeSpan   = regexp.MustCompile("`[^`]+`")
	symbolRef  = regexp.MustCompile(`(?:^|[^\w."'/])([a-z]\w*)\.([A-Z]\w*)(?:\.(\w+))?`)
	memberRef  = regexp.MustCompile(`(?:^|[^\w."'/])([A-Z]\w*)\.([A-Z]\w*)`)
)

func main() {
	root, err := moduleRoot()
	if err != nil {
		fatal(err)
	}
	files := []string{filepath.Join(root, "README.md")}
	docs, err := filepath.Glob(filepath.Join(root, "docs", "*.md"))
	if err != nil {
		fatal(err)
	}
	files = append(files, docs...)
	sort.Strings(files)

	var snippets []snippet
	var stale, missing, targets []string
	exists := func(rel string) bool {
		_, err := os.Stat(filepath.Join(root, rel))
		return err == nil
	}
	exports, err := loadExports(root)
	if err != nil {
		fatal(err)
	}
	makefile, err := os.ReadFile(filepath.Join(root, "Makefile"))
	if err != nil {
		fatal(err)
	}
	defined := makeTargets(string(makefile))
	for _, f := range append([]string{filepath.Join(root, "DESIGN.md")}, files...) {
		data, err := os.ReadFile(f)
		if err != nil {
			fatal(err)
		}
		stale = append(stale, stalePaths(f, string(data), exists)...)
		missing = append(missing, staleSymbols(f, string(data), exports)...)
		targets = append(targets, staleTargets(f, string(data), defined)...)
	}
	if len(stale) > 0 {
		fmt.Fprintf(os.Stderr, "lint-docs: paths that do not exist:\n%s\n", indent(strings.Join(stale, "\n")))
	}
	if len(missing) > 0 {
		fmt.Fprintf(os.Stderr, "lint-docs: exported names that do not exist:\n%s\n", indent(strings.Join(missing, "\n")))
	}
	if len(targets) > 0 {
		fmt.Fprintf(os.Stderr, "lint-docs: make targets the Makefile does not define:\n%s\n", indent(strings.Join(targets, "\n")))
	}
	if len(stale) > 0 || len(missing) > 0 || len(targets) > 0 {
		os.Exit(1)
	}
	for _, f := range files {
		s, err := extract(f)
		if err != nil {
			fatal(err)
		}
		snippets = append(snippets, s...)
	}
	if len(snippets) == 0 {
		fatal(fmt.Errorf("lint-docs: no ```go fences found — wrong directory?"))
	}

	tmp, err := os.MkdirTemp(root, ".lintdocs-")
	if err != nil {
		fatal(err)
	}
	defer os.RemoveAll(tmp)

	failures := 0
	for i, sn := range snippets {
		dir := filepath.Join(tmp, fmt.Sprintf("snip%02d", i))
		if err := os.Mkdir(dir, 0o755); err != nil {
			fatal(err)
		}
		src := sn.body
		if !strings.Contains(src, "package ") {
			src = wrapFragment(src)
		}
		if err := os.WriteFile(filepath.Join(dir, "main.go"), []byte(src), 0o644); err != nil {
			fatal(err)
		}
		rel, _ := filepath.Rel(root, dir)
		cmd := exec.Command("go", "build", "-o", os.DevNull, "./"+filepath.ToSlash(rel))
		cmd.Dir = root
		if out, err := cmd.CombinedOutput(); err != nil {
			failures++
			fmt.Fprintf(os.Stderr, "FAIL %s:%d: snippet does not build:\n%s\n", sn.file, sn.line, indent(string(out)))
			fmt.Fprintf(os.Stderr, "--- generated source ---\n%s\n", indent(src))
		}
	}
	if failures > 0 {
		os.RemoveAll(tmp) // os.Exit skips the defer
		fmt.Fprintf(os.Stderr, "lint-docs: %d of %d snippets failed\n", failures, len(snippets))
		os.Exit(1)
	}
	fmt.Printf("lint-docs: %d snippets across %d files build cleanly\n", len(snippets), len(files))
}

// moduleRoot walks up from the working directory to the go.mod.
func moduleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("lint-docs: no go.mod above working directory")
		}
		dir = parent
	}
}

// stalePaths lists, as "file:line: path", every mention in one markdown
// file's text of an internal/<pkg>, cmd/<name> or examples/<name> path for
// which exists reports false.
func stalePaths(file, text string, exists func(rel string) bool) []string {
	var out []string
	for i, line := range strings.Split(text, "\n") {
		for _, ref := range pathRef.FindAllString(line, -1) {
			if !exists(ref) {
				out = append(out, fmt.Sprintf("%s:%d: %s", file, i+1, ref))
			}
		}
	}
	return out
}

// staleSymbols lists, as "file:line: pkg.Name[.Member]", every exported
// name a backticked span of one markdown file's prose (fences skipped)
// qualifies by a knownImports package whose exports do not declare it, and
// as "file:line: Type.Member" every unqualified exported Type.Member no
// knownImports package declares. The first column of a migration table —
// one headed "| removed |" — names what is gone on purpose and is not
// checked.
func staleSymbols(file, text string, exports map[string]map[string]bool) []string {
	var out []string
	inFence, inRemoved := false, false
	for i, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(strings.TrimSpace(line), "```") {
			inFence = !inFence
			continue
		}
		if inFence {
			continue
		}
		inRemoved = strings.HasPrefix(line, "| removed |") || inRemoved && strings.HasPrefix(line, "|")
		if inRemoved {
			line = line[strings.Index(line[1:], "|")+1:]
		}
		for _, span := range codeSpan.FindAllString(line, -1) {
			for _, m := range symbolRef.FindAllStringSubmatch(span, -1) {
				if pkg, ok := exports[knownImports[m[1]]]; ok && !declared(pkg, m[2], m[3]) {
					ref := strings.TrimSuffix(m[1]+"."+m[2]+"."+m[3], ".")
					out = append(out, fmt.Sprintf("%s:%d: %s", file, i+1, ref))
				}
			}
			for _, m := range memberRef.FindAllStringSubmatch(span, -1) {
				if !declaredAnywhere(exports, m[1], m[2]) {
					out = append(out, fmt.Sprintf("%s:%d: %s.%s", file, i+1, m[1], m[2]))
				}
			}
		}
	}
	return out
}

// declaredAnywhere reports whether some package's exports declare name as a
// type with member (declared).
func declaredAnywhere(exports map[string]map[string]bool, name, member string) bool {
	for _, pkg := range exports {
		if pkg[name+"."] && declared(pkg, name, member) {
			return true
		}
	}
	return false
}

// staleTargets lists, as "file:line: make target", every target a
// backticked `make …` span of one markdown file's prose names that defined
// does not hold. Flags and VAR=value arguments are not targets.
func staleTargets(file, text string, defined map[string]bool) []string {
	var out []string
	inFence := false
	for i, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(strings.TrimSpace(line), "```") {
			inFence = !inFence
			continue
		}
		if inFence {
			continue
		}
		for _, span := range codeSpan.FindAllString(line, -1) {
			args, ok := strings.CutPrefix(strings.Trim(span, "`"), "make ")
			if !ok {
				continue
			}
			for _, arg := range strings.Fields(args) {
				if !strings.HasPrefix(arg, "-") && !strings.Contains(arg, "=") && !defined[arg] {
					out = append(out, fmt.Sprintf("%s:%d: make %s", file, i+1, arg))
				}
			}
		}
	}
	return out
}

// makeTargets are the targets a Makefile's rules define: the names before
// the colon of every rule line, special targets such as .PHONY left out.
func makeTargets(makefile string) map[string]bool {
	defined := map[string]bool{}
	for _, line := range strings.Split(makefile, "\n") {
		names, _, ok := strings.Cut(line, ":")
		if !ok || line == "" || strings.ContainsAny(line[:1], " \t#.") || strings.Contains(names, "=") {
			continue
		}
		for _, name := range strings.Fields(names) {
			defined[name] = true
		}
	}
	return defined
}

// declared reports whether a package's exports (parseExports) hold name
// and, when member is exported and name a type, that member. A member of a
// var, const or func, or of a type with embedded fields or an alias, is
// taken on trust.
func declared(exports map[string]bool, name, member string) bool {
	return exports[name] && (member == "" || !ast.IsExported(member) || !exports[name+"."] ||
		exports[name+".*"] || exports[name+"."+member])
}

// loadExports parses the non-test source of every knownImports package,
// found with go list, keyed by import path.
func loadExports(root string) (map[string]map[string]bool, error) {
	args := []string{"list", "-f", "{{.ImportPath}}={{.Dir}}"}
	for _, path := range knownImports {
		args = append(args, path)
	}
	cmd := exec.Command("go", args...)
	cmd.Dir = root
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("lint-docs: go list: %w", err)
	}
	exports := map[string]map[string]bool{}
	for _, line := range strings.Fields(string(out)) {
		path, dir, _ := strings.Cut(line, "=")
		if exports[path], err = parseExports(dir); err != nil {
			return nil, err
		}
	}
	return exports, nil
}

// parseExports lists what one package directory's non-test source
// declares: every top-level name, "T." for each type T, "T.M" for each of
// its fields and methods, and "T.*" when T is an alias or embeds a type.
func parseExports(dir string) (map[string]bool, error) {
	files, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		return nil, err
	}
	set := map[string]bool{}
	for _, f := range files {
		if strings.HasSuffix(f, "_test.go") {
			continue
		}
		file, err := parser.ParseFile(token.NewFileSet(), f, nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		for _, decl := range file.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok {
				if fn.Recv == nil {
					set[fn.Name.Name] = true
				} else if recv := recvType(fn.Recv.List[0].Type); recv != "" {
					set[recv+"."+fn.Name.Name] = true
				}
				continue
			}
			for _, spec := range decl.(*ast.GenDecl).Specs {
				switch s := spec.(type) {
				case *ast.ValueSpec:
					for _, n := range s.Names {
						set[n.Name] = true
					}
				case *ast.TypeSpec:
					typ := s.Name.Name
					set[typ], set[typ+"."], set[typ+".*"] = true, true, s.Assign.IsValid()
					var fields []*ast.Field
					switch t := s.Type.(type) {
					case *ast.StructType:
						fields = t.Fields.List
					case *ast.InterfaceType:
						fields = t.Methods.List
					}
					for _, f := range fields {
						for _, n := range f.Names {
							set[typ+"."+n.Name] = true
						}
						set[typ+".*"] = set[typ+".*"] || f.Names == nil
					}
				}
			}
		}
	}
	return set, nil
}

// recvType is the type a method's receiver (T, *T, T[P]) names.
func recvType(x ast.Expr) string {
	if star, ok := x.(*ast.StarExpr); ok {
		x = star.X
	}
	if gen, ok := x.(*ast.IndexExpr); ok {
		x = gen.X
	}
	if id, ok := x.(*ast.Ident); ok {
		return id.Name
	}
	return ""
}

// extract pulls the ```go fences out of one markdown file.
func extract(path string) ([]snippet, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var out []snippet
	var cur *snippet
	inGo, inOther := false, false
	for i, line := range strings.Split(string(data), "\n") {
		m := fenceOpen.FindStringSubmatch(strings.TrimRight(line, " \t"))
		if m == nil {
			if inGo {
				cur.body += line + "\n"
			}
			continue
		}
		info := strings.TrimSpace(m[1])
		switch {
		case inGo: // closing fence of a go block
			out = append(out, *cur)
			cur, inGo = nil, false
		case inOther: // closing fence of a non-go block
			inOther = false
		case info == "go":
			cur = &snippet{file: path, line: i + 1}
			inGo = true
		default: // opening fence of sh/json/text/"go skip"/bare
			inOther = true
		}
	}
	if inGo {
		return nil, fmt.Errorf("%s:%d: unterminated ```go fence", path, cur.line)
	}
	return out, nil
}

// wrapFragment turns a statement-level fragment into a compilable program.
func wrapFragment(body string) string {
	imports := map[string]bool{}
	var uses []string
	for _, line := range strings.Split(body, "\n") {
		for _, m := range qualifier.FindAllStringSubmatch(line, -1) {
			if path, ok := knownImports[m[2]]; ok {
				imports[path] = true
			}
		}
		// Top-level `a, b := …` declarations may go unused in a doc
		// fragment; blank-assign them after the fragment runs.
		if loopOpener.MatchString(line) {
			continue
		}
		if m := shortDecl.FindStringSubmatch(line); m != nil {
			for _, id := range strings.Split(m[1], ",") {
				if id = strings.TrimSpace(id); id != "_" {
					uses = append(uses, id)
				}
			}
		}
	}
	paths := make([]string, 0, len(imports))
	for p := range imports {
		paths = append(paths, p)
	}
	sort.Strings(paths)

	var b strings.Builder
	b.WriteString("package main\n\n")
	if len(paths) > 0 {
		b.WriteString("import (\n")
		for _, p := range paths {
			fmt.Fprintf(&b, "\t%q\n", p)
		}
		b.WriteString(")\n\n")
	}
	b.WriteString("func main() {\n")
	b.WriteString(body)
	for _, id := range uses {
		fmt.Fprintf(&b, "\t_ = %s\n", id)
	}
	b.WriteString("}\n")
	return b.String()
}

func indent(s string) string {
	return "\t" + strings.ReplaceAll(strings.TrimRight(s, "\n"), "\n", "\n\t")
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}
