package main

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// TestDeprecatedSymbolsAreNamed: -check refuses a surface package that keeps
// an old spelling alive behind a "Deprecated:" paragraph, and names exactly
// the symbols that carry one — a func, a method, a struct field, one var of
// a group — while the text merely mentioning the word passes.
func TestDeprecatedSymbolsAreNamed(t *testing.T) {
	dir := t.TempDir()
	src := `package p

// Run is the entry point. It replaced the deprecated twins.
func Run() {}

// RunCtx is Run.
//
// Deprecated: Use Run.
func RunCtx() {}

type T struct {
	// Kept is in use.
	Kept int
	// Old selects a path that is gone.
	//
	// Deprecated: ignored.
	Old bool
}

// M is the method.
//
// Deprecated: Use Run.
func (T) M() {}

var (
	// A stays.
	A = 1
	// B goes.
	//
	// Deprecated: Use A.
	B = 2
)
`
	if err := os.WriteFile(filepath.Join(dir, "p.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	lines, deprecated, err := packageSurface(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(lines) != 8 {
		t.Fatalf("surface has %d lines, want 8: %q", len(lines), lines)
	}
	want := []string{"field T.Old bool", "func RunCtx()", "method (T) M()", "var B"}
	if !reflect.DeepEqual(deprecated, want) {
		t.Fatalf("deprecated = %q, want %q", deprecated, want)
	}
}

// TestUnsetSettingsNamesFieldsWithoutSetter: a setting set only in a test
// file is named with its file:line, while one a caller sets passes — through
// a keyed literal, or through its address from a module nested in this one.
// A same-named field of a struct that is not the setting never vouches for
// it, and the exported fields of other structs are no settings at all.
func TestUnsetSettingsNamesFieldsWithoutSetter(t *testing.T) {
	dir := t.TempDir()
	for name, src := range map[string]string{
		"go.mod": "module example.com/m\n\ngo 1.24\n",
		"a/a.go": `package a

type Options struct {
	Set   int
	Unset int
}

type Env struct {
	Unset int
}

type Config struct {
	Bound bool
}
`,
		"a/a_test.go": `package a

var _ = Options{Unset: 1}
`,
		"b/b.go": `package b

import "example.com/m/a"

func Use() (a.Options, a.Env) {
	var e a.Env
	e.Unset = 2
	return a.Options{Set: 1}, e
}
`,
		"caller/go.mod": "module example.com/m/caller\n\ngo 1.24\n\nrequire example.com/m v0.0.0\n\nreplace example.com/m => ../\n",
		"caller/main.go": `package main

import (
	"flag"

	"example.com/m/a"
)

func main() {
	var c a.Config
	flag.BoolVar(&c.Bound, "bound", false, "")
}
`,
	} {
		path := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	unset, err := unsetSettings(dir)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, u := range unset {
		got = append(got, u.String())
	}
	if want := []string{filepath.Join("a", "a.go") + ":5: Options.Unset"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("unset settings = %q, want %q", got, want)
	}
}
