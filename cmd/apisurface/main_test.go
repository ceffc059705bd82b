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
