package main

import (
	"reflect"
	"testing"
)

func TestStalePathsNamesFileAndLine(t *testing.T) {
	text := "| `internal/core` | the optimizer |\n" +
		"| `internal/shuffle` | gone |\n" +
		"run `go run ./cmd/distme-bench` or ./examples/nosuch, see distme/internal/core/exec.go\n"
	present := map[string]bool{"internal/core": true, "cmd/distme-bench": true}
	got := stalePaths("docs/X.md", text, func(rel string) bool { return present[rel] })
	want := []string{"docs/X.md:2: internal/shuffle", "docs/X.md:3: examples/nosuch"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("stalePaths = %q, want %q", got, want)
	}
}
