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

func TestStaleSymbolsNamesMissingExports(t *testing.T) {
	distnet, err := parseExports("../../internal/distnet")
	if err != nil {
		t.Fatal(err)
	}
	exports := map[string]map[string]bool{"distme/internal/distnet": distnet}
	text := "dial with `distnet.DialOptions(addrs, distnet.Options{})`; `distnet.Options.Recorder` counts\n" +
		"not `distnet.Dial(addrs)`, nor `distnet.Options.Nope`, nor `d.Execute` on a `bmat.Nope`\n" +
		"```go\nd, err := distnet.Dial(addrs)\n```\n" +
		"| removed | replacement |\n" +
		"| `distnet.Serve(l)` | `distnet.ServeOptions(l, distnet.WorkerOptions{})`, not `distnet.Serve` |\n" +
		"unqualified, `Options.Recorder` and `Worker.StoreStats` resolve; `GetReply.Whole` and `Options.Nope` do not; `README.md` names no type\n"
	got := staleSymbols("docs/X.md", text, exports)
	want := []string{"docs/X.md:2: distnet.Dial", "docs/X.md:2: distnet.Options.Nope", "docs/X.md:7: distnet.Serve",
		"docs/X.md:8: GetReply.Whole", "docs/X.md:8: Options.Nope"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("staleSymbols = %q, want %q", got, want)
	}
}

func TestStaleTargetsNamesFileAndLine(t *testing.T) {
	makefile := "GO ?= go\n\n.PHONY: build test vet\n\nbuild:\n\t$(GO) build ./...\n\n# test: not a rule\ntest vet: build\n\t$(GO) test ./...\n"
	text := "run `make test` then `make vet build`\n" +
		"not `make lint-typo`, nor `make -j2 GO=go1.24 bench test`; `makefile` is no call\n" +
		"```sh\nmake inside-a-fence\n```\n"
	got := staleTargets("docs/X.md", text, makeTargets(makefile))
	want := []string{"docs/X.md:2: make lint-typo", "docs/X.md:2: make bench"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("staleTargets = %q, want %q", got, want)
	}
}
