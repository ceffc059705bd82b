package distnet

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"math/rand"
	"net"
	"net/http"
	"os"
	"reflect"
	"regexp"
	"slices"
	"strings"
	"testing"
	"time"

	"distme/internal/bmat"
	"distme/internal/core"
	"distme/internal/matrix"
	"distme/internal/metrics"
	"distme/internal/obs"
	"distme/internal/plan"
)

// startTracedWorkers is startWorkers with a shared tracer, so worker-side
// compute spans land in the same tree as the driver's.
func startTracedWorkers(t *testing.T, n int, tr *obs.Tracer) []string {
	t.Helper()
	var addrs []string
	for i := 0; i < n; i++ {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { l.Close() })
		if _, err := ServeOptions(l, WorkerOptions{Tracer: tr}); err != nil {
			t.Fatal(err)
		}
		addrs = append(addrs, l.Addr().String())
	}
	return addrs
}

// spanIndex maps span IDs to spans and groups spans by name.
func spanIndex(spans []obs.SpanData) (byID map[obs.SpanID]obs.SpanData, byName map[string][]obs.SpanData) {
	byID = make(map[obs.SpanID]obs.SpanData, len(spans))
	byName = make(map[string][]obs.SpanData)
	for _, s := range spans {
		byID[s.ID] = s
		byName[s.Name] = append(byName[s.Name], s)
	}
	return byID, byName
}

// checkNoOrphans fails if any span references a parent that is neither 0 nor
// present in the snapshot.
func checkNoOrphans(t *testing.T, spans []obs.SpanData) {
	t.Helper()
	byID, _ := spanIndex(spans)
	for _, s := range spans {
		if s.Parent == 0 {
			continue
		}
		if _, ok := byID[s.Parent]; !ok {
			t.Errorf("span %d (%s) references missing parent %d", s.ID, s.Name, s.Parent)
		}
	}
}

// spanAttr is the value of s's attribute key, "" when it has none.
func spanAttr(s obs.SpanData, key string) string {
	for _, a := range s.Attrs {
		if a.Key == key {
			return a.Value
		}
	}
	return ""
}

// checkOneSpanPerColumn verifies the dispatch invariant: the spans named
// `name` carry each (p,q) column's coordinate exactly once — r is 0, a column
// being all R cuboids of its (p,q) — each with slabs = R.
func checkOneSpanPerColumn(t *testing.T, spans []obs.SpanData, name string, params core.Params) {
	t.Helper()
	checkSpansPerColumn(t, spans, name, params, 1, params.R)
}

// checkSpansPerColumn is checkOneSpanPerColumn for calls that each carry
// part of a column: n spans per (p,q) column, each with that many slabs —
// a chain's h links of R/h slabs.
func checkSpansPerColumn(t *testing.T, spans []obs.SpanData, name string, params core.Params, n, slabs int) {
	t.Helper()
	_, byName := spanIndex(spans)
	got := map[[3]int]int{}
	for _, s := range byName[name] {
		p, q, r, ok := s.Cuboid()
		if !ok {
			t.Errorf("%s span %d has no cuboid coordinate", name, s.ID)
			continue
		}
		if got := spanAttr(s, "slabs"); got != fmt.Sprint(slabs) {
			t.Errorf("%s span of column (%d,%d): slabs = %q, want %d", name, p, q, got, slabs)
		}
		got[[3]int{p, q, r}]++
	}
	for p := 0; p < params.P; p++ {
		for q := 0; q < params.Q; q++ {
			if got := got[[3]int{p, q, 0}]; got != n {
				t.Errorf("column (%d,%d): %d %q spans, want exactly %d", p, q, got, name, n)
			}
		}
	}
	if len(got) != params.P*params.Q {
		t.Errorf("%d distinct columns traced, want %d", len(got), params.P*params.Q)
	}
}

// TestTracedMultiplySpanTree checks the failure-free span tree of one remote
// multiply: a root, one cuboid span per dispatched (p,q) column, RPC attempts
// with wire children, worker compute spans parented across the wire, and no
// orphan parents — while the product stays byte-identical to an untraced run.
// (4,2,2) on two workers runs as the k-ordered chain: each column is two
// links of one slab, and the second link's running sum is a peer.fetch under
// its worker.compute.
func TestTracedMultiplySpanTree(t *testing.T) {
	rng := rand.New(rand.NewSource(500))
	a := bmat.RandomDense(rng, 32, 32, 4)
	b := bmat.RandomDense(rng, 32, 32, 4)
	params := core.Params{P: 4, Q: 2, R: 2}

	// Untraced reference.
	refAddrs, _ := startWorkers(t, 2)
	ref, err := DialOptions(refAddrs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	want, err := execute(ref, a, b, params)
	if err != nil {
		t.Fatal(err)
	}

	tr := obs.NewTracer()
	addrs := startTracedWorkers(t, 2, tr)
	opts := fastOpts()
	opts.Tracer = tr
	d, err := DialOptions(addrs, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	got, err := execute(d, a, b, params)
	if err != nil {
		t.Fatal(err)
	}
	bitIdentical(t, got, want)

	spans := tr.Snapshot().Spans
	byID, byName := spanIndex(spans)
	checkNoOrphans(t, spans)
	checkOneSpanPerColumn(t, spans, "cuboid", params)
	if len(byName["distnet.multiply"]) != 1 {
		t.Fatalf("%d root spans, want 1", len(byName["distnet.multiply"]))
	}
	root := byName["distnet.multiply"][0]
	if got := spanAttr(root, "placement"); got != "chain" {
		t.Fatalf("placement %q, want chain", got)
	}
	// Every link has an RPC attempt under its column, and (sharing the
	// tracer) one worker compute span parented to that attempt; every link
	// past the first takes its running sum from its predecessor.
	links := 2
	checkSpansPerColumn(t, spans, "rpc.multiply", params, links, params.R/links)
	checkSpansPerColumn(t, spans, "worker.compute", params, links, params.R/links)
	if n, want := len(byName["peer.fetch"]), params.P*params.Q*(links-1); n != want {
		t.Errorf("%d peer.fetch spans, want %d", n, want)
	}
	for _, s := range byName["peer.fetch"] {
		if parent, ok := byID[s.Parent]; !ok || parent.Name != "worker.compute" {
			t.Errorf("peer.fetch span %d not parented to a worker.compute span", s.ID)
		}
	}
	for _, c := range byName["cuboid"] {
		if c.Parent != root.ID {
			t.Errorf("cuboid span %d not parented to root", c.ID)
		}
	}
	for _, w := range byName["worker.compute"] {
		parent, ok := byID[w.Parent]
		if !ok || parent.Name != "rpc.multiply" {
			t.Errorf("worker.compute span %d not parented to an rpc.multiply attempt", w.ID)
		}
	}
	// Wire spans carry payload bytes.
	for _, s := range byName["wire.send"] {
		if s.Bytes <= 0 {
			t.Errorf("wire.send span %d carries no bytes", s.ID)
		}
	}
	if len(byName["wire.send"]) == 0 || len(byName["wire.recv"]) == 0 {
		t.Error("no wire send/recv spans recorded")
	}
	if len(byName["aggregate"]) != 1 {
		t.Errorf("%d aggregate spans, want 1", len(byName["aggregate"]))
	}
}

// TestTraceSpanTreeUnderChaos reruns the chaos multiply with tracing on:
// retries and reassignments may multiply the RPC-attempt spans, but each
// dispatched column must still close exactly one cuboid span, the tree must
// stay orphan-free, and the product must stay byte-identical to the
// failure-free untraced run.
func TestTraceSpanTreeUnderChaos(t *testing.T) {
	rng := rand.New(rand.NewSource(501))
	a := bmat.RandomDense(rng, 32, 32, 4)
	b := bmat.RandomDense(rng, 32, 32, 4)
	params := core.Params{P: 4, Q: 2, R: 2}

	refAddrs, _ := startWorkers(t, 3)
	ref, err := DialOptions(refAddrs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	want, err := execute(ref, a, b, params)
	if err != nil {
		t.Fatal(err)
	}

	tr := obs.NewTracer()
	addrs := startTracedWorkers(t, 3, tr)
	var proxied []string
	for i, addr := range addrs {
		p := startChaosProxy(t, addr, int64(520+i), chaosConfig{
			AcceptDelayMax: 10 * time.Millisecond,
			DropRate:       0.5,
			DropBytesMax:   48 << 10,
			CleanConns:     1,
		})
		proxied = append(proxied, p.Addr())
	}
	opts := fastOpts()
	opts.Tracer = tr
	d, err := DialOptions(proxied, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	for round := 0; round < 3; round++ {
		mark := tr.Len()
		got, err := execute(d, a, b, params)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		bitIdentical(t, got, want)

		spans := tr.SnapshotSince(mark).Spans
		checkOneSpanPerColumn(t, spans, "cuboid", params)
		// Under chaos a worker can still be computing an abandoned attempt
		// when the driver finishes, so worker-side spans from this round may
		// land after the snapshot — a chain link's peer.fetch before the
		// worker.compute it sits under; restrict the orphan check to
		// driver-side spans, whose parents always precede them in the buffer.
		var driverSide []obs.SpanData
		for _, s := range spans {
			if s.Name != "worker.compute" && s.Name != "wire.decode" && s.Name != "peer.fetch" {
				driverSide = append(driverSide, s)
			}
		}
		checkNoOrphans(t, driverSide)
	}
	if tr.Dropped() != 0 {
		t.Errorf("tracer dropped %d spans", tr.Dropped())
	}
}

// TestDriverDebugEndpointMidMultiply polls /debug/distme while a multiply is
// in flight on a deliberately slow worker and checks the snapshot decodes
// into the documented schema.
func TestDriverDebugEndpointMidMultiply(t *testing.T) {
	slowAddr := startSlowWorker(t, 10*time.Millisecond)
	opts := fastOpts()
	opts.DisableHeartbeat = true
	opts.Tracer = obs.NewTracer()
	opts.DebugAddr = "127.0.0.1:0"
	d, err := DialOptions([]string{slowAddr}, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if d.DebugAddr() == "" {
		t.Fatal("DebugAddr empty despite Options.DebugAddr")
	}

	rng := rand.New(rand.NewSource(502))
	a := bmat.RandomDense(rng, 16, 16, 4)
	b := bmat.RandomDense(rng, 16, 16, 4)
	done := make(chan error, 1)
	go func() {
		_, err := execute(d, a, b, core.Params{P: 4, Q: 4, R: 1})
		done <- err
	}()

	time.Sleep(20 * time.Millisecond) // well inside the 16×10ms serialized job
	resp, err := http.Get(fmt.Sprintf("http://%s/debug/distme", d.DebugAddr()))
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("Content-Type = %q", ct)
	}
	var snap DriverDebug
	if err := json.Unmarshal(body, &snap); err != nil {
		t.Fatalf("mid-multiply snapshot is not valid JSON: %v\n%s", err, body)
	}
	if snap.Kind != "driver" {
		t.Errorf("kind = %q, want driver", snap.Kind)
	}
	if len(snap.Health.Workers) != 1 {
		t.Errorf("%d health.workers rows, want 1", len(snap.Health.Workers))
	}
	if snap.Health.QueueDepth <= 0 {
		t.Errorf("health.queue_depth = %d mid-multiply, want > 0", snap.Health.QueueDepth)
	}
	if snap.Trace == nil {
		t.Error("trace summary absent despite tracer")
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// TestWorkerServeDebug checks the worker-side debug endpoint's schema.
func TestWorkerServeDebug(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	w, err := ServeOptions(l, WorkerOptions{Tracer: obs.NewTracer()})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := w.ServeDebug("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	d, err := DialOptions([]string{l.Addr().String()}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	rng := rand.New(rand.NewSource(503))
	a := bmat.RandomDense(rng, 8, 8, 4)
	got, err := execute(d, a, a, core.Params{P: 2, Q: 2, R: 1})
	if err != nil {
		t.Fatal(err)
	}
	want := matrix.Mul(a.ToDense(), a.ToDense()).Dense()
	if !got.ToDense().EqualApprox(want, 1e-9) {
		t.Fatal("product wrong")
	}
	// The same product once more as a resident pipeline operator.
	s := newSession(t, d)
	if _, err := s.Run(context.Background(), plan.Mul(plan.V("a"), plan.V("a")), putAll(t, s, map[string]*bmat.BlockMatrix{"a": a})); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(fmt.Sprintf("http://%s/debug/distme", srv.Addr()))
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	var snap WorkerDebug
	if err := json.Unmarshal(body, &snap); err != nil {
		t.Fatalf("worker snapshot is not valid JSON: %v\n%s", err, body)
	}
	if snap.Kind != "worker" {
		t.Errorf("kind = %q, want worker", snap.Kind)
	}
	if snap.Multiplies != 4 {
		t.Errorf("multiplies = %d, want 4", snap.Multiplies)
	}
	if snap.Addr == "" {
		t.Error("worker addr missing from snapshot")
	}
	if snap.Trace == nil || snap.Trace.Completed == 0 {
		t.Fatal("worker trace summary empty despite served cuboids")
	}
	// The page names the dense kernel, and every compute span carries its
	// cuboid's flops (two 4³ block products each) and the kernel that ran
	// them: GFLOP/s per cuboid is flops over the span's duration. So does
	// the pipeline multiply's worker.exec span (eight 4³ products).
	var page struct {
		Kernel string `json:"kernel"`
	}
	if err := json.Unmarshal(body, &page); err != nil || page.Kernel != matrix.KernelName() {
		t.Errorf("page kernel = %q (%v), want %q", page.Kernel, err, matrix.KernelName())
	}
	wantFlops := map[string]string{"worker.compute": "256", "worker.exec": "1024"}
	seen := map[string]int{}
	for _, s := range snap.Trace.Recent {
		if wantFlops[s.Name] == "" {
			continue
		}
		seen[s.Name]++
		attrs := map[string]string{}
		for _, a := range s.Attrs {
			attrs[a.Key] = a.Value
		}
		if attrs["flops"] != wantFlops[s.Name] || attrs["kernel"] != matrix.KernelName() {
			t.Errorf("%s span %d: flops=%q kernel=%q, want %s and %q", s.Name, s.ID, attrs["flops"], attrs["kernel"], wantFlops[s.Name], matrix.KernelName())
		}
	}
	if seen["worker.compute"] != 4 || seen["worker.exec"] != 1 {
		t.Errorf("%d worker.compute and %d worker.exec spans among the recent ones, want 4 and 1", seen["worker.compute"], seen["worker.exec"])
	}
}

// TestUntracedRunsRecordNothing pins the off state: a driver and workers
// without tracers must complete a multiply with no tracer anywhere to
// record into (compile-time nil threading), and MultiplyArgs must leave
// traceSpan zero so the wire carries the tracing-off sentinel.
func TestUntracedRunsRecordNothing(t *testing.T) {
	addrs, _ := startWorkers(t, 1)
	d, err := DialOptions(addrs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if d.Tracer() != nil {
		t.Fatal("untraced driver has a tracer")
	}
	if d.DebugAddr() != "" {
		t.Fatal("untraced driver serves a debug endpoint")
	}
	rng := rand.New(rand.NewSource(504))
	a := bmat.RandomDense(rng, 8, 8, 4)
	if _, err := execute(d, a, a, core.Params{P: 2, Q: 1, R: 1}); err != nil {
		t.Fatal(err)
	}
}

// TestObservabilityDocNamesEveryKey holds docs/OBSERVABILITY.md to the
// counter blocks both ways: the table row of each block names every JSON key
// of its struct literally, and every backticked lowercase key the row names
// is one of them — a counter can be neither added without its row nor
// removed with its row left behind.
func TestObservabilityDocNamesEveryKey(t *testing.T) {
	doc, err := os.ReadFile("../../docs/OBSERVABILITY.md")
	if err != nil {
		t.Fatal(err)
	}
	rows := map[string]string{} // "| `key` |" row head → the row
	for _, line := range strings.Split(string(doc), "\n") {
		if head, _, ok := strings.Cut(strings.TrimPrefix(line, "| "), " |"); ok && strings.HasPrefix(line, "| `") {
			rows[head] = line
		}
	}
	for _, c := range []struct {
		row   string
		stats any
	}{
		{"`net`", metrics.NetStats{}},
		{"`cache`", CacheStats{}},
		{"`store`", StoreStats{}},
		{"`pull`", WorkerPullStats{}},
		{"`meter`", JobMeterStats{}},
	} {
		row, ok := rows[c.row]
		if !ok {
			t.Errorf("docs/OBSERVABILITY.md has no %s row for %T", c.row, c.stats)
			continue
		}
		typ := reflect.TypeOf(c.stats)
		keys := map[string]bool{strings.Trim(c.row, "`"): true} // the row's own head
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			key, _, _ := strings.Cut(f.Tag.Get("json"), ",")
			keys[key] = true
			if !strings.Contains(row, "`"+key+"`") {
				t.Errorf("docs/OBSERVABILITY.md: the %s row does not name %T's key `%s`", c.row, c.stats, key)
			}
			// The keys of a list's elements (StoreStats.PeerLinks) may be
			// named too.
			if f.Type.Kind() == reflect.Slice && f.Type.Elem().Kind() == reflect.Struct {
				for j := 0; j < f.Type.Elem().NumField(); j++ {
					sub, _, _ := strings.Cut(f.Type.Elem().Field(j).Tag.Get("json"), ",")
					keys[sub] = true
				}
			}
		}
		for _, m := range docKey.FindAllStringSubmatch(row, -1) {
			if !keys[m[1]] {
				t.Errorf("docs/OBSERVABILITY.md: the %s row names `%s`, which %T does not have", c.row, m[1], c.stats)
			}
		}
	}
}

// docKey is a backticked lowercase snake_case word: how a table row names a
// JSON key.
var docKey = regexp.MustCompile("`([a-z][a-z0-9_]*)`")

// TestObservabilityDocTablesNameSnapshotFields holds four field tables of
// docs/OBSERVABILITY.md to the snapshots they document, both ways: every
// backticked name in a row's first column is a JSON key at that level of
// the snapshot, and every key at that level has a row.
func TestObservabilityDocTablesNameSnapshotFields(t *testing.T) {
	doc, err := os.ReadFile("../../docs/OBSERVABILITY.md")
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(string(doc), "\n")
	for _, c := range []struct {
		heading  string
		snapshot any
	}{
		{"### Driver snapshot fields", DriverDebug{}},
		{"### Worker snapshot fields", workerDebugPage{}},
		{"### Per-worker health fields (`health.workers[]`)", WorkerHealth{}},
		{"### Cluster aggregate fields (`health`)", ClusterHealth{}},
	} {
		keys := jsonKeys(reflect.TypeOf(c.snapshot))
		named := map[string]bool{}
		for _, cell := range firstColumn(lines, c.heading) {
			for _, m := range backticked.FindAllStringSubmatch(cell, -1) {
				named[m[1]] = true
				if !keys[m[1]] {
					t.Errorf("docs/OBSERVABILITY.md %q names `%s`, which %T does not have", c.heading, m[1], c.snapshot)
				}
			}
		}
		for _, key := range slices.Sorted(maps.Keys(keys)) {
			if !named[key] {
				t.Errorf("docs/OBSERVABILITY.md %q has no row for %T's key `%s`", c.heading, c.snapshot, key)
			}
		}
	}
}

// backticked is one backticked name.
var backticked = regexp.MustCompile("`([^`]+)`")

// firstColumn is the first cell of each row of the table under heading.
func firstColumn(lines []string, heading string) []string {
	var cells []string
	at := slices.Index(lines, heading)
	if at < 0 {
		return nil
	}
	for _, line := range lines[at+1:] {
		if strings.HasPrefix(line, "#") {
			break
		}
		if cell, _, ok := strings.Cut(strings.TrimPrefix(line, "|"), "|"); ok && strings.HasPrefix(line, "|") {
			cells = append(cells, cell)
		} else if len(cells) > 0 {
			break
		}
	}
	return cells
}

// jsonKeys are the JSON keys of typ's fields, an embedded struct's included.
func jsonKeys(typ reflect.Type) map[string]bool {
	keys := map[string]bool{}
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		if f.Anonymous {
			maps.Copy(keys, jsonKeys(f.Type))
			continue
		}
		if key, _, _ := strings.Cut(f.Tag.Get("json"), ","); key != "" && key != "-" {
			keys[key] = true
		}
	}
	return keys
}
