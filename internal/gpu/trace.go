package gpu

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"distme/internal/obs"
	"distme/internal/vclock"
)

// TraceEvent is one operation on the device timeline — the rows of the
// paper's Figure 5(b): H2D copies, kernel launches K_{i,k*k,j}, D2H copies.
type TraceEvent struct {
	// Task is the merge-order index of the task that issued the event.
	Task int
	// Stream is the stream index within the task (-1 for copy-engine ops).
	Stream int
	// Kind is "h2d", "kernel" or "d2h".
	Kind string
	// Label describes the operand, e.g. "B(2,0)" or "K(1,2*2,0)".
	Label string
	// Start and End are virtual seconds on the task's timeline.
	Start, End vclock.Time
	// Bytes is the payload for copies; Flops the work for kernels.
	Bytes int64
	Flops float64
}

// EnableTrace starts recording up to limit events per device (0 disables).
func (d *Device) EnableTrace(limit int) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.traceLimit = limit
	d.trace = nil
}

// Trace returns the recorded events, ordered by task then start time.
func (d *Device) Trace() []TraceEvent {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]TraceEvent, len(d.trace))
	copy(out, d.trace)
	sort.SliceStable(out, func(a, b int) bool {
		if out[a].Task != out[b].Task {
			return out[a].Task < out[b].Task
		}
		if out[a].Start != out[b].Start {
			return out[a].Start < out[b].Start
		}
		return out[a].Label < out[b].Label
	})
	return out
}

// recordTrace appends a task's events under the device lock (called from
// merge, which already holds ordering responsibilities).
func (d *Device) recordTrace(taskIdx int, events []TraceEvent) {
	if d.traceLimit <= 0 {
		return
	}
	for _, ev := range events {
		if len(d.trace) >= d.traceLimit {
			return
		}
		ev.Task = taskIdx
		d.trace = append(d.trace, ev)
	}
}

// FormatTrace renders events in Figure 5(b)'s spirit: one line per event,
// grouped by task and stream, with virtual microsecond timestamps.
func FormatTrace(events []TraceEvent) string {
	var sb strings.Builder
	lastTask := -1
	for _, ev := range events {
		if ev.Task != lastTask {
			fmt.Fprintf(&sb, "task t%d:\n", ev.Task)
			lastTask = ev.Task
		}
		lane := "copy "
		if ev.Stream >= 0 {
			lane = fmt.Sprintf("str %2d", ev.Stream)
		}
		switch ev.Kind {
		case "kernel":
			fmt.Fprintf(&sb, "  [%s] %8.1fµs–%8.1fµs  %-14s (%.0f flops)\n",
				lane, 1e6*float64(ev.Start), 1e6*float64(ev.End), ev.Label, ev.Flops)
		default:
			fmt.Fprintf(&sb, "  [%s] %8.1fµs–%8.1fµs  %-14s (%d B %s)\n",
				lane, 1e6*float64(ev.Start), 1e6*float64(ev.End), ev.Label, ev.Bytes, ev.Kind)
		}
	}
	return sb.String()
}

// Graft adds the recorded events to tr — a traced multiplication's
// Report.Trace — as KindDevice spans under its root span, so the Chrome
// trace shows kernels and copies overlapping (or not) inside the
// multiplication that launched them. The events' virtual window is
// affine-scaled onto the root's wall-clock window; virtual timestamps are
// kept verbatim in span attributes. t, the tracer tr came from, assigns the
// span IDs and records the spans too. Call EnableTrace before the
// multiplication so the events are its own.
func (d *Device) Graft(t *obs.Tracer, tr *obs.Trace) {
	events := d.Trace()
	if t == nil || tr == nil || len(events) == 0 {
		return
	}
	var root *obs.SpanData
	for i := range tr.Spans {
		if tr.Spans[i].Parent == 0 {
			root = &tr.Spans[i]
			break
		}
	}
	if root == nil {
		return
	}
	parent, wallStart, window := root.ID, root.Start, root.End.Sub(root.Start)
	vmin, vmax := events[0].Start, events[0].End
	for _, ev := range events {
		if ev.Start < vmin {
			vmin = ev.Start
		}
		if ev.End > vmax {
			vmax = ev.End
		}
	}
	vspan := float64(vmax - vmin)
	at := func(v vclock.Time) time.Time {
		if vspan <= 0 {
			return wallStart
		}
		return wallStart.Add(time.Duration(float64(window) * float64(v-vmin) / vspan))
	}
	for _, ev := range events {
		lane := fmt.Sprintf("gpu t%d copy", ev.Task)
		if ev.Stream >= 0 {
			lane = fmt.Sprintf("gpu t%d str %d", ev.Task, ev.Stream)
		}
		sd := obs.SpanData{
			Parent: parent,
			Name:   ev.Kind + " " + ev.Label,
			Kind:   obs.KindDevice,
			Worker: lane,
			P:      -1, Q: -1, R: -1,
			Start: at(ev.Start),
			End:   at(ev.End),
			Bytes: ev.Bytes,
			Attrs: []obs.Attr{
				{Key: "virtual-start-us", Value: fmt.Sprintf("%.1f", 1e6*float64(ev.Start))},
				{Key: "virtual-end-us", Value: fmt.Sprintf("%.1f", 1e6*float64(ev.End))},
			},
		}
		if ev.Flops > 0 {
			sd.Attrs = append(sd.Attrs, obs.Attr{Key: "flops", Value: fmt.Sprintf("%.0f", ev.Flops)})
		}
		sd.ID = t.AddCompleted(sd)
		tr.Spans = append(tr.Spans, sd)
	}
}
