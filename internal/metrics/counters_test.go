package metrics_test

import (
	"reflect"
	"testing"

	"distme/internal/distnet"
	"distme/internal/metrics"
)

// TestCountersDerivedFromFields holds the derived snapshot and difference
// to every field of each stats struct: a field the walk skipped would read
// back zero or fail to subtract. HeartbeatRTTMax is the one high-water mark
// and keeps the minuend; every other field, the ResidentBytes gauge
// included, subtracts.
func TestCountersDerivedFromFields(t *testing.T) {
	t.Run("NetStats", checkDerived[metrics.NetStats])
	t.Run("ElasticStats", checkDerived[metrics.ElasticStats])
	t.Run("Snapshot", checkDerived[metrics.Snapshot])
	t.Run("JobMeterStats", checkDerived[distnet.JobMeterStats])
	t.Run("WorkerPullStats", checkDerived[distnet.WorkerPullStats])
}

// leaf is one counter of a stats struct, nested structs flattened.
type leaf struct {
	name string
	max  bool
	v    reflect.Value
}

func leaves(prefix string, v reflect.Value) []leaf {
	var out []leaf
	for i := 0; i < v.NumField(); i++ {
		f := v.Type().Field(i)
		if f.Type.Kind() == reflect.Struct {
			out = append(out, leaves(prefix+f.Name+".", v.Field(i))...)
			continue
		}
		out = append(out, leaf{prefix + f.Name, f.Tag.Get("metrics") == "max", v.Field(i)})
	}
	return out
}

func checkDerived[T any](t *testing.T) {
	// Field i holds 1000·(i+1)+7 live and i+1 in the subtrahend: distinct
	// everywhere, so a field read or subtracted from its neighbour shows.
	var c metrics.Counters[T]
	var b T
	live, sub := leaves("", reflect.ValueOf(c.Live()).Elem()), leaves("", reflect.ValueOf(&b).Elem())
	for i := range live {
		live[i].v.SetInt(int64(1000*(i+1) + 7))
		sub[i].v.SetInt(int64(i + 1))
	}
	a := c.Load()
	diff := metrics.Sub(a, b)
	if m, ok := any(a).(interface{ Sub(T) T }); ok {
		if got := m.Sub(b); !reflect.DeepEqual(got, diff) {
			t.Fatalf("%T.Sub = %+v, metrics.Sub = %+v", a, got, diff)
		}
	}
	loaded, diffed := leaves("", reflect.ValueOf(&a).Elem()), leaves("", reflect.ValueOf(&diff).Elem())
	for i, l := range loaded {
		if got, want := l.v.Int(), int64(1000*(i+1)+7); got != want {
			t.Errorf("Load: %s = %d, want %d", l.name, got, want)
		}
		want := int64(1000*(i+1)+7) - int64(i+1)
		if l.max {
			want = int64(1000*(i+1) + 7)
		}
		if got := diffed[i].v.Int(); got != want {
			t.Errorf("Sub: %s = %d, want %d", l.name, got, want)
		}
		if l.max && l.name != "HeartbeatRTTMax" && l.name != "Net.HeartbeatRTTMax" {
			t.Errorf("%s is tagged max; only HeartbeatRTTMax is a high-water mark", l.name)
		}
	}
}
