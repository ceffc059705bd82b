package metrics

import (
	"fmt"
	"reflect"
	"sync/atomic"
)

// Counters is a block of counters declared once, as the fields of the
// stats struct T. Every field of T is an int64, a type over int64 such as
// time.Duration, or a struct of such fields. A call site names the field it
// counts and adds to it with one atomic operation,
//
//	atomic.AddInt64(&rec.Net.Live().CuboidRetries, 1)
//
// and a reader takes a snapshot with Load, which walks T's fields: no list
// of them is kept beside the declaration. The zero value is ready to use.
type Counters[T any] struct {
	_    [0]atomic.Int64 // 8-aligns live for 64-bit atomics on 32-bit platforms
	live T
}

// Live returns the block's live fields, to be touched only through
// sync/atomic.
func (c *Counters[T]) Live() *T { return &c.live }

// Load returns a copy of every field, each read with one atomic load.
func (c *Counters[T]) Load() T {
	var out T
	loadFields(reflect.ValueOf(&out).Elem(), reflect.ValueOf(&c.live).Elem())
	return out
}

func loadFields(dst, src reflect.Value) {
	for i := 0; i < dst.NumField(); i++ {
		d, s := dst.Field(i), src.Field(i)
		switch d.Kind() {
		case reflect.Struct:
			loadFields(d, s)
		case reflect.Int64:
			d.SetInt(atomic.LoadInt64((*int64)(s.Addr().UnsafePointer())))
		default:
			panic(fmt.Sprintf("metrics: %s.%s is a %s, not a counter", dst.Type(), dst.Type().Field(i).Name, d.Kind()))
		}
	}
}

// Sub returns the field-wise difference a − b of two snapshots of T, nested
// structs included. A field tagged `metrics:"max"` is a high-water mark,
// which does not subtract: it keeps a's value. A gauge subtracts like any
// counter, giving its change.
func Sub[T any](a, b T) T {
	out := a
	subFields(reflect.ValueOf(&out).Elem(), reflect.ValueOf(b))
	return out
}

func subFields(out, b reflect.Value) {
	for i := 0; i < out.NumField(); i++ {
		f := out.Field(i)
		switch {
		case f.Kind() == reflect.Struct:
			subFields(f, b.Field(i))
		case out.Type().Field(i).Tag.Get("metrics") != "max":
			f.SetInt(f.Int() - b.Field(i).Int())
		}
	}
}
