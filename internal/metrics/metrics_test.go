package metrics

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestRecorderBytesAndDurations(t *testing.T) {
	var r Recorder
	r.AddBytes(StepRepartition, 100)
	r.AddBytes(StepRepartition, 50)
	r.AddBytes(StepAggregation, 25)
	r.AddDuration(StepLocalMultiply, time.Second)
	if r.Bytes(StepRepartition) != 150 {
		t.Fatalf("repartition bytes = %d", r.Bytes(StepRepartition))
	}
	if r.CommunicationBytes() != 175 {
		t.Fatalf("communication = %d, want 175", r.CommunicationBytes())
	}
	if r.Duration(StepLocalMultiply) != time.Second {
		t.Fatal("duration lost")
	}
}

func TestRecorderConcurrentSafety(t *testing.T) {
	var r Recorder
	var wg sync.WaitGroup
	stop := make(chan struct{})
	go func() {
		// A reader snapshotting mid-flight: under -race, Load must be atomic.
		for {
			select {
			case <-stop:
				return
			default:
				_ = r.Snapshot()
			}
		}
	}()
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				r.AddBytes(StepAggregation, 1)
				r.AddSpill(1)
				atomic.AddInt64(&r.Net.Live().CuboidRetries, 1)
				atomic.AddInt64(&r.Elastic.Live().TaskRetries, 1)
				r.ObserveHeartbeatRTT(time.Duration(j))
			}
		}()
	}
	wg.Wait()
	close(stop)
	if r.Bytes(StepAggregation) != 16000 {
		t.Fatalf("lost updates: %d", r.Bytes(StepAggregation))
	}
	if r.SpillBytes() != 16000 {
		t.Fatalf("lost spills: %d", r.SpillBytes())
	}
	net, el := r.Net.Load(), r.Elastic.Load()
	if net.CuboidRetries != 16000 || el.TaskRetries != 16000 {
		t.Fatalf("lost counter adds: cuboid_retries %d, task_retries %d", net.CuboidRetries, el.TaskRetries)
	}
	if net.HeartbeatRTTCount != 16000 || net.HeartbeatRTTNanos != 16*999*1000/2 || net.HeartbeatRTTMax != 999 {
		t.Fatalf("heartbeat RTT count %d, sum %d, max %v", net.HeartbeatRTTCount, net.HeartbeatRTTNanos, net.HeartbeatRTTMax)
	}
}

func TestStepRatiosSumToOne(t *testing.T) {
	var r Recorder
	r.AddDuration(StepRepartition, 1*time.Second)
	r.AddDuration(StepLocalMultiply, 2*time.Second)
	r.AddDuration(StepAggregation, 1*time.Second)
	a, b, c := r.StepRatios()
	if a != 0.25 || b != 0.5 || c != 0.25 {
		t.Fatalf("ratios = %g, %g, %g", a, b, c)
	}
}

func TestStepRatiosEmpty(t *testing.T) {
	var r Recorder
	a, b, c := r.StepRatios()
	if a != 0 || b != 0 || c != 0 {
		t.Fatal("empty recorder should report zero ratios")
	}
}

func TestSnapshot(t *testing.T) {
	var r Recorder
	r.AddBytes(StepRepartition, 10)
	r.AddBytes(StepAggregation, 20)
	s := r.Snapshot()
	if s.RepartitionBytes != 10 || s.AggregationBytes != 20 {
		t.Fatalf("snapshot = %+v", s)
	}
	if s.CommunicationBytes() != 30 {
		t.Fatalf("snapshot communication = %d", s.CommunicationBytes())
	}
	if s.String() == "" {
		t.Fatal("snapshot should render")
	}
}

func TestFormatBytes(t *testing.T) {
	cases := map[int64]string{
		0:        "0 B",
		512:      "512 B",
		1024:     "1.00 KiB",
		1536:     "1.50 KiB",
		1 << 20:  "1.00 MiB",
		1 << 30:  "1.00 GiB",
		36 << 40: "36.00 TiB",
		3 << 50:  "3.00 PiB",
	}
	for n, want := range cases {
		if got := FormatBytes(n); got != want {
			t.Errorf("FormatBytes(%d) = %q, want %q", n, got, want)
		}
	}
}

func TestStepString(t *testing.T) {
	if StepRepartition.String() != "matrix repartition" {
		t.Fatal("step name wrong")
	}
	if Step(42).String() == "" {
		t.Fatal("unknown step should render")
	}
}
