package metrics

import (
	"sync/atomic"
	"testing"
)

func TestElasticStatsRecorderRoundTrip(t *testing.T) {
	var r Recorder
	e := r.Elastic.Live()
	atomic.AddInt64(&e.TaskRetries, 2)
	atomic.AddInt64(&e.SpeculativeLaunched, 1)
	atomic.AddInt64(&e.SpeculativeWins, 1)
	atomic.AddInt64(&e.FetchRetries, 3)
	atomic.AddInt64(&e.RecomputedPartials, 1)
	atomic.AddInt64(&e.FaultsInjected, 1)

	el := r.Elastic.Load()
	want := ElasticStats{
		TaskRetries: 2, SpeculativeLaunched: 1, SpeculativeWins: 1,
		FetchRetries: 3, RecomputedPartials: 1, FaultsInjected: 1,
	}
	if el != want {
		t.Fatalf("Elastic.Load() = %+v, want %+v", el, want)
	}
	if snap := r.Snapshot(); snap.Elastic != want {
		t.Fatalf("Snapshot().Elastic = %+v, want %+v", snap.Elastic, want)
	}
}

func TestElasticStatsSub(t *testing.T) {
	a := ElasticStats{TaskRetries: 5, SpeculativeLaunched: 3, SpeculativeWins: 2,
		FetchRetries: 7, RecomputedPartials: 4, FaultsInjected: 9}
	b := ElasticStats{TaskRetries: 2, SpeculativeLaunched: 1, SpeculativeWins: 1,
		FetchRetries: 3, RecomputedPartials: 1, FaultsInjected: 4}
	got := a.Sub(b)
	want := ElasticStats{TaskRetries: 3, SpeculativeLaunched: 2, SpeculativeWins: 1,
		FetchRetries: 4, RecomputedPartials: 3, FaultsInjected: 5}
	if got != want {
		t.Fatalf("Sub = %+v, want %+v", got, want)
	}
}
