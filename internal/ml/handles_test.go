package ml

import (
	"context"
	"errors"
	"testing"

	"distme/internal/bmat"
	"distme/internal/plan"
)

// failingSession is a PipelineSession over integer handles whose failAt-th
// Put or Pin call fails; it records which handles are resident.
type failingSession struct {
	failAt   int
	calls    int
	next     int
	resident map[int]bool
}

var errInjected = errors.New("injected session failure")

func (s *failingSession) step() error {
	s.calls++
	if s.calls == s.failAt {
		return errInjected
	}
	return nil
}

func (s *failingSession) Put(context.Context, *bmat.BlockMatrix) (int, error) {
	if err := s.step(); err != nil {
		return 0, err
	}
	s.next++
	s.resident[s.next] = true
	return s.next, nil
}

func (s *failingSession) Pin(context.Context, int) error { return s.step() }

func (s *failingSession) Free(_ context.Context, h int) error {
	delete(s.resident, h)
	return nil
}

func (s *failingSession) Run(context.Context, plan.Expr, map[string]int) (int, error) {
	return 0, errors.New("not used")
}

func (s *failingSession) Fetch(context.Context, int) (*bmat.BlockMatrix, error) {
	return nil, errors.New("not used")
}

// TestNewGNMFPipelineFreesOnError: whichever upload step fails, the handles
// uploaded before it are freed — a failed constructor leaves nothing
// resident — and a clean run keeps exactly V, W and H.
func TestNewGNMFPipelineFreesOnError(t *testing.T) {
	v := bmat.New(8, 8, 4)
	for _, tc := range []struct {
		name         string
		failAt       int
		wantResident int
	}{
		{"put V", 1, 0},
		{"pin V", 2, 0},
		{"put W", 3, 0},
		{"put H", 4, 0},
		{"no failure", 0, 3},
	} {
		s := &failingSession{failAt: tc.failAt, resident: map[int]bool{}}
		_, err := NewGNMFPipeline[int](context.Background(), s, v, GNMFOptions{Rank: 2, Seed: 1})
		if (err != nil) != (tc.failAt != 0) {
			t.Fatalf("%s: err = %v", tc.name, err)
		}
		if err != nil && !errors.Is(err, errInjected) {
			t.Fatalf("%s: err = %v, want the injected failure wrapped", tc.name, err)
		}
		if len(s.resident) != tc.wantResident {
			t.Fatalf("%s: %d handles still resident, want %d", tc.name, len(s.resident), tc.wantResident)
		}
	}
}
