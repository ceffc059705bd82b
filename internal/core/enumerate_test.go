package core

import "testing"

// TestForEachCuboidPartitionsGrid: for every (P,Q,R) a small grid admits,
// the enumerator's boxes are non-empty, disjoint and cover every voxel once,
// arrive in (p,q,r) order, and each axis is floor-balanced — tile sizes
// differ by at most one block.
func TestForEachCuboidPartitionsGrid(t *testing.T) {
	for _, g := range [][3]int{{1, 1, 1}, {4, 3, 5}, {7, 2, 6}, {5, 5, 1}} {
		I, J, K := g[0], g[1], g[2]
		for P := 1; P <= I; P++ {
			for Q := 1; Q <= J; Q++ {
				for R := 1; R <= K; R++ {
					params := Params{P: P, Q: Q, R: R}
					if err := params.Check(I, J, K); err != nil {
						t.Fatal(err)
					}
					seen := make([]int, I*J*K)
					n := 0
					ForEachCuboid(params, I, J, K, func(p, q, r int, box Box) {
						if want := (p*Q+q)*R + r; n != want {
							t.Fatalf("grid %v params %v: cuboid (%d,%d,%d) arrived at position %d, want %d", g, params, p, q, r, n, want)
						}
						n++
						ni, nj, nk := box.IHi-box.ILo, box.JHi-box.JLo, box.KHi-box.KLo
						if ni < I/P || ni > (I+P-1)/P || nj < J/Q || nj > (J+Q-1)/Q || nk < K/R || nk > (K+R-1)/R || ni*nj*nk == 0 {
							t.Fatalf("grid %v params %v: box %+v is empty or unbalanced", g, params, box)
						}
						for i := box.ILo; i < box.IHi; i++ {
							for j := box.JLo; j < box.JHi; j++ {
								for k := box.KLo; k < box.KHi; k++ {
									seen[(i*J+j)*K+k]++
								}
							}
						}
					})
					if n != params.Tasks() {
						t.Fatalf("grid %v params %v: %d cuboids, want %d", g, params, n, params.Tasks())
					}
					for v, c := range seen {
						if c != 1 {
							t.Fatalf("grid %v params %v: voxel %d covered %d times", g, params, v, c)
						}
					}
				}
			}
		}
	}
}

func TestParamsCheckRejectsOutsideGrid(t *testing.T) {
	for _, p := range []Params{{0, 1, 1}, {1, 0, 1}, {1, 1, 0}, {3, 1, 1}, {1, 4, 1}, {1, 1, 5}} {
		if p.Check(2, 3, 4) == nil {
			t.Errorf("params %v accepted on a 2x3x4 grid", p)
		}
	}
}
