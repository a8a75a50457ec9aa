package topology

import (
	"math"
	"testing"
	"testing/quick"
)

func TestNewValidation(t *testing.T) {
	if _, err := New(Mesh2D, 0); err == nil {
		t.Error("New should reject zero cores")
	}
	if _, err := New(Mesh2D, 16); err != nil {
		t.Errorf("New rejected valid network: %v", err)
	}
}

func TestMeshCountsMatchPaper(t *testing.T) {
	// For a 16-core mesh (k=4): links = 2*4*3 = 24, parallel ops = 48,
	// average hops = 3.
	n, _ := New(Mesh2D, 16)
	if got := n.Links(); got != 24 {
		t.Errorf("16-core mesh links = %g, want 24", got)
	}
	if got := n.ParallelOps(); got != 48 {
		t.Errorf("16-core mesh parallel ops = %g, want 48", got)
	}
	if got := n.AvgHops(); got != 3 {
		t.Errorf("16-core mesh avg hops = %g, want 3", got)
	}
}

func TestGrowCommApproximation(t *testing.T) {
	// Equation 8: exact form x·(nc-1)/(2·sqrt(nc)); approximation sqrt(nc)/2.
	for _, nc := range []int{4, 16, 64, 256} {
		n, _ := New(Mesh2D, nc)
		exact := n.GrowComm(1)
		want := float64(nc-1) / (2 * math.Sqrt(float64(nc)))
		if math.Abs(exact-want) > 1e-9 {
			t.Errorf("nc=%d: exact growcomm = %g, want %g", nc, exact, want)
		}
		approx := n.GrowCommApprox()
		if math.Abs(approx-math.Sqrt(float64(nc))/2) > 1e-9 {
			t.Errorf("nc=%d: approx growcomm = %g", nc, approx)
		}
		// Approximation error shrinks with nc.
		if rel := math.Abs(exact-approx) / approx; rel > 1.0/math.Sqrt(float64(nc)) {
			t.Errorf("nc=%d: approximation error %g too large", nc, rel)
		}
	}
}

func TestGrowCommScalesWithElements(t *testing.T) {
	n, _ := New(Mesh2D, 64)
	g1 := n.GrowComm(1)
	g8 := n.GrowComm(8)
	if math.Abs(g8-8*g1) > 1e-9 {
		t.Errorf("growcomm should be linear in x: g8=%g g1=%g", g8, g1)
	}
}

func TestSingleCoreHasNoComm(t *testing.T) {
	for _, k := range []Kind{Mesh2D, Torus2D, Ring, Crossbar} {
		n, _ := New(k, 1)
		if n.GrowComm(4) != 0 || n.CommOps(4) != 0 {
			t.Errorf("%s: single core should have zero comm", k)
		}
	}
}

func TestTopologyCommOrdering(t *testing.T) {
	// Richer topologies communicate no slower: crossbar <= torus <= mesh
	// in growcomm, for square core counts.
	for _, nc := range []int{16, 64, 256} {
		mesh, _ := New(Mesh2D, nc)
		torus, _ := New(Torus2D, nc)
		xbar, _ := New(Crossbar, nc)
		if xbar.GrowComm(1) > torus.GrowComm(1)+1e-9 {
			t.Errorf("nc=%d: crossbar growcomm above torus", nc)
		}
		if torus.GrowComm(1) > mesh.GrowComm(1)+1e-9 {
			t.Errorf("nc=%d: torus growcomm above mesh", nc)
		}
	}
}

func TestMeshCoordAndHopDistance(t *testing.T) {
	n, _ := New(Mesh2D, 16)
	c, err := n.MeshCoord(5)
	if err != nil || c != (Coord{X: 1, Y: 1}) {
		t.Errorf("MeshCoord(5) = %v, %v", c, err)
	}
	if _, err := n.MeshCoord(16); err == nil {
		t.Error("MeshCoord should reject out-of-range ids")
	}
	d, err := n.HopDistance(0, 15) // (0,0) -> (3,3)
	if err != nil || d != 6 {
		t.Errorf("HopDistance(0,15) = %d, %v; want 6", d, err)
	}
	d, _ = n.HopDistance(3, 3)
	if d != 0 {
		t.Errorf("self distance = %d, want 0", d)
	}
}

func TestTorusWrapsAround(t *testing.T) {
	n, _ := New(Torus2D, 16)
	// (0,0) -> (3,0): 3 hops on a mesh, 1 on a torus.
	d, err := n.HopDistance(0, 3)
	if err != nil || d != 1 {
		t.Errorf("torus HopDistance(0,3) = %d, %v; want 1", d, err)
	}
}

func TestRingDistance(t *testing.T) {
	n, _ := New(Ring, 8)
	d, _ := n.HopDistance(0, 7)
	if d != 1 {
		t.Errorf("ring HopDistance(0,7) = %d, want 1", d)
	}
	d, _ = n.HopDistance(0, 4)
	if d != 4 {
		t.Errorf("ring HopDistance(0,4) = %d, want 4", d)
	}
}

func TestHopDistanceProperties(t *testing.T) {
	cfg := &quick.Config{MaxCount: 400}
	pred := func(a, b uint8, kindRaw uint8) bool {
		kinds := []Kind{Mesh2D, Torus2D, Ring, Crossbar}
		k := kinds[int(kindRaw)%len(kinds)]
		n, err := New(k, 64)
		if err != nil {
			return false
		}
		ai, bi := int(a)%64, int(b)%64
		dab, err1 := n.HopDistance(ai, bi)
		dba, err2 := n.HopDistance(bi, ai)
		if err1 != nil || err2 != nil {
			return false
		}
		// Symmetry, identity, and diameter bound.
		if dab != dba {
			return false
		}
		if ai == bi && dab != 0 {
			return false
		}
		if ai != bi && dab < 1 {
			return false
		}
		return float64(dab) <= n.Diameter()+1e-9
	}
	if err := quick.Check(pred, cfg); err != nil {
		t.Error(err)
	}
}

func TestTriangleInequalityMesh(t *testing.T) {
	n, _ := New(Mesh2D, 64)
	cfg := &quick.Config{MaxCount: 300}
	pred := func(a, b, c uint8) bool {
		ai, bi, ci := int(a)%64, int(b)%64, int(c)%64
		ab, _ := n.HopDistance(ai, bi)
		bc, _ := n.HopDistance(bi, ci)
		ac, _ := n.HopDistance(ai, ci)
		return ac <= ab+bc
	}
	if err := quick.Check(pred, cfg); err != nil {
		t.Error(err)
	}
}

func TestDiameterAtLeastAvgHops(t *testing.T) {
	for _, k := range []Kind{Mesh2D, Torus2D, Ring, Crossbar} {
		for _, nc := range []int{4, 16, 64} {
			n, _ := New(k, nc)
			if n.Diameter() < n.AvgHops()-1e-9 {
				t.Errorf("%s nc=%d: diameter %g below avg hops %g", k, nc, n.Diameter(), n.AvgHops())
			}
		}
	}
}
