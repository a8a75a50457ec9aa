package topology

import (
	"errors"
	"fmt"
	"math"
)

// Kind identifies an interconnect topology.
type Kind int

// Supported topologies. Mesh2D is the one used in the paper; Torus2D and
// Ring are provided for ablation studies on Equation 8.
const (
	Mesh2D Kind = iota
	Torus2D
	Ring
	Crossbar
)

// String returns the topology name.
func (k Kind) String() string {
	switch k {
	case Mesh2D:
		return "mesh2d"
	case Torus2D:
		return "torus2d"
	case Ring:
		return "ring"
	case Crossbar:
		return "crossbar"
	default:
		return fmt.Sprintf("topology.Kind(%d)", int(k))
	}
}

// Network describes an interconnect instance over a given core count.
type Network struct {
	Kind  Kind
	Cores int // number of endpoints; must be >= 1
}

// New validates and constructs a Network.
func New(kind Kind, cores int) (Network, error) {
	if cores < 1 {
		return Network{}, errors.New("topology: core count must be >= 1")
	}
	return Network{Kind: kind, Cores: cores}, nil
}

// side returns the logical side length sqrt(nc) used by the paper's mesh
// expressions. The paper treats nc as a perfect square; for other counts we
// use the real-valued square root, which keeps the model smooth across
// sweeps (the approximation already discards integer effects).
func (n Network) side() float64 { return math.Sqrt(float64(n.Cores)) }

// Links returns the number of physical links. For a 2D mesh of side k the
// paper counts 2·k·(k-1) links; bi-directional operation doubles the number
// of simultaneous transfers (see ParallelOps).
func (n Network) Links() float64 {
	k := n.side()
	switch n.Kind {
	case Mesh2D:
		return 2 * k * (k - 1)
	case Torus2D:
		return 2 * k * k
	case Ring:
		if n.Cores == 1 {
			return 0
		}
		return float64(n.Cores)
	case Crossbar:
		c := float64(n.Cores)
		return c * (c - 1) / 2
	default:
		return 0
	}
}

// ParallelOps returns the number of link transfers the network can carry in
// one time unit assuming bi-directional links, i.e. 2·Links. This is the
// denominator of Equation 8.
func (n Network) ParallelOps() float64 { return 2 * n.Links() }

// AvgHops returns the average number of hops a packet travels between two
// endpoints. The paper uses sqrt(nc)-1 for the 2D mesh (average Manhattan
// distance to the merging core).
func (n Network) AvgHops() float64 {
	k := n.side()
	switch n.Kind {
	case Mesh2D:
		if k <= 1 {
			return 0
		}
		return k - 1
	case Torus2D:
		if k <= 1 {
			return 0
		}
		return k / 2
	case Ring:
		if n.Cores <= 1 {
			return 0
		}
		return float64(n.Cores) / 4
	case Crossbar:
		if n.Cores <= 1 {
			return 0
		}
		return 1
	default:
		return 0
	}
}

// Diameter returns the maximum hop distance between two endpoints.
func (n Network) Diameter() float64 {
	k := n.side()
	switch n.Kind {
	case Mesh2D:
		if k <= 1 {
			return 0
		}
		return 2 * (k - 1)
	case Torus2D:
		if k <= 1 {
			return 0
		}
		return k // 2 * k/2
	case Ring:
		if n.Cores <= 1 {
			return 0
		}
		return float64(n.Cores) / 2
	case Crossbar:
		if n.Cores <= 1 {
			return 0
		}
		return 1
	default:
		return 0
	}
}

// CommOps returns the total number of link-level operations needed for a
// reduction-phase all-to-one gather plus one-to-all broadcast of x reduction
// elements over nc cores: 2·(nc-1)·x transfers, each travelling AvgHops()
// hops (each hop costs one unit).
func (n Network) CommOps(x int) float64 {
	if n.Cores <= 1 {
		return 0
	}
	return 2 * float64(n.Cores-1) * float64(x) * n.AvgHops()
}

// GrowComm returns the communication growth function for a reduction over x
// elements on this network: total hop-operations divided by the operations
// the network sustains per unit time (Equation 8 generalized to the other
// topologies). For the 2D mesh this is
//
//	2·(nc-1)·x·(sqrt(nc)-1) / (4·sqrt(nc)·(sqrt(nc)-1)) = x·(nc-1)/(2·sqrt(nc))
//
// which the paper approximates as sqrt(nc)/2 for x = 1.
func (n Network) GrowComm(x int) float64 {
	if n.Cores <= 1 {
		return 0
	}
	ops := n.ParallelOps()
	if ops == 0 {
		return 0
	}
	return n.CommOps(x) / ops
}

// GrowCommApprox returns the paper's closed-form approximation sqrt(nc)/2
// for the 2D mesh with x = 1. For other topologies it returns the exact
// GrowComm(1) since the paper gives no approximation for them.
func (n Network) GrowCommApprox() float64 {
	if n.Kind == Mesh2D {
		return math.Sqrt(float64(n.Cores)) / 2
	}
	return n.GrowComm(1)
}

// Coord is a 2D router coordinate on a mesh or torus.
type Coord struct{ X, Y int }

// MeshCoord maps a core id to its router coordinate on the smallest square
// mesh that holds n.Cores endpoints (row-major placement).
func (n Network) MeshCoord(id int) (Coord, error) {
	if id < 0 || id >= n.Cores {
		return Coord{}, fmt.Errorf("topology: core id %d out of range [0,%d)", id, n.Cores)
	}
	k := int(math.Ceil(math.Sqrt(float64(n.Cores))))
	if k == 0 {
		k = 1
	}
	return Coord{X: id % k, Y: id / k}, nil
}

// HopDistance returns the routing distance in hops between cores a and b
// under dimension-ordered routing.
func (n Network) HopDistance(a, b int) (int, error) {
	if n.Kind == Crossbar {
		if a == b {
			return 0, nil
		}
		return 1, nil
	}
	if n.Kind == Ring {
		if a < 0 || a >= n.Cores || b < 0 || b >= n.Cores {
			return 0, errors.New("topology: core id out of range")
		}
		d := a - b
		if d < 0 {
			d = -d
		}
		if wrap := n.Cores - d; wrap < d {
			d = wrap
		}
		return d, nil
	}
	ca, err := n.MeshCoord(a)
	if err != nil {
		return 0, err
	}
	cb, err := n.MeshCoord(b)
	if err != nil {
		return 0, err
	}
	k := int(math.Ceil(math.Sqrt(float64(n.Cores))))
	dx := abs(ca.X - cb.X)
	dy := abs(ca.Y - cb.Y)
	if n.Kind == Torus2D {
		if w := k - dx; w < dx {
			dx = w
		}
		if w := k - dy; w < dy {
			dy = w
		}
	}
	return dx + dy, nil
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}
