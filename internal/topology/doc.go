// Package topology models on-chip interconnection networks for the
// communication-aware extension of the merging-phase speedup model
// (Section V-E of the paper). The paper derives, for a 2D mesh with nc
// cores, the communication growth function
//
//	growcomm(nc) = 2·(nc-1)·x·(sqrt(nc)-1) / (4·sqrt(nc)·(sqrt(nc)-1)) ≈ sqrt(nc)/2
//
// (Equation 8, with x = 1 reduction element). This package implements the
// exact and approximate forms for the mesh, plus torus and ring topologies
// used as ablations, and the underlying link/hop arithmetic.
//
// Both consumers rely on this package being pure arithmetic: internal/sim
// places each core on the mesh with MeshCoord when it builds a machine,
// and internal/core folds its growth functions into analytic speedup
// curves — so every function here is deterministic and allocation-free.
package topology
