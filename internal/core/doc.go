// Package core implements the paper's primary contribution: an extension of
// Amdahl's Law (in the Hill & Marty multicore formulation) that accounts for
// the growth of merging-phase (reduction) overhead with core count.
//
// The classic models are:
//
//	Amdahl (Eq. 1):   1 / (s + f/p)
//	CMP    (Eq. 2):   1 / ( (1-f)/perf(r) + f·r/(perf(r)·n) )
//	ACMP   (Eq. 3):   1 / ( (1-f)/perf(rl) + f/(perf(r)·(n-rl)/r + perf(rl)) )
//
// The extension decomposes the serial fraction s = 1-f into a constant part
// fcon and a reduction part fred = 1-fcon (both expressed as shares of s, as
// in Table II/III of the paper). The reduction part further splits into a
// constant share and an overhead share fored that is multiplied by a growth
// function of the parallel core count:
//
//	S(p) = s·( fcon + (1-fcon)·(1-fored) + (1-fcon)·fored·grow(p) )
//
// yielding the extended models (Eq. 4 and Eq. 5):
//
//	CMP:  1 / ( S(n/r)/perf(r) + f·r/(perf(r)·n) )
//	ACMP: 1 / ( S((n-rl)/r)/perf(rl) + f/(perf(r)·(n-rl)/r + perf(rl)) )
//
// Section V-E replaces the fcred/fored split with a computation/communication
// split (fcomp = fcomm = fred/2) and draws the communication growth function
// from a 2D-mesh interconnect model (Eq. 6–8); see CommModel.
//
// All model entry points are pure functions of their inputs so they can be
// swept across thousands of design points cheaply and deterministically.
// AppParams, CommModel and CriticalModel each implement Model, which
// SweepSymmetric and SweepAsymmetric evaluate over a design grid.
package core
