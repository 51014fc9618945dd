// End-to-end GB polarization-energy drivers — the implementations compared
// throughout the paper's evaluation, all reached through gbpol::Engine
// (core/engine.hpp):
//
//   OCT_SERIAL    — single-threaded reference of the octree approximation
//                   (detail::oct_serial; also the trajectory and serving path)
//   OCT_CILK      — the canonical chunk-fold driver at P = 1 rank with p
//                   work-stealing workers (the paper's cilk++ implementation)
//   OCT_MPI       — the same driver with P ranks, 1 worker each (Fig. 4)
//   OCT_MPI+CILK  — the same driver with P ranks x p workers (hybrid)
//
// The three parallel shapes are one function (detail::oct_balanced): chunks
// sized from P·p, computed fresh-from-zero in waves of at most p per rank,
// folded in ascending chunk order. Shapes with the same P·p therefore give
// bit-identical energies and Born radii, and every shape inherits death
// recovery, checkpoint/resume and the integrity guards. Owned-mode data
// distribution is a data view of the same function: ranks hold their owned
// leaf ranges plus a halo instead of the whole molecule, at any P x p.
//
// Every driver returns the energy, the Born radii, and a timing breakdown:
// measured CPU seconds for compute, modeled seconds for communication, and
// the modeled cluster makespan (see mpisim/runtime.hpp for the model).
#pragma once

#include "ckpt/snapshot.hpp"
#include "core/born_octree.hpp"
#include "core/epol_octree.hpp"
#include "core/prepared.hpp"
#include "core/workdiv.hpp"
#include "mpisim/cluster.hpp"
#include "mpisim/faults.hpp"
#include "support/error_class.hpp"
