// Calls into the library's layers, shared by the three workloads: the
// public call sequence of a serial evaluation (so each layer can be timed
// from outside the library), the three 4-worker parallel routes, a short
// serving probe, and the naive reference.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/engine.hpp"
#include "molecule/molecule.hpp"
#include "recorder.hpp"
#include "serve/service.hpp"
#include "surface/quadrature.hpp"

namespace perfbench {

using gbpol::Engine;
using gbpol::Molecule;
using gbpol::Prepared;
using gbpol::RunOptions;
using gbpol::RunResult;

// Leaf capacity of every preparation (the library default).
inline constexpr std::uint32_t kLeafCapacity = 32;
// Workers per parallel route: the benchmark host has four cores.
inline constexpr int kWorkers = 4;

// Options with the trace and campaign destinations explicitly off, so no
// environment default can add file output to a timed run.
RunOptions quiet(RunOptions options);

struct Route {
  std::string name;
  RunOptions options;
};
// cilk4, replicated4_steal, owned4 — in that order.
std::vector<Route> parallel_routes();

// Surface quadrature with library defaults, inside a "surface" span.
gbpol::surface::SurfaceQuadrature timed_surface(Recorder* rec, int op,
                                                const Molecule& mol);
// Prepared::build inside a "prepared.build" span.
Prepared timed_prepare(Recorder* rec, int op, const Molecule& mol,
                       const gbpol::surface::SurfaceQuadrature& quad);

// The serial evaluation as its public calls, one span per layer: Born list
// build, far and near accumulation, push to atoms, the E_pol solver (charge
// binning), E_pol list build, far and near energy. List sizes and near pair
// counts go into `fields`. Returns E_pol, which differs from
// Engine::run(serial_options()) only by floating-point contraction of the
// final far + near sum.
double decomposed_serial(Recorder* rec, int op, const Prepared& prep,
                         json::Object& fields);

// Runs one route and appends its op record (kind "route"). With `traced`,
// an obs session brackets the run and the session's counters go into the
// record. Returns the op id.
int run_route(Recorder& rec, const Engine& engine, const Route& route,
              bool traced, bool timed, const std::string& ref,
              RunResult* out = nullptr);

// Appends the op record of one serve() call (kind "serve").
int record_serve(Recorder& rec, const gbpol::ServeResult& served, double seconds,
                 bool traced, bool timed, const std::string& ref);

// Serves a molecule four ways through a fresh Service — cold, cached (new
// eps_epol), delta (a sub-skin jittered pose, after one pose that creates
// the family's trajectory driver) and memoized (an exact repeat) — and
// records each as an untimed serve op. Gives the serve and delta layer
// metrics to workloads that do not serve.
void serving_probe(Recorder& rec, const Molecule& mol, std::uint64_t seed);

// Synthetic protein `protein` (molgen::synthetic_protein(n_atoms, protein))
// in a pose drawn from `seed`: one of the 24 axis-aligned orientations about
// its centroid, shifted by up to 5 A per axis. Seeds vary the input bits and
// the octrees' point order, not the molecule: a different protein moves the
// cost of an evaluation by 15-20%, and an arbitrary rotation moves the Born
// far-list size of the 40k protein by up to 30% (52.7M-68.5M entries over ten
// seeds) against 6% for the axis-aligned poses.
Molecule posed_protein(std::size_t n_atoms, std::uint64_t protein, std::uint64_t seed);

// Copy of `base` with about 1% of the atoms moved by less than 0.1 A, far
// inside the default 0.3 A delta skin.
Molecule jittered(const Molecule& base, std::uint64_t seed);

// Direct cold evaluation of a serve request (surface, Prepared::build,
// Engine::run with the service's run options): the twin of a cold or
// cached serve.
RunResult direct_cold(const gbpol::ServeRequest& request);

// Naive O(n^2) reference energy. Born radii are per-atom independent, so
// naive_born_radii_r6 runs on kWorkers atom ranges at once; naive_epol then
// runs serially. The result is bit-identical to run_naive, which
// check_naive_split verifies on a small molecule. Energies are cached in
// `cache_dir`, keyed by a hash of the atoms, the quadrature and the GB
// constants, so a changed surface never reads a stale reference.
double naive_energy(const Molecule& mol, const gbpol::surface::SurfaceQuadrature& quad,
                    const std::string& cache_dir);
bool check_naive_split();

}  // namespace perfbench
