#include "layers.hpp"

#include <algorithm>
#include <array>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <numbers>
#include <optional>
#include <thread>

#include "core/born_octree.hpp"
#include "core/epol_octree.hpp"
#include "core/interaction_lists.hpp"
#include "core/naive.hpp"
#include "molecule/generate.hpp"
#include "obs/trace.hpp"
#include "support/rng.hpp"

namespace perfbench {

using gbpol::InteractionLists;
namespace surface = gbpol::surface;

namespace {

double list_mib(const InteractionLists& lists) {
  const double bytes =
      static_cast<double>(lists.far.size() * sizeof(InteractionLists::Far) +
                          lists.near.size() * sizeof(InteractionLists::Near));
  return bytes / (1024.0 * 1024.0);
}

// Largest over mean per-rank compute (straggler surplus included, as in
// RunResult::max_compute_seconds); null for single-rank routes.
json::Value rank_imbalance(const RunResult& res) {
  if (res.rank_results.size() < 2) return json::Value(nullptr);
  double max = 0.0, sum = 0.0;
  for (const auto& r : res.rank_results) {
    const double c = r.compute_seconds + r.straggler_seconds;
    max = std::max(max, c);
    sum += c;
  }
  const double mean = sum / static_cast<double>(res.rank_results.size());
  return mean > 0.0 ? number(max / mean) : json::Value(nullptr);
}

// Seconds inside each driver phase, summed over every thread of the
// session, from the phase-end events (a = duration in ns). Ranked and
// unranked (cilk) routes both emit these, unlike the per-rank busy slots.
std::array<double, gbpol::obs::kPhaseCount> phase_seconds(const gbpol::obs::Trace& trace) {
  std::array<double, gbpol::obs::kPhaseCount> seconds{};
  for (const auto& stream : trace.streams) {
    for (const auto& e : stream.events) {
      if (e.kind != gbpol::obs::EventKind::kPhaseEnd) continue;
      if (e.arg < gbpol::obs::kPhaseCount) seconds[e.arg] += static_cast<double>(e.a) * 1e-9;
    }
  }
  return seconds;
}

void fnv_bytes(std::uint64_t& h, const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ull;
  }
}

gbpol::NaiveResult split_naive(const Molecule& mol, const surface::SurfaceQuadrature& quad,
                               const gbpol::GBConstants& constants) {
  const auto atoms = mol.atoms();
  const std::size_t n = atoms.size();
  std::vector<std::vector<double>> parts(kWorkers);
  std::vector<std::exception_ptr> errors(kWorkers);
  {
    std::vector<std::jthread> workers;
    for (int w = 0; w < kWorkers; ++w) {
      const std::size_t lo = n * static_cast<std::size_t>(w) / kWorkers;
      const std::size_t hi = n * static_cast<std::size_t>(w + 1) / kWorkers;
      workers.emplace_back([&, w, lo, hi] {
        try {
          parts[static_cast<std::size_t>(w)] =
              gbpol::naive_born_radii_r6(atoms.subspan(lo, hi - lo), quad);
        } catch (...) {
          errors[static_cast<std::size_t>(w)] = std::current_exception();
        }
      });
    }
  }
  for (const std::exception_ptr& e : errors)
    if (e) std::rethrow_exception(e);
  gbpol::NaiveResult result;
  for (const auto& part : parts)
    result.born_radii.insert(result.born_radii.end(), part.begin(), part.end());
  result.energy = gbpol::naive_epol(atoms, result.born_radii, constants);
  return result;
}

}  // namespace

RunOptions quiet(RunOptions options) {
  // "-" is the explicit-off value (engine.hpp). Move-assigned from a
  // std::string: GCC 12 raises a false -Wrestrict on assignment from a
  // literal here.
  options.trace_out = std::string("-");
  options.campaign_dir = std::string("-");
  return options;
}

std::vector<Route> parallel_routes() {
  RunOptions replicated = gbpol::distributed_options(kWorkers);
  replicated.balance = gbpol::BalancePolicy::kSteal;
  RunOptions owned = gbpol::distributed_options(kWorkers);
  owned.distribution = gbpol::DataDistribution::kOwned;
  return {{"cilk4", quiet(gbpol::cilk_options(kWorkers))},
          {"replicated4_steal", quiet(replicated)},
          {"owned4", quiet(owned)}};
}

surface::SurfaceQuadrature timed_surface(Recorder* rec, int op, const Molecule& mol) {
  ScopedSpan span(rec, "surface", op);
  return surface::molecular_surface_quadrature(mol, {});
}

Prepared timed_prepare(Recorder* rec, int op, const Molecule& mol,
                       const surface::SurfaceQuadrature& quad) {
  ScopedSpan span(rec, "prepared.build", op);
  return Prepared::build(mol, quad, kLeafCapacity);
}

double decomposed_serial(Recorder* rec, int op, const Prepared& prep,
                         json::Object& fields) {
  const gbpol::ApproxParams params;
  const gbpol::GBConstants constants;
  const gbpol::BornSolver born(prep, params);
  gbpol::BornAccumulator acc = born.make_accumulator();
  {
    std::optional<InteractionLists> lists;
    {
      ScopedSpan span(rec, "born_lists.build", op);
      lists.emplace(born.build_lists(
          0, static_cast<std::uint32_t>(prep.q_tree.leaves().size())));
    }
    {
      ScopedSpan span(rec, "born_far", op);
      born.accumulate_far_range(*lists, 0, lists->far.size(), acc);
    }
    {
      ScopedSpan span(rec, "born_near", op);
      born.accumulate_near_range(*lists, 0, lists->near.size(), acc);
    }
    fields.emplace_back("born_far_entries", json::Value(lists->far.size()));
    fields.emplace_back("born_near_entries", json::Value(lists->near.size()));
    fields.emplace_back("born_near_pairs", json::Value(lists->near_point_pairs));
    fields.emplace_back("born_lists_mib", json::Value(list_mib(*lists)));
  }

  std::vector<double> born_sorted(prep.num_atoms(), 0.0);
  {
    ScopedSpan span(rec, "born_push", op);
    born.push_to_atoms(acc, 0, static_cast<std::uint32_t>(prep.num_atoms()), born_sorted);
  }

  std::optional<gbpol::EpolSolver> epol;
  {
    ScopedSpan span(rec, "epol_bins", op);
    epol.emplace(prep, born_sorted, params, constants);
  }
  std::optional<InteractionLists> lists;
  {
    ScopedSpan span(rec, "epol_lists.build", op);
    lists.emplace(epol->build_lists(
        0, static_cast<std::uint32_t>(prep.atoms_tree.leaves().size())));
  }
  double far = 0.0, near = 0.0;
  {
    ScopedSpan span(rec, "epol_far", op);
    far = epol->energy_far_range(*lists, 0, lists->far.size());
  }
  {
    ScopedSpan span(rec, "epol_near", op);
    near = epol->energy_near_range(*lists, 0, lists->near.size());
  }
  fields.emplace_back("epol_far_entries", json::Value(lists->far.size()));
  fields.emplace_back("epol_near_entries", json::Value(lists->near.size()));
  fields.emplace_back("epol_near_pairs", json::Value(lists->near_point_pairs));
  fields.emplace_back("epol_lists_mib", json::Value(list_mib(*lists)));
  fields.emplace_back("qpoints", json::Value(prep.num_qpoints()));
  fields.emplace_back("footprint_mib",
                      json::Value(static_cast<double>(prep.replicated_footprint().bytes) /
                                  (1024.0 * 1024.0)));
  return far + near;
}

int run_route(Recorder& rec, const Engine& engine, const Route& route, bool traced,
              bool timed, const std::string& ref, RunResult* out) {
  const int op = rec.next_op_id();
  RunResult res;
  std::optional<gbpol::obs::Trace> trace;
  const double t0 = rec.now();
  if (traced) {
    ScopedSpan span(&rec, "route." + route.name, op);
    gbpol::obs::start_session();
    res = engine.run(route.options);
    trace = gbpol::obs::stop_session();
  } else {
    res = engine.run(route.options);
  }
  const double seconds = rec.now() - t0;

  json::Object record{{"kind", json::Value("route")},
                      {"route", json::Value(route.name)},
                      {"t", json::Value(seconds)},
                      {"timed", json::Value(timed)},
                      {"traced", json::Value(traced)},
                      {"ref", json::Value(ref)},
                      {"energy", number(res.energy)},
                      {"wall_s", json::Value(res.wall_seconds)},
                      {"modeled_s", json::Value(res.modeled_seconds())},
                      {"comm_s", json::Value(res.comm_seconds)},
                      {"rank_imbalance", rank_imbalance(res)},
                      {"bytes_sent", json::Value(res.total_bytes_sent())},
                      {"migrated_chunks", json::Value(res.migrated_chunks)},
                      {"steal_grants", json::Value(res.steal_grants)},
                      {"halo_bytes", json::Value(res.owned_halo_bytes)},
                      {"owned_bytes_per_rank", json::Value(res.owned_bytes_per_rank)},
                      {"steals", json::Value(res.steals)},
                      {"tasks", json::Value(res.tasks)}};
  if (trace) {
    const auto phases = phase_seconds(*trace);
    using gbpol::obs::PhaseId;
    record.emplace_back("born_busy_s",
                        json::Value(phases[static_cast<int>(PhaseId::kBornAccum)]));
    record.emplace_back("push_busy_s", json::Value(phases[static_cast<int>(PhaseId::kPush)]));
    record.emplace_back("epol_busy_s", json::Value(phases[static_cast<int>(PhaseId::kEpol)]));
    record.emplace_back("steal_attempts", json::Value(trace->metrics.steal_attempts));
    record.emplace_back("steal_successes", json::Value(trace->metrics.steal_successes));
  }
  const int id = rec.add_op(std::move(record));
  if (!std::isfinite(res.energy)) rec.fail(id, route.name + ": non-finite energy");
  if (out != nullptr) *out = std::move(res);
  return id;
}

int record_serve(Recorder& rec, const gbpol::ServeResult& served, double seconds,
                 bool traced, bool timed, const std::string& ref) {
  const RunResult& res = served.result;
  const int id = rec.add_op(json::Object{
      {"kind", json::Value("serve")},
      {"path", json::Value(gbpol::serve_path_name(served.path))},
      {"t", json::Value(seconds)},
      {"timed", json::Value(timed)},
      {"traced", json::Value(traced)},
      {"ref", json::Value(ref)},
      {"energy", number(res.energy)},
      {"queue_s", json::Value(res.queue_seconds)},
      {"serve_s", json::Value(res.serve_seconds)},
      {"modeled_s", json::Value(res.modeled_seconds())},
      {"reused_fraction", json::Value(res.reused_fraction)},
      {"dirty_leaves", json::Value(res.dirty_leaves)},
      {"lists_rebuilt", json::Value(res.lists_rebuilt)}});
  if (!std::isfinite(res.energy)) rec.fail(id, "served energy is not finite");
  return id;
}

void serving_probe(Recorder& rec, const Molecule& mol, std::uint64_t seed) {
  gbpol::ServiceOptions options;
  options.campaign_dir = "-";
  gbpol::Service service(options);
  gbpol::ServeRequest base;
  base.mol = mol;

  const auto serve = [&](gbpol::ServeRequest request, bool record) {
    const double t0 = rec.now();
    const gbpol::ServeResult served = service.serve(std::move(request));
    const double seconds = rec.now() - t0;
    if (record) record_serve(rec, served, seconds, true, false, "");
  };
  serve(base, true);  // cold
  gbpol::ServeRequest eps = base;
  eps.params.eps_epol *= 1.0 + 1e-6;
  serve(eps, true);  // cached
  gbpol::ServeRequest pose = base;
  pose.mol = jittered(mol, seed);
  serve(pose, false);  // first delta: creates the family's trajectory driver
  pose.mol = jittered(mol, seed + 1);
  serve(pose, true);  // delta
  serve(base, true);  // memoized
}

Molecule posed_protein(std::size_t n_atoms, std::uint64_t protein, std::uint64_t seed) {
  Molecule mol = gbpol::molgen::synthetic_protein(n_atoms, protein);
  gbpol::Rng rng(seed);
  constexpr double kQuarterTurn = std::numbers::pi / 2.0;
  for (const gbpol::Vec3 axis : {gbpol::Vec3{1, 0, 0}, gbpol::Vec3{0, 1, 0}, gbpol::Vec3{0, 0, 1}})
    mol.rotate(axis, kQuarterTurn * static_cast<double>(rng.next_u64() % 4));
  mol.translate({rng.uniform(-5.0, 5.0), rng.uniform(-5.0, 5.0), rng.uniform(-5.0, 5.0)});
  return mol;
}

Molecule jittered(const Molecule& base, std::uint64_t seed) {
  Molecule mol = base;
  gbpol::Rng rng(seed);
  const std::size_t n = mol.size();
  const std::size_t moved = std::max<std::size_t>(1, n / 100);
  // A contiguous block of the residue walk: one spatially local region moves,
  // as a flexible side chain or a docked ligand would.
  const std::size_t start = static_cast<std::size_t>(rng.next_u64() % (n - moved + 1));
  for (gbpol::Atom& a : mol.atoms().subspan(start, moved)) {
    a.pos.x += rng.uniform(-0.05, 0.05);
    a.pos.y += rng.uniform(-0.05, 0.05);
    a.pos.z += rng.uniform(-0.05, 0.05);
  }
  return mol;
}

RunResult direct_cold(const gbpol::ServeRequest& request) {
  const surface::SurfaceQuadrature quad =
      surface::molecular_surface_quadrature(request.mol, request.surface);
  const Prepared prep = Prepared::build(request.mol, quad, request.params.leaf_capacity);
  return Engine(prep, request.params, request.constants)
      .run(quiet(gbpol::ServiceOptions{}.run));
}

double naive_energy(const Molecule& mol, const surface::SurfaceQuadrature& quad,
                    const std::string& cache_dir) {
  const gbpol::GBConstants constants;
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const gbpol::Atom& a : mol.atoms()) fnv_bytes(h, &a, sizeof(a));
  fnv_bytes(h, quad.points.data(), quad.points.size() * sizeof(quad.points[0]));
  fnv_bytes(h, quad.normals.data(), quad.normals.size() * sizeof(quad.normals[0]));
  fnv_bytes(h, quad.weights.data(), quad.weights.size() * sizeof(double));
  fnv_bytes(h, &constants.eps_solvent, sizeof(double));
  fnv_bytes(h, &constants.coulomb_kcal, sizeof(double));

  char name[64];
  std::snprintf(name, sizeof(name), "%016" PRIx64 ".naive", h);
  const std::filesystem::path path = std::filesystem::path(cache_dir) / name;
  if (std::FILE* f = std::fopen(path.c_str(), "r")) {
    double cached = 0.0;
    const bool ok = std::fscanf(f, "%la", &cached) == 1;
    std::fclose(f);
    if (ok) return cached;
  }
  const double energy = split_naive(mol, quad, constants).energy;
  std::filesystem::create_directories(cache_dir);
  const std::filesystem::path tmp = path.string() + ".tmp";
  if (std::FILE* f = std::fopen(tmp.c_str(), "w")) {
    std::fprintf(f, "%a\n", energy);
    std::fclose(f);
    std::filesystem::rename(tmp, path);
  }
  return energy;
}

bool check_naive_split() {
  const Molecule mol = gbpol::molgen::synthetic_protein(400, 3);
  const surface::SurfaceQuadrature quad = surface::molecular_surface_quadrature(mol, {});
  const gbpol::GBConstants constants;
  const gbpol::NaiveResult split = split_naive(mol, quad, constants);
  const gbpol::NaiveResult whole = gbpol::run_naive(mol, quad, constants);
  return split.energy == whole.energy && split.born_radii == whole.born_radii;
}

}  // namespace perfbench
