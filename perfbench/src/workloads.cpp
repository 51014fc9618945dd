#include "workloads.hpp"

#include <cmath>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "core/incremental.hpp"
#include "layers.hpp"
#include "molecule/generate.hpp"
#include "obs/trace.hpp"
#include "support/rng.hpp"

namespace perfbench {

namespace surface = gbpol::surface;

namespace {

// molgen::synthetic_protein seed of every workload's protein; the workload
// seed only picks its pose (see posed_protein).
constexpr std::uint64_t kProtein = 42;

// Set-up is repeated this many times per run and setup_s is the median:
// five times where set-up is cheap, three where it serves requests.
constexpr int kCheapSetupReps = 5;
constexpr int kServingSetupReps = 3;

bool bit_equal(const RunResult& a, const RunResult& b) {
  return a.energy == b.energy && a.born_sorted == b.born_sorted;
}

double relative_gap(double a, double reference) {
  return std::abs(a - reference) / std::abs(reference);
}

int add_setup_op(Recorder& rec, double seconds) {
  return rec.add_op(json::Object{{"kind", json::Value("setup")},
                                 {"t", json::Value(seconds)}});
}

// Layer probes for the traced run of a workload whose own ops do not reach
// these layers. probe_serial times the serial call sequence from molecule to
// energy and returns the preparation; probe_routes runs each parallel route
// once over a preparation (owned4 checked against replicated4_steal).
Prepared probe_serial(Recorder& rec, const Molecule& mol, const std::string& ref) {
  const int op = rec.next_op_id();
  json::Object fields;
  double energy = 0.0;
  std::optional<Prepared> prep;
  const double t0 = rec.now();
  {
    ScopedSpan root(&rec, "op", op);
    const surface::SurfaceQuadrature quad = timed_surface(&rec, op, mol);
    prep.emplace(timed_prepare(&rec, op, mol, quad));
    energy = decomposed_serial(&rec, op, *prep, fields);
  }
  json::Object record{{"kind", json::Value("probe_serial")},
                      {"t", json::Value(rec.now() - t0)},
                      {"timed", json::Value(false)},
                      {"traced", json::Value(true)},
                      {"ref", json::Value(ref)},
                      {"energy", number(energy)}};
  for (auto& field : fields) record.push_back(std::move(field));
  const int id = rec.add_op(std::move(record));
  if (!std::isfinite(energy)) rec.fail(id, "non-finite energy");
  return std::move(*prep);
}

void probe_routes(Recorder& rec, const Prepared& prep, const std::string& ref) {
  const Engine engine(prep);
  std::optional<RunResult> replicated;
  for (const Route& route : parallel_routes()) {
    RunResult res;
    const int id = run_route(rec, engine, route, true, false, ref, &res);
    if (route.name == "replicated4_steal") replicated = std::move(res);
    if (route.name == "owned4" && replicated && !bit_equal(res, *replicated))
      rec.fail(id, "owned4 differs from replicated4_steal");
  }
}

void record_naive(Recorder& rec, json::Object naive) {
  rec.set("naive", json::Value(std::move(naive)));
  if (!check_naive_split())
    rec.fail(-1, "split naive reference differs from run_naive");
}

}  // namespace

// ---------------------------------------------------------------------------
// cold_serial: one 40k-atom protein from molecule to energy per op, on the
// serial route, keeping no state between ops.

void cold_serial(const Args& args, Recorder& rec) {
  constexpr std::size_t kAtoms = 40000;
  Molecule mol;
  for (int rep = 0; rep < kCheapSetupReps; ++rep) {
    const double t0 = rec.now();
    mol = posed_protein(kAtoms, kProtein, args.seed);
    add_setup_op(rec, rec.now() - t0);
  }

  // Traced runs alternate traced ops (the public call sequence, one span per
  // layer) with untraced ones (Engine::run), starting untraced so every
  // traced energy has its Engine::run reference.
  std::optional<double> engine_energy;
  bool traced_next = false;
  int traced_ops = 0;
  const double deadline = rec.now() + args.seconds;
  while (rec.now() < deadline || (args.trace && traced_ops == 0)) {
    const bool traced = args.trace && traced_next;
    traced_next = !traced_next;
    const int op = rec.next_op_id();
    json::Object fields;
    double energy = 0.0;
    json::Value modeled(nullptr);
    const double t0 = rec.now();
    if (traced) {
      ScopedSpan root(&rec, "op", op);
      const surface::SurfaceQuadrature quad = timed_surface(&rec, op, mol);
      const Prepared prep = timed_prepare(&rec, op, mol, quad);
      energy = decomposed_serial(&rec, op, prep, fields);
    } else {
      const surface::SurfaceQuadrature quad = surface::molecular_surface_quadrature(mol, {});
      const Prepared prep = Prepared::build(mol, quad, kLeafCapacity);
      const RunResult res = Engine(prep).run(quiet(gbpol::serial_options()));
      energy = res.energy;
      modeled = json::Value(res.modeled_seconds());
    }
    const double seconds = rec.now() - t0;

    json::Object record{{"kind", json::Value("cold")},
                        {"t", json::Value(seconds)},
                        {"timed", json::Value(true)},
                        {"traced", json::Value(traced)},
                        {"ref", json::Value("mol")},
                        {"energy", number(energy)},
                        {"modeled_s", modeled}};
    for (auto& field : fields) record.push_back(std::move(field));
    const int id = rec.add_op(std::move(record));
    if (!std::isfinite(energy)) {
      rec.fail(id, "non-finite energy");
    } else if (!traced) {
      engine_energy = energy;
    } else if (!engine_energy || relative_gap(energy, *engine_energy) > 1e-12) {
      rec.fail(id, "layer-by-layer energy differs from Engine::run by more than 1e-12");
    }
    if (traced) ++traced_ops;
  }

  if (!args.trace) return;
  const surface::SurfaceQuadrature quad = surface::molecular_surface_quadrature(mol, {});
  record_naive(rec, json::Object{{"mol", json::Value(naive_energy(mol, quad, args.cache_dir))}});
  const Prepared prep = Prepared::build(mol, quad, kLeafCapacity);
  probe_routes(rec, prep, "mol");
  serving_probe(rec, mol, args.seed);
}

// ---------------------------------------------------------------------------
// parallel_routes: one 10k-atom protein prepared in set-up; each op is one
// Engine::run, cycling cilk4 -> replicated4_steal -> owned4.

void parallel_routes_workload(const Args& args, Recorder& rec) {
  constexpr std::size_t kAtoms = 10000;
  Molecule mol;
  std::optional<surface::SurfaceQuadrature> quad;
  std::optional<Prepared> prep;
  for (int rep = 0; rep < kCheapSetupReps; ++rep) {
    const int op = rec.next_op_id();
    Recorder* spans = args.trace ? &rec : nullptr;
    const double t0 = rec.now();
    {
      ScopedSpan root(spans, "setup", op);
      mol = posed_protein(kAtoms, kProtein, args.seed);
      quad.emplace(timed_surface(spans, op, mol));
      prep.emplace(timed_prepare(spans, op, mol, *quad));
    }
    add_setup_op(rec, rec.now() - t0);
  }

  const Engine engine(*prep);
  const std::vector<Route> routes = parallel_routes();
  // Warm-up: one untimed run per route (first-run thread and page-fault
  // costs). It runs the op itself, so it is kept out of setup_s: otherwise
  // work moved from the op into preparation would show as a set-up gain.
  // The replicated run is the reference every owned4 op must match bit for
  // bit.
  std::optional<RunResult> replicated;
  for (const Route& route : routes) {
    RunResult res = engine.run(route.options);
    if (route.name == "replicated4_steal") replicated = std::move(res);
  }

  std::size_t next = args.seed % routes.size();
  bool traced_cycle = false;
  int traced_cycles = 0;
  const double deadline = rec.now() + args.seconds;
  while (rec.now() < deadline || (args.trace && traced_cycles == 0)) {
    const bool traced = args.trace && traced_cycle;
    traced_cycle = !traced_cycle;
    for (std::size_t i = 0; i < routes.size(); ++i) {
      const Route& route = routes[next];
      next = (next + 1) % routes.size();
      RunResult res;
      const int id = run_route(rec, engine, route, traced, true, "mol", &res);
      if (route.name == "owned4" && !bit_equal(res, *replicated))
        rec.fail(id, "owned4 differs from replicated4_steal");
    }
    if (traced) ++traced_cycles;
  }

  if (!args.trace) return;
  record_naive(rec,
               json::Object{{"mol", json::Value(naive_energy(mol, *quad, args.cache_dir))}});
  probe_serial(rec, mol, "mol");
  serving_probe(rec, mol, args.seed);
}

// ---------------------------------------------------------------------------
// serving_mix: one Service (default options, journal off) fed rounds of
// requests over six 2k-6k-atom families plus one-off molecules.

namespace {

constexpr std::size_t kFamilyAtoms[] = {2000, 2800, 3600, 4400, 5200, 6000};
constexpr std::size_t kFamilies = std::size(kFamilyAtoms);
constexpr std::size_t kOneOffAtoms = 3000;
constexpr int kRepeatsPerRound = 2;
// Prepared-cache budget: above the six families' total footprint (79-80 MiB
// over poses), below it plus one one-off (8.5-10.7 MiB), and above it plus a
// one-off minus the smallest family (at most 82 MiB), so every one-off insert
// evicts exactly one family (see make_round).
constexpr std::size_t kCacheBudgetBytes = std::size_t{85} << 20;

struct Request {
  gbpol::ServeRequest request;
  int family = -1;    // delta poses: the family whose trajectory they step
  int original = -1;  // exact repeats: position of the repeated request
  std::string ref;    // naive-reference key ("" = none)
  const char* expect = "";
};

struct Served {
  Request req;
  gbpol::ServeResult result;
  int op = -1;
};

gbpol::ServiceOptions service_options() {
  gbpol::ServiceOptions options;
  options.campaign_dir = "-";
  options.cache_budget_bytes = kCacheBudgetBytes;
  return options;
}

std::vector<gbpol::Vec3> positions(const Molecule& mol) {
  std::vector<gbpol::Vec3> out;
  out.reserve(mol.size());
  for (const gbpol::Atom& a : mol.atoms()) out.push_back(a.pos);
  return out;
}

// Family f is protein kProtein + f in a pose drawn from the seed. Each
// one-off is a protein of its own: poses of one protein would share a
// family key and be delta-routed.
Molecule family_base(const Args& args, std::size_t f) {
  return posed_protein(kFamilyAtoms[f], kProtein + f, args.seed * 1000 + f);
}
Molecule one_off(const Args& args, int round) {
  const std::uint64_t protein = (args.seed << 20) + static_cast<std::uint64_t>(round) + 1000;
  return posed_protein(kOneOffAtoms, protein, protein);
}

// The service after set-up: every family served cold once (registers the
// family, fills the Prepared cache) and once as a jittered pose (creates
// the family's trajectory driver).
struct Mix {
  std::vector<Molecule> bases;
  std::vector<Molecule> warm_poses;
  std::unique_ptr<gbpol::Service> service;
};

Mix set_up_mix(const Args& args) {
  Mix mix;
  for (std::size_t f = 0; f < kFamilies; ++f)
    mix.bases.push_back(family_base(args, f));
  mix.service = std::make_unique<gbpol::Service>(service_options());
  for (const Molecule& base : mix.bases) {
    gbpol::ServeRequest request;
    request.mol = base;
    mix.service->serve(std::move(request));
  }
  for (std::size_t f = 0; f < kFamilies; ++f) {
    mix.warm_poses.push_back(jittered(mix.bases[f], args.seed * 1000 + 500 + f));
    gbpol::ServeRequest request;
    request.mol = mix.warm_poses.back();
    mix.service->serve(std::move(request));
  }
  return mix;
}

// One round. The requests that consult the Prepared cache come in a fixed
// order: every family's base geometry under a not-yet-seen eps_epol, in
// ascending family order on odd rounds and descending on even ones, then
// one one-off molecule. The budget holds the six families but not them plus
// a one-off, so each one-off evicts the least recently used family, which
// the next round (visiting families in reverse) requests last: exactly one
// base request per round turns kCold, whatever the seed. A plain cyclic
// order would make LRU thrash instead. A jittered pose of every family
// (delta requests, which never consult the cache) goes in at random
// positions, then exact repeats of earlier requests of the round follow
// their originals.
std::vector<Request> make_round(const Args& args, const std::vector<Molecule>& bases,
                                int round, std::uint64_t& eps_serial) {
  gbpol::Rng rng(args.seed * 1000003 + static_cast<std::uint64_t>(round));
  std::vector<Request> out;
  for (std::size_t i = 0; i < kFamilies; ++i) {
    const std::size_t f = round % 2 == 1 ? i : kFamilies - 1 - i;
    Request r;
    r.request.mol = bases[f];
    r.request.params.eps_epol *= 1.0 + 1e-6 * static_cast<double>(++eps_serial);
    r.ref = "family" + std::to_string(f);
    r.expect = "cached";
    out.push_back(std::move(r));
  }
  {
    Request r;
    r.request.mol = one_off(args, round);
    r.ref = "oneoff" + std::to_string(round);
    r.expect = "cold";
    out.push_back(std::move(r));
  }
  std::vector<std::size_t> families(kFamilies);
  for (std::size_t f = 0; f < kFamilies; ++f) families[f] = f;
  for (std::size_t i = kFamilies - 1; i > 0; --i)
    std::swap(families[i], families[rng.next_u64() % (i + 1)]);
  for (const std::size_t f : families) {
    Request r;
    r.request.mol = jittered(bases[f], rng.next_u64());
    r.family = static_cast<int>(f);
    r.expect = "delta";
    const std::size_t at = rng.next_u64() % (out.size() + 1);
    out.insert(out.begin() + static_cast<std::ptrdiff_t>(at), std::move(r));
  }
  const std::size_t originals = out.size();
  for (int k = 0; k < kRepeatsPerRound; ++k) {
    const std::size_t src = rng.next_u64() % originals;
    Request r;
    r.request = out[src].request;
    r.ref = out[src].ref;
    r.expect = "memoized";
    const std::size_t at = src + 1 + rng.next_u64() % (out.size() - src);
    // A repeat points at the position of the request it repeats, so
    // positions at or after `at` shift by one.
    for (Request& later : out)
      if (later.original >= static_cast<int>(at)) ++later.original;
    r.original = static_cast<int>(src);
    out.insert(out.begin() + static_cast<std::ptrdiff_t>(at), std::move(r));
  }
  return out;
}

json::Object window_stats(const gbpol::ServiceStats& begin, const gbpol::ServiceStats& end) {
  return json::Object{{"cache_hits", json::Value(end.cache_hits - begin.cache_hits)},
                      {"cache_misses", json::Value(end.cache_misses - begin.cache_misses)},
                      {"cache_evictions", json::Value(end.cache_evictions - begin.cache_evictions)},
                      {"memo_hits", json::Value(end.memo_hits - begin.memo_hits)},
                      {"delta_routed", json::Value(end.delta_routed - begin.delta_routed)}};
}

}  // namespace

void serving_mix(const Args& args, Recorder& rec) {
  Mix mix;
  for (int rep = 0; rep < kServingSetupReps; ++rep) {
    mix = Mix{};  // the previous service is gone before the next is built
    const double t0 = rec.now();
    mix = set_up_mix(args);
    add_setup_op(rec, rec.now() - t0);
  }
  gbpol::Service& service = *mix.service;
  const gbpol::ServiceStats begin = service.stats();

  // Traced runs alternate traced rounds (a span and an obs session around
  // each serve) with untraced ones, and keep every request and answer for
  // the twin checks after the timed window.
  std::vector<Served> kept;
  std::uint64_t eps_serial = 0;
  int round = 0;
  int traced_rounds = 0;
  const double deadline = rec.now() + args.seconds;
  for (; rec.now() < deadline || (args.trace && traced_rounds == 0); ++round) {
    const bool traced = args.trace && round % 2 == 1;
    std::vector<Request> requests = make_round(args, mix.bases, round, eps_serial);
    std::vector<gbpol::ServeResult> answers;
    for (Request& req : requests) {
      const int op = rec.next_op_id();
      gbpol::ServeResult served;
      const double t0 = rec.now();
      if (traced) {
        ScopedSpan span(&rec, "serve", op);
        gbpol::obs::start_session();
        served = service.serve(req.request);
        gbpol::obs::stop_session();
      } else {
        served = service.serve(req.request);
      }
      const double seconds = rec.now() - t0;
      const int id = record_serve(rec, served, seconds, traced, true, req.ref);
      rec.op(id).emplace_back("round", json::Value(round));
      rec.op(id).emplace_back("expect", json::Value(req.expect));
      // Path 1 of the determinism contract: an exact repeat returns the
      // stored answer of the request it repeats.
      if (req.original >= 0 && served.path == gbpol::ServePath::kMemoized &&
          !bit_equal(served.result, answers[static_cast<std::size_t>(req.original)].result))
        rec.fail(id, "memoized answer differs from the answer it repeats");
      answers.push_back(served);
      if (args.trace) kept.push_back(Served{std::move(req), std::move(served), id});
    }
    if (traced) ++traced_rounds;
  }
  rec.set("service", json::Value(window_stats(begin, service.stats())));
  rec.set("rounds", json::Value(round));
  if (!args.trace) return;

  // Paths 2 and 3 of the contract. Cold and cached answers equal a direct
  // cold Engine::run to the bit. Delta answers equal a ReuseMode::kCold
  // mirror driver fed the same step sequence to the bit, and a serial
  // Engine::run over the mirror's delta-maintained preparation to 1e-12
  // relative (same Born radii).
  const gbpol::ServiceOptions options = service_options();
  RunOptions cold_run = quiet(options.run);
  cold_run.reuse = gbpol::ReuseMode::kCold;
  std::vector<std::unique_ptr<gbpol::TrajectoryDriver>> mirrors;
  for (std::size_t f = 0; f < kFamilies; ++f) {
    gbpol::TrajectoryOptions topt;
    topt.skin = options.delta_skin;
    mirrors.push_back(std::make_unique<gbpol::TrajectoryDriver>(mix.bases[f], topt));
    mirrors.back()->step(positions(mix.warm_poses[f]), cold_run);
  }
  for (const Served& s : kept) {
    const RunResult& answer = s.result.result;
    switch (s.result.path) {
      case gbpol::ServePath::kCold:
      case gbpol::ServePath::kCached:
        if (!bit_equal(answer, direct_cold(s.req.request)))
          rec.fail(s.op, "served answer differs from a direct cold run");
        break;
      case gbpol::ServePath::kDelta: {
        if (s.req.family < 0) {
          rec.fail(s.op, "delta-routed request of no known family");
          break;
        }
        gbpol::TrajectoryDriver& driver = *mirrors[static_cast<std::size_t>(s.req.family)];
        const RunResult mirror = driver.step(positions(s.req.request.mol), cold_run);
        if (!bit_equal(answer, mirror))
          rec.fail(s.op, "delta answer differs from the kCold mirror driver");
        const RunResult direct =
            Engine(driver.prepared()).run(quiet(gbpol::serial_options()));
        if (answer.born_sorted != direct.born_sorted ||
            relative_gap(answer.energy, direct.energy) > 1e-12)
          rec.fail(s.op, "delta answer differs from Engine::run over the driver's "
                         "preparation by more than 1e-12");
        break;
      }
      default:
        break;
    }
  }

  json::Object naive;
  for (std::size_t f = 0; f < kFamilies; ++f) {
    const Molecule& mol = mix.bases[f];
    naive.emplace_back("family" + std::to_string(f),
                       json::Value(naive_energy(
                           mol, surface::molecular_surface_quadrature(mol, {}), args.cache_dir)));
  }
  for (int r = 0; r < round; ++r) {
    const Molecule mol = one_off(args, r);
    naive.emplace_back("oneoff" + std::to_string(r),
                       json::Value(naive_energy(
                           mol, surface::molecular_surface_quadrature(mol, {}), args.cache_dir)));
  }
  record_naive(rec, std::move(naive));

  const std::string largest = "family" + std::to_string(kFamilies - 1);
  const Prepared prep = probe_serial(rec, mix.bases.back(), largest);
  probe_routes(rec, prep, largest);
}

}  // namespace perfbench
