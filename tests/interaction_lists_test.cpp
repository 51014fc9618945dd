// The walk engine's contract (core/interaction_lists.hpp): the flat near/far
// lists reproduce the recursive engines' decomposition exactly, so Born radii
// and E_pol match TraversalMode::kRecursive to <= 1e-12 relative error, and
// arbitrary list segmentations sum to the whole. Walk-evaluate (the one-shot
// path) equals list-evaluate to 0 ulp in every accumulator slot, over the
// full range and every chunk of several chunk plans, and the count-only walk
// reproduces the list sizes. The half-pair E_pol near field weighs a visit
// 0/1/2 exactly as its partner visit's presence says, sums to the
// all-ordered-pairs near field, and is priced by what it evaluates.
#include "core/interaction_lists.hpp"

#include <bit>
#include <cmath>
#include <cstdint>
#include <set>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/approx_math.hpp"
#include "core/balance.hpp"
#include "core/born_octree.hpp"
#include "core/engine.hpp"
#include "core/epol_octree.hpp"
#include "core/kernels_simd.hpp"
#include "molecule/generate.hpp"
#include "surface/quadrature.hpp"
#include "test_helpers.hpp"

namespace gbpol {
namespace {

using testing::Fixture;
using testing::make_fixture;
using testing::naive_born_sorted;

double rel_diff(double a, double b) {
  const double denom = std::max(std::abs(a), std::abs(b));
  return denom == 0.0 ? 0.0 : std::abs(a - b) / denom;
}

std::vector<double> born_via_recursive(const Fixture& f, const ApproxParams& params) {
  const BornSolver solver(f.prep, params);
  BornAccumulator acc = solver.make_accumulator();
  const auto n_qleaves = static_cast<std::uint32_t>(f.prep.q_tree.leaves().size());
  solver.accumulate_qleaf_range(0, n_qleaves, acc);
  std::vector<double> born(f.prep.num_atoms());
  solver.push_to_atoms(acc, 0, static_cast<std::uint32_t>(born.size()), born);
  return born;
}

std::vector<double> born_via_lists(const Fixture& f, const ApproxParams& params) {
  const BornSolver solver(f.prep, params);
  BornAccumulator acc = solver.make_accumulator();
  const auto n_qleaves = static_cast<std::uint32_t>(f.prep.q_tree.leaves().size());
  const InteractionLists lists = solver.build_lists(0, n_qleaves);
  solver.accumulate_lists(lists, acc);
  std::vector<double> born(f.prep.num_atoms());
  solver.push_to_atoms(acc, 0, static_cast<std::uint32_t>(born.size()), born);
  return born;
}

class InteractionListsTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    fixtures_ = new std::vector<Fixture>();
    fixtures_->push_back(make_fixture(300, 3));
    fixtures_->push_back(make_fixture(700, 7));
    fixtures_->push_back(make_fixture(500, 11, /*leaf_capacity=*/8));
  }
  static void TearDownTestSuite() { delete fixtures_; }
  static const std::vector<Fixture>& fixtures() { return *fixtures_; }

  static std::vector<Fixture>* fixtures_;
};
std::vector<Fixture>* InteractionListsTest::fixtures_ = nullptr;

// Born radii: list engine == recursive engine across molecules x kernels x
// dipole correction. The serial list build emits entries in recursion visit
// order and far/near terms land in disjoint accumulator slots, so the match
// is bit-level; 1e-12 is the contract we pin.
TEST_F(InteractionListsTest, BornRadiiMatchRecursiveAcrossVariants) {
  for (const Fixture& f : fixtures()) {
    for (const RadiusKernel kernel : {RadiusKernel::kR6, RadiusKernel::kR4}) {
      for (const bool dipole : {false, true}) {
        ApproxParams params;
        params.radius_kernel = kernel;
        params.born_dipole_correction = dipole;
        const std::vector<double> rec = born_via_recursive(f, params);
        const std::vector<double> lst = born_via_lists(f, params);
        ASSERT_EQ(rec.size(), lst.size());
        for (std::size_t i = 0; i < rec.size(); ++i) {
          EXPECT_LE(rel_diff(rec[i], lst[i]), 1e-12)
              << "atom slot " << i << " kernel=" << (kernel == RadiusKernel::kR6 ? "r6" : "r4")
              << " dipole=" << dipole;
        }
      }
    }
  }
}

// E_pol: list engine == recursive engine, with exact and approximate math.
TEST_F(InteractionListsTest, EpolMatchesRecursiveAcrossVariants) {
  for (const Fixture& f : fixtures()) {
    const std::vector<double> born = naive_born_sorted(f);
    for (const bool approx_math : {false, true}) {
      for (const double eps : {0.3, 0.9}) {
        ApproxParams params;
        params.approx_math = approx_math;
        params.eps_epol = eps;
        const EpolSolver solver(f.prep, born, params, GBConstants{});
        const auto n = static_cast<std::uint32_t>(f.prep.atoms_tree.leaves().size());
        const double rec = solver.energy_for_leaf_range(0, n);
        const double lst = solver.energy_from_lists(solver.build_lists(0, n));
        EXPECT_LE(rel_diff(rec, lst), 1e-12)
            << "approx_math=" << approx_math << " eps=" << eps;
      }
    }
  }
}

// Splitting either list at arbitrary points and evaluating the segments on
// separate accumulators must merge to the whole-list result — the property
// the chunked parallel_for in the drivers relies on.
TEST_F(InteractionListsTest, ListSegmentsComposeExactly) {
  const Fixture& f = fixtures()[0];
  ApproxParams params;
  const BornSolver solver(f.prep, params);
  const auto n_qleaves = static_cast<std::uint32_t>(f.prep.q_tree.leaves().size());
  const InteractionLists lists = solver.build_lists(0, n_qleaves);

  BornAccumulator whole = solver.make_accumulator();
  solver.accumulate_lists(lists, whole);

  BornAccumulator merged = solver.make_accumulator();
  {
    BornAccumulator part = solver.make_accumulator();
    const std::size_t fcut = lists.far.size() / 3;
    const std::size_t ncut = 2 * lists.near.size() / 3;
    solver.accumulate_far_range(lists, 0, fcut, merged);
    solver.accumulate_far_range(lists, fcut, lists.far.size(), part);
    solver.accumulate_near_range(lists, 0, ncut, part);
    solver.accumulate_near_range(lists, ncut, lists.near.size(), merged);
    merged.add(part);
  }
  const auto whole_flat = whole.flat();
  const auto merged_flat = merged.flat();
  ASSERT_EQ(whole_flat.size(), merged_flat.size());
  for (std::size_t i = 0; i < whole_flat.size(); ++i)
    EXPECT_LE(rel_diff(whole_flat[i], merged_flat[i]), 1e-12) << "slot " << i;

  const std::vector<double> born = naive_born_sorted(f);
  const EpolSolver epol(f.prep, born, params, GBConstants{});
  const auto n_aleaves = static_cast<std::uint32_t>(f.prep.atoms_tree.leaves().size());
  const InteractionLists elists = epol.build_lists(0, n_aleaves);
  const double whole_e = epol.energy_from_lists(elists);
  const std::size_t fcut = elists.far.size() / 2;
  const std::size_t ncut = elists.near.size() / 2;
  const double split_e = epol.energy_far_range(elists, 0, fcut) +
                         epol.energy_far_range(elists, fcut, elists.far.size()) +
                         epol.energy_near_range(elists, 0, ncut) +
                         epol.energy_near_range(elists, ncut, elists.near.size());
  EXPECT_LE(rel_diff(whole_e, split_e), 1e-12);
}

// Leaf-range restrictions must partition: lists built for [0,k) and [k,n)
// together cover exactly the full-range list.
TEST_F(InteractionListsTest, LeafRangePartitionCoversFullList) {
  const Fixture& f = fixtures()[2];
  ApproxParams params;
  const BornSolver solver(f.prep, params);
  const auto n = static_cast<std::uint32_t>(f.prep.q_tree.leaves().size());
  const std::uint32_t cut = n / 2;
  const InteractionLists full = solver.build_lists(0, n);
  InteractionLists joined = solver.build_lists(0, cut);
  joined.append(solver.build_lists(cut, n));
  ASSERT_EQ(full.far.size(), joined.far.size());
  ASSERT_EQ(full.near.size(), joined.near.size());
  EXPECT_EQ(full.near_point_pairs, joined.near_point_pairs);
  for (std::size_t i = 0; i < full.far.size(); ++i) {
    ASSERT_EQ(full.far[i].target_node, joined.far[i].target_node) << i;
    ASSERT_EQ(full.far[i].source_leaf, joined.far[i].source_leaf) << i;
  }
}

// End-to-end: the drivers under kList vs kRecursive agree on energy and every
// Born radius, serial and distributed.
TEST_F(InteractionListsTest, DriversAgreeAcrossTraversalModes) {
  const Fixture& f = fixtures()[1];
  const GBConstants constants;

  const Engine engine(f.prep, ApproxParams{}, constants);
  const RunResult serial_list = engine.run(serial_options(TraversalMode::kList));
  const RunResult serial_rec = engine.run(serial_options(TraversalMode::kRecursive));
  EXPECT_LE(rel_diff(serial_list.energy, serial_rec.energy), 1e-12);
  ASSERT_EQ(serial_list.born_sorted.size(), serial_rec.born_sorted.size());
  for (std::size_t i = 0; i < serial_list.born_sorted.size(); ++i)
    EXPECT_LE(rel_diff(serial_list.born_sorted[i], serial_rec.born_sorted[i]), 1e-12);

  RunOptions config;
  config.mode = EngineMode::kDistributed;
  config.ranks = 3;
  config.threads_per_rank = 2;
  config.traversal = TraversalMode::kList;
  const RunResult dist_list = engine.run(config);
  // Parallel evaluation reassociates worker-partial sums, so compare against
  // the serial result at the drivers' established cross-mode tolerance.
  EXPECT_LE(rel_diff(dist_list.energy, serial_list.energy), 1e-9);
  for (std::size_t i = 0; i < dist_list.born_sorted.size(); ++i)
    EXPECT_LE(rel_diff(dist_list.born_sorted[i], serial_list.born_sorted[i]), 1e-9);
}

// ---------------------------------------------------------------------------
// Walk-evaluate vs list-evaluate, 0 ulp, on the golden molecules
// (golden_energy_test's three seeded proteins and surface parameters), over
// the full source-leaf range and every chunk of the 3- and 8-worker plans.
// The walks are the battery's cost under the sanitizers, so the largest
// molecule runs only the full range with the default Born kernel, and the
// other Born kernels run only the full range (the range logic is the walk's,
// shared by every kernel). A chunk's list entries are the contiguous slice of the full-range list
// that holds its source leaves (the walk emits source leaves in ascending
// order — LeafRangePartitionCoversFullList), so one list per molecule serves
// every chunk; the walk counts are checked against the same slices.

struct Golden {
  Prepared prep;
  std::vector<double> born;  // serial-route Born radii, atoms_tree order
};

class WalkEvaluateTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    goldens_ = new std::vector<Golden>();
    for (const auto& [n_atoms, seed] :
         {std::pair{400, 21}, std::pair{1200, 22}, std::pair{3000, 23}}) {
      const Molecule mol = molgen::synthetic_protein(n_atoms, seed);
      const surface::SurfaceQuadrature quad = surface::molecular_surface_quadrature(
          mol, {.grid_spacing = 1.5, .dunavant_degree = 2, .kappa = 2.3});
      Golden g{Prepared::build(mol, quad, 16), {}};
      g.born =
          Engine(g.prep, ApproxParams{}, GBConstants{}).run(serial_options()).born_sorted;
      goldens_->push_back(std::move(g));
    }
  }
  static void TearDownTestSuite() { delete goldens_; }
  static const std::vector<Golden>& goldens() { return *goldens_; }

  static bool largest(const Golden& g) { return &g == &goldens().back(); }

  static std::vector<Segment> ranges(const Golden& g, std::uint32_t n_leaves,
                                     bool chunked = true) {
    std::vector<Segment> out{{0, n_leaves}};
    if (!chunked || largest(g)) return out;
    for (const int workers : {3, 8}) {
      const ChunkPlan plan = make_chunk_plan(n_leaves, workers, 0);
      for (std::uint32_t c = 0; c < plan.n_chunks; ++c)
        out.push_back(plan.chunk_range(c));
    }
    return out;
  }

  static std::vector<Golden>* goldens_;
};
std::vector<Golden>* WalkEvaluateTest::goldens_ = nullptr;

// The entries of a full-range list whose source leaf ordinal lies in `seg`.
struct ListSlice {
  std::size_t far_lo, far_hi, near_lo, near_hi;
  std::uint64_t near_point_pairs = 0;
};

ListSlice slice_of(const InteractionLists& lists, const Octree& target,
                   const Octree& source, Segment seg) {
  std::vector<std::uint32_t> ordinal(source.nodes().size(), 0);
  for (std::uint32_t l = 0; l < source.leaves().size(); ++l)
    ordinal[source.leaves()[l]] = l;
  const auto bound = [&](const auto& entries, std::uint32_t leaf) {
    const auto below = [&](const auto& e) { return ordinal[e.source_leaf] < leaf; };
    return static_cast<std::size_t>(
        std::partition_point(entries.begin(), entries.end(), below) - entries.begin());
  };
  ListSlice out{bound(lists.far, seg.lo), bound(lists.far, seg.hi),
                bound(lists.near, seg.lo), bound(lists.near, seg.hi)};
  for (std::size_t i = out.near_lo; i < out.near_hi; ++i)
    out.near_point_pairs += static_cast<std::uint64_t>(
                                target.node(lists.near[i].target_leaf).count()) *
                            source.node(lists.near[i].source_leaf).count();
  return out;
}

::testing::AssertionResult counts_match(const InteractionCounts& n, const ListSlice& s) {
  if (n.far == s.far_hi - s.far_lo && n.near == s.near_hi - s.near_lo &&
      n.near_point_pairs == s.near_point_pairs)
    return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure()
         << "walk counts far=" << n.far << " near=" << n.near
         << " pairs=" << n.near_point_pairs << ", list far=" << s.far_hi - s.far_lo
         << " near=" << s.near_hi - s.near_lo << " pairs=" << s.near_point_pairs;
}

::testing::AssertionResult same_bits(std::span<const double> a,
                                     std::span<const double> b) {
  if (a.size() != b.size()) return ::testing::AssertionFailure() << "size differs";
  for (std::size_t i = 0; i < a.size(); ++i)
    if (std::bit_cast<std::uint64_t>(a[i]) != std::bit_cast<std::uint64_t>(b[i]))
      return ::testing::AssertionFailure()
             << "slot " << i << ": " << a[i] << " vs " << b[i];
  return ::testing::AssertionSuccess();
}

// Every node_s and atom_s slot, r4/r6 x dipole on/off.
TEST_F(WalkEvaluateTest, BornSlotsAndCountsMatchListEvaluation) {
  for (const Golden& g : goldens()) {
    const Octree& atoms = g.prep.atoms_tree;
    const Octree& qpts = g.prep.q_tree;
    for (const RadiusKernel kernel : {RadiusKernel::kR6, RadiusKernel::kR4}) {
      for (const bool dipole : {false, true}) {
        const bool default_kernel = kernel == RadiusKernel::kR6 && !dipole;
        if (!default_kernel && largest(g)) continue;
        ApproxParams params;
        params.radius_kernel = kernel;
        params.born_dipole_correction = dipole;
        const BornSolver solver(g.prep, params);
        const auto n_qleaves = static_cast<std::uint32_t>(qpts.leaves().size());
        const InteractionLists lists = solver.build_lists(0, n_qleaves);
        for (const Segment seg : ranges(g, n_qleaves, default_kernel)) {
          const ListSlice slice = slice_of(lists, atoms, qpts, seg);
          BornAccumulator walked = solver.make_accumulator();
          solver.accumulate_walk(seg.lo, seg.hi, walked);
          BornAccumulator listed = solver.make_accumulator();
          solver.accumulate_far_range(lists, slice.far_lo, slice.far_hi, listed);
          solver.accumulate_near_range(lists, slice.near_lo, slice.near_hi, listed);
          ASSERT_TRUE(same_bits(walked.flat(), listed.flat()))
              << g.prep.num_atoms() << " atoms, q-leaves [" << seg.lo << ", " << seg.hi
              << ") kernel=" << (kernel == RadiusKernel::kR6 ? "r6" : "r4")
              << " dipole=" << dipole;
          if (default_kernel) {
            const ListBuildParams walk = BornSolver::walk_params(params, seg.lo, seg.hi);
            ASSERT_TRUE(counts_match(count_interactions(atoms, qpts, walk), slice))
                << g.prep.num_atoms() << " atoms, q-leaves [" << seg.lo << ", " << seg.hi
                << ")";
          }
        }
      }
    }
  }
}

// raw_far and raw_near, with exact and approximate math; the full-range
// energy also matches energy_from_lists. E_pol near evaluation groups by
// source leaf and ignores the near tile index, so a list re-tiled at several
// budgets still gives the walk's near sum to the bit.
TEST_F(WalkEvaluateTest, EpolRawSumsAndCountsMatchListEvaluation) {
  for (const Golden& g : goldens()) {
    const Octree& atoms = g.prep.atoms_tree;
    const auto n_aleaves = static_cast<std::uint32_t>(atoms.leaves().size());
    for (const bool approx_math : {false, true}) {
      ApproxParams params;
      params.approx_math = approx_math;
      const EpolSolver solver(g.prep, g.born, params, GBConstants{});
      const InteractionLists lists = solver.build_lists(0, n_aleaves);
      for (const Segment seg : ranges(g, n_aleaves)) {
        const ListSlice slice = slice_of(lists, atoms, atoms, seg);
        double walk_far = 0.0, walk_near = 0.0;
        solver.accumulate_energy_walk(seg.lo, seg.hi, walk_far, walk_near);
        double list_far = 0.0, list_near = 0.0;
        solver.accumulate_energy_far_range(lists, slice.far_lo, slice.far_hi, list_far);
        solver.accumulate_energy_near_range(lists, slice.near_lo, slice.near_hi,
                                            list_near);
        const double walked[] = {walk_far, walk_near};
        const double listed[] = {list_far, list_near};
        ASSERT_TRUE(same_bits(walked, listed))
            << g.prep.num_atoms() << " atoms, leaves [" << seg.lo << ", " << seg.hi
            << ") approx_math=" << approx_math;
        const ListBuildParams walk = EpolSolver::walk_params(params, seg.lo, seg.hi);
        ASSERT_TRUE(counts_match(count_interactions(atoms, atoms, walk), slice))
            << g.prep.num_atoms() << " atoms, leaves [" << seg.lo << ", " << seg.hi << ")";
        if (seg.lo == 0 && seg.hi == n_aleaves) {
          const double energy = solver.finish_energy_pair(walk_far, walk_near);
          EXPECT_EQ(std::bit_cast<std::uint64_t>(energy),
                    std::bit_cast<std::uint64_t>(solver.energy_from_lists(lists)));
          InteractionLists retiled = lists;
          for (const std::size_t budget : {std::size_t(512), std::size_t(16) << 10}) {
            retiled.build_tiles(atoms, atoms, {5 * sizeof(double), 5 * sizeof(double), 64},
                                budget);
            double tiled_near = 0.0;
            solver.accumulate_energy_near_range(retiled, 0, retiled.near.size(), tiled_near);
            EXPECT_EQ(std::bit_cast<std::uint64_t>(tiled_near),
                      std::bit_cast<std::uint64_t>(walk_near))
                << g.prep.num_atoms() << " atoms, tile budget " << budget;
          }
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Half-pair E_pol near field (HalfPairWeights), on the golden molecules.

// The kernel the solver dispatches to, over rows [row_b, row_e) x lanes
// [lane_b, lane_e).
double near_kernel(const Golden& g, bool approx_math, std::uint32_t row_b,
                   std::uint32_t row_e, std::uint32_t lane_b, std::uint32_t lane_e) {
  const PointsSoA& a = g.prep.atoms_soa;
  const double* q = g.prep.charge.data();
  const double* born = g.born.data();
  if (const SimdKernelTable* simd = simd_kernel_table()) {
    const SimdKernelTable::EpolNearFn fn =
        approx_math ? simd->epol_near_approx : simd->epol_near_exact;
    return fn(a.x.data(), a.y.data(), a.z.data(), q, born, row_b, row_e, lane_b, lane_e);
  }
  return approx_math ? epol_near_soa<true>(a.x.data(), a.y.data(), a.z.data(), q, born,
                                           row_b, row_e, lane_b, lane_e)
                     : epol_near_soa<false>(a.x.data(), a.y.data(), a.z.data(), q, born,
                                            row_b, row_e, lane_b, lane_e);
}

// Per near entry of the full-range list: its half-pair weight.
std::vector<int> entry_weights(const Golden& g, const InteractionLists& lists) {
  HalfPairWeights weights(g.prep.atoms_tree, ApproxParams{}.epol_far_multiplier());
  std::vector<int> out;
  out.reserve(lists.near.size());
  for (const InteractionLists::Near& e : lists.near) {
    if (e.source_leaf != weights.source()) weights.set_source(e.source_leaf);
    out.push_back(weights.weight(e.target_leaf));
  }
  return out;
}

// (a) A visit (u <- v), u != v, is mutual (weight 0 or 2) exactly when the
// partner visit (v <- u) is in the list too; self visits weigh 1; and a
// mutual pair's two visits weigh 2 at the lower target id, 0 at the other.
TEST_F(WalkEvaluateTest, MutualWeightIffPartnerVisitIsListed) {
  for (const Golden& g : goldens()) {
    const auto n_aleaves = static_cast<std::uint32_t>(g.prep.atoms_tree.leaves().size());
    const EpolSolver solver(g.prep, g.born, ApproxParams{}, GBConstants{});
    const InteractionLists lists = solver.build_lists(0, n_aleaves);
    const std::vector<int> w = entry_weights(g, lists);
    std::set<std::pair<std::uint32_t, std::uint32_t>> listed;
    for (const InteractionLists::Near& e : lists.near)
      listed.emplace(e.target_leaf, e.source_leaf);
    std::size_t mutual = 0;
    for (std::size_t i = 0; i < lists.near.size(); ++i) {
      const auto [u, v] = lists.near[i];
      if (u == v) {
        ASSERT_EQ(w[i], 1) << "self visit of leaf " << u;
        continue;
      }
      const bool partner = listed.count({v, u}) != 0;
      ASSERT_EQ(w[i] != 1, partner) << g.prep.num_atoms() << " atoms, visit (" << u
                                    << " <- " << v << ") weight " << w[i];
      if (partner) {
        ASSERT_EQ(w[i], u < v ? 2 : 0) << "(" << u << " <- " << v << ")";
        ++mutual;
      }
    }
    EXPECT_GT(mutual, lists.near.size() / 4) << g.prep.num_atoms() << " atoms";
  }
}

// (b) The weighted near sum equals the all-ordered-pairs sum (every visit at
// weight 1, in its list orientation) up to summation association.
TEST_F(WalkEvaluateTest, WeightedNearSumMatchesAllOrderedPairs) {
  for (const Golden& g : goldens()) {
    const auto n_aleaves = static_cast<std::uint32_t>(g.prep.atoms_tree.leaves().size());
    for (const bool approx_math : {false, true}) {
      ApproxParams params;
      params.approx_math = approx_math;
      const EpolSolver solver(g.prep, g.born, params, GBConstants{});
      const InteractionLists lists = solver.build_lists(0, n_aleaves);
      double all_pairs = 0.0;
      for (const InteractionLists::Near& e : lists.near) {
        const OctreeNode& u = g.prep.atoms_tree.node(e.target_leaf);
        const OctreeNode& v = g.prep.atoms_tree.node(e.source_leaf);
        all_pairs += near_kernel(g, approx_math, u.begin, u.end, v.begin, v.end);
      }
      double weighted = 0.0;
      solver.accumulate_energy_near_range(lists, 0, lists.near.size(), weighted);
      EXPECT_LE(rel_diff(weighted, all_pairs), 1e-12)
          << g.prep.num_atoms() << " atoms, approx_math=" << approx_math;
    }
  }
}

// (d) Chunk pricing counts the pairs the half-pair evaluator computes:
// count_half_pair_interactions equals the sum of |u| * |v| over the listed
// visits of nonzero weight, for the full range and every chunk, while
// sum(w * |u| * |v|) over the full list is every ordered pair once.
TEST_F(WalkEvaluateTest, HalfPairCountsPriceTheWeightedVisits) {
  for (const Golden& g : goldens()) {
    const Octree& atoms = g.prep.atoms_tree;
    const auto n_aleaves = static_cast<std::uint32_t>(atoms.leaves().size());
    const ApproxParams params;
    const EpolSolver solver(g.prep, g.born, params, GBConstants{});
    const InteractionLists lists = solver.build_lists(0, n_aleaves);
    const std::vector<int> w = entry_weights(g, lists);
    const auto pairs = [&](std::size_t i) {
      return static_cast<std::uint64_t>(atoms.node(lists.near[i].target_leaf).count()) *
             atoms.node(lists.near[i].source_leaf).count();
    };
    std::uint64_t weighted_pairs = 0;
    for (std::size_t i = 0; i < lists.near.size(); ++i)
      weighted_pairs += static_cast<std::uint64_t>(w[i]) * pairs(i);
    EXPECT_EQ(weighted_pairs, lists.near_point_pairs);
    for (const Segment seg : ranges(g, n_aleaves)) {
      const ListSlice slice = slice_of(lists, atoms, atoms, seg);
      std::uint64_t evaluated = 0;
      for (std::size_t i = slice.near_lo; i < slice.near_hi; ++i)
        if (w[i] != 0) evaluated += pairs(i);
      const InteractionCounts n = count_half_pair_interactions(
          atoms, EpolSolver::walk_params(params, seg.lo, seg.hi));
      EXPECT_EQ(n.near_point_pairs, evaluated)
          << g.prep.num_atoms() << " atoms, leaves [" << seg.lo << ", " << seg.hi << ")";
    }
  }
}

}  // namespace
}  // namespace gbpol
