// Prepared-structure invariants: payload permutation consistency, node
// aggregates, and the closed-surface Gauss identity.
#include "core/prepared.hpp"

#include <cmath>
#include <functional>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/engine.hpp"
#include "core/incremental.hpp"
#include "core/naive.hpp"
#include "harness/campaign.hpp"
#include "test_helpers.hpp"

namespace gbpol {
namespace {

class PreparedTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    fixture_ = new gbpol::testing::Fixture(gbpol::testing::make_fixture(500));
  }
  static void TearDownTestSuite() { delete fixture_; }
  static const gbpol::testing::Fixture& fix() { return *fixture_; }
  static gbpol::testing::Fixture* fixture_;
};
gbpol::testing::Fixture* PreparedTest::fixture_ = nullptr;

TEST_F(PreparedTest, PayloadsFollowTheAtomPermutation) {
  const Prepared& prep = fix().prep;
  for (std::uint32_t slot = 0; slot < prep.num_atoms(); ++slot) {
    const Atom& original = fix().mol.atom(prep.atoms_tree.original_index(slot));
    EXPECT_EQ(prep.charge[slot], original.charge);
    EXPECT_EQ(prep.intrinsic_radius[slot], original.radius);
    EXPECT_EQ(prep.atoms_tree.point(slot), original.pos);
  }
}

TEST_F(PreparedTest, WeightedNormalsFollowTheQPermutation) {
  const Prepared& prep = fix().prep;
  for (std::uint32_t slot = 0; slot < prep.num_qpoints(); slot += 17) {
    const std::uint32_t orig = prep.q_tree.original_index(slot);
    const Vec3 expected = fix().quad.normals[orig] * fix().quad.weights[orig];
    EXPECT_EQ(prep.weighted_normal[slot], expected);
  }
}

TEST_F(PreparedTest, NodeAggregatesSumTheirSubtrees) {
  const Prepared& prep = fix().prep;
  for (std::uint32_t id = 0; id < prep.q_tree.nodes().size(); id += 5) {
    const OctreeNode& node = prep.q_tree.node(id);
    Vec3 direct;
    for (std::uint32_t i = node.begin; i < node.end; ++i)
      direct += prep.weighted_normal[i];
    EXPECT_NEAR(norm(prep.node_weighted_normal[id] - direct), 0.0,
                1e-9 * (1.0 + norm(direct)));
  }
}

TEST_F(PreparedTest, ClosedSurfaceNormalsSumToNearZero) {
  // Gauss: the integral of the outward normal over a closed surface
  // vanishes; the root aggregate must be tiny relative to the total
  // unsigned weight.
  const Prepared& prep = fix().prep;
  const double total_weight = fix().quad.total_weight();
  EXPECT_LT(norm(prep.node_weighted_normal[0]), 0.02 * total_weight);
}

TEST_F(PreparedTest, MomentTensorsMatchDirectComputation) {
  const Prepared& prep = fix().prep;
  for (std::uint32_t id = 0; id < prep.q_tree.nodes().size(); id += 7) {
    const OctreeNode& node = prep.q_tree.node(id);
    Mat3 direct;
    for (std::uint32_t i = node.begin; i < node.end; ++i)
      direct += outer(prep.weighted_normal[i], prep.q_tree.point(i) - node.centroid);
    for (int r = 0; r < 3; ++r)
      for (int c = 0; c < 3; ++c)
        EXPECT_NEAR(prep.node_moment[id].m[r][c], direct.m[r][c],
                    1e-9 * (1.0 + std::abs(direct.m[r][c])))
            << "node " << id << " [" << r << "][" << c << "]";
  }
}

TEST_F(PreparedTest, ToOriginalOrderInvertsThePermutation) {
  const Prepared& prep = fix().prep;
  std::vector<double> sorted(prep.num_atoms());
  for (std::size_t slot = 0; slot < sorted.size(); ++slot)
    sorted[slot] = static_cast<double>(prep.atoms_tree.original_index(
        static_cast<std::uint32_t>(slot)));
  const auto original = prep.to_original_order(sorted);
  for (std::size_t i = 0; i < original.size(); ++i)
    EXPECT_EQ(original[i], static_cast<double>(i));
}

TEST_F(PreparedTest, FootprintCountsEveryArray) {
  const Prepared& prep = fix().prep;
  const std::size_t bytes = prep.replicated_footprint().bytes;
  EXPECT_GT(bytes, prep.num_atoms() * (sizeof(Vec3) + 2 * sizeof(double)));
  EXPECT_GT(bytes, prep.num_qpoints() * sizeof(Vec3));
}

// Two opposite unit charges `separation` Angstrom apart on the x axis.
Molecule ion_pair(double separation) {
  return Molecule("ion_pair", {Atom{Vec3{0, 0, 0}, 1.5, 1.0},
                               Atom{Vec3{separation, 0, 0}, 1.5, -1.0}});
}

// An ion pair far enough apart that the surface grid comes back empty must
// be rejected with a kNumerical-typed error, not answered: with no
// quadrature points every Born radius clamps to its cap and the energy is a
// small, silent, wrong number. The same pair 1e6 Angstrom apart still has a
// surface, and its octree energy matches the naive reference.
TEST(PreparedEmptySurfaceTest, IonPairWithEmptySurfaceIsANumericalError) {
  const Molecule near_pair = ion_pair(1e6);
  const surface::SurfaceQuadrature near_quad =
      surface::molecular_surface_quadrature(near_pair);
  ASSERT_GT(near_quad.size(), 0u);
  const Prepared prep = Prepared::build(near_pair, near_quad, 32);
  const GBConstants constants;
  const RunResult run = Engine(prep, ApproxParams{}, constants).run(serial_options());
  const NaiveResult naive = run_naive(near_pair, near_quad, constants);
  ASSERT_TRUE(std::isfinite(run.energy));
  EXPECT_LT(run.energy, -100.0);
  EXPECT_NEAR(run.energy, naive.energy, 1e-6 * std::abs(naive.energy));

  const Molecule far_pair = ion_pair(1e12);
  const surface::SurfaceQuadrature far_quad =
      surface::molecular_surface_quadrature(far_pair);
  ASSERT_EQ(far_quad.size(), 0u);
  try {
    (void)Prepared::build(far_pair, far_quad, 32);
    FAIL() << "an empty surface quadrature was accepted";
  } catch (const std::domain_error& e) {
    EXPECT_EQ(harness::Campaign::classify(e), ErrorClass::kNumerical) << e.what();
  }
}

::testing::AssertionResult numerical_error(const std::function<void()>& fn,
                                           const std::string& expect_in_message) {
  try {
    fn();
  } catch (const std::domain_error& e) {
    const std::string msg = e.what();
    if (harness::Campaign::classify(e) != ErrorClass::kNumerical)
      return ::testing::AssertionFailure() << "not classified kNumerical: " << msg;
    if (msg.find(expect_in_message) == std::string::npos)
      return ::testing::AssertionFailure() << "message lacks '" << expect_in_message
                                           << "': " << msg;
    return ::testing::AssertionSuccess();
  }
  return ::testing::AssertionFailure() << "no std::domain_error was thrown";
}

// A negative radius used to be accepted and answered like radius 0
// (-101.02 kcal/mol for this pair); non-finite fields poisoned the energy.
// Each is rejected by Prepared::build, naming the atom and the field.
TEST(PreparedInputValidationTest, NonFiniteFieldsAndNegativeRadiusAreNumericalErrors) {
  const Molecule valid = ion_pair(3.0);
  const surface::SurfaceQuadrature quad = surface::molecular_surface_quadrature(valid);
  ASSERT_GT(quad.size(), 0u);
  const auto build_with = [&](const std::function<void(Atom&)>& poison) {
    return [&valid, &quad, poison]() {
      Molecule mol = valid;
      poison(mol.atoms()[1]);
      (void)Prepared::build(mol, quad, 32);
    };
  };
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_TRUE(numerical_error(build_with([](Atom& a) { a.radius = -1.5; }),
                              "atom 1 has negative radius"));
  EXPECT_TRUE(numerical_error(build_with([&](Atom& a) { a.radius = nan; }),
                              "atom 1 has non-finite radius"));
  EXPECT_TRUE(numerical_error(build_with([&](Atom& a) { a.charge = inf; }),
                              "atom 1 has non-finite charge"));
  EXPECT_TRUE(numerical_error(build_with([&](Atom& a) { a.pos.y = nan; }),
                              "atom 1 has non-finite position"));
  // A zero radius stays a valid input.
  EXPECT_NO_THROW(build_with([](Atom& a) { a.radius = 0.0; })());
}

// Charges of 1e160 and -1 at 3 Angstrom are finite inputs whose energy
// overflows to -inf. Every route rejects the answer instead of returning it.
TEST(PreparedInputValidationTest, OverflowingEnergyIsANumericalErrorOnEveryRoute) {
  const Molecule pair("overflow_pair", {Atom{Vec3{0, 0, 0}, 1.5, 1e160},
                                        Atom{Vec3{3, 0, 0}, 1.5, -1.0}});
  const surface::SurfaceQuadrature quad = surface::molecular_surface_quadrature(pair);
  const Prepared prep = Prepared::build(pair, quad, 32);
  const Engine engine(prep, ApproxParams{}, GBConstants{});
  EXPECT_TRUE(numerical_error([&] { (void)engine.run(serial_options()); },
                              "non-finite energy"));
  EXPECT_TRUE(numerical_error([&] { (void)engine.run(cilk_options(2)); },
                              "non-finite energy"));

  TrajectoryDriver driver(pair);
  const std::vector<Vec3> positions{pair.atom(0).pos, pair.atom(1).pos};
  EXPECT_TRUE(numerical_error([&] { (void)driver.step(positions); }, "non-finite energy"));
}

TEST(Mat3Test, OuterTraceAndQuadraticForm) {
  const Mat3 m = outer(Vec3{1, 2, 3}, Vec3{4, 5, 6});
  EXPECT_DOUBLE_EQ(m.m[0][0], 4.0);
  EXPECT_DOUBLE_EQ(m.m[2][1], 15.0);
  EXPECT_DOUBLE_EQ(m.trace(), 4.0 + 10.0 + 18.0);
  // v^T (a b^T) v = (v.a)(v.b)
  const Vec3 v{1, -1, 2};
  EXPECT_DOUBLE_EQ(quadratic_form(m, v),
                   dot(v, Vec3{1, 2, 3}) * dot(v, Vec3{4, 5, 6}));
  Mat3 sum = m;
  sum += m;
  EXPECT_DOUBLE_EQ(sum.m[1][2], 2.0 * m.m[1][2]);
}

}  // namespace
}  // namespace gbpol
