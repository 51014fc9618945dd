// Molecule representation, synthetic generators, suites and I/O.
#include "molecule/molecule.hpp"

#include <cmath>
#include <numbers>
#include <sstream>

#include <gtest/gtest.h>

#include "molecule/generate.hpp"
#include "molecule/io.hpp"
#include "molecule/suite.hpp"

namespace gbpol {
namespace {

TEST(MoleculeTest, BasicAccessors) {
  Molecule mol("m", {{Vec3{0, 0, 0}, 1.0, 0.5}, {Vec3{2, 0, 0}, 2.0, -0.25}});
  EXPECT_EQ(mol.size(), 2u);
  EXPECT_EQ(mol.name(), "m");
  EXPECT_DOUBLE_EQ(mol.net_charge(), 0.25);
  EXPECT_DOUBLE_EQ(mol.max_radius(), 2.0);
  EXPECT_EQ(mol.centroid(), (Vec3{1, 0, 0}));
  EXPECT_EQ(mol.bounding_box().lo, (Vec3{0, 0, 0}));
  EXPECT_EQ(mol.bounding_box().hi, (Vec3{2, 0, 0}));
}

TEST(MoleculeTest, TranslatePreservesShape) {
  Molecule mol("m", {{Vec3{0, 0, 0}, 1.0, 0}, {Vec3{1, 1, 1}, 1.0, 0}});
  mol.translate(Vec3{5, -3, 2});
  EXPECT_EQ(mol.atom(0).pos, (Vec3{5, -3, 2}));
  EXPECT_NEAR(distance(mol.atom(0).pos, mol.atom(1).pos), std::sqrt(3.0), 1e-15);
}

TEST(MoleculeTest, RotatePreservesPairDistancesAndCentroid) {
  Molecule mol = molgen::synthetic_protein(64, 5);
  const Vec3 centroid_before = mol.centroid();
  const double d01 = distance(mol.atom(0).pos, mol.atom(1).pos);
  const double d0n = distance(mol.atom(0).pos, mol.atom(63).pos);
  mol.rotate(Vec3{1, 2, 3}, 1.1);
  EXPECT_NEAR(distance(mol.atom(0).pos, mol.atom(1).pos), d01, 1e-9);
  EXPECT_NEAR(distance(mol.atom(0).pos, mol.atom(63).pos), d0n, 1e-9);
  EXPECT_NEAR(norm(mol.centroid() - centroid_before), 0.0, 1e-9);
}

TEST(MoleculeTest, RotateByFullTurnIsIdentity) {
  Molecule mol("m", {{Vec3{1, 0, 0}, 1.0, 0}, {Vec3{0, 2, 0}, 1.0, 0}});
  const Vec3 before = mol.atom(0).pos;
  mol.rotate(Vec3{0, 0, 1}, 2.0 * std::numbers::pi);
  EXPECT_NEAR(norm(mol.atom(0).pos - before), 0.0, 1e-12);
}

TEST(MoleculeTest, AppendConcatenates) {
  Molecule a("a", {{Vec3{}, 1.0, 1.0}});
  const Molecule b("b", {{Vec3{1, 0, 0}, 1.0, -1.0}, {Vec3{2, 0, 0}, 1.0, 0.0}});
  a.append(b);
  EXPECT_EQ(a.size(), 3u);
  EXPECT_DOUBLE_EQ(a.net_charge(), 0.0);
}

TEST(GenerateTest, ProteinHasRequestedSize) {
  for (const std::size_t n : {50u, 400u, 3000u}) {
    const Molecule mol = molgen::synthetic_protein(n, 1);
    EXPECT_EQ(mol.size(), n);
  }
}

TEST(GenerateTest, ProteinIsDeterministic) {
  const Molecule a = molgen::synthetic_protein(500, 99);
  const Molecule b = molgen::synthetic_protein(500, 99);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.atom(i).pos, b.atom(i).pos);
    EXPECT_EQ(a.atom(i).charge, b.atom(i).charge);
    EXPECT_EQ(a.atom(i).radius, b.atom(i).radius);
  }
}

TEST(GenerateTest, DifferentSeedsDiffer) {
  const Molecule a = molgen::synthetic_protein(100, 1);
  const Molecule b = molgen::synthetic_protein(100, 2);
  EXPECT_NE(a.atom(0).pos, b.atom(0).pos);
}

TEST(GenerateTest, ProteinDensityIsProteinLike) {
  const Molecule mol = molgen::synthetic_protein(4000, 3);
  const Aabb box = mol.bounding_box();
  const Vec3 e = box.extent();
  const double density = static_cast<double>(mol.size()) / (e.x * e.y * e.z);
  // Bounding box over-covers a ball, so the density reads low; it must still
  // be within a protein-like order of magnitude.
  EXPECT_GT(density, 0.02);
  EXPECT_LT(density, 0.5);
}

TEST(GenerateTest, ProteinChargesRoughlyNeutralized) {
  const Molecule mol = molgen::synthetic_protein(2000, 4);
  // ~20% charged residues of +-1: net is a small multiple of 1.
  EXPECT_LT(std::abs(mol.net_charge()), 40.0);
  double max_abs_q = 0.0;
  for (const Atom& a : mol.atoms()) max_abs_q = std::max(max_abs_q, std::abs(a.charge));
  EXPECT_LT(max_abs_q, 3.0);
}

TEST(GenerateTest, RadiiFromVdwPalette) {
  const Molecule mol = molgen::synthetic_protein(500, 6);
  for (const Atom& a : mol.atoms()) {
    EXPECT_GE(a.radius, 1.2);
    EXPECT_LE(a.radius, 1.8);
  }
}

TEST(GenerateTest, BoundComplexHasTwoChains) {
  const Molecule mol = molgen::bound_complex(1000, 8);
  EXPECT_EQ(mol.size(), 1000u);
  // Ligand (last quarter) sits beyond the receptor along +x with a gap.
  double receptor_max_x = -1e300, ligand_min_x = 1e300;
  for (std::size_t i = 0; i < 750; ++i)
    receptor_max_x = std::max(receptor_max_x, mol.atom(i).pos.x);
  for (std::size_t i = 750; i < 1000; ++i)
    ligand_min_x = std::min(ligand_min_x, mol.atom(i).pos.x);
  EXPECT_GT(ligand_min_x, receptor_max_x - 1e-9);
}

TEST(GenerateTest, VirusShellIsHollow) {
  const Molecule mol = molgen::virus_shell(20000, 10, 0.25);
  EXPECT_EQ(mol.size(), 20000u);
  double min_r = 1e300, max_r = 0.0;
  for (const Atom& a : mol.atoms()) {
    const double r = norm(a.pos);
    min_r = std::min(min_r, r);
    max_r = std::max(max_r, r);
  }
  EXPECT_GT(min_r, 0.5 * max_r);  // hollow: no atoms near the center
  EXPECT_NEAR(min_r / max_r, 0.75, 0.05);
  EXPECT_NEAR(mol.net_charge(), 0.0, 1e-9);
}

TEST(SuiteTest, SizesSpanPaperRange) {
  const auto sizes = molgen::zdock_like_sizes();
  ASSERT_EQ(sizes.size(), 84u);
  EXPECT_EQ(sizes.front(), 400u);
  EXPECT_EQ(sizes.back(), 16000u);
  for (std::size_t i = 1; i < sizes.size(); ++i) EXPECT_GE(sizes[i], sizes[i - 1]);
}

TEST(SuiteTest, CustomSpec) {
  molgen::SuiteSpec spec;
  spec.count = 5;
  spec.min_atoms = 100;
  spec.max_atoms = 1600;
  const auto suite = molgen::zdock_like_suite(spec);
  ASSERT_EQ(suite.size(), 5u);
  EXPECT_EQ(suite.front().size(), 100u);
  EXPECT_EQ(suite.back().size(), 1600u);
}

TEST(SuiteTest, VirusSubstitutesScale) {
  const Molecule small = molgen::cmv_like(0.01);
  EXPECT_EQ(small.size(), 1200u);
  const Molecule btv = molgen::btv_like(0.01);
  EXPECT_EQ(btv.size(), 2400u);
}

TEST(IoTest, RoundTripThroughStream) {
  const Molecule mol = molgen::synthetic_protein(50, 21);
  std::stringstream ss;
  write_xyzqr(mol, ss);
  const Molecule back = read_xyzqr(ss, "back");
  ASSERT_EQ(back.size(), mol.size());
  for (std::size_t i = 0; i < mol.size(); ++i) {
    EXPECT_EQ(back.atom(i).pos, mol.atom(i).pos);
    EXPECT_EQ(back.atom(i).charge, mol.atom(i).charge);
    EXPECT_EQ(back.atom(i).radius, mol.atom(i).radius);
  }
}

TEST(IoTest, RejectsMalformedInput) {
  std::istringstream missing_count("not-a-number");
  EXPECT_THROW(read_xyzqr(missing_count), IoError);
  std::istringstream truncated("3\n0 0 0 1 1\n");
  EXPECT_THROW(read_xyzqr(truncated), IoError);
  std::istringstream negative_radius("1\n0 0 0 1 -2\n");
  EXPECT_THROW(read_xyzqr(negative_radius), IoError);
}

TEST(IoTest, PqrRoundTrip) {
  const Molecule mol = molgen::synthetic_protein(40, 23);
  std::stringstream ss;
  write_pqr(mol, ss);
  const Molecule back = read_pqr(ss, "back");
  ASSERT_EQ(back.size(), mol.size());
  for (std::size_t i = 0; i < mol.size(); ++i) {
    EXPECT_NEAR(distance(back.atom(i).pos, mol.atom(i).pos), 0.0, 1e-5);
    EXPECT_NEAR(back.atom(i).charge, mol.atom(i).charge, 1e-5);
    EXPECT_NEAR(back.atom(i).radius, mol.atom(i).radius, 1e-5);
  }
}

TEST(IoTest, PqrParsesChainAndChainlessRecords) {
  std::istringstream pqr(
      "REMARK test\n"
      "ATOM 1 N ALA A 1 1.0 2.0 3.0 -0.3 1.55\n"   // with chain column
      "ATOM 2 CA ALA 1 4.0 5.0 6.0 0.1 1.70\n"     // without chain column
      "HETATM 3 O HOH 2 7.0 8.0 9.0 -0.8 1.52\n"
      "TER\nEND\n");
  const Molecule mol = read_pqr(pqr);
  ASSERT_EQ(mol.size(), 3u);
  EXPECT_EQ(mol.atom(0).pos, (Vec3{1, 2, 3}));
  EXPECT_DOUBLE_EQ(mol.atom(0).charge, -0.3);
  EXPECT_EQ(mol.atom(1).pos, (Vec3{4, 5, 6}));
  EXPECT_DOUBLE_EQ(mol.atom(2).radius, 1.52);
}

TEST(IoTest, PqrRejectsGarbage) {
  std::istringstream empty("REMARK nothing here\nEND\n");
  EXPECT_THROW(read_pqr(empty), IoError);
  std::istringstream short_line("ATOM 1 N ALA 1 1.0 2.0\n");
  EXPECT_THROW(read_pqr(short_line), IoError);
  std::istringstream non_numeric("ATOM 1 N ALA 1 x y z q r\n");
  EXPECT_THROW(read_pqr(non_numeric), IoError);
  // Trailing junk after a number is not a number (as in read_xyzqr).
  std::istringstream trailing_junk("ATOM 1 N ALA 1 1.5x 2.0 3.0 -0.3 1.55\n");
  EXPECT_THROW(read_pqr(trailing_junk), IoError);
}

// Helper: run the reader and return the IoError message (empty = no throw).
template <typename Fn>
std::string io_error_of(Fn&& fn) {
  try {
    fn();
  } catch (const IoError& e) {
    return e.what();
  }
  return {};
}

TEST(IoTest, RejectsNonFiniteXyzqrFields) {
  // Stream extraction of "nan"/"inf" either parses the value (then the
  // finiteness check fires) or fails extraction (then the truncation check
  // fires) — both must surface as IoError, never as a silent NaN molecule.
  std::istringstream nan_coord("1\nnan 0 0 1 1\n");
  EXPECT_THROW(read_xyzqr(nan_coord), IoError);
  std::istringstream inf_charge("1\n0 0 0 inf 1\n");
  EXPECT_THROW(read_xyzqr(inf_charge), IoError);
  std::istringstream inf_radius("1\n0 0 0 1 inf\n");
  EXPECT_THROW(read_xyzqr(inf_radius), IoError);
}

TEST(IoTest, RejectsNonFinitePqrFieldsNamingLineAndField) {
  const std::string msg = io_error_of([] {
    std::istringstream pqr(
        "REMARK test\n"
        "ATOM 1 N ALA 1 1.0 2.0 3.0 -0.3 1.55\n"
        "ATOM 2 CA ALA 1 4.0 nan 6.0 0.1 1.70\n");
    read_pqr(pqr);
  });
  ASSERT_FALSE(msg.empty());
  EXPECT_NE(msg.find("line 3"), std::string::npos) << msg;
  EXPECT_NE(msg.find("'y'"), std::string::npos) << msg;

  std::istringstream inf_charge("ATOM 1 N ALA 1 1.0 2.0 3.0 inf 1.55\n");
  const std::string charge_msg = io_error_of([&] { read_pqr(inf_charge); });
  ASSERT_FALSE(charge_msg.empty());
  EXPECT_NE(charge_msg.find("'charge'"), std::string::npos) << charge_msg;
}

TEST(IoTest, RejectsAbsurdAtomCountBeforeAllocating) {
  // A corrupt header declaring ~10^18 atoms must be rejected up front, not
  // handed to reserve().
  std::istringstream huge("1000000000000000000\n0 0 0 1 1\n");
  const std::string msg = io_error_of([&] { read_xyzqr(huge); });
  ASSERT_FALSE(msg.empty());
  EXPECT_NE(msg.find("exceeds limit"), std::string::npos) << msg;
}

TEST(IoTest, RejectsXyzqrAtomLinesPastTheHeaderCount) {
  // The header declares one atom; a second atom line means the count is
  // wrong, and the reader must not guess which one.
  std::istringstream extra_atom("1\n0 0 0 1 1\n2 2 2 -1 1\n");
  const std::string msg = io_error_of([&] { read_xyzqr(extra_atom); });
  ASSERT_FALSE(msg.empty());
  EXPECT_NE(msg.find("line 3"), std::string::npos) << msg;
}

TEST(IoTest, RejectsXyzqrLinesWithExtraFields) {
  // A token-stream parse would shift every following atom by one field.
  std::istringstream extra_field("2\n0 0 0 1 1 7\n1 1 1 -1 1\n");
  const std::string msg = io_error_of([&] { read_xyzqr(extra_field); });
  ASSERT_FALSE(msg.empty());
  EXPECT_NE(msg.find("line 2"), std::string::npos) << msg;
  EXPECT_NE(msg.find("5 fields"), std::string::npos) << msg;

  std::istringstream glued("1\n0 0 0 1 1.5x\n");
  const std::string glued_msg = io_error_of([&] { read_xyzqr(glued); });
  EXPECT_NE(glued_msg.find("'radius'"), std::string::npos) << glued_msg;
}

TEST(IoTest, XyzqrAcceptsTrailingWhitespaceOnly) {
  std::istringstream padded("2\n0 0 0 1 1\n1 1 1 -1 1  \r\n\n   \n");
  const Molecule mol = read_xyzqr(padded);
  ASSERT_EQ(mol.size(), 2u);
  EXPECT_EQ(mol.atom(1).charge, -1.0);
}

TEST(IoTest, FileRoundTrip) {
  const Molecule mol = molgen::synthetic_protein(20, 22);
  const std::string path = ::testing::TempDir() + "/gbpol_io_test.xyzqr";
  write_xyzqr_file(mol, path);
  const Molecule back = read_xyzqr_file(path);
  EXPECT_EQ(back.size(), mol.size());
  EXPECT_THROW(read_xyzqr_file(path + ".does-not-exist"), IoError);
}

}  // namespace
}  // namespace gbpol
