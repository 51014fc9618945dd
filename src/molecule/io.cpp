#include "molecule/io.hpp"

#include <charconv>
#include <cmath>
#include <fstream>
#include <iomanip>
#include <sstream>
#include <vector>

namespace gbpol {

namespace {

// Hard cap on the declared atom count: rejects absurd headers (corrupt or
// hostile files) BEFORE reserving memory for them. Two orders of magnitude
// above the largest virus-shell suites this code targets.
constexpr std::size_t kMaxAtoms = 100'000'000;

// NaN/Inf in any field would propagate silently through every downstream
// kernel (octree bounds, quadrature, energies); reject at the parse site
// with the offending line and field named.
void check_finite(const Atom& a, const char* format, const char* unit,
                  std::size_t index) {
  const struct {
    const char* name;
    double value;
  } fields[] = {{"x", a.pos.x},       {"y", a.pos.y},      {"z", a.pos.z},
                {"charge", a.charge}, {"radius", a.radius}};
  for (const auto& f : fields) {
    if (std::isfinite(f.value)) continue;
    std::ostringstream msg;
    msg << format << ": " << unit << ' ' << index << ": field '" << f.name
        << "' is not finite (" << f.value << ")";
    throw IoError(msg.str());
  }
}

// The five numeric fields of an atom record, in file order.
constexpr const char* kFieldNames[5] = {"x", "y", "z", "charge", "radius"};

// Whole-token numeric parse: trailing characters ("1.5x") are a failure. A
// leading '+' is accepted, as stream extraction does.
template <typename T>
bool parse_number(const std::string& token, T& out) {
  const char* begin = token.data();
  const char* end = begin + token.size();
  if (token.size() > 1 && token[0] == '+' && token[1] != '-') ++begin;
  const auto [ptr, ec] = std::from_chars(begin, end, out);
  return ec == std::errc() && ptr == end;
}

}  // namespace

void write_xyzqr(const Molecule& mol, std::ostream& os) {
  os << mol.size() << '\n';
  os << std::setprecision(17);
  for (const Atom& a : mol.atoms())
    os << a.pos.x << ' ' << a.pos.y << ' ' << a.pos.z << ' ' << a.charge << ' '
       << a.radius << '\n';
}

void write_xyzqr_file(const Molecule& mol, const std::string& path) {
  std::ofstream os(path);
  if (!os) throw IoError("cannot open for writing: " + path);
  write_xyzqr(mol, os);
  if (!os) throw IoError("write failed: " + path);
}

Molecule read_xyzqr(std::istream& is, std::string name) {
  std::string line;
  std::size_t line_no = 0;
  std::vector<std::string> fields;
  // Reads the next line into `fields`; false at end of input.
  const auto next_line = [&] {
    if (!std::getline(is, line)) return false;
    ++line_no;
    fields.clear();
    std::istringstream tokens(line);
    for (std::string f; tokens >> f;) fields.push_back(std::move(f));
    return true;
  };
  const auto fail = [&](const auto&... parts) {
    std::ostringstream msg;
    msg << "xyzqr: line " << line_no << ": ";
    (msg << ... << parts);
    throw IoError(msg.str());
  };

  std::size_t n = 0;
  if (!next_line() || fields.size() != 1 || !parse_number(fields[0], n))
    throw IoError("xyzqr: missing atom count");
  if (n > kMaxAtoms) {
    std::ostringstream msg;
    msg << "xyzqr: declared atom count " << n << " exceeds limit " << kMaxAtoms;
    throw IoError(msg.str());
  }
  std::vector<Atom> atoms;
  atoms.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (!next_line()) {
      std::ostringstream msg;
      msg << "xyzqr: truncated at atom " << i << " of " << n;
      throw IoError(msg.str());
    }
    if (fields.size() != 5)
      fail("expected 5 fields (x y z charge radius), found ", fields.size());
    double v[5];
    for (int k = 0; k < 5; ++k)
      if (!parse_number(fields[static_cast<std::size_t>(k)], v[k]))
        fail("field '", kFieldNames[k], "' is not a number");
    Atom a;
    a.pos = Vec3{v[0], v[1], v[2]};
    a.charge = v[3];
    a.radius = v[4];
    check_finite(a, "xyzqr", "line", line_no);
    if (a.radius < 0.0) fail("negative radius");
    atoms.push_back(a);
  }
  while (next_line())
    if (!fields.empty()) fail("content after the ", n, " declared atoms");
  return Molecule(std::move(name), std::move(atoms));
}

Molecule read_xyzqr_file(const std::string& path) {
  std::ifstream is(path);
  if (!is) throw IoError("cannot open for reading: " + path);
  return read_xyzqr(is, path);
}

Molecule read_pqr(std::istream& is, std::string name) {
  std::vector<Atom> atoms;
  std::string line;
  std::size_t line_no = 0;
  const auto fail = [&](const auto&... parts) {
    std::ostringstream msg;
    msg << "pqr: line " << line_no << ": ";
    (msg << ... << parts);
    throw IoError(msg.str());
  };
  while (std::getline(is, line)) {
    ++line_no;
    std::istringstream tokens(line);
    std::string record;
    tokens >> record;
    if (record != "ATOM" && record != "HETATM") continue;
    std::vector<std::string> fields;
    std::string field;
    while (tokens >> field) fields.push_back(field);
    // Trailing five numerics are x y z charge radius; everything before is
    // serial/name/residue/(chain)/resSeq, whose count varies.
    if (fields.size() < 8) fail("expected at least 9 fields");
    double v[5];
    for (std::size_t k = 0; k < 5; ++k)
      if (!parse_number(fields[fields.size() - 5 + k], v[k]))
        fail("field '", kFieldNames[k], "' is not a number");
    Atom a;
    a.pos = Vec3{v[0], v[1], v[2]};
    a.charge = v[3];
    a.radius = v[4];
    check_finite(a, "pqr", "line", line_no);
    if (a.radius < 0.0) fail("negative radius");
    atoms.push_back(a);
    if (atoms.size() > kMaxAtoms) {
      std::ostringstream msg;
      msg << "pqr: more than " << kMaxAtoms << " atoms";
      throw IoError(msg.str());
    }
  }
  if (atoms.empty()) throw IoError("pqr: no ATOM/HETATM records found");
  return Molecule(std::move(name), std::move(atoms));
}

Molecule read_pqr_file(const std::string& path) {
  std::ifstream is(path);
  if (!is) throw IoError("cannot open for reading: " + path);
  return read_pqr(is, path);
}

void write_pqr(const Molecule& mol, std::ostream& os) {
  os << "REMARK generated by gbpol\n" << std::setprecision(6) << std::fixed;
  for (std::size_t i = 0; i < mol.size(); ++i) {
    const Atom& a = mol.atom(i);
    os << "ATOM " << i + 1 << " X UNK 1 " << a.pos.x << ' ' << a.pos.y << ' '
       << a.pos.z << ' ' << a.charge << ' ' << a.radius << '\n';
  }
  os << "END\n";
}

}  // namespace gbpol
