// Plain-text molecule I/O in the "xyzqr" format used by implicit-solvent
// tools: one header line with the atom count, then one line per atom with
// `x y z charge radius`. Lets users run the library on real structures
// (e.g., converted from PQR files) instead of the synthetic suite.
#pragma once

#include <iosfwd>
#include <stdexcept>
#include <string>

#include "molecule/molecule.hpp"

namespace gbpol {

struct IoError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

void write_xyzqr(const Molecule& mol, std::ostream& os);
void write_xyzqr_file(const Molecule& mol, const std::string& path);

// Line-oriented: the count alone on the first line, then exactly five
// numeric fields on each of the next `count` lines, and nothing but
// whitespace after the last declared atom. Throws IoError (naming the line)
// on malformed input.
Molecule read_xyzqr(std::istream& is, std::string name = "molecule");
Molecule read_xyzqr_file(const std::string& path);

// PQR (the format pdb2pqr emits; what implicit-solvent tools consume):
// `ATOM/HETATM serial name resName [chain] resSeq x y z charge radius`.
// Non-atom records are ignored; the optional chain column is handled by
// taking the trailing five numeric fields as x y z q r.
Molecule read_pqr(std::istream& is, std::string name = "molecule");
Molecule read_pqr_file(const std::string& path);
void write_pqr(const Molecule& mol, std::ostream& os);

}  // namespace gbpol
