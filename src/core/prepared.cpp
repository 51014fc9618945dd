#include "core/prepared.hpp"

#include <cmath>
#include <stdexcept>
#include <string>

#include "support/timer.hpp"

namespace gbpol {

std::vector<double> Prepared::to_original_order(std::span<const double> sorted) const {
  std::vector<double> original(sorted.size());
  const auto perm = atoms_tree.permutation();
  for (std::size_t slot = 0; slot < sorted.size(); ++slot)
    original[perm[slot]] = sorted[slot];
  return original;
}

MemoryFootprint Prepared::replicated_footprint() const {
  MemoryFootprint fp = atoms_tree.footprint();
  const MemoryFootprint qfp = q_tree.footprint();
  fp.add(qfp.bytes);
  fp.add_array<double>(charge.size());
  fp.add_array<double>(intrinsic_radius.size());
  fp.add_array<Vec3>(weighted_normal.size());
  fp.add_array<Vec3>(node_weighted_normal.size());
  fp.add_array<Mat3>(node_moment.size());
  fp.add(atoms_soa.size_bytes());
  fp.add(q_soa.size_bytes());
  fp.add(q_wn_soa.size_bytes());
  return fp;
}

Prepared Prepared::build(const Molecule& mol, const surface::SurfaceQuadrature& quad,
                         std::uint32_t leaf_capacity) {
  return build(mol, quad, leaf_capacity, Aabb{}, Aabb{});
}

Prepared Prepared::build(const Molecule& mol, const surface::SurfaceQuadrature& quad,
                         std::uint32_t leaf_capacity, const Aabb& atoms_domain,
                         const Aabb& q_domain) {
  // A non-finite atom field poisons every energy it touches, and a negative
  // radius is silently clamped like a zero one; both are input errors.
  for (std::size_t i = 0; i < mol.size(); ++i) {
    const Atom& a = mol.atom(i);
    const auto reject = [i](const char* field, double value) {
      throw std::domain_error("numerical: atom " + std::to_string(i) + " has " + field +
                              " " + std::to_string(value));
    };
    for (const double c : {a.pos.x, a.pos.y, a.pos.z})
      if (!std::isfinite(c)) reject("non-finite position coordinate", c);
    if (!std::isfinite(a.charge)) reject("non-finite charge", a.charge);
    if (!std::isfinite(a.radius)) reject("non-finite radius", a.radius);
    if (a.radius < 0.0) reject("negative radius", a.radius);
  }
  // Without quadrature points every Born integral is zero and every radius
  // clamps to its cap, which yields a plausible-looking but meaningless
  // energy. The "numerical" tag classifies it as ErrorClass::kNumerical.
  if (mol.size() > 0 && quad.size() == 0)
    throw std::domain_error("numerical: " + std::to_string(mol.size()) +
                            " atoms but an empty surface quadrature (0 points); "
                            "the Born integrals are undefined");
  ThreadCpuTimer timer;
  Prepared prep;

  const Octree::BuildParams params{
      .leaf_capacity = leaf_capacity, .max_depth = 20, .domain = atoms_domain};
  const Octree::BuildParams q_params{
      .leaf_capacity = leaf_capacity, .max_depth = 20, .domain = q_domain};

  std::vector<Vec3> atom_pos(mol.size());
  for (std::size_t i = 0; i < mol.size(); ++i) atom_pos[i] = mol.atom(i).pos;
  prep.atoms_tree = Octree::build(atom_pos, params);

  prep.charge.resize(mol.size());
  prep.intrinsic_radius.resize(mol.size());
  for (std::size_t slot = 0; slot < mol.size(); ++slot) {
    const Atom& a = mol.atom(prep.atoms_tree.original_index(static_cast<std::uint32_t>(slot)));
    prep.charge[slot] = a.charge;
    prep.intrinsic_radius[slot] = a.radius;
  }

  prep.q_tree = Octree::build(quad.points, q_params);
  prep.weighted_normal.resize(quad.size());
  for (std::size_t slot = 0; slot < quad.size(); ++slot) {
    const std::uint32_t orig = prep.q_tree.original_index(static_cast<std::uint32_t>(slot));
    prep.weighted_normal[slot] = quad.normals[orig] * quad.weights[orig];
  }

  prep.hot_arena = std::make_shared<PageArena>();
  prep.atoms_soa = PointsSoA(prep.hot_arena);
  prep.q_soa = PointsSoA(prep.hot_arena);
  prep.q_wn_soa = PointsSoA(prep.hot_arena);
  prep.atoms_soa.assign(prep.atoms_tree.points());
  prep.q_soa.assign(prep.q_tree.points());
  prep.q_wn_soa.assign(prep.weighted_normal);

  // Node aggregates: children are stored after their parent, so a reverse
  // sweep folds children into parents in one pass. The moment tensor shifts
  // reference point when hoisted: M_parent = sum_child [ M_child +
  // n~_child (x) (c_child - c_parent) ].
  const auto nodes = prep.q_tree.nodes();
  prep.node_weighted_normal.assign(nodes.size(), Vec3{});
  prep.node_moment.assign(nodes.size(), Mat3{});
  for (std::size_t id = nodes.size(); id-- > 0;) {
    const OctreeNode& node = nodes[id];
    Vec3 sum;
    Mat3 moment;
    if (node.is_leaf()) {
      for (std::uint32_t i = node.begin; i < node.end; ++i) {
        sum += prep.weighted_normal[i];
        moment += outer(prep.weighted_normal[i], prep.q_tree.point(i) - node.centroid);
      }
    } else {
      for (std::uint8_t c = 0; c < node.child_count; ++c) {
        const std::size_t child_id = static_cast<std::size_t>(node.first_child) + c;
        const OctreeNode& child = nodes[child_id];
        sum += prep.node_weighted_normal[child_id];
        moment += prep.node_moment[child_id];
        moment += outer(prep.node_weighted_normal[child_id],
                        child.centroid - node.centroid);
      }
    }
    prep.node_weighted_normal[id] = sum;
    prep.node_moment[id] = moment;
  }

  prep.build_seconds = timer.seconds();
  return prep;
}

}  // namespace gbpol
