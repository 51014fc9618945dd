// Ablation (DESIGN.md): the Born far-field criterion as PRINTED in the
// paper's Fig. 2 — opening multiplier ((1+e)^(1/6)+1)/((1+e)^(1/6)-1), i.e.
// ~18.7x at eps=0.9 — vs the (1+2/eps) form of the Fig. 3 energy criterion
// that this library uses by default. The printed form's traversal degenerates
// toward all-pairs cost, which is why we read it as a typo.
#include <iostream>

#include "bench_common.hpp"
#include "core/born_octree.hpp"
#include "core/drivers.hpp"
#include "core/naive.hpp"
#include "support/stats.hpp"
#include "support/timer.hpp"

int main() {
  using namespace gbpol;
  using namespace gbpol::bench;

  harness::print_figure_header("Ablation", "Born far-criterion: consistent vs strict text");
  const PreparedMolecule pm = prepare(molgen::bound_complex(4000, 999));
  const GBConstants constants;
  const auto naive_born = naive_born_radii_r6(pm.mol.atoms(), pm.quad);
  std::printf("molecule: %zu atoms, %zu q-points\n", pm.mol.size(), pm.quad.size());

  Table table({"criterion", "eps", "multiplier", "far terms", "exact pairs",
               "born time(s)", "mean err(%)"});
  for (const bool strict : {false, true}) {
    for (const double eps : {0.5, 0.9}) {
      ApproxParams params;
      params.eps_born = eps;
      params.born_strict_criterion = strict;
      const BornSolver solver(pm.prep, params);
      const auto n_leaves = static_cast<std::uint32_t>(pm.prep.q_tree.leaves().size());
      const InteractionCounts stats =
          count_interactions(pm.prep.atoms_tree, pm.prep.q_tree,
                             BornSolver::walk_params(params, 0, n_leaves));

      ThreadCpuTimer timer;
      BornAccumulator acc = solver.make_accumulator();
      solver.accumulate_qleaf_range(0, n_leaves, acc);
      std::vector<double> born(pm.prep.num_atoms(), 0.0);
      solver.push_to_atoms(acc, 0, static_cast<std::uint32_t>(born.size()), born);
      const double seconds = timer.seconds();

      const auto original = pm.prep.to_original_order(born);
      double mean_err = 0.0;
      for (std::size_t i = 0; i < original.size(); ++i)
        mean_err += percent_error(original[i], naive_born[i]);
      mean_err /= static_cast<double>(original.size());

      table.add_row({strict ? "strict (as printed)" : "consistent (default)",
                     Table::num(eps, 2), Table::num(params.born_far_multiplier(), 4),
                     Table::integer(static_cast<long long>(stats.far)),
                     Table::integer(static_cast<long long>(stats.near_point_pairs)),
                     Table::num(seconds, 4), Table::num(mean_err, 4)});
    }
  }
  harness::emit_table(table, "ablation_criterion");
  return 0;
}
