// Ablation (paper §VI future work): explicit dynamic load balancing across
// ranks. Runs the same canonical chunk fold under the three balance
// policies (core/balance.hpp): the paper's static even split, a cost-model
// split, and cost-model + modeled work stealing. The interesting column is
// the compute-makespan: balancing wins when leaf occupancy is skewed, at the
// price of steal round trips. The energy column is identical on every row
// of a rank count — the policies move chunks, never the fold.
#include <iostream>

#include "bench_common.hpp"

int main() {
  using namespace gbpol;
  using namespace gbpol::bench;

  harness::print_figure_header("Ablation", "Static vs cost-model vs stealing balance policy");
  // A bound complex plus a distant small fragment yields skewed leaf
  // occupancy (sparse regions produce thin leaves).
  Molecule mol = molgen::bound_complex(12000, 31337);
  Molecule fragment = molgen::synthetic_protein(1200, 31338);
  fragment.translate(Vec3{120, 80, 0});
  mol.append(fragment);
  const PreparedMolecule pm = prepare(mol);
  std::printf("molecule: %zu atoms (deliberately skewed layout)\n", pm.mol.size());

  ApproxParams params;
  const GBConstants constants;

  Table table({"P", "policy", "modeled(s)", "compute max(s)", "comm(s)", "migrated",
               "E_pol"});
  for (const int ranks : {4, 12, 48}) {
    for (const auto& [policy, name] :
         {std::pair{BalancePolicy::kStatic, "static"},
          std::pair{BalancePolicy::kCostModel, "cost model"},
          std::pair{BalancePolicy::kSteal, "steal"}}) {
      RunOptions options = distributed_options(ranks);
      options.balance = policy;
      const RunResult r = Engine(pm.prep, params, constants).run(options);
      table.add_row({Table::integer(ranks), name, Table::num(r.modeled_seconds(), 4),
                     Table::num(r.max_compute_seconds(), 4), Table::num(r.comm_seconds, 5),
                     Table::integer(static_cast<long long>(r.migrated_chunks)),
                     Table::num(r.energy, 6)});
    }
  }
  harness::emit_table(table, "ablation_dynamic_lb");
  return 0;
}
