// Ablation (paper §VI future work): replicated data (Fig. 4) vs owned-mode
// data distribution (DataDistribution::kOwned: ranks own Morton-contiguous
// leaf ranges and import a halo). Reports per-rank hot memory, halo bytes,
// communication traffic and modeled time for both across rank counts. The
// energies agree to the bit: both fold the same chunk partials.
#include <iostream>

#include "bench_common.hpp"

int main() {
  using namespace gbpol;
  using namespace gbpol::bench;

  harness::print_figure_header("Ablation", "Replicated (Fig. 4) vs owned data distribution");
  const double scale = harness::env_scale();
  const Molecule shell = molgen::virus_shell(
      static_cast<std::size_t>(60000 * scale), 606060, 0.2, "dist-shell");
  std::printf("molecule: %zu atoms\n", shell.size());
  const PreparedMolecule pm = prepare(shell, 48);

  ApproxParams params;
  const GBConstants constants;
  constexpr double kMiB = 1 << 20;

  Table table({"P", "scheme", "modeled(s)", "comm(s)", "hot/rank(MiB)", "halo(MiB)",
               "bytes sent(MiB)", "E_pol"});
  for (const int ranks : {4, 12, 48}) {
    for (const DataDistribution dist :
         {DataDistribution::kReplicated, DataDistribution::kOwned}) {
      RunOptions options = distributed_options(ranks);
      options.distribution = dist;
      const RunResult r = Engine(pm.prep, params, constants).run(options);
      const bool owned = dist == DataDistribution::kOwned;
      const double per_rank =
          owned ? static_cast<double>(r.owned_bytes_per_rank)
                : static_cast<double>(r.replicated_bytes) / static_cast<double>(ranks);
      table.add_row({Table::integer(ranks), owned ? "owned" : "replicated",
                     Table::num(r.modeled_seconds(), 4), Table::num(r.comm_seconds, 5),
                     Table::num(per_rank / kMiB, 4),
                     Table::num(static_cast<double>(r.owned_halo_bytes) / kMiB, 4),
                     Table::num(static_cast<double>(r.total_bytes_sent()) / kMiB, 4),
                     Table::num(r.energy, 6)});
    }
  }
  harness::emit_table(table, "ablation_data_distribution");
  std::printf("\n(replicated hot/rank counts the FULL per-rank copy incl. octrees;\n"
              " owned counts the owned payload plus its halo)\n");
  return 0;
}
