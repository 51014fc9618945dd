// Fig. 9: energy values computed by the different packages across the
// suite. Paper: Amber / GBr6 / Gromacs / NAMD / OCT_* all close to naive;
// Tinker ~70% of naive; all octree variants agree with one another. Here
// OCT_CILK, OCT_MPI and OCT_MPI+CILK are one chunk-fold driver at the same
// total worker count, so the 'oct gap' column (largest relative spread among
// the three, from the exact doubles) is 0.
//
// Runs as a resumable campaign: with GBPOL_CAMPAIGN_DIR set, each molecule
// is a journaled job whose payload is its energy row, so a killed sweep
// resumes where it left off and completed rows are rebuilt from the journal
// without recomputation.
#include <algorithm>
#include <cmath>
#include <sstream>
#include <string_view>

#include "bench_common.hpp"
#include "support/stats.hpp"

int main() {
  using namespace gbpol;
  using namespace gbpol::bench;

  harness::print_figure_header("Fig. 9", "Energy values per package");
  const auto suite = suite_subset(/*stride=*/14, /*max_atoms=*/12000);
  std::printf("%zu molecules (GBPOL_FULL=1 for all 84)\n", suite.size());

  harness::PackageEnv env;
  const char* packages[] = {"naive",  "hct_amber", "hct_gromacs", "obc_namd",
                            "still_tinker", "gbr6", "oct_cilk",  "oct_mpi",
                            "oct_hybrid"};
  constexpr std::size_t kNumPackages = std::size(packages);

  harness::Campaign campaign(campaign_config("fig9_energy_values"));

  Table table({"atoms", "naive", "amber", "gromacs", "namd", "tinker", "gbr6",
               "oct_cilk", "oct_mpi", "oct_hybrid", "tinker/naive", "oct gap"});
  std::size_t index = 0;
  for (const Molecule& mol : suite) {
    const std::string job =
        "mol" + std::to_string(index++) + "/" + std::to_string(mol.size());
    const harness::JobStatus& st = campaign.run(job, [&] {
      const PreparedMolecule pm = prepare(mol);
      std::ostringstream payload;
      double oct_lo = 0.0, oct_hi = 0.0, oct_mpi = 0.0;
      for (const char* name : packages) {
        const double e = harness::run_package(name, pm.mol, pm.quad, pm.prep, env).energy;
        if (std::string_view(name).starts_with("oct_")) {
          oct_lo = oct_lo == 0.0 ? e : std::min(oct_lo, e);
          oct_hi = oct_hi == 0.0 ? e : std::max(oct_hi, e);
          if (std::string_view(name) == "oct_mpi") oct_mpi = e;
        }
        payload << Table::num(e, 6) << ' ';
      }
      payload << (oct_hi - oct_lo) / std::abs(oct_mpi);
      return payload.str();
    });
    if (st.state != ckpt::JobState::kDone) {
      std::printf("  %s quarantined after %d attempts (%s): %s\n", job.c_str(),
                  st.attempts, std::string(to_string(st.error)).c_str(),
                  st.payload.c_str());
      continue;
    }
    std::istringstream payload(st.payload);
    std::vector<double> energies;
    for (double e; payload >> e;) energies.push_back(e);
    if (energies.size() != kNumPackages + 1) {
      std::printf("  %s: malformed payload, skipping row\n", job.c_str());
      continue;
    }
    std::vector<std::string> row{Table::integer(static_cast<long long>(mol.size()))};
    for (std::size_t i = 0; i < kNumPackages; ++i) row.push_back(Table::num(energies[i], 6));
    row.push_back(Table::num(energies[4] / energies[0], 3));
    row.push_back(Table::num(energies[kNumPackages], 3));
    table.add_row(std::move(row));
  }
  harness::emit_table(table, "fig9_energy_values");
  if (campaign.skipped() > 0)
    std::printf("(%d rows rebuilt from the campaign journal)\n",
                campaign.skipped());
  std::printf("\n(kcal/mol; 'tinker/naive' is the paper's ~0.7 ratio)\n");
  return 0;
}
