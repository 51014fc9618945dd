#include "core/drivers.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <cstring>
#include <fstream>
#include <limits>
#include <memory>
#include <span>

#include "core/balance.hpp"
#include "core/engine.hpp"
#include "core/halo_exchange.hpp"
#include "support/arena.hpp"
#include "mpisim/costmodel.hpp"
#include "mpisim/pool.hpp"
#include "mpisim/runtime.hpp"
#include "obs/trace.hpp"
#include "support/checksum.hpp"
#include "support/timer.hpp"
#include "ws/parallel_for.hpp"
#include "ws/scheduler.hpp"

namespace gbpol {
namespace {

// 12000 is the owned-mode Born halo exchange (core/halo_exchange.cpp);
// 12001 gathers the owned Born slices to the writer at the end of an owned-view
// run of oct_balanced.
constexpr int kTagOwnedBorn = 12001;

// Surviving ranks in ascending order (`dead` is ascending, per Comm).
std::vector<int> live_ranks(int ranks, const std::vector<int>& dead) {
  std::vector<int> live;
  live.reserve(static_cast<std::size_t>(ranks) - dead.size());
  auto it = dead.begin();
  for (int r = 0; r < ranks; ++r) {
    if (it != dead.end() && *it == r) {
      ++it;
      continue;
    }
    live.push_back(r);
  }
  return live;
}

int index_of(const std::vector<int>& live, int rank) {
  return static_cast<int>(std::lower_bound(live.begin(), live.end(), rank) -
                          live.begin());
}

// Wraps one unit of dispatched work in kChunkDispatch/kChunkDone events plus
// service-time accounting. The session check keeps the un-traced hot path
// free of even the clock reads.
template <typename Body>
void traced_chunk(std::uint64_t lo, std::uint64_t hi, obs::PhaseId phase,
                  Body&& body) {
  if (!obs::session_active()) {
    body();
    return;
  }
  const auto arg = static_cast<std::uint8_t>(phase);
  obs::emit(obs::EventKind::kChunkDispatch, lo, hi, arg);
  WallTimer timer;
  body();
  obs::add_chunk_service(obs::current_rank(),
                         static_cast<std::uint64_t>(timer.seconds() * 1e9));
  obs::emit(obs::EventKind::kChunkDone, lo, hi, arg);
}

// One rank's workers (OCT_MPI+CILK's cilk++ threads; OCT_CILK is the one-rank
// case). With one worker there is no pool: each chunk runs inline on the
// rank thread as its own traced compute region — the per-chunk schedule every
// fault, kill and corruption plan is keyed to. With p workers a wave of at
// most p chunks runs as ws tasks and is charged as its max-worker busy time
// (what a p-core node needs): the thread CPU time each worker spends inside
// task bodies, so a worker idling at the wave's join is not busy. Only
// compute happens in the tasks; every Comm call stays on the rank thread.
class RankWorkers {
 public:
  explicit RankWorkers(int workers) {
    if (workers <= 1) return;
    pool_ = std::make_unique<ws::Scheduler>(workers);
    busy_.resize(static_cast<std::size_t>(workers));
  }

  std::size_t width() const { return pool_ ? busy_.size() : 1; }

  // body(c) computes chunk c of `plan`; `wave` holds at most width() chunks.
  template <typename Body>
  void run_wave(mpisim::Comm& comm, std::span<const std::uint32_t> wave,
                const ChunkPlan& plan, obs::PhaseId phase, const Body& body) {
    if (!pool_) {
      for (const std::uint32_t c : wave) {
        const Segment seg = plan.chunk_range(c);
        traced_chunk(seg.lo, seg.hi, phase, [&] {
          mpisim::Comm::ComputeRegion region(comm);
          body(c);
        });
      }
      return;
    }
    // Workers emit their chunk events into their own streams; the service
    // times are added on the rank thread (the per-rank slot is not atomic).
    const bool traced = obs::session_active();
    std::vector<std::uint64_t> service_ns(traced ? wave.size() : 0, 0);
    charged(comm, wave.size(), 1, [&](std::size_t lo, std::size_t hi) {
      for (std::size_t i = lo; i < hi; ++i) {
        if (!traced) {
          body(wave[i]);
          continue;
        }
        const Segment seg = plan.chunk_range(wave[i]);
        const auto arg = static_cast<std::uint8_t>(phase);
        obs::emit(obs::EventKind::kChunkDispatch, seg.lo, seg.hi, arg);
        WallTimer timer;
        body(wave[i]);
        service_ns[i] = static_cast<std::uint64_t>(timer.seconds() * 1e9);
        obs::emit(obs::EventKind::kChunkDone, seg.lo, seg.hi, arg);
      }
    });
    for (const std::uint64_t ns : service_ns) obs::add_chunk_service(obs::current_rank(), ns);
  }

  // body(lo, hi) over disjoint sub-ranges of [0, n): a per-item step whose
  // result does not depend on the split (the Born fold and push).
  template <typename Body>
  void run_range(mpisim::Comm& comm, std::uint32_t n, const Body& body) {
    if (!pool_) {
      mpisim::Comm::ComputeRegion region(comm);
      body(0u, n);
      return;
    }
    const std::size_t grain = std::max<std::size_t>(1, n / (16 * width()));
    charged(comm, n, grain, [&](std::size_t lo, std::size_t hi) {
      body(static_cast<std::uint32_t>(lo), static_cast<std::uint32_t>(hi));
    });
  }

  std::uint64_t steals = 0;
  std::uint64_t tasks = 0;

 private:
  // Runs body over [0, n) in grains on the pool, charging the max-worker
  // busy time.
  template <typename Body>
  void charged(mpisim::Comm& comm, std::size_t n, std::size_t grain, const Body& body) {
    std::fill(busy_.begin(), busy_.end(), 0.0);
    pool_->reset_stats();
    ws::parallel_for(*pool_, 0, n, grain, [&](std::size_t lo, std::size_t hi) {
      ThreadCpuTimer cpu;
      body(lo, hi);
      busy_[static_cast<std::size_t>(ws::Scheduler::worker_id())] += cpu.seconds();
    });
    const ws::Scheduler::Stats st = pool_->stats();
    steals += st.steals;
    tasks += st.tasks_executed;
    comm.add_compute_seconds(*std::max_element(busy_.begin(), busy_.end()));
  }

  std::unique_ptr<ws::Scheduler> pool_;
  std::vector<double> busy_;  // per worker, this step
};

// Scheduled snapshot-byte corruption (CorruptionPlan::SnapshotBytes): flip
// one bit of a just-committed snapshot file, anywhere past the 8-byte magic
// (body or trailing CRC — either way read_snapshot's CRC check rejects the
// file on the next resume, which falls back to the older cursor/phase).
void corrupt_snapshot_file(const std::string& path, std::uint64_t bit) {
  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  if (!f) return;
  f.seekg(0, std::ios::end);
  const std::streamoff size = f.tellg();
  constexpr std::streamoff kMagicBytes = 8;
  if (size <= kMagicBytes) return;
  const std::uint64_t pos =
      bit % (static_cast<std::uint64_t>(size - kMagicBytes) * 8);
  const std::streamoff byte_at = kMagicBytes + static_cast<std::streamoff>(pos / 8);
  f.seekg(byte_at);
  char byte = 0;
  if (!f.read(&byte, 1)) return;
  byte = static_cast<char>(byte ^ static_cast<char>(1u << (pos % 8)));
  f.seekp(byte_at);
  f.write(&byte, 1);
}

// Integrity words folded into every checkpoint job key (satellite of the
// data-integrity layer): a store written under a different guard posture or
// checksum scheme is never resumed from.
constexpr std::uint64_t kIntegrityTag = 0x1D7E6u;
std::uint64_t integrity_job_word(bool guards_on) {
  return ckpt::fnv1a64({kIntegrityTag, support::kIntegrityEpoch,
                        static_cast<std::uint64_t>(support::kChecksumBlockBytes),
                        guards_on ? 1ull : 0ull});
}


// The canonical Born fold skips the all-zero blocks of each chunk partial: a
// chunk's deposits touch only the accumulator slots near its quadrature
// leaves. Skipping is exact — an accumulator slot starts at +0.0 and IEEE
// addition never turns it into -0.0, so adding a zero leaves every bit
// unchanged — and the fold's modeled data motion counts only touched blocks.
constexpr std::size_t kFoldBlock = 64;  // doubles

std::vector<std::uint32_t> touched_blocks(std::span<const double> partial) {
  std::vector<std::uint32_t> blocks;
  for (std::size_t lo = 0; lo < partial.size(); lo += kFoldBlock) {
    const auto block = partial.subspan(lo, std::min(kFoldBlock, partial.size() - lo));
    if (std::any_of(block.begin(), block.end(), [](double x) { return x != 0.0; }))
      blocks.push_back(static_cast<std::uint32_t>(lo / kFoldBlock));
  }
  return blocks;
}

// One phase's chunk geometry and deterministic schedule: identical on every
// rank, and independent of the policy in everything the fold depends on.
struct PhasePlan {
  ChunkPlan chunks;
  BalanceAssignment assign;
  std::vector<std::vector<StealEvent>> steals;  // per thief, in firing order
  std::vector<int> executor;                    // per chunk, post-steal
};
struct PhasePlans {
  PhasePlan born;
  PhasePlan epol;
};

// Chunk cost estimates from a count-only walk: a source leaf costs its
// near-field point pairs (target points x source points per evaluated near
// visit) plus one aggregated evaluation per source point for each far visit.
// `count(l)` returns source leaf l's walk counts: count_interactions for
// Born, count_half_pair_interactions for E_pol, whose weight-0 visits cost
// nothing. Occupancy x total — the coarser interaction_costs overload —
// under-prices dense regions, because near-field work grows with the
// neighbourhood's density, not just the leaf's own count. The walk is pure
// geometry (no Born values), so the E_pol costs are known before phase 1 runs.
template <typename Count>
std::vector<double> chunk_costs(const Octree& source, const ChunkPlan& plan,
                                Count&& count) {
  const auto leaves = source.leaves();
  std::vector<std::uint64_t> per_leaf(leaves.size(), 0);
  for (std::uint32_t l = 0; l < leaves.size(); ++l) {
    const InteractionCounts n = count(l);
    per_leaf[l] = n.near_point_pairs + n.far * source.node(leaves[l]).count();
  }
  const std::vector<double> leaf_costs = mpisim::interaction_costs(per_leaf);
  std::vector<double> costs(plan.n_chunks, 0.0);
  for (std::uint32_t c = 0; c < plan.n_chunks; ++c) {
    const Segment seg = plan.chunk_range(c);
    for (std::uint32_t l = seg.lo; l < seg.hi; ++l) costs[c] += leaf_costs[l];
  }
  return costs;
}

// Both phases' plans for `ranks` ranks. Chunks are sized from the total
// worker count (ranks x threads), so every shape with the same total cuts
// the same chunks. kStatic even-splits regardless of the costs, so the cost
// walk is skipped there; atom chunks (WorkDivision::kAtomBased) are not
// priced either — every policy even-splits them.
PhasePlans plan_phases(const Prepared& prep, const ApproxParams& params,
                       const RunOptions& options, int ranks, int workers) {
  const auto n_qleaves = static_cast<std::uint32_t>(prep.q_tree.leaves().size());
  const auto n_aleaves = static_cast<std::uint32_t>(prep.atoms_tree.leaves().size());
  const bool atom_epol = options.division == WorkDivision::kAtomBased;
  PhasePlans plans;
  plans.born.chunks = make_chunk_plan(n_qleaves, workers, options.balance_chunk_leaves);
  plans.epol.chunks =
      make_chunk_plan(atom_epol ? static_cast<std::uint32_t>(prep.num_atoms()) : n_aleaves,
                      workers, options.balance_chunk_leaves);
  std::vector<double> born_costs(plans.born.chunks.n_chunks, 0.0);
  std::vector<double> epol_costs(plans.epol.chunks.n_chunks, 0.0);
  if (options.balance != BalancePolicy::kStatic) {
    const ListBuildParams born_walk = BornSolver::walk_params(params, 0, 0);
    born_costs = chunk_costs(prep.q_tree, plans.born.chunks, [&](std::uint32_t l) {
      return count_interactions(prep.atoms_tree, prep.q_tree, born_walk.over(l, l + 1));
    });
    if (!atom_epol) {
      const ListBuildParams epol_walk = EpolSolver::walk_params(params, 0, 0);
      epol_costs = chunk_costs(prep.atoms_tree, plans.epol.chunks, [&](std::uint32_t l) {
        return count_half_pair_interactions(prep.atoms_tree, epol_walk.over(l, l + 1));
      });
    }
  }
  for (auto [plan, costs] : {std::pair{&plans.born, &born_costs},
                             std::pair{&plans.epol, &epol_costs}}) {
    plan->assign = plan_balance(*costs, ranks, options.balance);
    plan->steals = steals_by_thief(plan->assign, ranks);
    plan->executor = executor_of(plan->assign, plan->chunks.n_chunks);
  }
  return plans;
}

}  // namespace

namespace detail {

RunResult oct_serial(const Prepared& prep, const ApproxParams& params,
                     const GBConstants& constants) {
  RunResult result;
  WallTimer wall;
  ThreadCpuTimer cpu;

  const BornSolver born_solver(prep, params);
  BornAccumulator acc = born_solver.make_accumulator();
  const auto n_qleaves = static_cast<std::uint32_t>(prep.q_tree.leaves().size());
  if (params.traversal == TraversalMode::kList) {
    born_solver.accumulate_walk(0, n_qleaves, acc);
  } else {
    born_solver.accumulate_qleaf_range(0, n_qleaves, acc);
  }

  result.born_sorted.assign(prep.num_atoms(), 0.0);
  born_solver.push_to_atoms(acc, 0, static_cast<std::uint32_t>(prep.num_atoms()),
                            result.born_sorted);

  const EpolSolver epol_solver(prep, result.born_sorted, params, constants);
  const auto n_aleaves = static_cast<std::uint32_t>(prep.atoms_tree.leaves().size());
  if (params.traversal == TraversalMode::kList) {
    double raw_far = 0.0, raw_near = 0.0;
    epol_solver.accumulate_energy_walk(0, n_aleaves, raw_far, raw_near);
    result.energy = epol_solver.finish_energy_pair(raw_far, raw_near);
  } else {
    result.energy = epol_solver.energy_for_leaf_range(0, n_aleaves);
  }

  result.compute_seconds = cpu.seconds();
  result.wall_seconds = wall.seconds();
  result.replicated_bytes = prep.replicated_footprint().bytes;
  return result;
}

// ---------------------------------------------------------------------------
// Canonical chunk-fold driver: OCT_CILK (P = 1), OCT_MPI (p = 1) and
// OCT_MPI+CILK, under every balance policy (core/balance.hpp, DESIGN.md
// "Load balancing"), over either data view.
//
// Work is cut into fixed, policy-independent chunks sized from the total
// worker count P·p; each chunk's partial is computed fresh-from-zero by
// whichever rank the plan (or death recovery, or a checkpoint restore) hands
// it to, and every rank folds the partials in ascending chunk order. The
// fold's result depends only on the chunk boundaries — never on the
// assignment or the rank/worker split — so every policy and every P x p
// shape with the same P·p agree to the last bit, and so do recovered and
// resumed runs. Inside a rank the planned chunks run in waves of at most p
// (RankWorkers); kill polls, snapshot commits, integrity seals and steal
// replays happen between waves on the rank thread.
//
// Each phase synchronizes on a 1-double token allreduce whose abort is the
// death-recovery point — deaths fire only at collective entries, so a rank
// that dies there has already finished and published its chunks for the
// current phase; only its NEXT-phase chunks ever need recovery.
//
// The replicated view (DataDistribution::kReplicated) pushes every atom on
// every rank from the identical folded accumulator, so no gather is needed.
// The owned view (DataDistribution::kOwned, core/halo_exchange.hpp) keeps
// the chunks, the fold order and the recovery protocol, and changes only
// what each rank holds — its OWNED Morton-contiguous leaf ranges plus a
// planned HALO:
//
//  * Ownership + halo plans are built host-side from the chunk/balance
//    plans (pure geometry), are identical on every rank, and hash into the
//    checkpoint job key and every snapshot head, so a restart provably
//    resumes the same redistribution.
//  * The canonical Born fold is SLICED: a rank folds only the accumulator
//    elements serving its owned atoms, in ascending chunk order per element
//    — bit-identical to the full fold — and pushes only its owned atoms.
//  * Born radii outside owned + halo stay NaN (an under-import poisons the
//    energy instead of silently reading zeros). The halo plan's near sets
//    are exchanged p2p after the push; far-field needs are met by an exact
//    (r_min, r_max) allreduce_min and an allgatherv of owned leaf bin rows
//    plus a local internal re-fold, so the far aggregate store is
//    bit-identical on every rank. The writer gathers the radii p2p at the
//    end.
//  * Reads that fall outside the halo (dead ranks' slices, recovery chunks)
//    are served by reconstruct_born: a lazy full fold of the shared chunk
//    partials (or a full recompute on a resumed run) plus an assign-push of
//    just the needed range — exact by per-element fold independence, O(N)
//    only on degraded paths.
RunResult oct_balanced(const Prepared& prep, const ApproxParams& params,
                       const GBConstants& constants, const RunOptions& options) {
  RunResult result;
  result.ranks = std::max(1, options.ranks);
  result.threads_per_rank = std::max(1, options.threads_per_rank);
  const int P = result.ranks;
  const int p = result.threads_per_rank;
  const bool owned = options.distribution == DataDistribution::kOwned;

  const BornSolver born_solver(prep, params);
  const std::uint32_t n_atoms = static_cast<std::uint32_t>(prep.num_atoms());
  const std::uint32_t n_qleaves = static_cast<std::uint32_t>(prep.q_tree.leaves().size());
  const std::uint32_t n_aleaves = static_cast<std::uint32_t>(prep.atoms_tree.leaves().size());
  const std::size_t acc_len = born_solver.make_accumulator().flat().size();
  const auto n_blocks = static_cast<std::uint32_t>((acc_len + kFoldBlock - 1) / kFoldBlock);
  // kAtomBased cuts the E_pol phase into atom-index chunks instead of leaf
  // chunks: boundary leaves are truncated, so the energy drifts with the
  // chunk count (the paper's §IV-A ablation). It walks the tree recursively
  // whatever the traversal.
  const bool atom_epol = options.division == WorkDivision::kAtomBased;
  const bool pair_finish = params.traversal == TraversalMode::kList && !atom_epol;

  const PhasePlans plans = plan_phases(prep, params, options, P, P * p);
  const ChunkPlan& born_plan = plans.born.chunks;
  const ChunkPlan& epol_plan = plans.epol.chunks;
  const BalanceAssignment& plan_born = plans.born.assign;
  const BalanceAssignment& plan_epol = plans.epol.assign;
  const auto& born_steals = plans.born.steals;
  const auto& epol_steals = plans.epol.steals;
  const std::vector<int>& born_executor = plans.born.executor;
  const std::vector<int>& epol_executor = plans.epol.executor;
  result.steal_grants = plan_born.steals.size() + plan_epol.steals.size();

  // Owned view: the halo replays the EXECUTOR chunk assignment, so a policy
  // change (different steals) changes the halo — owned snapshots are
  // deliberately NOT policy-portable.
  OwnershipMap ownership;
  HaloPlan halo;
  if (owned) {
    ownership = make_ownership_map(prep, P, born_plan, epol_plan);
    halo = build_halo_plan(prep, params, ownership, plan_born, born_plan, plan_epol,
                           epol_plan);
  }
  const std::uint64_t ownership_hash = owned ? ownership.hash() : 0;
  const std::uint64_t halo_hash = owned ? halo.hash() : 0;

  // Shared cross-rank state: each chunk slot is written by exactly one rank
  // (ledger discipline), then read by all after the phase sync's barrier.
  // Arena-backed per-chunk partials: each chunk's vector owns a private page
  // arena, so its pages are committed (first touch) by the worker thread of
  // the rank that computes the chunk — NUMA-local on multi-socket hosts.
  std::vector<ArenaVector<double>> born_partials(born_plan.n_chunks);
  std::vector<std::vector<std::uint32_t>> born_touched(born_plan.n_chunks);
  std::vector<std::array<double, 2>> epol_raws(epol_plan.n_chunks,
                                               std::array<double, 2>{0.0, 0.0});
  ChunkLedger born_ledger(born_plan.n_chunks);
  ChunkLedger epol_ledger(epol_plan.n_chunks);
  std::vector<double> born_shared(prep.num_atoms(), 0.0);
  double energy_shared = 0.0;
  std::atomic<std::uint64_t> ws_steals{0};
  std::atomic<std::uint64_t> ws_tasks{0};

  // Integrity epoch guards over the shared hot arrays: the executor seals a
  // CRC of each chunk's pristine partial right after computing it (ledger
  // discipline: each slot written by exactly one rank), and re-verifies its
  // own chunks at every phase boundary — immediately before the token
  // allreduce, whose barrier publishes any repair before any rank folds.
  // Only allocated/active when a corruption schedule exists (zero overhead
  // on the default path).
  std::vector<std::uint32_t> born_crcs(
      options.corruption.empty() ? 0 : born_plan.n_chunks, 0u);
  std::vector<std::uint32_t> epol_crcs(
      options.corruption.empty() ? 0 : epol_plan.n_chunks, 0u);

  // ---- Checkpoint/restart. The job key covers the chunk geometry but NOT
  // the balance policy: replicated snapshots are policy-portable, because a
  // restored chunk's partial is identical wherever (and under whichever
  // policy) it was computed. The owned view adds its plan hashes.
  const ckpt::CheckpointPolicy& policy = options.checkpoint;
  const std::uint64_t replicated_key = ckpt::fnv1a64(
      {n_atoms, n_qleaves, n_aleaves, static_cast<std::uint64_t>(P),
       static_cast<std::uint64_t>(params.traversal), 0xBA1Aull,
       born_plan.n_chunks, born_plan.chunk_items, epol_plan.n_chunks,
       epol_plan.chunk_items, static_cast<std::uint64_t>(options.division),
       integrity_job_word(options.integrity_guards), policy.job_salt});
  const std::uint64_t job_key =
      owned ? ckpt::fnv1a64({replicated_key, 0x04EDull, ownership_hash, halo_hash})
            : replicated_key;
  const ckpt::SnapshotStore store(policy.enabled() ? policy.dir : std::string("."),
                                  P, job_key);

  // Owned snapshot heads end in a 2-double section carrying the ownership +
  // halo hashes; a restore whose plans would redistribute differently is
  // rejected (belt to the job key's suspenders — the key already covers
  // both hashes, this keeps a truncated/corrupt section from slipping by).
  const std::size_t hash_sections = owned ? 1 : 0;
  const std::uint64_t hash_words[2] = {ownership_hash, halo_hash};
  const auto with_hashes = [&](std::vector<std::vector<double>> head) {
    if (owned) {
      head.emplace_back(2);
      std::memcpy(head.back().data(), hash_words, sizeof(hash_words));
    }
    return head;
  };
  // Snapshot `s` carries at least `n` head sections, then the matching hash
  // section in the owned view (compared as bits: a hash may read as NaN).
  const auto head_ok = [&](const ckpt::Snapshot& s, std::size_t n) {
    if (s.sections.size() < n + hash_sections) return false;
    return !owned || (s.sections[n].size() == 2 &&
                      std::memcmp(s.sections[n].data(), hash_words, sizeof(hash_words)) == 0);
  };

  // Restore decision + application, made once up front on the host so every
  // rank agrees on the cut. Restored chunks land directly in the shared
  // arrays and ledgers; each rank also re-adopts its own snapshot's chunk
  // id set so its NEXT snapshot still covers them.
  std::vector<std::vector<std::uint32_t>> restored_born_ids(
      static_cast<std::size_t>(P));
  std::vector<std::vector<std::uint32_t>> restored_epol_ids(
      static_cast<std::size_t>(P));
  std::vector<ckpt::Snapshot> restored;
  bool resume = false;
  if (policy.enabled() && policy.resume) {
    if (auto set = store.load_latest()) {
      bool valid = true;
      std::vector<ckpt::ChunkLedgerSections> ledgers(static_cast<std::size_t>(P));
      for (int rr = 0; rr < P && valid; ++rr) {
        const ckpt::Snapshot& s = (*set)[static_cast<std::size_t>(rr)];
        const auto ledger_ok = [&](const ckpt::ChunkLedgerSections& led,
                                   std::uint32_t n_chunks, std::size_t partial_len) {
          if (!led.ok || s.cursor != led.ids.size()) return false;
          for (const std::uint32_t id : led.ids)
            if (id >= n_chunks) return false;
          for (const std::vector<double>& p : led.partials)
            if (p.size() != partial_len) return false;
          return true;
        };
        switch (s.phase) {
          case ckpt::Phase::kBornAccum:
            ledgers[static_cast<std::size_t>(rr)] = ckpt::read_chunk_ledger(s, hash_sections);
            valid = head_ok(s, 0) && ledger_ok(ledgers[static_cast<std::size_t>(rr)],
                                               born_plan.n_chunks, acc_len);
            break;
          case ckpt::Phase::kPush:
            valid = s.sections.size() == 1 + hash_sections && head_ok(s, 1) &&
                    s.sections[0].size() == acc_len && s.cursor == 0;
            break;
          case ckpt::Phase::kEpol:
            ledgers[static_cast<std::size_t>(rr)] =
                ckpt::read_chunk_ledger(s, 1 + hash_sections);
            valid = head_ok(s, 1) && s.sections[0].size() == n_atoms &&
                    ledger_ok(ledgers[static_cast<std::size_t>(rr)],
                              epol_plan.n_chunks, 2);
            break;
        }
      }
      if (valid) {
        restored = std::move(*set);
        resume = true;
        for (int rr = 0; rr < P; ++rr) {
          const ckpt::Snapshot& s = restored[static_cast<std::size_t>(rr)];
          ckpt::ChunkLedgerSections& led = ledgers[static_cast<std::size_t>(rr)];
          if (s.phase == ckpt::Phase::kBornAccum) {
            for (std::size_t i = 0; i < led.ids.size(); ++i) {
              born_partials[led.ids[i]].assign(led.partials[i].begin(),
                                               led.partials[i].end());
              born_touched[led.ids[i]] = touched_blocks(led.partials[i]);
              born_ledger.mark_done(led.ids[i], rr);
            }
            restored_born_ids[static_cast<std::size_t>(rr)] = std::move(led.ids);
          } else if (s.phase == ckpt::Phase::kEpol) {
            for (std::size_t i = 0; i < led.ids.size(); ++i) {
              epol_raws[led.ids[i]] = {led.partials[i][0], led.partials[i][1]};
              epol_ledger.mark_done(led.ids[i], rr);
            }
            restored_epol_ids[static_cast<std::size_t>(rr)] = std::move(led.ids);
          }
        }
      }
    }
  }
  const ckpt::Phase resume_phase = resume ? restored[0].phase : ckpt::Phase::kBornAccum;

  // Seal restored chunks' CRCs host-side so the phase-boundary verification
  // treats them as clean (they passed the snapshot CRC on the way in).
  if (!options.corruption.empty()) {
    for (std::uint32_t c = 0; c < born_plan.n_chunks; ++c)
      if (born_ledger.done(c))
        born_crcs[c] = support::crc32(born_partials[c].data(),
                                      born_partials[c].size() * sizeof(double));
    for (std::uint32_t c = 0; c < epol_plan.n_chunks; ++c)
      if (epol_ledger.done(c))
        epol_crcs[c] =
            support::crc32(epol_raws[c].data(), epol_raws[c].size() * sizeof(double));
  }

  mpisim::Runtime::Config rt;
  rt.ranks = P;
  rt.threads_per_rank = p;
  rt.cluster = options.cluster;
  rt.faults = options.faults;
  rt.kill = options.kill;
  rt.stall_timeout_seconds = options.stall_timeout_seconds;
  rt.corruption = options.corruption;
  rt.integrity_guards = options.integrity_guards;

  const auto report = mpisim::run_on(options.pool, rt, [&](mpisim::Comm& comm) {
    const int r = comm.rank();
    // The Born partials exist only when this run executed the Born phase.
    const bool skip_to_push = resume && resume_phase >= ckpt::Phase::kPush;
    const bool skip_to_epol = resume && resume_phase == ckpt::Phase::kEpol;
    int writer = 0;  // lowest surviving rank; publishes the shared answer
    // Dead ranks as of the most recent aborted collective (ascending). The
    // owned view's p2p stages between collectives consult it: deads can't
    // send.
    std::vector<int> dead_set;

    // The atoms this rank pushes: all of them, or its owned slice.
    const Segment pushed = owned ? ownership.ranks[static_cast<std::size_t>(r)].atoms
                                 : Segment{0, n_atoms};
    if (owned)
      obs::emit(obs::EventKind::kHaloPlan, pushed.count(),
                halo.ranks[static_cast<std::size_t>(r)].born_halo_atoms);

    // Hot-array integrity plumbing: injection fires once per scheduled
    // (rank, phase, chunk) even if the chunk is recomputed afterwards.
    const mpisim::CorruptionSchedule& corr = comm.corruption_schedule();
    std::vector<char> born_fired(corr.empty() ? 0 : born_plan.n_chunks, 0);
    std::vector<char> epol_fired(corr.empty() ? 0 : epol_plan.n_chunks, 0);
    const auto seal_born = [&](std::uint32_t c) {
      if (corr.empty()) return;
      const std::size_t bytes = born_partials[c].size() * sizeof(double);
      born_crcs[c] = support::crc32(born_partials[c].data(), bytes);
      std::uint64_t bit = 0;
      if (born_fired[c] == 0 &&
          corr.hot_array_bit(r, mpisim::CorruptionPlan::kBornPartials, c, &bit)) {
        born_fired[c] = 1;
        support::flip_bit(born_partials[c].data(), bytes, bit);
        born_touched[c] = touched_blocks(born_partials[c]);  // the flip is folded
        comm.note_corruption_injected();
        obs::emit(obs::EventKind::kCorruptionInject, c, bytes, /*site=*/2);
      }
    };
    const auto seal_epol = [&](std::uint32_t c) {
      if (corr.empty()) return;
      const std::size_t bytes = epol_raws[c].size() * sizeof(double);
      epol_crcs[c] = support::crc32(epol_raws[c].data(), bytes);
      std::uint64_t bit = 0;
      if (epol_fired[c] == 0 &&
          corr.hot_array_bit(r, mpisim::CorruptionPlan::kEpolPartials, c, &bit)) {
        epol_fired[c] = 1;
        support::flip_bit(epol_raws[c].data(), bytes, bit);
        comm.note_corruption_injected();
        obs::emit(obs::EventKind::kCorruptionInject, c, bytes, /*site=*/2);
      }
    };

    std::uint32_t phase_boundaries = 0;
    std::uint64_t snapshot_ordinal = 0;  // per-rank save order, for injection
    const auto boundary_due = [&] {
      const bool due = policy.every_n_collectives > 0 &&
                       phase_boundaries % policy.every_n_collectives == 0;
      ++phase_boundaries;
      return due;
    };
    const auto save_ledger_snapshot =
        [&](ckpt::Phase phase, const std::vector<std::uint32_t>& ids,
            std::vector<std::vector<double>> head) {
          ckpt::Snapshot snap;
          snap.rank = static_cast<std::uint32_t>(r);
          snap.ranks = static_cast<std::uint32_t>(P);
          snap.phase = phase;
          snap.cursor = ids.size();
          snap.job_key = job_key;
          snap.sections = with_hashes(std::move(head));
          if (phase != ckpt::Phase::kPush) {  // kPush carries only the accumulator
            std::vector<std::vector<double>> partials;
            partials.reserve(ids.size());
            for (const std::uint32_t id : ids) {
              if (phase == ckpt::Phase::kBornAccum)
                partials.emplace_back(born_partials[id].begin(),
                                      born_partials[id].end());
              else
                partials.push_back({epol_raws[id][0], epol_raws[id][1]});
            }
            ckpt::append_chunk_ledger(snap, ids, partials);
          }
          const std::string path = store.save(snap);
          std::uint64_t snap_bit = 0;
          if (!path.empty() &&
              comm.corruption_schedule().snapshot_bit(r, snapshot_ordinal,
                                                      &snap_bit)) {
            corrupt_snapshot_file(path, snap_bit);
            comm.note_corruption_injected();
            obs::emit(obs::EventKind::kCorruptionInject, snapshot_ordinal, 0,
                      /*site=*/3);
          }
          ++snapshot_ordinal;
        };

    // Fires the planned steal round trips due before processing slot `i` of
    // this rank's order (modeled messages only; the chunks are already in
    // the order vector).
    const auto fire_steals = [&](const std::vector<StealEvent>& evs,
                                 std::size_t& next, std::size_t i,
                                 std::size_t order_size) {
      while (next < evs.size() && evs[next].after_processed == i) {
        const StealEvent& ev = evs[next];
        comm.steal_rpc(ev.victim, static_cast<std::uint64_t>(order_size - i),
                       ev.granted, 16, static_cast<std::size_t>(ev.granted) * 16);
        ++next;
      }
    };

    RankWorkers workers(p);

    // This rank's planned order for one phase, in waves: planned steals fire
    // before their slots, restored chunks are skipped, due snapshots commit
    // after each chunk is published, and the kill poll follows every wave —
    // every slot at p = 1, as the fault and kill plans expect.
    const auto run_order = [&](const std::vector<std::uint32_t>& order,
                               const std::vector<StealEvent>& steals,
                               const ChunkLedger& ledger, const ChunkPlan& plan,
                               obs::PhaseId phase, const auto& body, const auto& publish,
                               std::vector<std::uint32_t>& ids, const auto& save) {
      std::uint32_t since_save = 0;
      std::size_t next_steal = 0;
      std::vector<std::uint32_t> wave;
      for (std::size_t i = 0; i < order.size(); i += workers.width()) {
        wave.clear();
        for (std::size_t s = i; s < std::min(order.size(), i + workers.width()); ++s) {
          fire_steals(steals, next_steal, s, order.size());
          if (!ledger.done(order[s])) wave.push_back(order[s]);
        }
        workers.run_wave(comm, wave, plan, phase, body);
        for (const std::uint32_t c : wave) {
          publish(c, /*recompute=*/false);
          ids.push_back(c);
          if (policy.enabled() && policy.every_k_chunks > 0 &&
              ++since_save >= policy.every_k_chunks) {
            since_save = 0;
            save();
          }
        }
        if (comm.poll_kill()) comm.abandon();
      }
      fire_steals(steals, next_steal, order.size(), order.size());
    };

    // Re-checksums this rank's chunks against their seals; any mismatch is a
    // detected hot-array corruption, recovered by recomputing the chunk
    // fresh-from-zero (exact, by the canonical-fold construction).
    const auto verify = [&](const std::vector<std::uint32_t>& ids, const ChunkPlan& plan,
                            obs::PhaseId phase, const auto& prepare, const auto& body,
                            const auto& publish, const auto& slot_crc,
                            const std::vector<std::uint32_t>& crcs) {
      if (corr.empty() || !comm.integrity_guards()) return;
      for (const std::uint32_t c : ids) {
        const auto [crc, bytes] = slot_crc(c);
        if (crc == crcs[c]) continue;
        comm.note_corruption_detected();
        obs::emit(obs::EventKind::kCorruptionDetect, c, bytes, /*site=*/2);
        prepare(c);
        workers.run_wave(comm, {&c, 1}, plan, phase, body);
        publish(c, /*recompute=*/true);
        comm.note_corruption_recomputed();
        obs::emit(obs::EventKind::kCorruptionRecompute, c, bytes, /*site=*/2);
      }
    };

    // Runs one fault-tolerant collective to completion: attempt(pubs) issues
    // it; after each abort every survivor agrees on the new writer (the
    // lowest live rank) and runs recover(live, dead), then the writer
    // republishes each dead rank d's contribution as proxy(d).
    const auto until_ok = [&](const auto& attempt, const auto& recover, const auto& proxy) {
      std::vector<int> proxied;
      std::vector<std::vector<double>> proxy_vals;
      for (;;) {
        std::vector<mpisim::ProxyPub> pubs;
        pubs.reserve(proxied.size());
        for (std::size_t i = 0; i < proxied.size(); ++i)
          pubs.push_back({proxied[i], proxy_vals[i].data()});
        const mpisim::CollectiveStatus st = attempt(std::span<const mpisim::ProxyPub>(pubs));
        if (st.ok()) return;
        if (comm.kill_requested()) comm.abandon();
        dead_set = st.dead;
        const std::vector<int> live = live_ranks(P, st.dead);
        writer = live.front();
        recover(live, st.dead);
        proxied = r == writer ? st.dead : std::vector<int>{};
        proxy_vals.clear();
        for (const int d : proxied) proxy_vals.push_back(proxy(d));
      }
    };
    const auto no_recovery = [](const std::vector<int>&, const std::vector<int>&) {};

    // Phase sync: a 1-double token allreduce. An abort is the recovery
    // point: survivors stripe the dead executors' chunks (a plan-derived
    // list, identical on every survivor) and recompute the unpublished ones.
    // A dead rank's CURRENT-phase chunks are usually all published (deaths
    // fire at collective entry), but its next-phase order is orphaned
    // wholesale, and a cascade can orphan recovery stripes too; recomputing
    // fresh-from-zero is always exact. Every chunk this rank published must
    // verify before the collective succeeds and any rank starts folding.
    const auto sync = [&](const ChunkPlan& plan, const std::vector<int>& executor,
                          const ChunkLedger& ledger, obs::PhaseId phase,
                          const auto& prepare, const auto& body, const auto& publish,
                          const auto& check, std::vector<std::uint32_t>& ids,
                          const auto& save) {
      double token[1] = {0.0};
      until_ok(
          [&](std::span<const mpisim::ProxyPub> pubs) {
            check(ids);
            return comm.allreduce_sum_ft(token, pubs);
          },
          [&](const std::vector<int>& live, const std::vector<int>& dead) {
            std::vector<std::uint32_t> orphans;
            for (std::uint32_t c = 0; c < plan.n_chunks; ++c)
              if (std::binary_search(dead.begin(), dead.end(), executor[c]))
                orphans.push_back(c);
            std::vector<std::uint32_t> mine;
            for (std::size_t i = static_cast<std::size_t>(index_of(live, r));
                 i < orphans.size(); i += live.size())
              if (!ledger.done(orphans[i])) mine.push_back(orphans[i]);
            // In waves of at most p; prepare(c) runs on the rank thread first.
            for (std::size_t i = 0; i < mine.size(); i += workers.width()) {
              const std::span<const std::uint32_t> wave(
                  mine.data() + i, std::min(workers.width(), mine.size() - i));
              for (const std::uint32_t c : wave) prepare(c);
              workers.run_wave(comm, wave, plan, phase, body);
              for (const std::uint32_t c : wave) {
                publish(c, /*recompute=*/false);
                ids.push_back(c);
                comm.add_redistributed_work(plan.chunk_range(c).count());
              }
            }
            if (policy.enabled() && !mine.empty()) save();
          },
          [](int) { return std::vector<double>{0.0}; });
    };

    // ---- Born accumulation over this rank's planned chunk order. A chunk's
    // partial goes fresh-from-zero into its own slot (each slot owns a
    // private arena, so concurrent workers never share one); publishing
    // seals it, counts a migration and marks it done, on the rank thread.
    // `recompute` marks an integrity recompute: no migration accounting, and
    // the seal records the clean CRC (the fired flag stops a second
    // injection).
    const auto fresh_born = [&](std::uint32_t c) {
      const Segment seg = born_plan.chunk_range(c);
      BornAccumulator scratch = born_solver.make_accumulator();
      if (params.traversal == TraversalMode::kList) {
        born_solver.accumulate_walk(seg.lo, seg.hi, scratch);
      } else {
        born_solver.accumulate_qleaf_range(seg.lo, seg.hi, scratch);
      }
      return scratch;
    };
    const auto born_partial = [&](std::uint32_t c) {
      const BornAccumulator scratch = fresh_born(c);
      born_partials[c].assign(scratch.flat().begin(), scratch.flat().end());
      born_touched[c] = touched_blocks(scratch.flat());
    };
    const auto publish_born = [&](std::uint32_t c, bool recompute) {
      seal_born(c);
      if (!recompute && plan_born.initial_rank[c] != r) comm.add_migrated_chunk();
      born_ledger.mark_done(c, r);
    };
    const auto no_prepare = [](std::uint32_t) {};
    const auto check_born = [&](const std::vector<std::uint32_t>& ids) {
      verify(ids, born_plan, obs::PhaseId::kBornAccum, no_prepare, born_partial,
             publish_born,
             [&](std::uint32_t c) {
               const std::size_t bytes = born_partials[c].size() * sizeof(double);
               return std::pair{support::crc32(born_partials[c].data(), bytes), bytes};
             },
             born_crcs);
    };
    std::vector<std::uint32_t> my_born_ids = restored_born_ids[static_cast<std::size_t>(r)];
    const auto save_born = [&] {
      save_ledger_snapshot(ckpt::Phase::kBornAccum, my_born_ids, {});
    };

    obs::phase_begin(obs::PhaseId::kBornAccum);
    if (!skip_to_push) {
      if (policy.enabled()) save_born();
      run_order(plan_born.order[static_cast<std::size_t>(r)],
                born_steals[static_cast<std::size_t>(r)], born_ledger, born_plan,
                obs::PhaseId::kBornAccum, born_partial, publish_born, my_born_ids,
                save_born);
    }
    obs::phase_begin(obs::PhaseId::kBornReduce);
    if (!skip_to_push)
      sync(born_plan, born_executor, born_ledger, obs::PhaseId::kBornAccum, no_prepare,
           born_partial, publish_born, check_born, my_born_ids, save_born);

    // ---- Canonical fold. Every rank folds the identical partials in
    // ascending chunk order; each element's fold is independent of the
    // others, so the rank's workers split the elements without changing a
    // bit. Replicated: every rank folds everything and holds the identical
    // accumulator — no gather collective is needed; the data motion (each
    // rank reading every chunk's touched blocks) is charged as one modeled
    // allgatherv. Owned: only the slice serving the owned atoms (their
    // subtree path + own slots), so the charged motion shrinks to
    // n_chunks x |slice|.
    obs::phase_begin(obs::PhaseId::kBornGather);
    // Adds blocks [blo, bhi) of every chunk's touched blocks into `flat`.
    const auto fold_blocks = [&](std::span<double> flat, std::uint32_t blo,
                                 std::uint32_t bhi) {
      for (std::uint32_t c = 0; c < born_plan.n_chunks; ++c) {
        const ArenaVector<double>& partial = born_partials[c];
        const std::vector<std::uint32_t>& t = born_touched[c];
        for (auto b = std::lower_bound(t.begin(), t.end(), blo); b != t.end() && *b < bhi;
             ++b) {
          const std::size_t hi = std::min(acc_len, (*b + 1) * kFoldBlock);
          for (std::size_t j = *b * kFoldBlock; j < hi; ++j) flat[j] += partial[j];
        }
      }
    };
    BornAccumulator acc = born_solver.make_accumulator();
    const std::span<double> flat = acc.flat();
    if (skip_to_push && !skip_to_epol) {
      const ckpt::Snapshot& snap = restored[static_cast<std::size_t>(r)];
      std::copy(snap.sections[0].begin(), snap.sections[0].end(), flat.begin());
    } else if (!skip_to_epol && owned) {
      const std::vector<std::uint32_t> slice = acc_fold_slice(prep.atoms_tree, pushed);
      comm.charge_collective(obs::CollKind::kAllgatherv,
                             static_cast<std::size_t>(born_plan.n_chunks) *
                                 slice.size() * sizeof(double));
      workers.run_range(comm, static_cast<std::uint32_t>(slice.size()),
                        [&](std::uint32_t lo, std::uint32_t hi) {
                          for (std::uint32_t c = 0; c < born_plan.n_chunks; ++c) {
                            const ArenaVector<double>& partial = born_partials[c];
                            for (std::uint32_t i = lo; i < hi; ++i)
                              flat[slice[i]] += partial[slice[i]];
                          }
                        });
    } else if (!skip_to_epol) {
      std::size_t blocks = 0;
      for (const std::vector<std::uint32_t>& t : born_touched) blocks += t.size();
      comm.charge_collective(obs::CollKind::kAllgatherv,
                             blocks * kFoldBlock * sizeof(double));
      workers.run_range(comm, n_blocks, [&](std::uint32_t blo, std::uint32_t bhi) {
        fold_blocks(flat, blo, bhi);
      });
    }
    if (!skip_to_epol && policy.enabled() && boundary_due())
      save_ledger_snapshot(ckpt::Phase::kPush, {},
                           {std::vector<double>(flat.begin(), flat.end())});

    // ---- Push. The owned view pushes its own atoms only; everything else
    // stays NaN, so an under-imported halo read poisons the energy instead of
    // silently reading zeros — the 0-ulp equivalence tests lean on this.
    obs::phase_begin(obs::PhaseId::kPush);
    std::vector<double> born(prep.num_atoms(),
                             owned ? std::numeric_limits<double>::quiet_NaN() : 0.0);
    if (skip_to_epol) {
      const ckpt::Snapshot& snap = restored[static_cast<std::size_t>(r)];
      std::copy(snap.sections[0].begin(), snap.sections[0].end(), born.begin());
    } else {
      traced_chunk(pushed.lo, pushed.hi, obs::PhaseId::kPush, [&] {
        workers.run_range(comm, pushed.count(), [&](std::uint32_t lo, std::uint32_t hi) {
          born_solver.push_to_atoms(acc, pushed.lo + lo, pushed.lo + hi, born);
        });
      });
    }

    // Owned-view Born reconstruction for reads outside the halo: fold
    // EVERYTHING (lazily, once) and assign-push just [lo, hi). Exact because
    // the full fold agrees with the sliced fold per element and
    // push_to_atoms assigns (never accumulates). A resumed run that skipped
    // the Born phase has no chunk partials, so the fold recomputes every
    // chunk fresh-from-zero in ascending order — same canonical bits, O(N)
    // but degraded-only. Runs on the rank thread in its own compute region:
    // call sites must sit OUTSIDE any ComputeRegion.
    std::unique_ptr<BornAccumulator> recovery_acc;
    const auto reconstruct_born = [&](std::uint32_t lo, std::uint32_t hi) {
      mpisim::Comm::ComputeRegion region(comm);
      if (!recovery_acc) {
        recovery_acc = std::make_unique<BornAccumulator>(born_solver.make_accumulator());
        const std::span<double> all = recovery_acc->flat();
        if (!skip_to_push) {
          fold_blocks(all, 0, n_blocks);
        } else {
          for (std::uint32_t c = 0; c < born_plan.n_chunks; ++c) {
            const BornAccumulator part = fresh_born(c);
            for (std::size_t j = 0; j < all.size(); ++j) all[j] += part.flat()[j];
          }
        }
      }
      born_solver.push_to_atoms(*recovery_acc, lo, hi, born);
      comm.add_redistributed_work(hi - lo);
    };

    // ---- Owned view: the far-field state every rank must agree on. The
    // point-level Born halo exchange (p2p window: death-free), then the
    // collective (r_min, r_max): each rank publishes {min, -max} over its
    // owned slice; allreduce_min of exact comparisons is order-free, so the
    // agreed extrema are bit-identical to a replicated minmax scan. Then the
    // bin-level halo: allgatherv of owned leaf bin rows (THE far-field
    // exchange), scattered into the node store with the internal rows
    // re-folded locally. leaf_bins/fold_internal_bins are the replicated
    // constructor's own loops, so the store matches it bit-for-bit. The
    // writer proxies dead ranks from their reconstructed slices.
    EpolFarField field;
    std::vector<double> node_bins;
    if (owned) {
      obs::phase_begin(obs::PhaseId::kBornGather);
      if (!skip_to_epol)
        exchange_born_halo(comm, prep, ownership, halo, dead_set, born, reconstruct_born);

      const auto span_of = [&](int d) -> const OwnershipMap::RankSpan& {
        return ownership.ranks[static_cast<std::size_t>(d)];
      };
      // The writer's stand-in for dead rank d starts from its rebuilt radii.
      const auto reconstruct_rank = [&](int d) {
        const Segment ds = span_of(d).atoms;
        if (ds.count() > 0) reconstruct_born(ds.lo, ds.hi);
      };
      // {min, -max} over rank d's owned radii.
      const auto extrema = [&](int d) {
        const Segment atoms = span_of(d).atoms;
        mpisim::Comm::ComputeRegion region(comm);
        std::vector<double> mm = {std::numeric_limits<double>::infinity(),
                                  std::numeric_limits<double>::infinity()};
        for (std::uint32_t a = atoms.lo; a < atoms.hi; ++a) {
          mm[0] = std::min(mm[0], born[a]);
          mm[1] = std::min(mm[1], -born[a]);
        }
        return mm;
      };
      std::vector<double> mm;
      until_ok(
          [&](std::span<const mpisim::ProxyPub> pubs) {
            mm = extrema(r);
            return comm.allreduce_min_ft(mm, pubs);
          },
          no_recovery,
          [&](int d) {
            reconstruct_rank(d);
            return extrema(d);
          });
      field = EpolFarField::make(n_atoms > 0 ? mm[0] : 1.0, n_atoms > 0 ? -mm[1] : 1.0,
                                 params.eps_epol);

      const auto m_bins = static_cast<std::size_t>(field.m_bins);
      const std::span<const std::uint32_t> aleaves = prep.atoms_tree.leaves();
      std::vector<int> row_counts(static_cast<std::size_t>(P), 0);
      std::vector<int> row_displs(static_cast<std::size_t>(P), 0);
      int row_total = 0;
      for (int rk = 0; rk < P; ++rk) {
        const auto k = static_cast<std::size_t>(rk);
        row_counts[k] = static_cast<int>(span_of(rk).atom_leaves.count() * m_bins);
        row_displs[k] = row_total;
        row_total += row_counts[k];
      }
      // Leaf bin rows of rank d's owned leaves (at least one double, so an
      // empty contribution still has an address).
      const auto leaf_rows = [&](int d) {
        const Segment leaves = span_of(d).atom_leaves;
        mpisim::Comm::ComputeRegion region(comm);
        std::vector<double> rows(std::max<std::size_t>(leaves.count() * m_bins, 1), 0.0);
        for (std::uint32_t l = leaves.lo; l < leaves.hi; ++l) {
          const OctreeNode& leaf = prep.atoms_tree.node(aleaves[l]);
          EpolSolver::leaf_bins(prep, born, field, leaf.begin, leaf.end,
                                rows.data() + (l - leaves.lo) * m_bins);
        }
        return rows;
      };
      const std::vector<double> my_rows = leaf_rows(r);
      const std::span<const double> my_send(
          my_rows.data(), static_cast<std::size_t>(row_counts[static_cast<std::size_t>(r)]));
      std::vector<double> gathered(static_cast<std::size_t>(std::max(row_total, 1)), 0.0);
      until_ok(
          [&](std::span<const mpisim::ProxyPub> pubs) {
            return comm.allgatherv_ft<double>(my_send, gathered, row_counts, row_displs,
                                              pubs);
          },
          no_recovery,
          [&](int d) {
            reconstruct_rank(d);
            return leaf_rows(d);
          });
      mpisim::Comm::ComputeRegion region(comm);
      node_bins.assign(prep.atoms_tree.nodes().size() * m_bins, 0.0);
      for (int rk = 0; rk < P; ++rk) {
        const Segment ls = span_of(rk).atom_leaves;
        const double* rows = gathered.data() + row_displs[static_cast<std::size_t>(rk)];
        for (std::uint32_t l = ls.lo; l < ls.hi; ++l)
          std::memcpy(node_bins.data() + aleaves[l] * m_bins, rows + (l - ls.lo) * m_bins,
                      m_bins * sizeof(double));
      }
      EpolSolver::fold_internal_bins(prep.atoms_tree, field.m_bins, node_bins);
    }

    // ---- E_pol over this rank's planned chunk order (raw far/near sums per
    // chunk; the -tau/2 scale is applied once, after the fold).
    obs::phase_begin(obs::PhaseId::kEpol);
    std::unique_ptr<EpolSolver> epol_solver;
    {
      mpisim::Comm::ComputeRegion region(comm);
      epol_solver = owned ? std::make_unique<EpolSolver>(prep, born, params, constants,
                                                         field, node_bins)
                          : std::make_unique<EpolSolver>(prep, born, params, constants);
    }
    const auto epol_partial = [&](std::uint32_t c) {
      const Segment seg = epol_plan.chunk_range(c);
      double raws[2] = {0.0, 0.0};
      if (atom_epol) {
        epol_solver->accumulate_energy_atom_range(seg.lo, seg.hi, raws[0]);
      } else if (params.traversal == TraversalMode::kList) {
        epol_solver->accumulate_energy_walk(seg.lo, seg.hi, raws[0], raws[1]);
      } else {
        epol_solver->accumulate_energy_leaf_range(seg.lo, seg.hi, raws[0]);
      }
      epol_raws[c] = {raws[0], raws[1]};
    };
    // Owned view: recovery and integrity recomputes may reach outside the
    // halo, so their near inputs are reconstructed on the rank thread before
    // the chunk's wave (a second walk, degraded paths only).
    const auto prepare_epol = [&](std::uint32_t c) {
      if (!owned) return;
      const Segment seg = epol_plan.chunk_range(c);
      visit_interactions(
          prep.atoms_tree, prep.atoms_tree, EpolSolver::walk_params(params, seg.lo, seg.hi),
          [](std::uint32_t, std::uint32_t) {},
          [&](std::uint32_t target_leaf, std::uint32_t source_leaf) {
            for (const std::uint32_t node_id : {target_leaf, source_leaf}) {
              const OctreeNode& leaf = prep.atoms_tree.node(node_id);
              if (leaf.count() > 0 && std::isnan(born[leaf.begin]))
                reconstruct_born(leaf.begin, leaf.end);
            }
          });
    };
    const auto publish_epol = [&](std::uint32_t c, bool recompute) {
      seal_epol(c);
      if (!recompute && plan_epol.initial_rank[c] != r) comm.add_migrated_chunk();
      epol_ledger.mark_done(c, r);
    };
    const auto check_epol = [&](const std::vector<std::uint32_t>& ids) {
      verify(ids, epol_plan, obs::PhaseId::kEpol, prepare_epol, epol_partial, publish_epol,
             [&](std::uint32_t c) {
               const std::size_t bytes = epol_raws[c].size() * sizeof(double);
               return std::pair{support::crc32(epol_raws[c].data(), bytes), bytes};
             },
             epol_crcs);
    };
    std::vector<std::uint32_t> my_epol_ids = restored_epol_ids[static_cast<std::size_t>(r)];
    const auto save_epol = [&] {
      save_ledger_snapshot(ckpt::Phase::kEpol, my_epol_ids, {born});
    };

    if (policy.enabled() && boundary_due()) save_epol();
    run_order(plan_epol.order[static_cast<std::size_t>(r)],
              epol_steals[static_cast<std::size_t>(r)], epol_ledger, epol_plan,
              obs::PhaseId::kEpol, epol_partial, publish_epol, my_epol_ids, save_epol);
    obs::phase_begin(obs::PhaseId::kEpolReduce);
    sync(epol_plan, epol_executor, epol_ledger, obs::PhaseId::kEpol, prepare_epol,
         epol_partial, publish_epol, check_epol, my_epol_ids, save_epol);
    // Fold the raw sums in ascending chunk order (identical on every rank),
    // finish once, and let the lowest survivor publish.
    comm.charge_collective(obs::CollKind::kAllreduce,
                           static_cast<std::size_t>(epol_plan.n_chunks) * 2 *
                               sizeof(double));
    double energy = 0.0;
    {
      mpisim::Comm::ComputeRegion region(comm);
      double far_total = 0.0, near_total = 0.0;
      for (std::uint32_t c = 0; c < epol_plan.n_chunks; ++c) {
        far_total += epol_raws[c][0];
        near_total += epol_raws[c][1];
      }
      energy = pair_finish ? epol_solver->finish_energy_pair(far_total, near_total)
                           : epol_solver->finish_energy(far_total);
    }
    if (r == writer) {
      energy_shared = energy;
      std::copy(born.begin() + pushed.lo, born.begin() + pushed.hi,
                born_shared.begin() + pushed.lo);
    }
    // ---- Owned view: the final Born gather. Owned slices stream p2p to
    // the writer (the post-collective window is death-free, so live sends
    // always land); dead ranks' slices are reconstructed. This is owned
    // mode's price for not holding everyone's radii.
    if (owned && r == writer) {
      for (int rk = 0; rk < P; ++rk) {
        const Segment s = ownership.ranks[static_cast<std::size_t>(rk)].atoms;
        if (rk == r || s.count() == 0) continue;
        const bool live = !std::binary_search(dead_set.begin(), dead_set.end(), rk);
        if (live && comm.recv_ft<double>(std::span<double>(born_shared.data() + s.lo,
                                                           s.count()),
                                         rk, kTagOwnedBorn)
                        .ok())
          continue;
        reconstruct_born(s.lo, s.hi);
        std::copy(born.begin() + s.lo, born.begin() + s.hi, born_shared.begin() + s.lo);
      }
    } else if (owned && pushed.count() > 0) {
      comm.send<double>(std::span<const double>(born.data() + pushed.lo, pushed.count()),
                        writer, kTagOwnedBorn);
    }
    ws_steals += workers.steals;
    ws_tasks += workers.tasks;
    obs::phase_end();
  });

  result.energy = energy_shared;
  result.compute_seconds = report.max_compute_seconds();
  result.comm_seconds = report.max_comm_seconds();
  result.wall_seconds = report.wall_seconds;
  result.retries = report.retries;
  result.redistributed_work_items = report.redistributed_work_items;
  result.migrated_chunks = report.migrated_chunks;
  result.corruption_injected = report.corruption_injected;
  result.corruption_detected = report.corruption_detected;
  result.corruption_recomputed = report.corruption_recomputed;
  result.corruption_retransmits = report.corruption_retransmits;
  result.degraded = report.degraded;
  result.killed = report.killed;
  result.resumed = resume;
  result.stalls_converted = report.stalls_converted;
  result.error_class = report.error_class;
  result.replicated_bytes =
      static_cast<std::size_t>(P) *
      (prep.replicated_footprint().bytes + acc_len * sizeof(double) +
       static_cast<std::size_t>(n_atoms) * sizeof(double));
  // Logical owned-view footprint under the final far-field model (bin count
  // depends on the Born extrema, which a killed run never agreed on).
  if (owned && !report.killed) {
    double mn = 1.0, mx = 1.0;
    if (!born_shared.empty()) {
      const auto ext = std::minmax_element(born_shared.begin(), born_shared.end());
      mn = *ext.first;
      mx = *ext.second;
    }
    const EpolFarField final_field =
        EpolFarField::make(mn, std::max(mx, mn), params.eps_epol);
    const OwnedFootprint ofp = owned_footprint(prep, ownership, halo, final_field.m_bins);
    result.owned_bytes_per_rank = ofp.max_rank_bytes();
    result.owned_halo_bytes = ofp.halo_bytes;
  }
  result.born_sorted = std::move(born_shared);
  result.rank_results = report.ranks;
  result.steals = ws_steals.load();
  result.tasks = ws_tasks.load();
  return result;
}

}  // namespace detail

}  // namespace gbpol
