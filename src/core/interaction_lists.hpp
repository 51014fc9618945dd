// The interaction walk: one target-tree traversal per source leaf, shared by
// every consumer of the near/far decomposition.
//
// The paper's APPROX-INTEGRALS (Fig. 2) and APPROX-EPOL (Fig. 3) are one
// depth-first walk of the target octree per source leaf: a target node that
// passes the opening criterion against the source leaf is FAR (one
// aggregated term), a target leaf that does not is NEAR (exact point-by-point
// kernels). visit_interactions is that walk, and it has three kinds of
// consumer:
//
//   * evaluate — BornSolver::accumulate_walk and
//     EpolSolver::accumulate_energy_walk compute each term inside the
//     callback. One-shot routes (serial, every chunk of the chunk-fold
//     driver) take this path and never materialize a list.
//   * emit — build_interaction_lists writes the visits into flat FAR
//     (target_node, source_leaf) and NEAR (target_leaf, source_leaf) lists,
//     for callers that stream the same decomposition more than once
//     (TrajectoryDriver's incremental refresh, the traced layer benchmark).
//   * count — count_interactions tallies the visits: chunk pricing and the
//     halo plan need only the counts or the near leaves.
//
// HalfPairWeights gives the symmetric E_pol walk's near visits their
// half-pair weights, so each mutual near leaf pair is evaluated once.
//
// Every consumer sees the visits in the same order, so evaluating in the walk
// and evaluating an emitted list run the same sequence of += on every
// accumulator slot.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <vector>

#include "octree/octree.hpp"
#include "support/memtrack.hpp"

namespace gbpol {

struct ListBuildParams {
  double far_multiplier = 1.0;
  // APPROX-EPOL (Fig. 3) evaluates target LEAVES exactly before applying the
  // far test; APPROX-INTEGRALS (Fig. 2) applies the far test first, so even a
  // target leaf can become a far entry. true mirrors the former.
  bool exact_at_target_leaf = false;
  // Source leaves [lo, hi) (indices into source.leaves()) to traverse —
  // the same segmentation the chunk plans use.
  std::uint32_t source_leaf_lo = 0;
  std::uint32_t source_leaf_hi = 0;

  // The same walk over source leaves [lo, hi).
  ListBuildParams over(std::uint32_t lo, std::uint32_t hi) const {
    ListBuildParams p = *this;
    p.source_leaf_lo = lo;
    p.source_leaf_hi = hi;
    return p;
  }
};

// The opening criterion: target node `t` is far from source leaf `src`. The
// walk and the half-pair mutual test (HalfPairWeights) share this one
// expression, so they agree on every pair.
inline bool far_apart(const OctreeNode& t, const OctreeNode& src, double far_multiplier) {
  const double d2 = distance2(t.centroid, src.centroid);
  const double reach = (t.radius + src.radius) * far_multiplier;
  return d2 > reach * reach;
}

namespace detail {

// Depth-first over the target subtree at `target_node_id` with the opening
// criterion evaluated against one fixed source leaf. Children are visited in
// OctreeNode's child layout order.
template <typename OnFar, typename OnNear>
inline void visit_target_subtree(const Octree& target, const OctreeNode& src,
                                 std::uint32_t source_leaf_id,
                                 std::uint32_t target_node_id,
                                 const ListBuildParams& params, OnFar& on_far,
                                 OnNear& on_near) {
  const OctreeNode& t = target.node(target_node_id);
  if (params.exact_at_target_leaf && t.is_leaf()) {
    on_near(target_node_id, source_leaf_id);
    return;
  }
  if (far_apart(t, src, params.far_multiplier)) {
    on_far(target_node_id, source_leaf_id);
    return;
  }
  if (t.is_leaf()) {
    on_near(target_node_id, source_leaf_id);
    return;
  }
  for (std::uint8_t c = 0; c < t.child_count; ++c)
    visit_target_subtree(target, src, source_leaf_id,
                         static_cast<std::uint32_t>(t.first_child) + c, params, on_far,
                         on_near);
}

}  // namespace detail

// Walks the target tree once per source leaf in [source_leaf_lo,
// source_leaf_hi), ascending, calling on_far(target_node, source_leaf) and
// on_near(target_leaf, source_leaf) with node ids in visit order.
template <typename OnFar, typename OnNear>
inline void visit_interactions(const Octree& target, const Octree& source,
                               const ListBuildParams& params, OnFar&& on_far,
                               OnNear&& on_near) {
  if (target.empty() || source.empty()) return;
  const auto leaves = source.leaves();
  for (std::uint32_t i = params.source_leaf_lo; i < params.source_leaf_hi; ++i)
    detail::visit_target_subtree(target, source.node(leaves[i]), leaves[i], 0, params,
                                 on_far, on_near);
}

// What the walk over a source-leaf range visits.
struct InteractionCounts {
  std::uint64_t far = 0;               // far (target_node, source_leaf) visits
  std::uint64_t near = 0;              // near (target_leaf, source_leaf) visits
  std::uint64_t near_point_pairs = 0;  // exact point pairs the near visits cover
};

inline InteractionCounts count_interactions(const Octree& target, const Octree& source,
                                            const ListBuildParams& params) {
  InteractionCounts n;
  visit_interactions(
      target, source, params, [&](std::uint32_t, std::uint32_t) { ++n.far; },
      [&](std::uint32_t t, std::uint32_t s) {
        ++n.near;
        n.near_point_pairs +=
            static_cast<std::uint64_t>(target.node(t).count()) * source.node(s).count();
      });
  return n;
}

// Half-pair weights of a symmetric walk: target and source are the same tree
// and target leaves are exact at any distance (APPROX-EPOL's walk). A near
// visit (u <- v) is MUTUAL when the walk from source u reaches v as well,
// i.e. no strict ancestor A of v is far_apart(A, u). Both visits of a mutual
// pair cover the same point pairs, and the E_pol pair term is symmetric, so
// one visit carries both: weight 2 when u < v (node ids), 0 when u > v. A
// self visit (u == v) and a one-way visit keep weight 1. The weights are pure
// geometry, and sum(w * |u| * |v|) over the near visits of the full walk
// equals its ordered pair count.
class HalfPairWeights {
 public:
  HalfPairWeights(const Octree& tree, double far_multiplier)
      : tree_(&tree), far_multiplier_(far_multiplier) {}

  // Makes `v_leaf` the source leaf of the following weight() calls, caching
  // its strict ancestors (root first) by descending the Morton ranges.
  void set_source(std::uint32_t v_leaf) {
    source_ = v_leaf;
    depth_ = 0;
    const std::uint32_t slot = tree_->node(v_leaf).begin;
    for (std::uint32_t id = 0; id != v_leaf;) {
      chain_[depth_++] = id;
      auto child = static_cast<std::uint32_t>(tree_->node(id).first_child);
      while (tree_->node(child).end <= slot) ++child;
      id = child;
    }
  }
  std::uint32_t source() const { return source_; }

  // Weight of the near visit (u_leaf <- source()).
  int weight(std::uint32_t u_leaf) const {
    if (u_leaf == source_) return 1;
    const OctreeNode& u = tree_->node(u_leaf);
    // Deepest first: the smallest ancestors are the likeliest to be far.
    for (std::uint32_t k = depth_; k-- > 0;)
      if (far_apart(tree_->node(chain_[k]), u, far_multiplier_)) return 1;
    return u_leaf < source_ ? 2 : 0;
  }

 private:
  const Octree* tree_;
  double far_multiplier_;
  std::uint32_t source_ = UINT32_MAX;
  std::uint32_t depth_ = 0;
  std::array<std::uint32_t, 24> chain_{};  // Octree depth is at most 20
};

// count_interactions for the symmetric walk, with near point pairs counted as
// the half-pair evaluator computes them: a weight-0 visit costs nothing and a
// weight-1 or weight-2 visit one evaluation of |u| * |v| pairs.
inline InteractionCounts count_half_pair_interactions(const Octree& tree,
                                                      const ListBuildParams& params) {
  InteractionCounts n;
  HalfPairWeights weights(tree, params.far_multiplier);
  visit_interactions(
      tree, tree, params, [&](std::uint32_t, std::uint32_t) { ++n.far; },
      [&](std::uint32_t u, std::uint32_t v) {
        ++n.near;
        if (v != weights.source()) weights.set_source(v);
        if (weights.weight(u) != 0)
          n.near_point_pairs +=
              static_cast<std::uint64_t>(tree.node(u).count()) * tree.node(v).count();
      });
  return n;
}

struct InteractionLists {
  // A far pair: the whole target subtree is far from the source leaf.
  struct Far {
    std::uint32_t target_node = 0;
    std::uint32_t source_leaf = 0;  // node id of a source-tree leaf
  };
  // A near pair: exact kernels over (target leaf points) x (source leaf points).
  struct Near {
    std::uint32_t target_leaf = 0;
    std::uint32_t source_leaf = 0;
  };

  std::vector<Far> far;
  std::vector<Near> near;

  // Exact point pairs the near list will evaluate (for stats / grain tuning).
  std::uint64_t near_point_pairs = 0;

  // L2 tile index: ascending entry boundaries partitioning `near` (resp.
  // `far`) so the points (resp. bins) streamed per tile fit a byte budget.
  // When built, size is n_tiles+1 with front()==0 and back()==list size.
  // Tiling only inserts boundaries into the existing traversal order, so
  // evaluation is bit-identical for ANY tile size — see for_each_tile_range.
  std::vector<std::uint32_t> near_tile_start;
  std::vector<std::uint32_t> far_tile_start;
  std::size_t tile_bytes = 0;  // budget the index was built with (0 = unbuilt)

  // Streamed-bytes estimates for one near entry's target/source point and one
  // far entry; the solvers pass kernel-specific values (see build_lists).
  struct TileCost {
    std::size_t near_target_bytes_per_point = 0;
    std::size_t near_source_bytes_per_point = 0;
    std::size_t far_bytes_per_entry = 0;
  };

  // Builds the tile index; budget_bytes == 0 uses default_tile_bytes().
  void build_tiles(const Octree& target, const Octree& source, const TileCost& cost,
                   std::size_t budget_bytes = 0);

  void append(InteractionLists&& other);
  MemoryFootprint footprint() const;
};

// Detected per-core L2 data-cache size in bytes (0 when the OS won't say).
std::size_t detected_l2_bytes();

// Default tile budget: half the detected L2 (the other half absorbs the
// write streams and the tree metadata), clamped to [64 KiB, 1 MiB]; 256 KiB
// when detection fails.
std::size_t default_tile_bytes();

// Calls fn(sub_lo, sub_hi) for each maximal sub-range of [lo, hi) lying
// within a single tile of `starts` (an InteractionLists tile index). With an
// unbuilt index the whole range is one call. Sub-ranges are visited in
// ascending order and partition [lo, hi) exactly, so any per-entry fold over
// them is bit-identical to the untiled loop.
template <typename Fn>
inline void for_each_tile_range(const std::vector<std::uint32_t>& starts,
                                std::size_t lo, std::size_t hi, Fn&& fn) {
  if (lo >= hi) return;
  if (starts.size() < 2) {
    fn(lo, hi);
    return;
  }
  // First boundary strictly past lo ends the tile containing lo.
  auto it = std::upper_bound(starts.begin(), starts.end(), static_cast<std::uint32_t>(lo));
  std::size_t cur = lo;
  while (cur < hi) {
    const std::size_t stop =
        it == starts.end() ? hi : std::min<std::size_t>(hi, *it);
    fn(cur, stop);
    cur = stop;
    ++it;
  }
}

// Emits the walk over the source-leaf range as flat far/near lists, in
// visit order.
InteractionLists build_interaction_lists(const Octree& target, const Octree& source,
                                         const ListBuildParams& params);

}  // namespace gbpol
