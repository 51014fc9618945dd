#include "core/interaction_lists.hpp"

#include <algorithm>

#include <unistd.h>

namespace gbpol {

void InteractionLists::append(InteractionLists&& other) {
  far.insert(far.end(), other.far.begin(), other.far.end());
  near.insert(near.end(), other.near.begin(), other.near.end());
  near_point_pairs += other.near_point_pairs;
}

MemoryFootprint InteractionLists::footprint() const {
  MemoryFootprint fp;
  fp.add_array<Far>(far.size());
  fp.add_array<Near>(near.size());
  fp.add_array<std::uint32_t>(near_tile_start.size() + far_tile_start.size());
  return fp;
}

std::size_t detected_l2_bytes() {
#if defined(_SC_LEVEL2_CACHE_SIZE)
  const long v = sysconf(_SC_LEVEL2_CACHE_SIZE);
  return v > 0 ? static_cast<std::size_t>(v) : 0;
#else
  return 0;
#endif
}

std::size_t default_tile_bytes() {
  const std::size_t l2 = detected_l2_bytes();
  if (l2 == 0) return std::size_t(256) << 10;
  return std::clamp<std::size_t>(l2 / 2, std::size_t(64) << 10, std::size_t(1) << 20);
}

void InteractionLists::build_tiles(const Octree& target, const Octree& source,
                                   const TileCost& cost, std::size_t budget_bytes) {
  tile_bytes = budget_bytes != 0 ? budget_bytes : default_tile_bytes();
  near_tile_start.clear();
  far_tile_start.clear();
  if (!near.empty()) {
    // Greedy accumulation: close the tile when adding the next entry's point
    // ranges would overflow the budget. An oversized single entry gets its
    // own tile (progress is guaranteed).
    near_tile_start.push_back(0);
    std::size_t acc = 0;
    for (std::uint32_t i = 0; i < near.size(); ++i) {
      const std::size_t bytes =
          static_cast<std::size_t>(target.node(near[i].target_leaf).count()) *
              cost.near_target_bytes_per_point +
          static_cast<std::size_t>(source.node(near[i].source_leaf).count()) *
              cost.near_source_bytes_per_point;
      if (acc > 0 && acc + bytes > tile_bytes) {
        near_tile_start.push_back(i);
        acc = 0;
      }
      acc += bytes;
    }
    near_tile_start.push_back(static_cast<std::uint32_t>(near.size()));
  }
  if (!far.empty()) {
    // Far entries stream a fixed aggregate payload each, so the tile is a
    // fixed entry count.
    const std::size_t per = std::max<std::size_t>(1, cost.far_bytes_per_entry);
    const std::uint32_t entries = static_cast<std::uint32_t>(
        std::max<std::size_t>(1, tile_bytes / per));
    for (std::uint32_t i = 0; i < far.size(); i += entries) far_tile_start.push_back(i);
    far_tile_start.push_back(static_cast<std::uint32_t>(far.size()));
  }
}

InteractionLists build_interaction_lists(const Octree& target, const Octree& source,
                                         const ListBuildParams& params) {
  InteractionLists lists;
  visit_interactions(
      target, source, params,
      [&](std::uint32_t t, std::uint32_t s) { lists.far.push_back({t, s}); },
      [&](std::uint32_t t, std::uint32_t s) {
        lists.near.push_back({t, s});
        lists.near_point_pairs +=
            static_cast<std::uint64_t>(target.node(t).count()) * source.node(s).count();
      });
  return lists;
}

}  // namespace gbpol
