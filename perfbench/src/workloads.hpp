// The benchmark's three workloads. Each is one client in a closed loop on
// one thread of the benchmark process (the parallel routes use four
// workers). Inputs are generated from the seed; the library only ever sees
// the generated molecules and requests. See perfbench/README.md for why each
// workload exists and which layers it exercises.
#pragma once

#include <cstdint>
#include <string>

#include "recorder.hpp"

namespace perfbench {

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  // Directory for cached naive reference energies.
  std::string cache_dir;
};

// Each workload records its set-up repetitions ("setup" ops), its timed
// ops, and — with args.trace — spans, layer probes, and the naive
// reference energies, into `rec`.
void cold_serial(const Args& args, Recorder& rec);
void parallel_routes_workload(const Args& args, Recorder& rec);
void serving_mix(const Args& args, Recorder& rec);

}  // namespace perfbench
