// gbpol_perfbench: runs one workload and writes its raw record (set-up
// times, ops, spans, check failures, naive references) as JSON.
//
//   gbpol_perfbench --workload <cold_serial|parallel_routes|serving_mix>
//                   --seed <n> --seconds <s> --trace <0|1>
//                   --cache <dir> --out <file>
//
// perfbench/run.py builds this program, runs it, and derives the metrics.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <string>
#include <thread>

#include "core/interaction_lists.hpp"
#include "core/kernels_simd.hpp"
#include "recorder.hpp"
#include "workloads.hpp"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: gbpol_perfbench --workload <cold_serial|parallel_routes|"
               "serving_mix> --seed <n> --seconds <s> --trace <0|1> --cache <dir> "
               "--out <file>\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args;
  std::string out;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") args.workload = value;
    else if (key == "--seed") args.seed = std::strtoull(value.c_str(), nullptr, 10);
    else if (key == "--seconds") args.seconds = std::strtod(value.c_str(), nullptr);
    else if (key == "--trace") args.trace = value == "1";
    else if (key == "--cache") args.cache_dir = value;
    else if (key == "--out") out = value;
    else return usage();
  }
  if (argc % 2 != 1 || out.empty() || args.cache_dir.empty() || args.seconds <= 0.0)
    return usage();

  perfbench::Recorder rec;
  try {
    if (args.workload == "cold_serial") perfbench::cold_serial(args, rec);
    else if (args.workload == "parallel_routes") perfbench::parallel_routes_workload(args, rec);
    else if (args.workload == "serving_mix") perfbench::serving_mix(args, rec);
    else return usage();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "gbpol_perfbench: %s\n", e.what());
    return 1;
  }

  namespace json = perfbench::json;
  rec.set("context",
          json::Value(json::Object{
              {"simd_dispatch", json::Value(gbpol::simd_dispatch_name())},
              {"tile_bytes", json::Value(gbpol::default_tile_bytes())},
              {"hardware_threads",
               json::Value(static_cast<int>(std::thread::hardware_concurrency()))},
              {"tracing_compiled", json::Value(GBPOL_TRACING_ENABLED != 0)}}));
  rec.set("peak_rss_mib", json::Value(perfbench::peak_rss_mib()));

  std::ofstream file(out);
  file << rec.to_json().dump() << '\n';
  return file.good() ? 0 : 1;
}
