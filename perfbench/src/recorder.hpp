// In-memory record of one benchmark run: one record per operation (set-up
// repetitions included), spans around calls into the library's layers, and
// check failures. Everything is kept in memory while the run measures and written
// out once, as JSON, when the run ends; perfbench/metrics.py turns it into
// the reported metrics.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/json.hpp"

namespace perfbench {

namespace json = gbpol::obs::json;

class Recorder {
 public:
  Recorder();

  // Seconds since the recorder was created (steady clock).
  double now() const;

  // Span bookkeeping. A span's parent is the innermost span open when it
  // began; spans of one operation share its op id (-1 = not inside an op).
  int begin_span(const std::string& name, int op);
  void end_span(int span);

  // Appends an operation record and returns its op id. `record` must be a
  // JSON object; "op" is added.
  int add_op(json::Object record);
  json::Object& op(int id);
  int next_op_id() const { return static_cast<int>(ops_.size()); }

  // A failed output check. With op >= 0 the failure is attached to that
  // operation; otherwise it is a run-level failure.
  void fail(int op, const std::string& what);
  void set(const std::string& key, json::Value value);

  json::Value to_json() const;

 private:
  struct Span {
    std::string name;
    int op = -1;
    int parent = -1;
    double t0 = 0.0;
    double t1 = 0.0;
  };

  std::chrono::steady_clock::time_point start_;
  std::vector<Span> spans_;
  std::vector<int> open_;
  std::vector<json::Object> ops_;
  std::vector<std::string> run_failures_;
  json::Object extra_;
};

// RAII span: begins on construction, ends on destruction. A null recorder
// records nothing, so untraced code paths share the traced ones.
class ScopedSpan {
 public:
  ScopedSpan(Recorder* rec, const std::string& name, int op)
      : rec_(rec), id_(rec != nullptr ? rec->begin_span(name, op) : -1) {}
  ~ScopedSpan() {
    if (rec_ != nullptr) rec_->end_span(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Recorder* rec_;
  int id_;
};

// JSON number for a double; non-finite values become null (JSON has no
// NaN or infinity), which the metrics code treats as a failed output.
json::Value number(double value);

// Peak resident set size of this process, in MiB.
double peak_rss_mib();

}  // namespace perfbench
