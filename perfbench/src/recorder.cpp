#include "recorder.hpp"

#include <sys/resource.h>

#include <cmath>
#include <stdexcept>

namespace perfbench {

Recorder::Recorder() : start_(std::chrono::steady_clock::now()) {}

double Recorder::now() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start_)
      .count();
}

int Recorder::begin_span(const std::string& name, int op) {
  Span span;
  span.name = name;
  span.op = op;
  span.parent = open_.empty() ? -1 : open_.back();
  span.t0 = now();
  spans_.push_back(std::move(span));
  const int id = static_cast<int>(spans_.size()) - 1;
  open_.push_back(id);
  return id;
}

void Recorder::end_span(int span) {
  if (open_.empty() || open_.back() != span)
    throw std::logic_error("perfbench: spans must close innermost first");
  spans_[static_cast<std::size_t>(span)].t1 = now();
  open_.pop_back();
}

int Recorder::add_op(json::Object record) {
  const int id = static_cast<int>(ops_.size());
  record.emplace_back("op", json::Value(id));
  ops_.push_back(std::move(record));
  return id;
}

json::Object& Recorder::op(int id) { return ops_.at(static_cast<std::size_t>(id)); }

void Recorder::fail(int op, const std::string& what) {
  if (op < 0) {
    run_failures_.push_back(what);
    return;
  }
  json::Object& record = ops_.at(static_cast<std::size_t>(op));
  for (auto& [key, value] : record) {
    if (key == "failed") {
      value.as_array().emplace_back(what);
      return;
    }
  }
  record.emplace_back("failed", json::Value(json::Array{json::Value(what)}));
}

void Recorder::set(const std::string& key, json::Value value) {
  extra_.emplace_back(key, std::move(value));
}

json::Value Recorder::to_json() const {
  json::Object doc = extra_;
  json::Array ops;
  for (const json::Object& o : ops_) ops.emplace_back(o);
  doc.emplace_back("ops", json::Value(std::move(ops)));
  json::Array spans;
  for (const Span& s : spans_) {
    spans.emplace_back(json::Object{{"name", json::Value(s.name)},
                                    {"op", json::Value(s.op)},
                                    {"parent", json::Value(s.parent)},
                                    {"t0", json::Value(s.t0)},
                                    {"t1", json::Value(s.t1)}});
  }
  doc.emplace_back("spans", json::Value(std::move(spans)));
  json::Array failures;
  for (const std::string& f : run_failures_) failures.emplace_back(f);
  doc.emplace_back("run_failures", json::Value(std::move(failures)));
  return json::Value(std::move(doc));
}

json::Value number(double value) {
  return std::isfinite(value) ? json::Value(value) : json::Value(nullptr);
}

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

}  // namespace perfbench
