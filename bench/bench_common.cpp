#include "bench_common.h"

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>

namespace cold::bench {

bool GateSet::require_at_least(const std::string& name, double value,
                               double min) {
  const bool pass = value >= min;
  outcomes_.push_back({name, value, min, pass});
  return pass;
}

bool GateSet::require(const std::string& name, bool ok) {
  outcomes_.push_back({name, ok ? 1.0 : 0.0, 1.0, ok});
  return ok;
}

bool GateSet::all_pass() const {
  for (const GateOutcome& g : outcomes_) {
    if (!g.pass) return false;
  }
  return true;
}

std::string GateSet::json() const {
  std::ostringstream os;
  os.precision(6);
  os << "[";
  for (std::size_t i = 0; i < outcomes_.size(); ++i) {
    const GateOutcome& g = outcomes_[i];
    if (i > 0) os << ", ";
    os << "{\"name\": \"" << g.name << "\", \"value\": " << g.value
       << ", \"min\": " << g.min << ", \"pass\": "
       << (g.pass ? "true" : "false") << "}";
  }
  os << "]";
  return os.str();
}

void GateSet::print() const {
  for (const GateOutcome& g : outcomes_) {
    std::printf("gate %-28s %10.3f (min %.3f) %s\n", g.name.c_str(), g.value,
                g.min, g.pass ? "PASS" : "FAIL");
  }
}

bool full_mode() {
  const char* v = std::getenv("COLD_BENCH_FULL");
  return v != nullptr && std::string(v) == "1";
}

std::size_t trials(std::size_t fast, std::size_t full) {
  return full_mode() ? full : fast;
}

std::size_t bench_threads() {
  const char* v = std::getenv("COLD_BENCH_THREADS");
  if (v == nullptr) return 0;  // 0 = all hardware threads
  return static_cast<std::size_t>(std::strtoull(v, nullptr, 10));
}

GaConfig default_ga() {
  GaConfig cfg;
  if (full_mode()) {
    cfg.population = 100;
    cfg.generations = 100;
  } else {
    cfg.population = 48;
    cfg.generations = 40;
  }
  cfg.parallel.num_threads = bench_threads();
  return cfg;
}

SynthesisConfig sweep_config(std::size_t n, CostParams costs) {
  SynthesisConfig cfg;
  cfg.context.num_pops = n;
  cfg.costs = costs;
  cfg.ga = default_ga();
  cfg.parallel.num_threads = bench_threads();
  return cfg;
}

void banner(const std::string& figure, const std::string& claim) {
  std::cout << "==============================================================\n";
  std::cout << "COLD reproduction — " << figure << "\n";
  std::cout << "Paper claim: " << claim << "\n";
  std::cout << "Mode: " << (full_mode() ? "FULL (paper-scale)" : "fast")
            << "  (set COLD_BENCH_FULL=1 for paper-scale runs)\n";
  std::cout << "==============================================================\n\n";
}

double bench_max_seconds() {
  const char* v = std::getenv("COLD_BENCH_MAX_SECONDS");
  return v == nullptr ? 0.0 : std::strtod(v, nullptr);
}

std::string bench_report_path() {
  const char* v = std::getenv("COLD_BENCH_REPORT");
  return v == nullptr ? std::string() : std::string(v);
}

BenchTelemetry::~BenchTelemetry() {
  if (!report_attached_) return;
  const std::string path = bench_report_path();
  std::ofstream file(path);
  if (!file) {
    std::cerr << "could not write report " << path << "\n";
    return;
  }
  file << run_report_to_json(sink_.report());
  std::cout << "wrote report " << path << "\n";
}

void BenchTelemetry::attach(SynthesisConfig& cfg) {
  if (!bench_report_path().empty()) {
    // Raw run_ga emits no RunStart (the sink's usual reset trigger), so
    // reset here to keep the "report holds the last attached run" promise.
    sink_.report() = RunReport{};
    cfg.observer = &sink_;
    report_attached_ = true;
  }
  stop_.max_seconds = bench_max_seconds();
  if (stop_.max_seconds > 0) cfg.stop = &stop_;
}

void BenchTelemetry::attach(GaRunOptions& options) {
  if (!bench_report_path().empty()) {
    sink_.report() = RunReport{};
    options.observer = &sink_;
    report_attached_ = true;
  }
  stop_.max_seconds = bench_max_seconds();
  if (stop_.max_seconds > 0) options.stop = &stop_;
}

}  // namespace cold::bench
