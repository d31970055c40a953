// Shared pieces of the end-to-end synthesis benchmark: workload table,
// metric/ledger/span records and the correctness checks every measured
// network goes through. See run.py for how the binary is built and invoked.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/synthesizer.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start);

/// One benchmark workload. Only these fields (plus the seed) vary between
/// workloads; every engine knob stays at the library default.
struct Workload {
  std::string name;
  std::size_t pops = 0;
  std::size_t threads = 1;
  bool resilient = false;  ///< --objective resilient, λ = 1, single links
  bool ensemble = false;   ///< generate_ensemble instead of synthesize()
};

/// The synthesis configuration of a workload: CLI-default costs and GA size,
/// the workload's PoP count, thread count and objective.
cold::SynthesisConfig make_config(const Workload& w);

/// Runs per generate_ensemble call in the ensemble workload.
inline constexpr std::size_t kEnsembleBatch = 8;

/// The networks one unit of work produces, in seed order: one
/// synthesize(seed) call, or for the ensemble workload one streamed
/// generate_ensemble batch of kEnsembleBatch runs from `seed`.
std::vector<cold::SynthesisResult> produce(const Workload& w,
                                           const cold::Synthesizer& synth,
                                           std::uint64_t seed);

struct Metric {
  double value = 0.0;
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

/// Correctness ledger. Each checked network, replay comparison or probe
/// fidelity check is one attempted operation; it fails when any of its
/// checks is violated or it throws.
struct Ledger {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::string> failures;

  /// Records one operation with its violations (empty = passed).
  void record(const std::string& op, const std::vector<std::string>& bad);
};

/// Checks one synthesized network: validate_network passes, the topology is
/// connected and equals the GA winner, and the best cost is finite and
/// bitwise equal to a fresh Evaluator's re-evaluation of the winner. With
/// `corrupt` the recorded best cost is nudged by one ulp first (self-check
/// of the check itself). Returns the violations.
std::vector<std::string> check_network(const cold::SynthesisResult& r,
                                       const cold::SynthesisConfig& cfg,
                                       bool corrupt);

/// Bitwise equality of two doubles.
bool same_bits(double a, double b);

/// In-memory span record, written out when the run ends.
struct Span {
  std::string name;
  double start_s = 0.0;  ///< since the tracer's origin
  double end_s = 0.0;
  int parent = -1;       ///< index into the span list, -1 = root
};

class Tracer {
 public:
  Tracer() : origin_(Clock::now()) {}
  /// Opens a span now; returns its id.
  int open(const std::string& name, int parent);
  void close(int id);
  /// Adds a finished span; times are seconds since the tracer's origin.
  int add(const std::string& name, double start_s, double end_s, int parent);
  /// Adds a finished span that ended now and lasted `seconds`.
  int add_ending_now(const std::string& name, double seconds, int parent) {
    const double t = now();
    return add(name, t - seconds, t, parent);
  }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  double now() const { return seconds_since(origin_); }
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

/// Effective-core measurement taken before the runs.
struct Cores {
  std::size_t cpus = 0;       ///< CPUs in the sched_getaffinity mask
  double cgroup_quota = 0.0;  ///< cpu.max quota / period; 0 = unlimited
  double burn = 0.0;          ///< measured by a calibrated multi-thread burn
  double effective = 0.0;     ///< min of the three
};
Cores measure_cores();

/// Per-layer metrics of one traced run (trace mode). Fills `metrics` with
/// every per-layer name and records its spans in `tracer`.
void run_traced(const Workload& w, std::uint64_t base_seed, double seconds,
                const Cores& cores, Metrics& metrics, Ledger& ledger,
                Tracer& tracer);

double median(std::vector<double> v);

}  // namespace perfbench
