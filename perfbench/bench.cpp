// cold_perfbench — end-to-end synthesis benchmark program.
//
//   cold_perfbench --workload NAME --seed S --seconds T --trace 0|1
//                  [--out FILE] [--tiny] [--corrupt-cost]
//
// Untraced runs (--trace 0) measure whole syntheses through the public entry
// points (Synthesizer::synthesize, generate_ensemble) with no observer and
// print the end-to-end metrics. Traced runs (--trace 1) attach a RunObserver
// and time each module's public calls from outside (probes.cpp) to print
// the per-layer metrics. Every produced network is checked; the last stdout
// line is one JSON object {correct, attempted, failed, metrics}. --tiny
// shrinks every workload for the self-check; --corrupt-cost nudges one
// recorded cost so the self-check can see the checks fire.
#include "bench.h"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "core/context.h"
#include "core/ensemble.h"
#include "cost/evaluator.h"
#include "graph/algorithms.h"
#include "io/json.h"

namespace perfbench {

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

cold::SynthesisConfig make_config(const Workload& w) {
  cold::SynthesisConfig cfg;
  cfg.context.num_pops = w.pops;
  cfg.costs = {.k0 = 10.0, .k1 = 1.0, .k2 = 4e-4, .k3 = 10.0};
  cfg.ga.population = 48;
  cfg.ga.generations = 40;
  cfg.ga.parallel.num_threads = w.threads;
  cfg.parallel.num_threads = w.threads;
  if (w.resilient) {
    cfg.engine.resilience.enabled = true;
    cfg.engine.resilience.weight = 1.0;
    cfg.engine.resilience.scenarios = cold::FailureScenarioSet::kSingleLink;
  }
  return cfg;
}

std::vector<cold::SynthesisResult> produce(const Workload& w,
                                           const cold::Synthesizer& synth,
                                           std::uint64_t seed) {
  std::vector<cold::SynthesisResult> out;
  if (!w.ensemble) {
    out.push_back(synth.synthesize(seed));
    return out;
  }
  cold::EnsembleOptions opt;
  opt.count = kEnsembleBatch;
  opt.base_seed = seed;
  opt.retain = cold::RetainMode::kStreamed;
  opt.reservoir = kEnsembleBatch;  // the sample then holds every run
  cold::EnsembleResult e = cold::generate_ensemble(synth, opt);
  // Fold order is seed order, and a reservoir as large as the ensemble
  // keeps every run in fold order.
  out = e.acc.sample();
  if (out.size() != kEnsembleBatch) {
    throw std::runtime_error("ensemble kept fewer runs than requested");
  }
  return out;
}

void Ledger::record(const std::string& op,
                    const std::vector<std::string>& bad) {
  ++attempted;
  if (bad.empty()) return;
  ++failed;
  for (const std::string& b : bad) failures.push_back(op + ": " + b);
}

std::vector<std::string> check_network(const cold::SynthesisResult& r,
                                       const cold::SynthesisConfig& cfg,
                                       bool corrupt) {
  std::vector<std::string> bad;
  double best = r.ga.best_cost;
  if (corrupt) best = std::nextafter(best, HUGE_VAL);
  try {
    cold::validate_network(r.network);
  } catch (const std::exception& e) {
    bad.push_back(std::string("validate_network: ") + e.what());
  }
  if (!cold::is_connected(r.network.topology)) bad.push_back("disconnected");
  if (!(r.network.topology == r.ga.best)) {
    bad.push_back("network topology differs from the GA winner");
  }
  if (!std::isfinite(best)) bad.push_back("best cost not finite");
  cold::Evaluator fresh(r.context.distances, r.context.traffic, cfg.costs,
                        cfg.engine);
  const double again = fresh.evaluate(r.ga.best).total();
  if (!same_bits(again, best)) {
    std::ostringstream os;
    os.precision(17);
    os << "best cost " << best << " != fresh re-evaluation " << again;
    bad.push_back(os.str());
  }
  return bad;
}

int Tracer::open(const std::string& name, int parent) {
  const double t = now();
  return add(name, t, t, parent);
}

void Tracer::close(int id) {
  spans_[static_cast<std::size_t>(id)].end_s = now();
}

int Tracer::add(const std::string& name, double start_s, double end_s,
                int parent) {
  spans_.push_back({name, start_s, end_s, parent});
  return static_cast<int>(spans_.size()) - 1;
}

namespace {

// Network seeds of one invocation: kSeedStride * seed, +1, +2, ... A run
// makes far fewer networks than the stride, so different --seed values draw
// disjoint networks.
constexpr std::uint64_t kSeedStride = 1000;

// Networks (units for the ensemble) that every untraced run completes before
// the --seconds clock may end it. best_cost averages exactly these, so it is
// a pure function of the seed.
constexpr std::size_t kMinUnits = 4;
// Set-up repetitions per run; setup_s is their median.
constexpr std::size_t kSetupReps = 301;

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> table = {
      {.name = "synth_n100", .pops = 100, .threads = 2},
      {.name = "ensemble_n30", .pops = 30, .threads = 2, .ensemble = true},
      {.name = "synth_resilient_n40", .pops = 40, .threads = 1,
       .resilient = true},
  };
  return table;
}

double cpu_seconds() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  const auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) +
           1e-6 * static_cast<double>(t.tv_usec);
  };
  return tv(u.ru_utime) + tv(u.ru_stime);
}

double peak_rss_mb() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return static_cast<double>(u.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// --- effective cores -------------------------------------------------------

double cgroup_quota() {
  std::ifstream f("/sys/fs/cgroup/cpu.max");
  std::string quota;
  double period = 0.0;
  if (!(f >> quota >> period) || quota == "max" || period <= 0.0) return 0.0;
  try {
    return std::stod(quota) / period;
  } catch (const std::exception&) {
    return 0.0;
  }
}

// Fixed floating-point work; the result is returned so it cannot be elided.
double burn_work(std::uint64_t iters) {
  double x = 1.0;
  for (std::uint64_t i = 0; i < iters; ++i) x = x * 1.0000001 + 1e-9;
  return x;
}

double timed_burn(std::size_t threads, std::uint64_t iters) {
  std::atomic<double> sink{0.0};
  const auto start = Clock::now();
  std::vector<std::thread> pool;
  for (std::size_t t = 0; t < threads; ++t) {
    pool.emplace_back([&] { sink.store(burn_work(iters)); });
  }
  for (std::thread& th : pool) th.join();
  return seconds_since(start);
}

}  // namespace

Cores measure_cores() {
  Cores c;
  cpu_set_t set;
  CPU_ZERO(&set);
  c.cpus = sched_getaffinity(0, sizeof(set), &set) == 0
               ? static_cast<std::size_t>(CPU_COUNT(&set))
               : std::max(1u, std::thread::hardware_concurrency());
  c.cgroup_quota = cgroup_quota();
  // Calibrate one thread to ~20 ms, then run as many copies as the affinity
  // mask allows: effective cores = k * t1 / tk.
  std::uint64_t iters = 1 << 20;
  double t1 = timed_burn(1, iters);
  while (t1 < 0.02) {
    iters *= 2;
    t1 = timed_burn(1, iters);
  }
  t1 = std::min(t1, timed_burn(1, iters));
  const std::size_t k = std::min<std::size_t>(c.cpus, 8);
  const double tk = std::min(timed_burn(k, iters), timed_burn(k, iters));
  c.burn = static_cast<double>(k) * t1 / tk;
  c.effective = std::min(static_cast<double>(c.cpus), c.burn);
  if (c.cgroup_quota > 0.0) {
    c.effective = std::min(c.effective, c.cgroup_quota);
  }
  return c;
}

namespace {

// --- untraced end-to-end run -----------------------------------------------

struct E2eRecord {
  std::vector<double> wall_per_network;  ///< one per unit
  std::size_t networks = 0;
  double mean_cost = 0.0;  ///< raw mean best cost, cost units
  std::string distribution;  ///< per-unit median and tail, as text
};

/// Median set-up time: generate_context + Evaluator construction, the work
/// before a synthesis's first objective evaluation.
double measure_setup(const cold::SynthesisConfig& cfg, std::uint64_t base) {
  std::vector<double> t;
  for (std::size_t i = 0; i < kSetupReps; ++i) {
    const auto start = Clock::now();
    cold::Rng rng(base + i, /*stream=*/0);
    const cold::Context ctx = cold::generate_context(cfg.context, rng);
    const cold::Evaluator eval(ctx.distances, ctx.traffic, cfg.costs,
                               cfg.engine);
    t.push_back(seconds_since(start));
    if (eval.num_nodes() != cfg.context.num_pops) {
      throw std::logic_error("set-up built the wrong context size");
    }
  }
  return median(t);
}

/// Cost of the distance-MST of the network's context under the workload's
/// objective: a yardstick that no optimizer change moves, so best cost over
/// it keeps "a rise means the optimizer got worse" while removing the
/// context's scale (raw costs differ by tens of percent between seeds).
double mst_cost(const cold::SynthesisResult& r,
                const cold::SynthesisConfig& cfg) {
  cold::Evaluator eval(r.context.distances, r.context.traffic, cfg.costs,
                       cfg.engine);
  return eval.evaluate(cold::minimum_spanning_tree(r.context.distances))
      .total();
}

/// The median of the per-unit samples and the highest percentile that has
/// at least ten samples beyond it, as text.
std::string distribution_text(std::vector<double> v) {
  std::ostringstream os;
  os.precision(6);
  os << "median=" << median(v) << " s, ";
  if (v.size() < 11) {
    os << "no tail percentile (" << v.size() << " samples < 11)";
    return os.str();
  }
  std::sort(v.begin(), v.end());
  const std::size_t idx = v.size() - 11;  // ten samples lie beyond it
  const double pct = 100.0 * static_cast<double>(idx + 1) /
                     static_cast<double>(v.size());
  os << "p" << std::floor(pct) << "=" << v[idx] << " s (" << v.size()
     << " samples)";
  return os.str();
}

void run_untraced(const Workload& w, std::uint64_t base, double seconds,
                  bool corrupt, Metrics& metrics, Ledger& ledger,
                  E2eRecord& rec) {
  const cold::SynthesisConfig cfg = make_config(w);
  const cold::Synthesizer synth(cfg);
  const double setup = measure_setup(cfg, base);

  const std::size_t per_unit = w.ensemble ? kEnsembleBatch : 1;
  double wall_sum = 0.0;
  double cpu_sum = 0.0;
  std::size_t timed = 0;  // networks of the units that completed
  double cost_sum = 0.0;
  double ratio_sum = 0.0;
  std::size_t cost_count = 0;
  std::string first_bytes;

  const auto started = Clock::now();
  for (std::size_t unit = 0;
       unit < kMinUnits || seconds_since(started) < seconds; ++unit) {
    const std::uint64_t seed = base + unit * per_unit;
    std::vector<cold::SynthesisResult> runs;
    try {
      const double cpu0 = cpu_seconds();
      const auto t0 = Clock::now();
      runs = produce(w, synth, seed);
      const double wall = seconds_since(t0);
      wall_sum += wall;
      cpu_sum += cpu_seconds() - cpu0;
      timed += runs.size();
      rec.wall_per_network.push_back(wall / static_cast<double>(runs.size()));
    } catch (const std::exception& e) {
      ledger.record("unit at seed " + std::to_string(seed), {e.what()});
      continue;
    }
    for (std::size_t i = 0; i < runs.size(); ++i) {
      const cold::SynthesisResult& r = runs[i];
      const bool nudge = corrupt && rec.networks == 0;
      ledger.record("network seed " + std::to_string(seed + i),
                    check_network(r, cfg, nudge));
      if (rec.networks == 0 && w.threads > 1) {
        first_bytes = cold::network_to_json(r.network);
      }
      if (unit < kMinUnits) {
        const double cost = nudge ? std::nextafter(r.ga.best_cost, HUGE_VAL)
                                  : r.ga.best_cost;
        cost_sum += cost;
        ratio_sum += cost / mst_cost(r, cfg);
        ++cost_count;
      }
      ++rec.networks;
    }
  }
  const double rss = peak_rss_mb();

  // A multi-thread workload replays its first network on one thread: the
  // bytes must not change. (Traced runs repeat seeds of every workload.)
  if (w.threads > 1) {
    cold::SynthesisConfig one = cfg;
    one.ga.parallel.num_threads = 1;
    one.parallel.num_threads = 1;
    std::vector<std::string> bad;
    try {
      const cold::SynthesisResult replay =
          cold::Synthesizer(one).synthesize(base);
      if (cold::network_to_json(replay.network) != first_bytes) {
        bad.push_back("1-thread replay produced different network bytes");
      }
    } catch (const std::exception& e) {
      bad.push_back(e.what());
    }
    ledger.record("replay seed " + std::to_string(base), bad);
  }

  // Seconds per network over the whole run: per-network work differs by
  // tens of percent between seeds, and the mean of a run's networks varies
  // less from seed to seed than their median. The per-unit median and tail
  // go to the run record.
  rec.distribution = distribution_text(rec.wall_per_network);
  metrics["synth_s"] = {wall_sum / static_cast<double>(timed), "s"};
  metrics["cpu_s"] = {cpu_sum / static_cast<double>(timed), "s"};
  rec.mean_cost = cost_sum / static_cast<double>(cost_count);
  metrics["best_cost"] = {ratio_sum / static_cast<double>(cost_count),
                          "cost/mst_cost"};
  metrics["peak_rss_mb"] = {rss, "MiB"};
  metrics["setup_s"] = {setup, "s"};
}

// --- output ----------------------------------------------------------------

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string metrics_json(const Metrics& metrics) {
  std::string out = "{";
  bool first = true;
  for (const auto& [name, m] : metrics) {
    if (!first) out += ", ";
    first = false;
    out += json_string(name) + ": {\"value\": " + json_number(m.value) +
           ", \"unit\": " + json_string(m.unit) + "}";
  }
  return out + "}";
}

void write_record(const std::string& path, const Workload& w,
                  std::uint64_t seed, double seconds, bool trace,
                  const Cores& cores, const Metrics& metrics,
                  const Ledger& ledger, const E2eRecord& rec,
                  const Tracer& tracer) {
  std::ofstream f(path);
  if (!f) throw std::runtime_error("cannot write " + path);
  f << "{\n  \"workload\": " << json_string(w.name)
    << ",\n  \"seed\": " << seed << ",\n  \"pops\": " << w.pops
    << ",\n  \"threads\": " << w.threads << ",\n  \"objective\": "
    << json_string(w.resilient ? "resilient" : "cost")
    << ",\n  \"seconds\": " << json_number(seconds)
    << ",\n  \"trace\": " << (trace ? "true" : "false")
    << ",\n  \"cores\": {\"cpus\": " << cores.cpus
    << ", \"cgroup_quota\": " << json_number(cores.cgroup_quota)
    << ", \"burn\": " << json_number(cores.burn)
    << ", \"effective\": " << json_number(cores.effective)
    << ", \"below_threads\": "
    << (cores.effective < static_cast<double>(w.threads) ? "true" : "false")
    << "},\n  \"networks\": " << rec.networks
    << ",\n  \"synth_s_per_unit\": " << json_string(rec.distribution)
    << ",\n  \"mean_cost\": " << json_number(rec.mean_cost)
    << ",\n  \"unit_wall_per_network\": [";
  for (std::size_t i = 0; i < rec.wall_per_network.size(); ++i) {
    f << (i ? ", " : "") << json_number(rec.wall_per_network[i]);
  }
  f << "]"
    << ",\n  \"attempted\": " << ledger.attempted
    << ",\n  \"failed\": " << ledger.failed << ",\n  \"failures\": [";
  for (std::size_t i = 0; i < ledger.failures.size(); ++i) {
    f << (i ? ", " : "") << json_string(ledger.failures[i]);
  }
  f << "],\n  \"metrics\": " << metrics_json(metrics) << ",\n  \"spans\": [";
  const std::vector<Span>& spans = tracer.spans();
  for (std::size_t i = 0; i < spans.size(); ++i) {
    f << (i ? ",\n    " : "\n    ") << "{\"id\": " << i
      << ", \"name\": " << json_string(spans[i].name)
      << ", \"start_s\": " << json_number(spans[i].start_s)
      << ", \"end_s\": " << json_number(spans[i].end_s)
      << ", \"parent\": " << spans[i].parent << "}";
  }
  f << "]\n}\n";
}

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string out;
  bool tiny = false;
  bool corrupt = false;
};

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_seed = false;
  bool have_seconds = false;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (key == "--tiny") {
      a.tiny = true;
      continue;
    }
    if (key == "--corrupt-cost") {
      a.corrupt = true;
      continue;
    }
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + key);
    const std::string value = argv[++i];
    std::size_t used = 0;
    if (key == "--workload") {
      a.workload = value;
    } else if (key == "--seed") {
      a.seed = std::stoull(value, &used);
      have_seed = used == value.size();
    } else if (key == "--seconds") {
      a.seconds = std::stod(value, &used);
      have_seconds = used == value.size() && a.seconds > 0.0 &&
                     std::isfinite(a.seconds);
    } else if (key == "--trace") {
      if (value != "0" && value != "1") {
        throw std::invalid_argument("--trace takes 0 or 1");
      }
      a.trace = value == "1";
      have_trace = true;
    } else if (key == "--out") {
      a.out = value;
    } else {
      throw std::invalid_argument("unknown option " + key);
    }
  }
  if (a.workload.empty() || !have_seed || !have_seconds || !have_trace) {
    throw std::invalid_argument(
        "usage: cold_perfbench --workload NAME --seed S --seconds T "
        "--trace 0|1 [--out FILE] [--tiny] [--corrupt-cost]");
  }
  return a;
}

int run(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  Workload w;
  bool found = false;
  for (const Workload& cand : workloads()) {
    if (cand.name == args.workload) {
      w = cand;
      found = true;
    }
  }
  if (!found) throw std::invalid_argument("unknown workload " + args.workload);
  if (args.tiny) w.pops = w.resilient ? 8 : 10;

  const Cores cores = measure_cores();
  std::cerr << "effective cores " << cores.effective << " (cpus "
            << cores.cpus << ", cgroup quota " << cores.cgroup_quota
            << ", burn " << cores.burn << ")\n";
  if (cores.effective < static_cast<double>(w.threads)) {
    std::cerr << "WARNING: effective cores below the workload's "
              << w.threads << " threads\n";
  }

  const std::uint64_t base = args.seed * kSeedStride;
  Metrics metrics;
  Ledger ledger;
  E2eRecord rec;
  Tracer tracer;
  const int root = tracer.open("workload." + w.name, -1);
  if (args.trace) {
    run_traced(w, base, args.seconds, cores, metrics, ledger, tracer);
  } else {
    run_untraced(w, base, args.seconds, args.corrupt, metrics, ledger, rec);
  }
  tracer.close(root);

  for (const auto& [name, m] : metrics) {
    std::cerr << "  " << name << " = " << json_number(m.value) << " "
              << m.unit << "\n";
  }
  if (!args.trace) {
    std::cerr << "  synth_s per unit: " << rec.distribution
              << "\n  mean best cost: "
              << json_number(rec.mean_cost) << " cost units\n";
  }
  for (const std::string& f : ledger.failures) {
    std::cerr << "FAILED " << f << "\n";
  }
  if (!args.out.empty()) {
    write_record(args.out, w, args.seed, args.seconds, args.trace, cores,
                 metrics, ledger, rec, tracer);
  }
  std::cout << "{\"correct\": " << (ledger.failed == 0 ? "true" : "false")
            << ", \"attempted\": " << ledger.attempted
            << ", \"failed\": " << ledger.failed
            << ", \"metrics\": " << metrics_json(metrics) << "}" << std::endl;
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "cold_perfbench: " << e.what() << "\n";
    return 2;
  }
}
