// cold — command-line front end for the COLD topology synthesizer.
//
//   cold synth    [--pops N] [--k0 X --k2 X --k3 X] [--seed S]
//                 [--traffic-topk K] [--format dot|json|graphml] [--out FILE]
//                 [--report FILE] [--progress] [--max-seconds T]
//                 [--max-evals N] [--engine default|reference]
//                 [--multipath off|ecmp|wcmp] [--max-util-weight X]
//                 [--oversub-weight X]
//   cold ensemble [--count N] [--exemplars N]
//                 + synth options except --format and --out
//   cold metrics  --in FILE [--format text|json] [--out FILE]
//   cold estimate --in FILE [--draws N] [--epsilon E] [--seed S]
//                 [--format text|json] [--out FILE]
//   cold grow     --in FILE.json [--new-pops N] [--growth F] [--seed S]
//   cold report-diff <a.json> <b.json> [--format text|json] [--out FILE]
//
// Every subcommand accepts --report FILE (a JSON run report, see
// telemetry/report.h); the long-running ones also take --progress (live
// one-line updates on stderr) and --max-seconds / --max-evals budgets that
// stop the run early at a generation boundary, still producing a valid
// network and report. Unknown options are rejected with the valid set.
//
// Exit codes: 0 success, 1 usage error, 2 runtime failure. report-diff
// additionally exits 1 when the two reports diverge in any timing-free
// (logical) field — CI uses it as an exactness gate.
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "abc/abc.h"
#include "core/ensemble.h"
#include "core/synthesizer.h"
#include "graph/connectivity.h"
#include "graph/metrics.h"
#include "growth/growth.h"
#include "io/dot.h"
#include "io/edgelist.h"
#include "io/graphml.h"
#include "io/json.h"
#include "io/json_value.h"
#include "telemetry/report.h"
#include "telemetry/report_diff.h"
#include "telemetry/sinks.h"
#include "util/cli_options.h"

namespace {

using namespace cold;

// ---------------------------------------------------------------------------
// Option groups shared between subcommands.
// ---------------------------------------------------------------------------

const std::vector<OptionSpec> kCostOpts = {
    {"k0", true, "X (10)"},
    {"k1", true, "X (1)"},
    {"k2", true, "X (4e-4)"},
    {"k3", true, "X (10)"},
};

const std::vector<OptionSpec> kGaOpts = {
    {"population", true, "M (48)"},
    {"generations", true, "T (40)"},
    {"threads", true, "K (0 = all cores; output identical for any K)"},
};

// Evaluation-engine switches. Exact: every setting produces bit-identical
// networks; they trade memory for speed.
const std::vector<OptionSpec> kEngineOpts = {
    {"engine", true, "default|reference (default): reference is the plain "
                     "path (no cache, no delta engine) equivalence checks "
                     "use"},
};

const std::vector<OptionSpec> kOutputOpts = {
    {"format", true, "dot|json|graphml (json)"},
    {"out", true, "FILE (stdout)"},
};

const std::vector<OptionSpec> kReportOpt = {
    {"report", true, "FILE (JSON run report)"},
};

const std::vector<OptionSpec> kRunControlOpts = {
    {"progress", false, "live progress on stderr"},
    {"max-seconds", true, "T (0 = unlimited)"},
    {"max-evals", true, "N (0 = unlimited)"},
};

/// The options of one synthesis run; synth adds kOutputOpts, ensemble (which
/// prints a summary, not a network) does not.
std::vector<OptionSpec> run_specs() {
  return concat_specs({{{"pops", true, "N (30)"},
                        {"seed", true, "S (1)"},
                        {"overprovision", true, "O (1)"},
                        {"traffic-topk", true,
                         "K (0 = exact): keep each PoP's K largest demands, "
                         "symmetrized and renormalized"},
                        {"objective", true,
                         "cost|resilient (cost): resilient adds a weighted "
                         "survivability penalty from delta-powered failure "
                         "sweeps"},
                        {"resilience-weight", true,
                         "L (1): weight of the survivability penalty "
                         "(resilient objective; 0 reproduces plain costs)"},
                        {"failure-scenarios", true,
                         "single|double-sampled (single): every single-link "
                         "failure, plus deterministically sampled two-link "
                         "failures"},
                        {"multipath", true,
                         "off|ecmp|wcmp (off): split demands across all "
                         "equal-cost shortest paths (wcmp weights branches "
                         "by downstream degree)"},
                        {"max-util-weight", true,
                         "X (0): objective weight on max link utilization "
                         "(needs --multipath ecmp|wcmp)"},
                        {"oversub-weight", true,
                         "X (0): objective weight on summed link "
                         "oversubscription (needs --multipath ecmp|wcmp)"}},
                       kCostOpts,
                       kGaOpts,
                       kEngineOpts,
                       kReportOpt,
                       kRunControlOpts});
}

CliOptions spec_for(const std::string& command) {
  if (command == "synth") {
    return {"synth", concat_specs({run_specs(), kOutputOpts})};
  }
  if (command == "ensemble") {
    return {"ensemble",
            concat_specs({{{"count", true,
                            "N (20): up to 1024 runs every run is retained "
                            "(bootstrap CIs); above that the ensemble "
                            "streams"},
                           {"exemplars", true,
                            "N (0): keep a deterministic reservoir sample of "
                            "N runs (streams the ensemble)"}},
                          run_specs()})};
  }
  if (command == "metrics") {
    return {"metrics", concat_specs({{{"in", true, "FILE (edge list)"},
                                      {"format", true, "text|json (text)"},
                                      {"out", true, "FILE (stdout)"}},
                                     kReportOpt})};
  }
  if (command == "estimate") {
    return {"estimate", concat_specs({{{"in", true, "FILE (edge list)"},
                                       {"draws", true, "N (100)"},
                                       {"epsilon", true, "E (0.5)"},
                                       {"seed", true, "S (1)"},
                                       {"format", true, "text|json (text)"},
                                       {"out", true, "FILE (stdout)"}},
                                      kReportOpt})};
  }
  if (command == "grow") {
    return {"grow", concat_specs({{{"in", true, "FILE.json"},
                                   {"new-pops", true, "N (5)"},
                                   {"growth", true, "F (1.2)"},
                                   {"decommission", true, "D (1.0)"},
                                   {"seed", true, "S (1)"}},
                                  kCostOpts, kGaOpts, kEngineOpts, kOutputOpts,
                                  kReportOpt, kRunControlOpts})};
  }
  if (command == "report-diff") {
    return {"report-diff", {{"format", true, "text|json (text)"},
                            {"out", true, "FILE (stdout)"}}};
  }
  throw std::invalid_argument("unknown command: " + command);
}

/// Every command with its one-line summary, in usage order.
const std::vector<std::pair<std::string, std::string>> kCommands = {
    {"synth", "synthesize one network"},
    {"ensemble", "synthesize many networks, print metric CIs"},
    {"metrics", "print metrics of an edge-list file"},
    {"estimate", "ABC-estimate cost parameters from an edge-list file"},
    {"grow", "grow a network saved as JSON"},
    {"report-diff",
     "compare two JSON run reports: cold report-diff <a.json> <b.json>; "
     "exits 1 when any timing-free field diverges"},
};

/// Usage text, generated from each command's option specs.
void print_usage() {
  std::cerr << "usage: cold <command> [options]\n";
  for (const auto& [command, summary] : kCommands) {
    std::cerr << "  " << command << ": " << summary << "\n";
    const CliOptions options = spec_for(command);
    for (const OptionSpec& spec : options.specs()) {
      std::cerr << "      --" << spec.name << " " << spec.help << "\n";
    }
  }
}

// ---------------------------------------------------------------------------
// Telemetry wiring: sinks + stop condition owned for the command's lifetime.
// ---------------------------------------------------------------------------

class CliTelemetry {
 public:
  explicit CliTelemetry(const CliOptions& args) {
    if (args.has("progress")) {
      progress_.emplace(std::cerr);
      observer_.add(&*progress_);
      any_sink_ = true;
    }
    report_path_ = args.get("report", "");
    if (!report_path_.empty()) {
      observer_.add(&report_);
      any_sink_ = true;
    }
    stop_.max_seconds = args.num("max-seconds", 0.0);
    if (stop_.max_seconds < 0) {
      throw std::invalid_argument("--max-seconds must be >= 0 (0 = unlimited)");
    }
    stop_.max_evaluations = args.uint("max-evals", 0);
    want_stop_ = stop_.max_seconds > 0 || stop_.max_evaluations > 0;
  }

  RunObserver* observer() { return any_sink_ ? &observer_ : nullptr; }
  StopCondition* stop() { return want_stop_ ? &stop_ : nullptr; }
  RunReport& report() { return report_.report(); }

  /// Writes the report file if --report was given. Call after the run (the
  /// report is valid even when a stop budget fired mid-run).
  void finish() const {
    if (report_path_.empty()) return;
    std::ofstream file(report_path_);
    if (!file) {
      throw std::runtime_error("cannot open report file: " + report_path_);
    }
    file << run_report_to_json(report_.report(), /*include_timing=*/true);
    std::cerr << "wrote report " << report_path_ << "\n";
  }

 private:
  std::optional<ProgressSink> progress_;
  JsonReportSink report_;
  MultiObserver observer_;
  StopCondition stop_;
  std::string report_path_;
  bool any_sink_ = false;
  bool want_stop_ = false;
};

// ---------------------------------------------------------------------------
// Shared helpers.
// ---------------------------------------------------------------------------

/// Resolves --engine into one engine value.
EvalEngineConfig engine_from(const CliOptions& args) {
  const std::string name = args.get("engine", "default");
  if (name != "default" && name != "reference") {
    throw std::invalid_argument("unknown --engine: " + name +
                                " (expected default or reference)");
  }
  EvalEngineConfig engine;
  engine.cache.enabled = name == "default";
  engine.delta.on = name == "default";
  return engine;
}

/// Reads kCostOpts and kGaOpts, the options synth, ensemble and grow share.
/// --threads sets the GA's workers (0 = all available cores; any value
/// yields bit-identical output).
void read_cost_and_ga(const CliOptions& args, CostParams& costs,
                      GaConfig& ga) {
  costs.k0 = args.num("k0", 10.0);
  costs.k1 = args.num("k1", 1.0);
  costs.k2 = args.num("k2", 4e-4);
  costs.k3 = args.num("k3", 10.0);
  ga.population = args.uint("population", 48);
  ga.generations = args.uint("generations", 40);
  ga.parallel.num_threads = args.uint("threads", 0);
}

SynthesisConfig config_from(const CliOptions& args) {
  SynthesisConfig cfg;
  cfg.context.num_pops = args.uint("pops", 30);
  read_cost_and_ga(args, cfg.costs, cfg.ga);
  cfg.parallel = cfg.ga.parallel;  // --threads also sets ensemble fan-out
  cfg.overprovision = args.num("overprovision", 1.0);
  cfg.context.gravity.topk = args.uint("traffic-topk", 0);
  cfg.engine = engine_from(args);
  const std::string objective = args.get("objective", "cost");
  if (objective == "resilient") {
    cfg.engine.resilience.enabled = true;
    cfg.engine.resilience.weight = args.num("resilience-weight", 1.0);
    const std::string scenarios = args.get("failure-scenarios", "single");
    if (scenarios == "single") {
      cfg.engine.resilience.scenarios = FailureScenarioSet::kSingleLink;
    } else if (scenarios == "double-sampled") {
      cfg.engine.resilience.scenarios = FailureScenarioSet::kDoubleSampled;
    } else {
      throw std::invalid_argument(
          "unknown --failure-scenarios: " + scenarios +
          " (expected single or double-sampled)");
    }
  } else if (objective == "cost") {
    if (args.has("resilience-weight") || args.has("failure-scenarios")) {
      throw std::invalid_argument(
          "--resilience-weight/--failure-scenarios need --objective "
          "resilient");
    }
  } else {
    throw std::invalid_argument("unknown --objective: " + objective +
                                " (expected cost or resilient)");
  }
  const std::string multipath = args.get("multipath", "off");
  if (multipath == "ecmp") {
    cfg.engine.multipath.mode = MultipathMode::kEcmp;
  } else if (multipath == "wcmp") {
    cfg.engine.multipath.mode = MultipathMode::kWcmp;
  } else if (multipath == "off") {
    if (args.has("max-util-weight") || args.has("oversub-weight")) {
      throw std::invalid_argument(
          "--max-util-weight/--oversub-weight need --multipath ecmp|wcmp");
    }
  } else {
    throw std::invalid_argument("unknown --multipath: " + multipath +
                                " (expected off, ecmp or wcmp)");
  }
  if (cfg.engine.multipath.enabled()) {
    cfg.engine.multipath.max_util_weight = args.num("max-util-weight", 0.0);
    cfg.engine.multipath.oversub_weight = args.num("oversub-weight", 0.0);
  }
  return cfg;
}

/// Routes `body` to --out (if given) or stdout.
void emit(const std::string& body, const CliOptions& args) {
  if (args.has("out")) {
    const std::string path = args.get("out", "");
    std::ofstream file(path);
    if (!file) throw std::runtime_error("cannot open output file: " + path);
    file << body;
    std::cerr << "wrote " << path << "\n";
  } else {
    std::cout << body;
  }
}

void write_network_output(const Network& net, const CliOptions& args) {
  const std::string format = args.get("format", "json");
  std::ostringstream body;
  if (format == "json") {
    write_network_json(body, net);
  } else if (format == "dot") {
    write_dot(body, net);
  } else if (format == "graphml") {
    write_graphml(body, net);
  } else {
    throw std::invalid_argument("unknown --format: " + format +
                                " (expected dot, json or graphml)");
  }
  emit(body.str(), args);
}

// ---------------------------------------------------------------------------
// Subcommands.
// ---------------------------------------------------------------------------

int cmd_synth(const CliOptions& args) {
  CliTelemetry telemetry(args);
  SynthesisConfig cfg = config_from(args);
  cfg.observer = telemetry.observer();
  cfg.stop = telemetry.stop();
  const Synthesizer synth(cfg);
  const std::uint64_t seed = args.uint("seed", 1);
  const SynthesisResult r = synth.synthesize(seed);
  std::cerr << "cost " << r.cost.total() << " ("
            << synth.config().costs.to_string() << "), "
            << r.network.num_links() << " links";
  const std::uint64_t hits = r.counters[Counter::kCacheHits];
  const std::uint64_t lookups = hits + r.counters[Counter::kCacheMisses];
  if (lookups > 0) {
    std::cerr << ", cache " << hits << "/" << lookups << " hits";
    // Workers share one cache, so which of two racing lookups of the same
    // topology hits depends on scheduling; the network does not.
    if (synth.config().ga.parallel.resolved_threads() > 1) {
      std::cerr << " (scheduling-dependent)";
    }
  }
  if (r.ga.stopped_early) {
    std::cerr << " [stopped early: " << to_string(r.ga.stop_reason) << "]";
  }
  std::cerr << "\n";
  write_network_output(r.network, args);
  telemetry.finish();
  return 0;
}

int cmd_ensemble(const CliOptions& args) {
  CliTelemetry telemetry(args);
  SynthesisConfig cfg = config_from(args);
  cfg.observer = telemetry.observer();
  cfg.stop = telemetry.stop();
  const Synthesizer synth(cfg);
  EnsembleOptions opts;
  opts.count = args.uint("count", 20);
  opts.base_seed = args.uint("seed", 1);
  opts.reservoir = args.uint("exemplars", 0);
  // The reservoir only exists in streamed mode; otherwise runs are retained
  // up to kRetainAutoThreshold and streamed above it.
  if (opts.reservoir > 0) opts.retain = RetainMode::kStreamed;
  const EnsembleResult e = generate_ensemble(synth, opts);
  auto show = [](const char* name, const ConfidenceInterval& ci) {
    std::cout << name << ": " << ci.mean << "  [" << ci.lo << ", " << ci.hi
              << "]\n";
  };
  std::cout << "ensemble of " << e.num_runs() << " / " << opts.count
            << " networks ("
            << (e.acc.retains_runs() ? "95% bootstrap CIs"
                                     : "streamed; 95% normal CIs")
            << ")\n";
  if (e.stopped_early) {
    std::cout << "stopped early: " << to_string(e.stop_reason) << "\n";
  }
  show("avg degree   ", e.stats.avg_degree);
  show("diameter     ", e.stats.diameter);
  show("clustering   ", e.stats.clustering);
  show("CVND         ", e.stats.degree_cv);
  show("hub PoPs     ", e.stats.hubs);
  show("assortativity", e.stats.assortativity);
  std::cout << "all distinct: " << (e.all_distinct ? "yes" : "no")
            << (e.pairwise_checked ? "" : " (hash-based)") << "\n";
  const std::vector<EnsembleExemplar> exemplars = e.acc.exemplars();
  if (!exemplars.empty()) {
    std::cout << "exemplars (" << exemplars.size() << " of " << e.num_runs()
              << "):";
    for (const EnsembleExemplar& x : exemplars) {
      std::cout << " seed=" << x.seed << " cost=" << x.best_cost;
    }
    std::cout << "\n";
  }
  telemetry.finish();
  return 0;
}

JsonValue metrics_json(const TopologyMetrics& m, const ResilienceReport& r) {
  JsonObject o;
  o["nodes"] = m.nodes;
  o["links"] = m.edges;
  o["connected"] = m.connected;
  o["avg_degree"] = m.avg_degree;
  o["degree_cv"] = m.degree_cv;
  o["diameter"] = m.diameter;
  o["avg_path_length"] = m.avg_path_length;
  o["global_clustering"] = m.global_clustering;
  o["assortativity"] = m.assortativity;
  o["hubs"] = m.hubs;
  o["leaves"] = m.leaves;
  o["bridges"] = r.bridges;
  o["articulation_points"] = r.articulation_points;
  o["edge_connectivity"] = r.edge_connectivity;
  return JsonValue(std::move(o));
}

std::string metrics_text(const TopologyMetrics& m, const ResilienceReport& r) {
  std::ostringstream os;
  os << "nodes:              " << m.nodes << "\n"
     << "links:              " << m.edges << "\n"
     << "connected:          " << (m.connected ? "yes" : "no") << "\n"
     << "avg degree:         " << m.avg_degree << "\n"
     << "degree CV (CVND):   " << m.degree_cv << "\n"
     << "diameter (hops):    " << m.diameter << "\n"
     << "avg path length:    " << m.avg_path_length << "\n"
     << "global clustering:  " << m.global_clustering << "\n"
     << "assortativity:      " << m.assortativity << "\n"
     << "core PoPs:          " << m.hubs << "\n"
     << "leaf PoPs:          " << m.leaves << "\n"
     << "bridges:            " << r.bridges << "\n"
     << "articulation PoPs:  " << r.articulation_points << "\n"
     << "edge connectivity:  " << r.edge_connectivity << "\n";
  return os.str();
}

/// Minimal hand-built report for the analysis commands (no observed run,
/// but --report still yields a valid, schema-conforming artifact).
void write_analysis_report(const CliOptions& args, std::uint64_t seed,
                           std::size_t num_pops, double best_cost,
                           std::size_t evaluations) {
  if (!args.has("report")) return;
  RunReport report;
  report.run.seed = seed;
  report.run.num_pops = num_pops;
  report.summary.best_cost = best_cost;
  report.summary.evaluations = evaluations;
  const std::string path = args.get("report", "");
  std::ofstream file(path);
  if (!file) throw std::runtime_error("cannot open report file: " + path);
  file << run_report_to_json(report, /*include_timing=*/false);
  std::cerr << "wrote report " << path << "\n";
}

int cmd_metrics(const CliOptions& args) {
  if (!args.has("in")) throw std::invalid_argument("metrics needs --in FILE");
  std::ifstream file(args.get("in", ""));
  if (!file) throw std::runtime_error("cannot open input file");
  const EdgeListData data = read_edge_list(file);
  const TopologyMetrics m = compute_metrics(data.topology);
  const ResilienceReport r = analyze_resilience(data.topology);

  const std::string format = args.get("format", "text");
  if (format == "json") {
    emit(json_to_string(metrics_json(m, r)) + "\n", args);
  } else if (format == "text") {
    emit(metrics_text(m, r), args);
  } else {
    throw std::invalid_argument("unknown --format: " + format +
                                " (expected text or json)");
  }
  write_analysis_report(args, /*seed=*/0, m.nodes, /*best_cost=*/0.0,
                        /*evaluations=*/0);
  return 0;
}

int cmd_estimate(const CliOptions& args) {
  if (!args.has("in")) throw std::invalid_argument("estimate needs --in FILE");
  std::ifstream file(args.get("in", ""));
  if (!file) throw std::runtime_error("cannot open input file");
  const EdgeListData data = read_edge_list(file);

  AbcConfig cfg;
  cfg.num_draws = args.uint("draws", 100);
  cfg.epsilon = args.num("epsilon", 0.5);
  cfg.ga.population = 20;
  cfg.ga.generations = 15;
  const std::uint64_t seed = args.uint("seed", 1);
  const AbcResult r = abc_estimate(data.topology, cfg, seed);

  const std::string format = args.get("format", "text");
  if (format == "json") {
    JsonObject o;
    o["draws"] = r.draws.size();
    o["accepted"] = r.accepted.size();
    o["acceptance_rate"] = r.acceptance_rate;
    if (!r.accepted.empty()) {
      JsonObject mean;
      mean["k0"] = r.posterior_mean.k0;
      mean["k1"] = r.posterior_mean.k1;
      mean["k2"] = r.posterior_mean.k2;
      mean["k3"] = r.posterior_mean.k3;
      o["posterior_mean"] = JsonValue(std::move(mean));
    }
    emit(json_to_string(JsonValue(std::move(o))) + "\n", args);
  } else if (format == "text") {
    std::ostringstream os;
    os << "draws: " << r.draws.size() << ", accepted: " << r.accepted.size()
       << " (" << 100.0 * r.acceptance_rate << "%)\n";
    if (!r.accepted.empty()) {
      os << "posterior mean: " << r.posterior_mean.to_string() << "\n";
    } else {
      os << "no accepted draws; widen --epsilon or --draws\n";
    }
    emit(os.str(), args);
  } else {
    throw std::invalid_argument("unknown --format: " + format +
                                " (expected text or json)");
  }
  write_analysis_report(args, seed, data.topology.num_nodes(),
                        /*best_cost=*/0.0, /*evaluations=*/r.draws.size());
  return 0;
}

int cmd_report_diff(int argc, const char* const* argv) {
  // Two positional report paths come right after the subcommand; the strict
  // option parser handles the rest.
  if (argc < 4 || std::string(argv[2]).rfind("--", 0) == 0 ||
      std::string(argv[3]).rfind("--", 0) == 0) {
    throw std::invalid_argument(
        "report-diff needs two report paths: "
        "cold report-diff <a.json> <b.json> [--format text|json] "
        "[--out FILE]");
  }
  CliOptions args = spec_for("report-diff");
  args.parse(argc, argv, 4);

  const auto load = [](const std::string& path) {
    std::ifstream file(path);
    if (!file) throw std::runtime_error("cannot open report file: " + path);
    std::ostringstream buf;
    buf << file.rdbuf();
    return run_report_from_json(buf.str());
  };
  const ReportDiff diff = diff_run_reports(load(argv[2]), load(argv[3]));

  const std::string format = args.get("format", "text");
  std::ostringstream body;
  if (format == "json") {
    write_report_diff_json(body, diff);
  } else if (format == "text") {
    write_report_diff_text(body, diff);
  } else {
    throw std::invalid_argument("unknown --format: " + format +
                                " (expected text or json)");
  }
  emit(body.str(), args);
  return diff.logically_equal() ? 0 : 1;
}

int cmd_grow(const CliOptions& args) {
  if (!args.has("in")) throw std::invalid_argument("grow needs --in FILE.json");
  std::ifstream file(args.get("in", ""));
  if (!file) throw std::runtime_error("cannot open input file");
  GrowthConfig cfg;
  cfg.engine = engine_from(args);
  const Network base = read_network_json(file);

  CliTelemetry telemetry(args);
  cfg.new_pops = args.uint("new-pops", 5);
  cfg.population_growth = args.num("growth", 1.2);
  cfg.decommission_factor = args.num("decommission", 1.0);
  read_cost_and_ga(args, cfg.costs, cfg.ga);
  cfg.observer = telemetry.observer();
  cfg.stop = telemetry.stop();
  const std::uint64_t seed = args.uint("seed", 1);
  const GrowthResult r = grow_network(base, cfg, seed);
  std::cerr << "grew " << base.num_pops() << " -> " << r.network.num_pops()
            << " PoPs; kept " << r.links_kept << ", removed "
            << r.links_removed << ", added " << r.links_added << " links\n";
  write_network_output(r.network, args);
  telemetry.finish();
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    print_usage();
    return 1;
  }
  const std::string command = argv[1];
  try {
    if (command == "report-diff") return cmd_report_diff(argc, argv);
    CliOptions args = spec_for(command);
    args.parse(argc, argv, 2);
    if (command == "synth") return cmd_synth(args);
    if (command == "ensemble") return cmd_ensemble(args);
    if (command == "metrics") return cmd_metrics(args);
    if (command == "estimate") return cmd_estimate(args);
    return cmd_grow(args);
  } catch (const std::invalid_argument& e) {
    std::cerr << "error: " << e.what() << "\n";
    print_usage();
    return 1;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  }
}
