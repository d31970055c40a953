#include "telemetry/report.h"

#include <initializer_list>
#include <sstream>
#include <stdexcept>

#include "io/json_value.h"

namespace cold {

namespace {

/// Inverts to_string over `values`, so the names live only in to_string.
template <typename Enum>
Enum from_string(const JsonValue& field, std::initializer_list<Enum> values) {
  for (const Enum e : values) {
    if (to_string(e) == field.str()) return e;
  }
  throw std::runtime_error("run report: unknown value '" + field.str() + "'");
}

void put_wall(JsonObject& obj, std::uint64_t wall_ns, bool include_timing) {
  if (include_timing) obj["wall_ns"] = wall_ns;
}

std::uint64_t get_wall(const JsonValue& obj) {
  return obj.has("wall_ns") ? obj.field("wall_ns").uint() : 0;
}

JsonValue counters_to_json(const EngineCounters& counters) {
  JsonObject obj;
  for (std::size_t i = 0; i < kNumCounters; ++i) {
    obj[std::string(kCounterNames[i])] = counters.values[i];
  }
  return JsonValue{std::move(obj)};
}

/// Absent counters read as 0 (a counter added later needs no version
/// bump); an unknown name is an error, so a typo cannot vanish silently.
EngineCounters counters_from_json(const JsonValue& obj) {
  EngineCounters counters;
  for (const auto& [name, value] : obj.object()) {
    const std::optional<Counter> counter = counter_from_name(name);
    if (!counter) {
      throw std::runtime_error("run report: unknown counter '" + name + "'");
    }
    counters[*counter] = value.uint();
  }
  return counters;
}

JsonValue aggregate_to_json(const MetricAggregate& agg) {
  JsonObject obj;
  obj["count"] = agg.count;
  obj["mean"] = agg.mean;
  obj["m2"] = agg.m2;
  obj["min"] = agg.min;
  obj["max"] = agg.max;
  return JsonValue{std::move(obj)};
}

MetricAggregate aggregate_from_json(const JsonValue& obj) {
  MetricAggregate agg;
  agg.count = obj.field("count").uint();
  agg.mean = obj.field("mean").number();
  agg.m2 = obj.field("m2").number();
  agg.min = obj.field("min").number();
  agg.max = obj.field("max").number();
  return agg;
}

}  // namespace

JsonValue run_report_json(const RunReport& report, bool include_timing) {
  JsonObject root;
  root["schema"] = "cold-run-report";
  // The only version run_report_from_json accepts; see report.h.
  root["version"] = kRunReportVersion;

  const RunSummary& summary = report.summary;
  JsonObject run;
  run["seed"] = report.run.seed;
  run["num_pops"] = report.run.num_pops;
  run["traffic_topk"] = report.run.traffic_topk;
  run["traffic_kept_mass"] = summary.traffic_kept_mass;
  root["run"] = std::move(run);

  JsonObject result;
  result["best_cost"] = summary.best_cost;
  result["evaluations"] = summary.evaluations;
  result["stopped_early"] = summary.stopped_early;
  result["stop_reason"] = to_string(summary.stop_reason);
  if (include_timing) {
    result["counters"] = counters_to_json(summary.counters);
    if (summary.resilience) {
      const ResilienceTelemetry& r = *summary.resilience;
      JsonObject res;
      res["weight"] = r.weight;
      res["scenarios"] = r.scenarios;
      res["disconnecting"] = r.disconnecting;
      res["disconnected_fraction"] = r.disconnected_fraction;
      res["mean_stretch"] = r.mean_stretch;
      res["worst_stretch"] = r.worst_stretch;
      res["worst_utilization"] = r.worst_utilization;
      res["penalty"] = r.penalty;
      result["resilience"] = std::move(res);
    }
    if (summary.multipath) {
      const MultipathTelemetry& m = *summary.multipath;
      JsonObject mp;
      mp["mode"] = m.mode;
      mp["max_util_weight"] = m.max_util_weight;
      mp["oversub_weight"] = m.oversub_weight;
      mp["reference_capacity"] = m.reference_capacity;
      mp["max_utilization"] = m.max_utilization;
      mp["oversubscription"] = m.oversubscription;
      result["multipath"] = std::move(mp);
    }
  }
  put_wall(result, summary.wall_ns, include_timing);
  root["result"] = std::move(result);

  JsonArray phases;
  for (const PhaseStats& p : report.phases) {
    JsonObject obj;
    obj["name"] = to_string(p.phase);
    obj["evaluations"] = p.evaluations;
    if (include_timing) obj["counters"] = counters_to_json(p.counters);
    put_wall(obj, p.wall_ns, include_timing);
    phases.push_back(std::move(obj));
  }
  root["phases"] = std::move(phases);

  JsonArray heuristics;
  for (const HeuristicDone& h : report.heuristics) {
    JsonObject obj;
    obj["name"] = h.name;
    obj["cost"] = h.cost;
    put_wall(obj, h.wall_ns, include_timing);
    heuristics.push_back(std::move(obj));
  }
  root["heuristics"] = std::move(heuristics);

  JsonArray generations;
  for (const GenerationEnd& g : report.generations) {
    JsonObject obj;
    obj["gen"] = g.gen;
    obj["best_cost"] = g.best_cost;
    obj["mean_cost"] = g.mean_cost;
    obj["repairs"] = g.repairs;
    obj["links_repaired"] = g.links_repaired;
    obj["evaluations"] = g.evaluations;
    put_wall(obj, g.wall_ns, include_timing);
    generations.push_back(std::move(obj));
  }
  root["generations"] = std::move(generations);

  JsonArray ensemble_runs;
  for (const EnsembleRunDone& r : report.ensemble_runs) {
    JsonObject obj;
    obj["index"] = r.index;
    obj["seed"] = r.seed;
    obj["best_cost"] = r.best_cost;
    put_wall(obj, r.wall_ns, include_timing);
    ensemble_runs.push_back(std::move(obj));
  }
  root["ensemble_runs"] = std::move(ensemble_runs);

  // Logical content, not performance data: the aggregates depend only on
  // the folded runs, so timing-free reports keep them (a streamed ensemble
  // retains them *instead of* per-run results).
  if (report.ensemble_aggregates) {
    const EnsembleAggregates& a = *report.ensemble_aggregates;
    JsonObject agg;
    agg["runs"] = a.runs;
    agg["streamed"] = a.streamed;
    agg["avg_degree"] = aggregate_to_json(a.avg_degree);
    agg["diameter"] = aggregate_to_json(a.diameter);
    agg["clustering"] = aggregate_to_json(a.clustering);
    agg["degree_cv"] = aggregate_to_json(a.degree_cv);
    agg["hubs"] = aggregate_to_json(a.hubs);
    agg["assortativity"] = aggregate_to_json(a.assortativity);
    agg["best_cost"] = aggregate_to_json(a.best_cost);
    root["ensemble_aggregates"] = std::move(agg);
  }

  // Logical content too: the reservoir's replacement choices depend only on
  // (base_seed, fold order), never on timing or thread count.
  if (report.ensemble_exemplars) {
    const EnsembleExemplars& ex = *report.ensemble_exemplars;
    JsonObject block;
    block["reservoir"] = ex.reservoir;
    JsonArray exemplars;
    for (const EnsembleExemplar& e : ex.exemplars) {
      JsonObject obj;
      obj["index"] = e.index;
      obj["seed"] = e.seed;
      obj["best_cost"] = e.best_cost;
      obj["num_pops"] = e.num_pops;
      obj["num_links"] = e.num_links;
      exemplars.push_back(std::move(obj));
    }
    block["exemplars"] = std::move(exemplars);
    root["ensemble_exemplars"] = std::move(block);
  }
  return JsonValue{std::move(root)};
}

std::string run_report_to_json(const RunReport& report, bool include_timing) {
  std::ostringstream os;
  write_json(os, run_report_json(report, include_timing));
  os << "\n";
  return os.str();
}

RunReport run_report_from_json(const std::string& json) {
  const JsonValue doc = parse_json(json);
  if (doc.field("schema").str() != "cold-run-report") {
    throw std::runtime_error("run report: unexpected schema '" +
                             doc.field("schema").str() + "'");
  }
  if (!doc.has("version") ||
      doc.field("version").number() != kRunReportVersion) {
    throw std::runtime_error(
        "run report: unsupported version (this build reads only version " +
        std::to_string(kRunReportVersion) + ")");
  }

  RunReport report;
  RunSummary& summary = report.summary;
  const JsonValue& run = doc.field("run");
  report.run.seed = run.field("seed").uint();
  report.run.num_pops = run.field("num_pops").uint();
  report.run.traffic_topk = run.field("traffic_topk").uint();
  summary.traffic_kept_mass = run.field("traffic_kept_mass").number();

  const JsonValue& result = doc.field("result");
  summary.best_cost = result.field("best_cost").number();
  summary.evaluations = result.field("evaluations").uint();
  summary.stopped_early = result.field("stopped_early").boolean();
  summary.stop_reason = from_string(
      result.field("stop_reason"),
      {StopReason::kNone, StopReason::kRequested, StopReason::kDeadline,
       StopReason::kEvalBudget});
  // Engine counters are performance data: absent when the report was
  // written timing-free.
  if (result.has("counters")) {
    summary.counters = counters_from_json(result.field("counters"));
  }
  if (result.has("resilience")) {  // resilient-objective timed reports
    const JsonValue& res = result.field("resilience");
    ResilienceTelemetry& r = summary.resilience.emplace();
    r.weight = res.field("weight").number();
    r.scenarios = res.field("scenarios").uint();
    r.disconnecting = res.field("disconnecting").uint();
    r.disconnected_fraction = res.field("disconnected_fraction").number();
    r.mean_stretch = res.field("mean_stretch").number();
    r.worst_stretch = res.field("worst_stretch").number();
    r.worst_utilization = res.field("worst_utilization").number();
    r.penalty = res.field("penalty").number();
  }
  if (result.has("multipath")) {  // ECMP/WCMP timed reports
    const JsonValue& mp = result.field("multipath");
    MultipathTelemetry& m = summary.multipath.emplace();
    m.mode = mp.field("mode").str();
    m.max_util_weight = mp.field("max_util_weight").number();
    m.oversub_weight = mp.field("oversub_weight").number();
    m.reference_capacity = mp.field("reference_capacity").number();
    m.max_utilization = mp.field("max_utilization").number();
    m.oversubscription = mp.field("oversubscription").number();
  }
  summary.wall_ns = get_wall(result);

  for (const JsonValue& p : doc.field("phases").array()) {
    PhaseStats stats;
    stats.phase = from_string(p.field("name"),
                              {Phase::kContext, Phase::kHeuristics, Phase::kGa,
                               Phase::kAssembly, Phase::kEnsemble});
    stats.evaluations = p.field("evaluations").uint();
    if (p.has("counters")) {
      stats.counters = counters_from_json(p.field("counters"));
    }
    stats.wall_ns = get_wall(p);
    report.phases.push_back(stats);
  }

  for (const JsonValue& h : doc.field("heuristics").array()) {
    HeuristicDone done;
    done.name = h.field("name").str();
    done.cost = h.field("cost").number();
    done.wall_ns = get_wall(h);
    report.heuristics.push_back(done);
  }

  for (const JsonValue& g : doc.field("generations").array()) {
    GenerationEnd gen;
    gen.gen = g.field("gen").uint();
    gen.best_cost = g.field("best_cost").number();
    gen.mean_cost = g.field("mean_cost").number();
    gen.repairs = g.field("repairs").uint();
    gen.links_repaired = g.field("links_repaired").uint();
    gen.evaluations = g.field("evaluations").uint();
    gen.wall_ns = get_wall(g);
    report.generations.push_back(gen);
  }

  for (const JsonValue& r : doc.field("ensemble_runs").array()) {
    EnsembleRunDone run_done;
    run_done.index = r.field("index").uint();
    run_done.seed = r.field("seed").uint();
    run_done.best_cost = r.field("best_cost").number();
    run_done.wall_ns = get_wall(r);
    report.ensemble_runs.push_back(run_done);
  }

  if (doc.has("ensemble_aggregates")) {  // ensemble reports only
    const JsonValue& agg = doc.field("ensemble_aggregates");
    EnsembleAggregates a;
    a.runs = agg.field("runs").uint();
    a.streamed = agg.field("streamed").boolean();
    a.avg_degree = aggregate_from_json(agg.field("avg_degree"));
    a.diameter = aggregate_from_json(agg.field("diameter"));
    a.clustering = aggregate_from_json(agg.field("clustering"));
    a.degree_cv = aggregate_from_json(agg.field("degree_cv"));
    a.hubs = aggregate_from_json(agg.field("hubs"));
    a.assortativity = aggregate_from_json(agg.field("assortativity"));
    a.best_cost = aggregate_from_json(agg.field("best_cost"));
    report.ensemble_aggregates = a;
  }

  if (doc.has("ensemble_exemplars")) {  // streamed ensembles with a reservoir
    const JsonValue& block = doc.field("ensemble_exemplars");
    EnsembleExemplars ex;
    ex.reservoir = block.field("reservoir").uint();
    for (const JsonValue& e : block.field("exemplars").array()) {
      EnsembleExemplar exemplar;
      exemplar.index = e.field("index").uint();
      exemplar.seed = e.field("seed").uint();
      exemplar.best_cost = e.field("best_cost").number();
      exemplar.num_pops = e.field("num_pops").uint();
      exemplar.num_links = e.field("num_links").uint();
      ex.exemplars.push_back(exemplar);
    }
    report.ensemble_exemplars = std::move(ex);
  }
  return report;
}

void JsonReportSink::on_run_start(const RunStart& e) {
  report_ = RunReport{};
  report_.run = e;
}

void JsonReportSink::on_phase_end(const PhaseStats& e) {
  report_.phases.push_back(e);
}

void JsonReportSink::on_heuristic_done(const HeuristicDone& e) {
  report_.heuristics.push_back(e);
}

void JsonReportSink::on_generation_end(const GenerationEnd& e) {
  report_.generations.push_back(e);
}

void JsonReportSink::on_ensemble_run_done(const EnsembleRunDone& e) {
  report_.ensemble_runs.push_back(e);
}

void JsonReportSink::on_ensemble_aggregates(const EnsembleAggregates& e) {
  report_.ensemble_aggregates = e;
}

void JsonReportSink::on_ensemble_exemplars(const EnsembleExemplars& e) {
  report_.ensemble_exemplars = e;
}

void JsonReportSink::on_run_end(const RunSummary& e) { report_.summary = e; }

}  // namespace cold
