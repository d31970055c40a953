#include "telemetry/report.h"

#include <ostream>
#include <sstream>
#include <stdexcept>

#include "io/json_value.h"

namespace cold {

namespace {

StopReason stop_reason_from_string(const std::string& s) {
  if (s == "none") return StopReason::kNone;
  if (s == "requested") return StopReason::kRequested;
  if (s == "deadline") return StopReason::kDeadline;
  if (s == "eval_budget") return StopReason::kEvalBudget;
  throw std::runtime_error("run report: unknown stop_reason '" + s + "'");
}

Phase phase_from_string(const std::string& s) {
  if (s == "context") return Phase::kContext;
  if (s == "heuristics") return Phase::kHeuristics;
  if (s == "ga") return Phase::kGa;
  if (s == "assembly") return Phase::kAssembly;
  if (s == "ensemble") return Phase::kEnsemble;
  throw std::runtime_error("run report: unknown phase '" + s + "'");
}

void put_wall(JsonObject& obj, std::uint64_t wall_ns, bool include_timing) {
  if (include_timing) obj["wall_ns"] = static_cast<double>(wall_ns);
}

std::uint64_t get_wall(const JsonValue& obj) {
  return obj.has("wall_ns")
             ? static_cast<std::uint64_t>(obj.field("wall_ns").number())
             : 0;
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
  agg.count = static_cast<std::size_t>(obj.field("count").number());
  agg.mean = obj.field("mean").number();
  agg.m2 = obj.field("m2").number();
  agg.min = obj.field("min").number();
  agg.max = obj.field("max").number();
  return agg;
}

}  // namespace

void write_run_report_json(std::ostream& os, const RunReport& report,
                           bool include_timing) {
  JsonObject root;
  root["schema"] = "cold-run-report";
  // The only version run_report_from_json accepts; see report.h.
  root["version"] = kRunReportVersion;

  JsonObject run;
  run["seed"] = static_cast<double>(report.seed);
  run["num_pops"] = report.num_pops;
  run["traffic_topk"] = report.traffic_topk;
  run["traffic_kept_mass"] = report.traffic_kept_mass;
  root["run"] = std::move(run);

  JsonObject result;
  result["best_cost"] = report.best_cost;
  result["evaluations"] = report.evaluations;
  result["stopped_early"] = report.stopped_early;
  result["stop_reason"] = to_string(report.stop_reason);
  if (include_timing) {
    JsonObject cache;
    cache["hits"] = static_cast<double>(report.cache_hits);
    cache["misses"] = static_cast<double>(report.cache_misses);
    cache["inserts"] = static_cast<double>(report.cache_inserts);
    cache["evictions"] = static_cast<double>(report.cache_evictions);
    result["cache"] = std::move(cache);
    result["dedup_skipped"] = report.dedup_skipped;
    JsonObject dsssp;
    dsssp["hits"] = static_cast<double>(report.dsssp_hits);
    dsssp["fallbacks"] = static_cast<double>(report.dsssp_fallbacks);
    dsssp["vertices_resettled"] =
        static_cast<double>(report.vertices_resettled);
    result["dsssp"] = std::move(dsssp);
    if (report.has_resilience) {
      const ResilienceTelemetry& r = report.resilience;
      JsonObject res;
      res["weight"] = r.weight;
      res["scenarios"] = r.scenarios;
      res["disconnecting"] = r.disconnecting;
      res["disconnected_fraction"] = r.disconnected_fraction;
      res["mean_stretch"] = r.mean_stretch;
      res["worst_stretch"] = r.worst_stretch;
      res["worst_utilization"] = r.worst_utilization;
      res["penalty"] = r.penalty;
      res["sweeps"] = static_cast<double>(r.sweeps);
      res["delta_repairs"] = static_cast<double>(r.delta_repairs);
      res["fresh_trees"] = static_cast<double>(r.fresh_trees);
      res["vertices_resettled"] =
          static_cast<double>(r.vertices_resettled);
      result["resilience"] = std::move(res);
    }
    if (report.has_multipath) {
      const MultipathTelemetry& m = report.multipath;
      JsonObject mp;
      mp["mode"] = m.mode;
      mp["max_util_weight"] = m.max_util_weight;
      mp["oversub_weight"] = m.oversub_weight;
      mp["reference_capacity"] = m.reference_capacity;
      mp["max_utilization"] = m.max_utilization;
      mp["oversubscription"] = m.oversubscription;
      mp["sweeps"] = static_cast<double>(m.sweeps);
      mp["branch_points"] = static_cast<double>(m.branch_points);
      mp["dag_edges"] = static_cast<double>(m.dag_edges);
      result["multipath"] = std::move(mp);
    }
  }
  put_wall(result, report.wall_ns, include_timing);
  root["result"] = std::move(result);

  JsonArray phases;
  for (const PhaseStats& p : report.phases) {
    JsonObject obj;
    obj["name"] = to_string(p.phase);
    obj["evaluations"] = p.evaluations;
    if (include_timing) {
      obj["cache_hits"] = static_cast<double>(p.cache_hits);
      obj["cache_misses"] = static_cast<double>(p.cache_misses);
      obj["cache_inserts"] = static_cast<double>(p.cache_inserts);
      obj["cache_evictions"] = static_cast<double>(p.cache_evictions);
      obj["dedup_skipped"] = p.dedup_skipped;
      obj["dsssp_hits"] = static_cast<double>(p.dsssp_hits);
      obj["dsssp_fallbacks"] = static_cast<double>(p.dsssp_fallbacks);
      obj["vertices_resettled"] =
          static_cast<double>(p.vertices_resettled);
    }
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
    if (include_timing) obj["dedup_skipped"] = g.dedup_skipped;
    put_wall(obj, g.wall_ns, include_timing);
    generations.push_back(std::move(obj));
  }
  root["generations"] = std::move(generations);

  JsonArray ensemble_runs;
  for (const EnsembleRunDone& r : report.ensemble_runs) {
    JsonObject obj;
    obj["index"] = r.index;
    obj["seed"] = static_cast<double>(r.seed);
    obj["best_cost"] = r.best_cost;
    put_wall(obj, r.wall_ns, include_timing);
    ensemble_runs.push_back(std::move(obj));
  }
  root["ensemble_runs"] = std::move(ensemble_runs);

  // Logical content, not performance data: the aggregates depend only on
  // the folded runs, so timing-free reports keep them (a streamed ensemble
  // retains them *instead of* per-run results).
  if (report.has_ensemble_aggregates) {
    const EnsembleAggregates& a = report.ensemble_aggregates;
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
  if (report.has_ensemble_exemplars) {
    const EnsembleExemplars& ex = report.ensemble_exemplars;
    JsonObject block;
    block["reservoir"] = ex.reservoir;
    JsonArray exemplars;
    for (const EnsembleExemplar& e : ex.exemplars) {
      JsonObject obj;
      obj["index"] = e.index;
      obj["seed"] = static_cast<double>(e.seed);
      obj["best_cost"] = e.best_cost;
      obj["num_pops"] = e.num_pops;
      obj["num_links"] = e.num_links;
      exemplars.push_back(std::move(obj));
    }
    block["exemplars"] = std::move(exemplars);
    root["ensemble_exemplars"] = std::move(block);
  }

  write_json(os, JsonValue{std::move(root)});
  os << "\n";
}

std::string run_report_to_json(const RunReport& report, bool include_timing) {
  std::ostringstream os;
  write_run_report_json(os, report, include_timing);
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
  const JsonValue& run = doc.field("run");
  report.seed = static_cast<std::uint64_t>(run.field("seed").number());
  report.num_pops = static_cast<std::size_t>(run.field("num_pops").number());
  report.traffic_topk =
      static_cast<std::size_t>(run.field("traffic_topk").number());
  report.traffic_kept_mass = run.field("traffic_kept_mass").number();

  const JsonValue& result = doc.field("result");
  report.best_cost = result.field("best_cost").number();
  report.evaluations =
      static_cast<std::size_t>(result.field("evaluations").number());
  report.stopped_early = result.field("stopped_early").boolean();
  report.stop_reason = stop_reason_from_string(result.field("stop_reason").str());
  // Engine counters are performance data: absent when the report was
  // written timing-free.
  if (result.has("cache")) {
    const JsonValue& cache = result.field("cache");
    report.cache_hits =
        static_cast<std::uint64_t>(cache.field("hits").number());
    report.cache_misses =
        static_cast<std::uint64_t>(cache.field("misses").number());
    report.cache_inserts =
        static_cast<std::uint64_t>(cache.field("inserts").number());
    report.cache_evictions =
        static_cast<std::uint64_t>(cache.field("evictions").number());
  }
  if (result.has("dedup_skipped")) {
    report.dedup_skipped =
        static_cast<std::size_t>(result.field("dedup_skipped").number());
  }
  if (result.has("dsssp")) {
    const JsonValue& dsssp = result.field("dsssp");
    report.dsssp_hits =
        static_cast<std::uint64_t>(dsssp.field("hits").number());
    report.dsssp_fallbacks =
        static_cast<std::uint64_t>(dsssp.field("fallbacks").number());
    report.vertices_resettled = static_cast<std::uint64_t>(
        dsssp.field("vertices_resettled").number());
  }
  if (result.has("resilience")) {  // resilient-objective timed reports
    const JsonValue& res = result.field("resilience");
    ResilienceTelemetry r;
    r.weight = res.field("weight").number();
    r.scenarios = static_cast<std::size_t>(res.field("scenarios").number());
    r.disconnecting =
        static_cast<std::size_t>(res.field("disconnecting").number());
    r.disconnected_fraction = res.field("disconnected_fraction").number();
    r.mean_stretch = res.field("mean_stretch").number();
    r.worst_stretch = res.field("worst_stretch").number();
    r.worst_utilization = res.field("worst_utilization").number();
    r.penalty = res.field("penalty").number();
    r.sweeps = static_cast<std::uint64_t>(res.field("sweeps").number());
    r.delta_repairs =
        static_cast<std::uint64_t>(res.field("delta_repairs").number());
    r.fresh_trees =
        static_cast<std::uint64_t>(res.field("fresh_trees").number());
    r.vertices_resettled = static_cast<std::uint64_t>(
        res.field("vertices_resettled").number());
    report.resilience = r;
    report.has_resilience = true;
  }
  if (result.has("multipath")) {  // ECMP/WCMP timed reports
    const JsonValue& mp = result.field("multipath");
    MultipathTelemetry m;
    m.mode = mp.field("mode").str();
    m.max_util_weight = mp.field("max_util_weight").number();
    m.oversub_weight = mp.field("oversub_weight").number();
    m.reference_capacity = mp.field("reference_capacity").number();
    m.max_utilization = mp.field("max_utilization").number();
    m.oversubscription = mp.field("oversubscription").number();
    m.sweeps = static_cast<std::uint64_t>(mp.field("sweeps").number());
    m.branch_points =
        static_cast<std::uint64_t>(mp.field("branch_points").number());
    m.dag_edges = static_cast<std::uint64_t>(mp.field("dag_edges").number());
    report.multipath = std::move(m);
    report.has_multipath = true;
  }
  report.wall_ns = get_wall(result);

  for (const JsonValue& p : doc.field("phases").array()) {
    PhaseStats stats;
    stats.phase = phase_from_string(p.field("name").str());
    stats.evaluations =
        static_cast<std::size_t>(p.field("evaluations").number());
    if (p.has("cache_hits")) {  // the timed engine counters travel together
      stats.cache_hits =
          static_cast<std::uint64_t>(p.field("cache_hits").number());
      stats.cache_misses =
          static_cast<std::uint64_t>(p.field("cache_misses").number());
      stats.cache_inserts =
          static_cast<std::uint64_t>(p.field("cache_inserts").number());
      stats.cache_evictions =
          static_cast<std::uint64_t>(p.field("cache_evictions").number());
      stats.dedup_skipped =
          static_cast<std::size_t>(p.field("dedup_skipped").number());
      stats.dsssp_hits =
          static_cast<std::uint64_t>(p.field("dsssp_hits").number());
      stats.dsssp_fallbacks =
          static_cast<std::uint64_t>(p.field("dsssp_fallbacks").number());
      stats.vertices_resettled = static_cast<std::uint64_t>(
          p.field("vertices_resettled").number());
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
    gen.gen = static_cast<std::size_t>(g.field("gen").number());
    gen.best_cost = g.field("best_cost").number();
    gen.mean_cost = g.field("mean_cost").number();
    gen.repairs = static_cast<std::size_t>(g.field("repairs").number());
    gen.links_repaired =
        static_cast<std::size_t>(g.field("links_repaired").number());
    gen.evaluations =
        static_cast<std::size_t>(g.field("evaluations").number());
    if (g.has("dedup_skipped")) {
      gen.dedup_skipped =
          static_cast<std::size_t>(g.field("dedup_skipped").number());
    }
    gen.wall_ns = get_wall(g);
    report.generations.push_back(gen);
  }

  for (const JsonValue& r : doc.field("ensemble_runs").array()) {
    EnsembleRunDone run_done;
    run_done.index = static_cast<std::size_t>(r.field("index").number());
    run_done.seed = static_cast<std::uint64_t>(r.field("seed").number());
    run_done.best_cost = r.field("best_cost").number();
    run_done.wall_ns = get_wall(r);
    report.ensemble_runs.push_back(run_done);
  }

  if (doc.has("ensemble_aggregates")) {  // ensemble reports only
    const JsonValue& agg = doc.field("ensemble_aggregates");
    EnsembleAggregates a;
    a.runs = static_cast<std::size_t>(agg.field("runs").number());
    a.streamed = agg.field("streamed").boolean();
    a.avg_degree = aggregate_from_json(agg.field("avg_degree"));
    a.diameter = aggregate_from_json(agg.field("diameter"));
    a.clustering = aggregate_from_json(agg.field("clustering"));
    a.degree_cv = aggregate_from_json(agg.field("degree_cv"));
    a.hubs = aggregate_from_json(agg.field("hubs"));
    a.assortativity = aggregate_from_json(agg.field("assortativity"));
    a.best_cost = aggregate_from_json(agg.field("best_cost"));
    report.ensemble_aggregates = a;
    report.has_ensemble_aggregates = true;
  }

  if (doc.has("ensemble_exemplars")) {  // streamed ensembles with a reservoir
    const JsonValue& block = doc.field("ensemble_exemplars");
    EnsembleExemplars ex;
    ex.reservoir = static_cast<std::size_t>(block.field("reservoir").number());
    for (const JsonValue& e : block.field("exemplars").array()) {
      EnsembleExemplar exemplar;
      exemplar.index = static_cast<std::size_t>(e.field("index").number());
      exemplar.seed = static_cast<std::uint64_t>(e.field("seed").number());
      exemplar.best_cost = e.field("best_cost").number();
      exemplar.num_pops =
          static_cast<std::size_t>(e.field("num_pops").number());
      exemplar.num_links =
          static_cast<std::size_t>(e.field("num_links").number());
      ex.exemplars.push_back(exemplar);
    }
    report.ensemble_exemplars = std::move(ex);
    report.has_ensemble_exemplars = true;
  }
  return report;
}

void JsonReportSink::on_run_start(const RunStart& e) {
  report_ = RunReport{};
  report_.seed = e.seed;
  report_.num_pops = e.num_pops;
  report_.traffic_topk = e.traffic_topk;
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
  report_.has_ensemble_aggregates = true;
}

void JsonReportSink::on_ensemble_exemplars(const EnsembleExemplars& e) {
  report_.ensemble_exemplars = e;
  report_.has_ensemble_exemplars = true;
}

void JsonReportSink::on_run_end(const RunSummary& e) {
  report_.best_cost = e.best_cost;
  report_.evaluations = e.evaluations;
  report_.wall_ns = e.wall_ns;
  report_.stopped_early = e.stopped_early;
  report_.stop_reason = e.stop_reason;
  report_.cache_hits = e.cache_hits;
  report_.cache_misses = e.cache_misses;
  report_.cache_inserts = e.cache_inserts;
  report_.cache_evictions = e.cache_evictions;
  report_.dedup_skipped = e.dedup_skipped;
  report_.dsssp_hits = e.dsssp_hits;
  report_.dsssp_fallbacks = e.dsssp_fallbacks;
  report_.vertices_resettled = e.vertices_resettled;
  report_.traffic_kept_mass = e.traffic_kept_mass;
  report_.has_resilience = e.has_resilience;
  report_.resilience = e.resilience;
  report_.has_multipath = e.has_multipath;
  report_.multipath = e.multipath;
}

}  // namespace cold
