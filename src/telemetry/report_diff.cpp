#include "telemetry/report_diff.h"

#include <algorithm>
#include <cstdint>
#include <ostream>
#include <set>
#include <sstream>
#include <string>

#include "io/json_value.h"

namespace cold {

namespace {

std::string num(double x) {
  std::ostringstream os;
  os.precision(17);
  os << x;
  return os.str();
}

/// Exact rendering of a leaf: doubles round-trip-exact, so a diff of
/// "same-looking" values cannot hide a bit-level divergence (and NaN or -0.0
/// compare by their bits' rendering, not by operator==).
std::string render(const JsonValue& v) {
  if (v.is_string()) return v.str();
  if (v.is_bool()) return v.boolean() ? "true" : "false";
  if (const auto* u = std::get_if<std::uint64_t>(&v.v)) {
    return std::to_string(*u);
  }
  if (v.is_number()) return num(v.number());
  if (v.is_object()) return "<object>";
  if (v.is_array()) return "<array>";
  return "null";
}

/// Whether the subtree at `path` (field `key`) is performance data: wall
/// clocks and the engine counters, plus the resilience and multipath
/// winner summaries — a resilient-vs-plain pair at weight 0, or an
/// ECMP-vs-single-path pair on a unique-shortest-path topology, must stay
/// logically equal, so even those blocks' presence is perf drift.
bool is_perf(const std::string& path, const std::string& key) {
  return key == "wall_ns" || key == "counters" ||
         path == "result.resilience" || path == "result.multipath";
}

const JsonValue* child(const JsonValue& obj, const std::string& key) {
  return obj.has(key) ? &obj.field(key) : nullptr;
}

/// Walks two report documents in step, bucketing every divergence.
class Differ {
 public:
  explicit Differ(ReportDiff& out) : out_(out) {}

  /// Field `key` of two parent objects at `parent`; nullptr marks a side
  /// that lacks it.
  void field(const std::string& parent, const std::string& key,
             const JsonValue* a, const JsonValue* b, bool perf) {
    const std::string path = parent.empty() ? key : parent + "." + key;
    perf = perf || is_perf(path, key);
    if (a != nullptr && b != nullptr) {
      walk(path, *a, *b, perf);
    } else {
      // A block on one side only, e.g. a resilient vs a plain run.
      bucket(perf).push_back({path + ".present", a ? "true" : "false",
                              b ? "true" : "false"});
    }
  }

  void walk(const std::string& path, const JsonValue& a, const JsonValue& b,
            bool perf) {
    if (a.is_object() && b.is_object()) {
      std::set<std::string> keys;
      for (const auto& entry : a.object()) keys.insert(entry.first);
      for (const auto& entry : b.object()) keys.insert(entry.first);
      for (const std::string& key : keys) {
        field(path, key, child(a, key), child(b, key), perf);
      }
    } else if (a.is_array() && b.is_array()) {
      // A length mismatch yields one entry plus "<absent>" markers for the
      // tail of the longer side.
      const JsonArray& x = a.array();
      const JsonArray& y = b.array();
      if (x.size() != y.size()) {
        bucket(perf).push_back({path + ".length", std::to_string(x.size()),
                                std::to_string(y.size())});
      }
      for (std::size_t i = 0; i < std::max(x.size(), y.size()); ++i) {
        const std::string element = path + "[" + std::to_string(i) + "]";
        if (i < x.size() && i < y.size()) {
          walk(element, x[i], y[i], perf);
        } else if (i < x.size()) {
          bucket(perf).push_back({element, "<present>", "<absent>"});
        } else {
          bucket(perf).push_back({element, "<absent>", "<present>"});
        }
      }
    } else if (const std::string x = render(a), y = render(b); x != y) {
      bucket(perf).push_back({path, x, y});
    }
  }

 private:
  std::vector<ReportDiffEntry>& bucket(bool perf) {
    return perf ? out_.perf : out_.logical;
  }

  ReportDiff& out_;
};

}  // namespace

ReportDiff diff_run_reports(const RunReport& a, const RunReport& b) {
  const JsonValue x = run_report_json(a);
  const JsonValue y = run_report_json(b);
  ReportDiff out;
  Differ differ(out);
  // Top-level blocks in document order (the JSON object sorts its keys).
  for (const std::string key :
       {"run", "result", "phases", "heuristics", "generations",
        "ensemble_runs", "ensemble_aggregates", "ensemble_exemplars"}) {
    if (x.has(key) || y.has(key)) {
      differ.field("", key, child(x, key), child(y, key), /*perf=*/false);
    }
  }
  return out;
}

void write_report_diff_text(std::ostream& os, const ReportDiff& diff) {
  if (diff.logical.empty() && diff.perf.empty()) {
    os << "reports identical\n";
    return;
  }
  for (const ReportDiffEntry& e : diff.logical) {
    os << "LOGICAL " << e.path << ": " << e.a << " != " << e.b << "\n";
  }
  for (const ReportDiffEntry& e : diff.perf) {
    os << "perf    " << e.path << ": " << e.a << " != " << e.b << "\n";
  }
  os << (diff.logical.empty() ? "logically equal" : "LOGICAL DIVERGENCE")
     << " (" << diff.logical.size() << " logical, " << diff.perf.size()
     << " perf)\n";
}

namespace {

JsonArray entries_to_json(const std::vector<ReportDiffEntry>& entries) {
  JsonArray arr;
  for (const ReportDiffEntry& e : entries) {
    JsonObject obj;
    obj["path"] = e.path;
    obj["a"] = e.a;
    obj["b"] = e.b;
    arr.push_back(std::move(obj));
  }
  return arr;
}

}  // namespace

void write_report_diff_json(std::ostream& os, const ReportDiff& diff) {
  JsonObject root;
  root["schema"] = "cold-report-diff";
  root["version"] = 1;
  root["logically_equal"] = diff.logically_equal();
  root["logical"] = entries_to_json(diff.logical);
  root["perf"] = entries_to_json(diff.perf);
  write_json(os, JsonValue{std::move(root)});
  os << "\n";
}

}  // namespace cold
