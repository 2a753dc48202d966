// bench_compare — diff two BENCH_*.json files (Table 2 sweeps, serving
// runs) and fail (exit 1) on regression. CI runs it after record_table2 /
// record_serve so the committed baselines gate every PR.
//
// Both files are {"meta": {...}, "rows": [...]}, read with the library's
// one JSON reader (common/json.hpp). Rows are matched by their
// (model, matmul, nonlinear, policy, kv_format, workload) key — the last
// three are empty on Table 2 rows; meta is informational and never
// compared.
//
// Field rules:
//  - every row field must match *exactly* — perplexity, memory footprint,
//    energy, cycles, MAC/token/GEMM counts, stream hashes and the
//    simulated seconds, rates and goodput derived from them: each is a
//    deterministic function of (model, strategies, workload), bit-identical
//    at any thread count, so any drift is a real regression. Host
//    wall-clock lives only in meta, which is never compared;
//  - a field or row present in the baseline but missing from the candidate
//    is a regression; a field or row present only in the candidate is
//    reported as a named WARNING and passes (new coverage, not lost
//    coverage — but never silently skipped).
//
// Fault-injected rows (record_serve --fault-plan and the SLO section's
// preemption pair) need no special casing: their workload descriptor
// carries the plan ("...+faults(exhaust@40..70)+preempt=on"), so they
// key separately from their fault-free siblings.
//
// Every mismatch is reported before the exit code is decided: a
// multi-field regression shows all offending fields in one CI log. A file
// that cannot be read, parsed or keyed (a duplicate row key) exits 2.
//
// Usage: bench_compare <baseline.json> <candidate.json>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "common/json.hpp"

namespace {

using bbal::JsonValue;
using Kind = JsonValue::Kind;

struct Rows {
  // key "model|matmul|nonlinear|policy|kv_format|workload[|draft]" -> row
  // object, plus file order for output
  std::map<std::string, const JsonValue*> by_key;
  std::vector<std::string> order;
};

std::string row_key(const JsonValue& row) {
  auto field = [&](const char* k) {
    const JsonValue* v = row.find(k);
    return v != nullptr && v->kind == Kind::kString ? v->text : std::string();
  };
  // policy/kv_format/workload distinguish the serving sections (the SLO
  // sweep has one row per load x policy at a fixed strategy, the KV
  // frontier one row per page format at a fixed matmul); all are empty
  // strings on Table 2 rows. The speculative rows add draft(+draft_k):
  // absent on target-only rows, so those keys stay as they were.
  std::string key = field("model") + " | " + field("matmul") + " | " +
                    field("nonlinear") + " | " + field("policy") + " | " +
                    field("kv_format") + " | " + field("workload");
  const std::string draft = field("draft");
  if (!draft.empty()) {
    key += " | draft=" + draft;
    const JsonValue* k = row.find("draft_k");
    if (k != nullptr && k->kind == Kind::kNumber) key += "(k=" + k->text + ")";
  }
  return key;
}

bool load_rows(const char* path, JsonValue& storage, Rows& rows) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "bench_compare: cannot open %s\n", path);
    return false;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  auto parsed = bbal::parse_json(buf.str());
  if (!parsed.is_ok()) {
    std::fprintf(stderr, "bench_compare: %s: %s\n", path,
                 parsed.message().c_str());
    return false;
  }
  storage = std::move(parsed).value();
  const JsonValue* array = storage.find("rows");
  if (array == nullptr || array->kind != Kind::kArray) {
    std::fprintf(stderr, "bench_compare: %s: no \"rows\" array\n", path);
    return false;
  }
  for (const JsonValue& row : array->array) {
    if (row.kind != Kind::kObject) {
      std::fprintf(stderr, "bench_compare: %s: row is not an object\n", path);
      return false;
    }
    const std::string key = row_key(row);
    if (rows.by_key.count(key) != 0) {
      std::fprintf(stderr, "bench_compare: %s: duplicate row %s\n", path,
                   key.c_str());
      return false;
    }
    rows.by_key[key] = &row;
    rows.order.push_back(key);
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  const char* baseline_path = nullptr;
  const char* candidate_path = nullptr;
  const char* usage = "usage: bench_compare <baseline.json> <candidate.json>\n";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      std::fprintf(stderr, "%s", usage);
      return 0;
    } else if (arg.rfind("--", 0) == 0) {
      std::fprintf(stderr, "bench_compare: unknown option %s\n", argv[i]);
      return 2;
    } else if (baseline_path == nullptr) {
      baseline_path = argv[i];
    } else if (candidate_path == nullptr) {
      candidate_path = argv[i];
    } else {
      std::fprintf(stderr, "bench_compare: unexpected argument %s\n", argv[i]);
      return 2;
    }
  }
  if (baseline_path == nullptr || candidate_path == nullptr) {
    std::fprintf(stderr, "%s", usage);
    return 2;
  }

  JsonValue baseline_doc, candidate_doc;
  Rows baseline, candidate;
  if (!load_rows(baseline_path, baseline_doc, baseline) ||
      !load_rows(candidate_path, candidate_doc, candidate))
    return 2;

  int regressions = 0;
  int warnings = 0;
  int checked_fields = 0;
  auto regress = [&](const std::string& what) {
    std::printf("REGRESSION  %s\n", what.c_str());
    ++regressions;
  };
  // One-sided fields/rows must be *named*, never silently skipped: a
  // renamed metric would otherwise vanish from the gate unnoticed.
  auto warn = [&](const std::string& what) {
    std::printf("WARNING     %s\n", what.c_str());
    ++warnings;
  };

  int matched_rows = 0;
  for (const std::string& key : baseline.order) {
    const auto it = candidate.by_key.find(key);
    if (it == candidate.by_key.end()) {
      regress("row missing from candidate: " + key);
      continue;
    }
    ++matched_rows;
    const JsonValue& brow = *baseline.by_key[key];
    const JsonValue& crow = *it->second;
    for (const auto& [field, bval] : brow.object) {
      const JsonValue* cval = crow.find(field);
      if (cval == nullptr) {
        regress(key + ": field \"" + field + "\" missing from candidate");
        continue;
      }
      if (bval.kind == Kind::kString) {
        if (cval->kind != Kind::kString || cval->text != bval.text)
          regress(key + ": " + field + " \"" + bval.text + "\" -> \"" +
                  cval->text + "\"");
        ++checked_fields;
        continue;
      }
      if (bval.kind != Kind::kNumber) {
        warn(key + ": field \"" + field +
             "\" has a non-scalar baseline value, not compared");
        continue;
      }
      if (cval->kind != Kind::kNumber) {
        regress(key + ": " + field + " is no longer a number");
        continue;
      }
      ++checked_fields;
      if (bval.number != cval->number)
        regress(key + ": " + field + " " + bval.text + " -> " + cval->text);
    }
    // Candidate-only fields: new coverage, named so a renamed metric is
    // visible in the log instead of silently dropping out of the gate.
    for (const auto& [field, cval] : crow.object)
      if (brow.find(field) == nullptr)
        warn(key + ": field \"" + field +
             "\" only in candidate (not in baseline, not gated)");
  }

  // New coverage in the candidate: report, never fail.
  for (const std::string& key : candidate.order)
    if (baseline.by_key.count(key) == 0)
      warn("row only in candidate (not in baseline, not gated): " + key);

  std::printf("bench_compare: %zu baseline rows, %d matched, %d fields "
              "checked exactly, %d regression(s), %d warning(s)\n",
              baseline.order.size(), matched_rows, checked_fields, regressions,
              warnings);
  return regressions == 0 ? 0 : 1;
}
