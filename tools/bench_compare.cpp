// bench_compare — diff two BENCH_*.json-shaped files (Table 2 sweeps,
// serving runs) and fail (exit 1) on regression. CI runs it after
// record_table2 / record_serve so the committed baselines gate every PR.
//
// Accepted shapes: {"meta": {...}, "rows": [...]} (current) or a bare
// array of row objects (legacy). Rows are matched by their
// (model, matmul, nonlinear, policy, kv_format, workload) key — the last
// three are empty for tools that predate them, so Table 2 rows keep their
// old keys; meta is informational and never compared. A serving-shaped
// baseline row without kv_format draws a named WARNING: it predates the
// quantised KV pages and wants a baseline refresh.
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
//    reported as a named EXTRA warning and passes (new coverage, not lost
//    coverage — but never silently skipped). With --rows-subset the
//    candidate may carry a subset of the baseline's rows (missing rows
//    warn instead of failing) — the quick-CI SLO gate records one load
//    point and checks it against the full committed sweep; matched rows
//    are still gated field by field.
//
// Fault-injected rows (record_serve --fault-plan / the record_slo
// preemption pair) need no special casing: their workload descriptor
// carries the plan ("...+faults(exhaust@40..70)+preempt=on"), so they
// key separately from their fault-free siblings.
//
// Every mismatch is reported before the exit code is decided: a
// multi-field regression shows all offending fields in one CI log.
//
// Usage: bench_compare <baseline.json> <candidate.json> [--rows-subset]
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

namespace {

// --- Minimal JSON parser ----------------------------------------------------
// Flat needs only: objects, arrays, strings, numbers, bools, null.

struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string str;
  std::vector<JsonValue> array;
  std::vector<std::pair<std::string, JsonValue>> object;  // keeps file order

  [[nodiscard]] const JsonValue* find(const std::string& key) const {
    for (const auto& [k, v] : object)
      if (k == key) return &v;
    return nullptr;
  }
};

class JsonParser {
 public:
  explicit JsonParser(std::string text) : text_(std::move(text)) {}

  bool parse(JsonValue& out, std::string& error) {
    pos_ = 0;
    if (!value(out)) {
      error = error_ + " at offset " + std::to_string(pos_);
      return false;
    }
    skip_ws();
    if (pos_ != text_.size()) {
      error = "trailing characters at offset " + std::to_string(pos_);
      return false;
    }
    return true;
  }

 private:
  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r'))
      ++pos_;
  }

  bool fail(const char* what) {
    error_ = what;
    return false;
  }

  bool literal(const char* word) {
    const std::size_t len = std::char_traits<char>::length(word);
    if (text_.compare(pos_, len, word) != 0) return fail("bad literal");
    pos_ += len;
    return true;
  }

  bool string_body(std::string& out) {
    ++pos_;  // opening quote
    out.clear();
    while (pos_ < text_.size() && text_[pos_] != '"') {
      char c = text_[pos_++];
      if (c == '\\') {
        if (pos_ >= text_.size()) return fail("bad escape");
        const char esc = text_[pos_++];
        switch (esc) {
          case 'n': c = '\n'; break;
          case 't': c = '\t'; break;
          case 'r': c = '\r'; break;
          case '"': case '\\': case '/': c = esc; break;
          default: return fail("unsupported escape");
        }
      }
      out.push_back(c);
    }
    if (pos_ >= text_.size()) return fail("unterminated string");
    ++pos_;  // closing quote
    return true;
  }

  bool value(JsonValue& out) {
    skip_ws();
    if (pos_ >= text_.size()) return fail("unexpected end");
    const char c = text_[pos_];
    if (c == '{') {
      out.kind = JsonValue::Kind::kObject;
      ++pos_;
      skip_ws();
      if (pos_ < text_.size() && text_[pos_] == '}') {
        ++pos_;
        return true;
      }
      for (;;) {
        skip_ws();
        if (pos_ >= text_.size() || text_[pos_] != '"')
          return fail("expected object key");
        std::string key;
        if (!string_body(key)) return false;
        skip_ws();
        if (pos_ >= text_.size() || text_[pos_] != ':')
          return fail("expected ':'");
        ++pos_;
        JsonValue v;
        if (!value(v)) return false;
        out.object.emplace_back(std::move(key), std::move(v));
        skip_ws();
        if (pos_ < text_.size() && text_[pos_] == ',') {
          ++pos_;
          continue;
        }
        if (pos_ < text_.size() && text_[pos_] == '}') {
          ++pos_;
          return true;
        }
        return fail("expected ',' or '}'");
      }
    }
    if (c == '[') {
      out.kind = JsonValue::Kind::kArray;
      ++pos_;
      skip_ws();
      if (pos_ < text_.size() && text_[pos_] == ']') {
        ++pos_;
        return true;
      }
      for (;;) {
        JsonValue v;
        if (!value(v)) return false;
        out.array.push_back(std::move(v));
        skip_ws();
        if (pos_ < text_.size() && text_[pos_] == ',') {
          ++pos_;
          continue;
        }
        if (pos_ < text_.size() && text_[pos_] == ']') {
          ++pos_;
          return true;
        }
        return fail("expected ',' or ']'");
      }
    }
    if (c == '"') {
      out.kind = JsonValue::Kind::kString;
      return string_body(out.str);
    }
    if (c == 't') {
      out.kind = JsonValue::Kind::kBool;
      out.boolean = true;
      return literal("true");
    }
    if (c == 'f') {
      out.kind = JsonValue::Kind::kBool;
      out.boolean = false;
      return literal("false");
    }
    if (c == 'n') return literal("null");
    // number
    const char* start = text_.c_str() + pos_;
    char* end = nullptr;
    out.number = std::strtod(start, &end);
    if (end == start) return fail("bad number");
    out.kind = JsonValue::Kind::kNumber;
    pos_ += static_cast<std::size_t>(end - start);
    return true;
  }

  std::string text_;
  std::size_t pos_ = 0;
  std::string error_;
};

// --- Comparison -------------------------------------------------------------

struct Rows {
  // key "model|matmul|nonlinear|policy|kv_format|workload[|draft]" -> row
  // object, plus file order for output
  std::map<std::string, const JsonValue*> by_key;
  std::vector<std::string> order;
};

std::string row_key(const JsonValue& row) {
  auto field = [&](const char* k) {
    const JsonValue* v = row.find(k);
    return v != nullptr && v->kind == JsonValue::Kind::kString ? v->str
                                                               : std::string();
  };
  // policy/kv_format/workload distinguish the serving sweeps (BENCH_slo
  // has one row per load x policy at a fixed strategy; BENCH_serve's
  // frontier has one row per KV page format at a fixed matmul); all are
  // empty strings for rows that predate them, leaving Table 2 keys
  // unchanged. The speculative rows add draft(+draft_k): absent on
  // target-only rows, so those keys stay byte-exact too.
  std::string key = field("model") + " | " + field("matmul") + " | " +
                    field("nonlinear") + " | " + field("policy") + " | " +
                    field("kv_format") + " | " + field("workload");
  const JsonValue* draft = row.find("draft");
  if (draft != nullptr && draft->kind == JsonValue::Kind::kString &&
      !draft->str.empty()) {
    key += " | draft=" + draft->str;
    const JsonValue* k = row.find("draft_k");
    if (k != nullptr && k->kind == JsonValue::Kind::kNumber)
      key += "(k=" + std::to_string(static_cast<int>(k->number)) + ")";
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
  std::string error;
  JsonParser parser(buf.str());
  if (!parser.parse(storage, error)) {
    std::fprintf(stderr, "bench_compare: %s: %s\n", path, error.c_str());
    return false;
  }
  const JsonValue* array = nullptr;
  if (storage.kind == JsonValue::Kind::kArray) {
    array = &storage;  // legacy bare-array shape
  } else if (storage.kind == JsonValue::Kind::kObject) {
    array = storage.find("rows");
    if (array == nullptr || array->kind != JsonValue::Kind::kArray) {
      std::fprintf(stderr, "bench_compare: %s: no \"rows\" array\n", path);
      return false;
    }
  } else {
    std::fprintf(stderr, "bench_compare: %s: expected array or object\n",
                 path);
    return false;
  }
  for (const JsonValue& row : array->array) {
    if (row.kind != JsonValue::Kind::kObject) {
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
  bool rows_subset = false;
  const char* usage =
      "usage: bench_compare <baseline.json> <candidate.json> "
      "[--rows-subset]\n";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--rows-subset") {
      rows_subset = true;
    } else if (arg == "--help" || arg == "-h") {
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
    const JsonValue& brow = *baseline.by_key[key];
    // A serving row (it names a scheduler policy) recorded before KV pages
    // learned their storage format: flagged up front — the empty kv_format
    // key slot means it can never match a fresh candidate, so the fix is a
    // baseline refresh, not a code hunt.
    if (brow.find("policy") != nullptr && brow.find("kv_format") == nullptr)
      warn("baseline row predates kv_format (refresh the baseline): " + key);
    const auto it = candidate.by_key.find(key);
    if (it == candidate.by_key.end()) {
      // Under --rows-subset the candidate deliberately records fewer
      // rows (quick CI re-measures one load point of the full sweep);
      // uncovered baseline rows are named, not failed.
      if (rows_subset)
        warn("row not re-measured by candidate (--rows-subset): " + key);
      else
        regress("row missing from candidate: " + key);
      continue;
    }
    ++matched_rows;
    const JsonValue& crow = *it->second;
    for (const auto& [field, bval] : brow.object) {
      const JsonValue* cval = crow.find(field);
      if (cval == nullptr) {
        regress(key + ": field \"" + field + "\" missing from candidate");
        continue;
      }
      if (bval.kind == JsonValue::Kind::kString) {
        if (cval->kind != JsonValue::Kind::kString || cval->str != bval.str)
          regress(key + ": " + field + " \"" + bval.str + "\" -> \"" +
                  cval->str + "\"");
        ++checked_fields;
        continue;
      }
      if (bval.kind != JsonValue::Kind::kNumber) {
        warn(key + ": field \"" + field +
             "\" has a non-scalar baseline value, not compared");
        continue;
      }
      if (cval->kind != JsonValue::Kind::kNumber) {
        regress(key + ": " + field + " is no longer a number");
        continue;
      }
      ++checked_fields;
      if (bval.number != cval->number) {
        char msg[256];
        std::snprintf(msg, sizeof msg, "%s: %s %.17g -> %.17g", key.c_str(),
                      field.c_str(), bval.number, cval->number);
        regress(msg);
      }
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

  // A subset gate that matched nothing gated nothing — that's a broken
  // invocation (key drift, wrong file), not a pass.
  if (rows_subset && matched_rows == 0 && !baseline.order.empty())
    regress("--rows-subset matched no baseline row at all");

  std::printf("bench_compare: %zu baseline rows, %d matched, %d fields "
              "checked exactly, %d regression(s), %d warning(s)\n",
              baseline.order.size(), matched_rows, checked_fields, regressions,
              warnings);
  return regressions == 0 ? 0 : 1;
}
