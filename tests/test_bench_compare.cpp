// tools/bench_compare gates every BENCH row field exactly: simulated
// seconds and goodput are deterministic like token counts and hashes, so a
// perturbation far inside any "rate tolerance" must fail the gate, while
// meta (host wall-clock) stays ungated. A row only the candidate has is
// new coverage (a warning), a row only the baseline has is lost coverage
// (a failure), and a file that cannot be read or keyed is a usage error.
// Drives the built binary end to end.
#include <gtest/gtest.h>
#include <sys/wait.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

namespace {

const std::string kRow =
    "{\"model\": \"Llama-7B\", \"matmul\": \"BBFP(4,2)\", "
    "\"nonlinear\": \"FP32\", \"policy\": \"prefix-aware\", "
    "\"kv_format\": \"FP32\", \"workload\": \"w\", \"stream_hash\": 21695330, "
    "\"total_seconds\": 0.0123456, \"goodput_under_slo\": 1}";

/// A BENCH file whose rows array holds `rows` (comma-separated objects).
std::string bench_file(const std::string& rows) {
  return "{\n\"meta\": {\"wall_seconds\": 3.5},\n\"rows\": [\n  " + rows +
         "\n]\n}\n";
}

const std::string kBaseline = bench_file(kRow);

/// kRow under another workload, so it keys as a different row.
std::string other_row() {
  std::string row = kRow;
  return row.replace(row.find("\"w\""), 3, "\"w2\"");
}

/// Writes both files to temp files, runs bench_compare on them with
/// `options` and returns the exit status; stdout lands in `output` when
/// given.
int run_compare(const std::string& baseline, const std::string& candidate,
                const std::string& options = "",
                std::string* output = nullptr) {
  const auto dir = std::filesystem::temp_directory_path();
  const std::string base = (dir / "bbal_bench_compare_base.json").string();
  const std::string cand = (dir / "bbal_bench_compare_cand.json").string();
  const std::string log = (dir / "bbal_bench_compare_out.txt").string();
  std::ofstream(base) << baseline;
  std::ofstream(cand) << candidate;
  const std::string cmd = std::string(BBAL_BENCH_COMPARE) + " " + base + " " +
                          cand + " " + options + " > " + log + " 2>&1";
  const int status = std::system(cmd.c_str());
  if (output != nullptr) {
    std::ostringstream buf;
    buf << std::ifstream(log).rdbuf();
    *output = buf.str();
  }
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

/// Runs bench_compare kBaseline vs `text` and returns the exit status.
int compare_against(const std::string& text) {
  return run_compare(kBaseline, text);
}

std::string replaced(const std::string& from, const std::string& to) {
  std::string text = kBaseline;
  const std::size_t at = text.find(from);
  EXPECT_NE(at, std::string::npos) << from;
  return text.replace(at, from.size(), to);
}

TEST(BenchCompare, IdenticalRowsPassAndMetaIsNotGated) {
  EXPECT_EQ(compare_against(kBaseline), 0);
  EXPECT_EQ(compare_against(replaced("3.5", "9.75")), 0);
}

TEST(BenchCompare, PerturbedSimulatedFieldsFailTheExactGate) {
  EXPECT_EQ(compare_against(replaced("\"goodput_under_slo\": 1",
                                     "\"goodput_under_slo\": 0.91")),
            1);
  EXPECT_EQ(compare_against(replaced("0.0123456", "0.0123457")), 1);
  EXPECT_EQ(compare_against(replaced("21695330", "21695331")), 1);
}

TEST(BenchCompare, CandidateOnlyRowPassesWithAWarning) {
  const std::string candidate = bench_file(kRow + ",\n  " + other_row());
  std::string output;
  EXPECT_EQ(run_compare(kBaseline, candidate, "", &output), 0);
  EXPECT_NE(output.find("WARNING     row only"), std::string::npos) << output;
}

TEST(BenchCompare, BaselineRowMissingFromCandidateFails) {
  const std::string baseline = bench_file(kRow + ",\n  " + other_row());
  EXPECT_EQ(run_compare(baseline, kBaseline), 1);
}

TEST(BenchCompare, UnreadableFilesAndUnknownOptionsExitTwo) {
  // A duplicate row key, a truncated file and a bare rows array.
  EXPECT_EQ(compare_against(bench_file(kRow + ",\n  " + kRow)), 2);
  EXPECT_EQ(compare_against(kBaseline.substr(0, kBaseline.size() / 2)), 2);
  EXPECT_EQ(compare_against("[" + kRow + "]"), 2);
  EXPECT_EQ(run_compare(kBaseline, kBaseline, "--tol 0.01"), 2);
}

}  // namespace
