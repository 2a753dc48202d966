// tools/bench_compare gates every BENCH row field exactly: simulated
// seconds and goodput are deterministic like token counts and hashes, so a
// perturbation far inside any "rate tolerance" must fail the gate, while
// meta (host wall-clock) stays ungated. Drives the built binary end to end.
#include <gtest/gtest.h>
#include <sys/wait.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>

namespace {

const std::string kBaseline =
    "{\n\"meta\": {\"wall_seconds\": 3.5},\n\"rows\": [\n"
    "  {\"model\": \"Llama-7B\", \"matmul\": \"BBFP(4,2)\", "
    "\"nonlinear\": \"FP32\", \"policy\": \"prefix-aware\", "
    "\"kv_format\": \"FP32\", \"workload\": \"w\", \"stream_hash\": 21695330, "
    "\"total_seconds\": 0.0123456, \"goodput_under_slo\": 1}\n]\n}\n";

/// Writes `text` to a temp file, runs bench_compare baseline vs it, and
/// returns the exit status.
int compare_against(const std::string& text) {
  const auto dir = std::filesystem::temp_directory_path();
  const std::string base = (dir / "bbal_bench_compare_base.json").string();
  const std::string cand = (dir / "bbal_bench_compare_cand.json").string();
  std::ofstream(base) << kBaseline;
  std::ofstream(cand) << text;
  const std::string cmd = std::string(BBAL_BENCH_COMPARE) + " " + base + " " +
                          cand + " > /dev/null";
  const int status = std::system(cmd.c_str());
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
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

}  // namespace
