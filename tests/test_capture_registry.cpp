// Activation capture plumbing and the unified backend registry.
#include <gtest/gtest.h>

#include "bbal/registry.hpp"
#include "llm/capture.hpp"

namespace bbal {
namespace {

TEST(LayerKinds, TagMapping) {
  using llm::layer_kind_of_tag;
  EXPECT_EQ(layer_kind_of_tag("layer0.wq"), "Query");
  EXPECT_EQ(layer_kind_of_tag("layer3.wk"), "Key");
  EXPECT_EQ(layer_kind_of_tag("layer1.wv"), "Value");
  EXPECT_EQ(layer_kind_of_tag("layer2.wo"), "Proj");
  EXPECT_EQ(layer_kind_of_tag("layer0.gate"), "FC1");
  EXPECT_EQ(layer_kind_of_tag("layer0.up"), "FC1");
  EXPECT_EQ(layer_kind_of_tag("layer0.down"), "FC2");
  EXPECT_EQ(layer_kind_of_tag("lm_head"), "Head");
}

TEST(Capture, CollectsAllLayerKinds) {
  llm::ModelConfig cfg;
  cfg.name = "capture-test";
  cfg.vocab = 64;
  cfg.d_model = 32;
  cfg.n_layers = 2;
  cfg.n_heads = 2;
  cfg.d_ff = 48;
  cfg.seed = 9;
  const llm::CaptureResult result = llm::capture_layer_data(cfg, 48);
  for (const char* kind : {"Query", "Key", "Value", "Proj", "FC1", "FC2"}) {
    ASSERT_TRUE(result.activations.count(kind)) << kind;
    EXPECT_FALSE(result.activations.at(kind).empty()) << kind;
    ASSERT_TRUE(result.weights.count(kind)) << kind;
  }
  // The LM head is excluded from layer statistics.
  EXPECT_FALSE(result.activations.count("Head"));
  // FC1 pools gate+up: twice the weight volume of FC2.
  EXPECT_GT(result.weights.at("FC1").size(), result.weights.at("FC2").size());
}

TEST(Registry, ResolvesEveryTableTwoStrategy) {
  const BackendRegistry& registry = BackendRegistry::instance();
  for (const std::string& name : table2_strategies()) {
    EXPECT_TRUE(registry.is_known(name)) << name;
    auto backend = registry.make_matmul(name);
    ASSERT_TRUE(backend.is_ok()) << name << ": " << backend.message();
    ASSERT_NE(backend.value(), nullptr) << name;
  }
}

TEST(Registry, BackendsCarryExpectedNames) {
  auto name_of = [](const char* strategy) {
    return make_matmul_backend(strategy).expect("make_matmul")->name();
  };
  EXPECT_EQ(name_of("BBFP(4,2)"), "BBFP(4,2)");
  EXPECT_EQ(name_of("BFP6"), "BFP6");
  EXPECT_EQ(name_of("Oltron"), "Oltron");
  EXPECT_EQ(name_of("INT8"), "INT8");
  EXPECT_EQ(name_of("FP32"), "FP32");
}

TEST(Registry, RejectsUnknownNamesWithErrors) {
  const BackendRegistry& registry = BackendRegistry::instance();
  EXPECT_FALSE(registry.is_known("FP4-EXOTIC"));
  EXPECT_FALSE(registry.is_known(""));
  const auto backend = registry.make_matmul("FP4-EXOTIC");
  EXPECT_FALSE(backend.is_ok());
  EXPECT_FALSE(backend.message().empty());
}

TEST(Registry, NonlinearFactoriesAndCapabilities) {
  const BackendRegistry& registry = BackendRegistry::instance();
  auto lut = registry.make_nonlinear("BBFP-LUT(10,5)");
  ASSERT_TRUE(lut.is_ok()) << lut.message();
  EXPECT_EQ(lut.value()->name(), "BBFP(10,5)");
  auto lut_softmax = registry.make_nonlinear("BBFP-LUT(10,5)/softmax");
  ASSERT_TRUE(lut_softmax.is_ok()) << lut_softmax.message();
  EXPECT_EQ(lut_softmax.value()->name(), "BBFP(10,5) softmax-only");

  // Formats narrower than the unit's 7-bit LUT address parse but cannot
  // drive it: an error naming the address, never a negative shift.
  for (const char* narrow : {"BBFP-LUT(4,2)", "BFP-LUT(6)"}) {
    const auto rejected = registry.make_nonlinear(narrow);
    ASSERT_FALSE(rejected.is_ok()) << narrow;
    EXPECT_NE(rejected.message().find("7-bit LUT"), std::string::npos)
        << rejected.message();
  }

  // A matmul-only strategy is a reportable error as a nonlinear backend.
  EXPECT_FALSE(registry.make_nonlinear("BBFP(4,2)").is_ok());
  // And vice versa.
  EXPECT_FALSE(registry.make_matmul("PseudoSoftmax").is_ok());

  // Capability queries.
  EXPECT_TRUE(registry.has_cost_model(quant::spec_of("BBFP(4,2)")));
  EXPECT_FALSE(registry.has_cost_model(quant::spec_of("OmniQuant")));
}

TEST(Registry, RegisteredBackendActuallyQuantises) {
  const auto backend = make_matmul_backend("BFP4").expect("make_matmul");
  llm::Matrix w(32, 2);
  for (int k = 0; k < 32; ++k) {
    w.at(k, 0) = 0.337f;  // not representable at 4 bits
    w.at(k, 1) = 1.0f;
  }
  const int h = backend->prepare_weights(w, "w");
  llm::Matrix a(1, 32);
  for (int k = 0; k < 32; ++k) a.at(0, k) = 1.0f;
  llm::Matrix out;
  backend->matmul(a, h, out);
  // Column 0 must show quantisation error; column 1 is exact.
  EXPECT_NE(out.at(0, 0), 0.337f * 32.0f);
  EXPECT_FLOAT_EQ(out.at(0, 1), 32.0f);
}

}  // namespace
}  // namespace bbal
