// Quickstart: encode a vector into BBFP, compare its quantisation error
// against BFP, run a bit-exact block dot product, then reproduce a whole
// Table II cell (perplexity + throughput + energy) with one bbal::Session.
//
// Build & run:  cmake -B build -G Ninja && cmake --build build
//               ./build/examples/quickstart
#include <cstdio>
#include <vector>

#include "bbal/session.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "quant/block.hpp"
#include "quant/dot.hpp"
#include "quant/error_model.hpp"

int main() {
  using namespace bbal;
  using quant::BlockFormat;

  std::printf("BBAL quickstart: the BBFP(4,2) data format\n");
  std::printf("==========================================\n\n");

  // 1. A block of values with one outlier — the distribution BFP struggles
  //    with (Fig. 1a of the paper).
  Rng rng(7);
  std::vector<double> block(32);
  for (auto& x : block) x = rng.gaussian(0.0, 1.0);
  block[5] = 24.0;  // outlier

  // 2. Quantise with BFP4 and BBFP(4,2) and compare round-trip error.
  const BlockFormat bfp4 = BlockFormat::bfp(4);
  const BlockFormat bbfp42 = BlockFormat::bbfp(4, 2);
  const double mse_bfp = quant::empirical_mse(block, bfp4);
  const double mse_bbfp = quant::empirical_mse(block, bbfp42);
  std::printf("Round-trip MSE on a 32-element block with one outlier:\n");
  std::printf("  BFP4      : %.5f\n", mse_bfp);
  std::printf("  BBFP(4,2) : %.5f   (%.1fx lower)\n\n", mse_bbfp,
              mse_bfp / mse_bbfp);

  // 3. Look inside the encoded block: shared exponent and flag bits.
  const quant::EncodedBlock enc = quant::encode_block(block, bbfp42);
  std::printf("BBFP(4,2) shared exponent: %d (max exponent minus m-o = 2)\n",
              enc.shared_exponent);
  std::printf("Flagged (high-group) elements: %zu of %zu\n\n",
              enc.flag_count(), enc.elems.size());

  // 4. A bit-exact quantised dot product (Eq. 7): the integer datapath and
  //    the dequantised reference agree exactly.
  std::vector<double> other(32);
  for (auto& x : other) x = rng.gaussian(0.0, 0.5);
  const quant::EncodedBlock enc_other = quant::encode_block(other, bbfp42);
  const quant::BlockDotResult dot = quant::dot_block(enc, enc_other);
  std::printf("Block dot product (integer datapath) : %.6f\n", dot.value);
  std::printf("Block dot product (decoded reference): %.6f\n",
              quant::dot_block_reference(enc, enc_other));
  std::printf("Integer accumulator: %lld x 2^%d, widest product: %d bits\n",
              static_cast<long long>(dot.accumulator), dot.scale_exponent,
              dot.max_product_bits);

  // 5. One Table II cell end to end: accuracy and hardware cost from the
  //    same forward passes, via the Session API.
  std::printf("\nOne Session = one Table II cell (small eval stream):\n");
  auto session = bbal::Session::create({.model = "Llama-7B",
                                        .eval_tokens = 256,
                                        .matmul = "BBFP(4,2)",
                                        .nonlinear = "FP32",
                                        .iso_area_um2 = 150000.0});
  if (!session.is_ok()) {
    std::fprintf(stderr, "session: %s\n", session.message().c_str());
    return 1;
  }
  const auto report = session.value().evaluate().expect("evaluate");
  std::printf("  BBFP(4,2) perplexity : %.2f (FP32 baseline %.2f)\n",
              report.perplexity, report.fp32_perplexity);
  std::printf("  Throughput           : %.1f GOPS on %d iso-area PEs\n",
              report.run.throughput_gops,
              session.value().accelerator().pe_count());
  std::printf("  Energy               : %.1f uJ, weights %.2f MB\n",
              report.energy.total_j() * 1e6,
              report.memory_footprint_bytes / (1024.0 * 1024.0));

  std::printf("\nDone. See examples/llm_inference.cpp for the full model.\n");
  return 0;
}
