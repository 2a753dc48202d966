#include "accel/gemm_executor.hpp"

#include <cassert>
#include <cstdint>
#include <vector>

#include "common/threadpool.hpp"
#include "quant/block.hpp"
#include "quant/dot.hpp"

namespace bbal::accel {

llm::Matrix execute_gemm_bit_exact(const llm::Matrix& acts,
                                   const llm::Matrix& weights,
                                   const quant::BlockFormat& act_fmt,
                                   const quant::BlockFormat& weight_fmt) {
  assert(acts.cols() == weights.rows());
  assert(act_fmt.block_size == weight_fmt.block_size);
  const int m = acts.rows();
  const int k = acts.cols();
  const int n = weights.cols();
  const int bs = act_fmt.block_size;
  const int blocks = (k + bs - 1) / bs;
  const std::int64_t macs = static_cast<std::int64_t>(m) * k * n;

  // Input encoder: all weight-column blocks once (weight stationary).
  // Column blocks are disjoint, so columns tile across the pool.
  std::vector<quant::EncodedBlock> wblocks(
      static_cast<std::size_t>(n) * static_cast<std::size_t>(blocks));
  common::parallel_chunks(
      n, macs, [&](std::int64_t j0, std::int64_t j1) {
        std::vector<double> buf(static_cast<std::size_t>(bs));
        for (std::int64_t j64 = j0; j64 < j1; ++j64) {
          const int j = static_cast<int>(j64);
          for (int b = 0; b < blocks; ++b) {
            const int k0 = b * bs;
            const int len = std::min(bs, k - k0);
            for (int i = 0; i < len; ++i)
              buf[static_cast<std::size_t>(i)] = weights.at(k0 + i, j);
            wblocks[static_cast<std::size_t>(j) * blocks + b] =
                quant::encode_block(
                    std::span<const double>(buf.data(),
                                            static_cast<std::size_t>(len)),
                    weight_fmt);
          }
        }
      });

  // PE array + FP adder, tiled over output rows: each row encodes its
  // activation blocks then accumulates integer block dots per column —
  // byte-for-byte the serial datapath, whatever the thread count.
  llm::Matrix out(m, n);
  common::parallel_chunks(
      m, macs, [&](std::int64_t i0, std::int64_t i1) {
        std::vector<quant::EncodedBlock> arow(static_cast<std::size_t>(blocks));
        std::vector<double> buf(static_cast<std::size_t>(bs));
        for (std::int64_t i64 = i0; i64 < i1; ++i64) {
          const int i = static_cast<int>(i64);
          // Input encoder: one activation row, block by block.
          for (int b = 0; b < blocks; ++b) {
            const int k0 = b * bs;
            const int len = std::min(bs, k - k0);
            for (int x = 0; x < len; ++x)
              buf[static_cast<std::size_t>(x)] = acts.at(i, k0 + x);
            arow[static_cast<std::size_t>(b)] = quant::encode_block(
                std::span<const double>(buf.data(),
                                        static_cast<std::size_t>(len)),
                act_fmt);
          }
          for (int j = 0; j < n; ++j) {
            double acc = 0.0;
            for (int b = 0; b < blocks; ++b)
              acc += quant::dot_block(
                         arow[static_cast<std::size_t>(b)],
                         wblocks[static_cast<std::size_t>(j) * blocks + b])
                         .value;
            out.at(i, j) = static_cast<float>(acc);
          }
        }
      });
  return out;
}

}  // namespace bbal::accel
