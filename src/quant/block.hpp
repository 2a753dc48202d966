// Encoded block representation and encode/decode entry points.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "quant/format.hpp"

namespace bbal::quant {

/// One encoded element: sign, high/low-group flag (BBFP), m-bit mantissa.
struct BlockElement {
  bool negative = false;
  bool flag = false;
  std::uint32_t mantissa = 0;
};

/// A block of values sharing one exponent, plus enough metadata to decode.
struct EncodedBlock {
  BlockFormat format;
  int shared_exponent = kZeroBlockExponent;  ///< E_s, unbiased
  std::vector<BlockElement> elems;

  /// Quantisation step of the low (flag = 0) group: 2^(E_s - m + 1).
  [[nodiscard]] double step_low() const;
  /// Step of the high (flag = 1) group: step_low * 2^(m - o).
  [[nodiscard]] double step_high() const;

  /// Decode element `i` back to a real value.
  [[nodiscard]] double decode(std::size_t i) const;
  /// Decode the whole block. Errors when `out.size() != elems.size()`
  /// instead of trusting the caller.
  [[nodiscard]] Status decode_all(std::span<double> out) const;
  [[nodiscard]] std::vector<double> decode_all() const;

  /// Number of flagged (high-group) elements — bit-level sparsity metric.
  [[nodiscard]] std::size_t flag_count() const;
};

/// Encode `values` (any length >= 1) into one block of `fmt`.
/// The block's shared exponent follows fmt.strategy_delta (Eq. 9).
[[nodiscard]] EncodedBlock encode_block(std::span<const double> values,
                                        const BlockFormat& fmt);

/// The two halves of encode_block, for callers that consume elements as
/// they are encoded. shared_exponent: E_s of one block of `values`, or
/// nullopt when every value is zero (encode_block then stores
/// kZeroBlockExponent and all-default elements). encode_element: one value
/// of a block with shared exponent `shared_exponent`; a zero keeps its
/// sign. `fmt` must be valid (BlockFormat::validate).
[[nodiscard]] std::optional<int> shared_exponent(std::span<const double> values,
                                                 const BlockFormat& fmt);
[[nodiscard]] std::optional<int> shared_exponent(std::span<const float> values,
                                                 const BlockFormat& fmt);
[[nodiscard]] BlockElement encode_element(double x, int shared_exponent,
                                          const BlockFormat& fmt);

/// Value of element `e` of a block with shared exponent `shared_exponent`
/// (EncodedBlock::decode's arithmetic).
[[nodiscard]] double decode_element(const BlockElement& e, int shared_exponent,
                                    const BlockFormat& fmt);

/// Round-trip: quantise consecutive blocks of fmt.block_size (the last
/// may be short), equal to encode_block + decode_all per block — an
/// all-zero block decodes to +0.0 — but building no EncodedBlock and
/// allocating nothing. `out` may alias `values`.
void quantise(std::span<const double> values, const BlockFormat& fmt,
              std::span<double> out);
[[nodiscard]] std::vector<double> quantise(std::span<const double> values,
                                           const BlockFormat& fmt);

/// float overloads used by the LLM fake-quant executor.
void quantise(std::span<const float> values, const BlockFormat& fmt,
              std::span<float> out);

}  // namespace bbal::quant
