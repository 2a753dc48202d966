#include "quant/kv_codec.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstring>
#include <optional>

#include "quant/block.hpp"
#include "quant/strategy.hpp"

namespace bbal::quant {
namespace {

/// MSB-first bit packer over a byte span. Groups are byte-padded, so one
/// writer/reader per group keeps rows independently addressable.
class BitWriter {
 public:
  explicit BitWriter(std::span<std::uint8_t> out) : out_(out) {}

  void put(std::uint32_t value, int bits) {
    for (int b = bits - 1; b >= 0; --b) {
      if ((value >> b) & 1u)
        out_[pos_ >> 3] |= static_cast<std::uint8_t>(0x80u >> (pos_ & 7));
      ++pos_;
    }
  }

 private:
  std::span<std::uint8_t> out_;
  std::size_t pos_ = 0;
};

class BitReader {
 public:
  explicit BitReader(std::span<const std::uint8_t> in) : in_(in) {}

  [[nodiscard]] std::uint32_t get(int bits) {
    std::uint32_t value = 0;
    for (int b = 0; b < bits; ++b) {
      value = (value << 1) |
              ((in_[pos_ >> 3] >> (7 - (pos_ & 7))) & 1u);
      ++pos_;
    }
    return value;
  }

 private:
  std::span<const std::uint8_t> in_;
  std::size_t pos_ = 0;
};

constexpr int kInt8GroupSize = 32;  ///< matches the block families' grain
constexpr float kInt8Max = 127.0f;

/// An INT8 group's scale: max|x| / 127, 0 for an all-zero group.
float int8_scale(std::span<const float> group) {
  float max_abs = 0.0f;
  for (const float v : group) max_abs = std::max(max_abs, std::fabs(v));
  return max_abs > 0.0f ? max_abs / kInt8Max : 0.0f;
}

/// The INT8 code of `x` at `scale`: round-to-nearest in double, clamped to
/// +-127. The code decodes to static_cast<float>(code) * scale.
std::int8_t int8_code(float x, float scale) {
  double q = 0.0;
  if (scale > 0.0f)
    q = std::round(static_cast<double>(x) / static_cast<double>(scale));
  return static_cast<std::int8_t>(std::clamp(q, -127.0, 127.0));
}

}  // namespace

// --- KvFormat ----------------------------------------------------------------

Result<KvFormat> KvFormat::parse(std::string_view text) {
  const auto fail = [&text]() {
    return Result<KvFormat>::error(
        "KV format \"" + std::string(text) +
        "\" not storable: expected FP32, INT8, BFP<m> or BBFP(<m>,<o>)");
  };
  auto spec = StrategySpec::parse(text);
  if (!spec.is_ok()) return fail();
  switch (spec.value().family) {
    case StrategyFamily::kFp32:
      return KvFormat::fp32();
    case StrategyFamily::kInt:
      // Page bytes are the point of the knob; only the byte-aligned width
      // has a packed layout here.
      if (spec.value().bits != 8) return fail();
      return KvFormat::int8();
    case StrategyFamily::kBfp:
    case StrategyFamily::kBbfp: {
      auto fmt = spec.value().block_format();
      if (!fmt.is_ok()) return fail();
      return KvFormat::block_format(fmt.value());
    }
    default:
      return fail();
  }
}

std::string KvFormat::name() const {
  switch (kind) {
    case Kind::kFp32:
      return "FP32";
    case Kind::kInt8:
      return "INT8";
    case Kind::kBlock:
      return block.name();
  }
  return "FP32";
}

// --- KvPageCodec -------------------------------------------------------------

KvPageCodec::KvPageCodec(const KvFormat& format, int row_elems)
    : format_(format), row_elems_(row_elems) {
  assert(row_elems_ > 0);
  if (format_.kind == KvFormat::Kind::kBlock)
    format_.block.validate().expect("KvPageCodec");
  std::size_t bytes = 0;
  const int gs = group_size();
  for (int start = 0; start < row_elems_; start += gs)
    bytes += group_bytes(std::min(gs, row_elems_ - start));
  row_bytes_ = bytes;
}

int KvPageCodec::group_size() const {
  return format_.kind == KvFormat::Kind::kBlock ? format_.block.block_size
                                                : kInt8GroupSize;
}

std::size_t KvPageCodec::group_bytes(int n) const {
  switch (format_.kind) {
    case KvFormat::Kind::kFp32:
      return static_cast<std::size_t>(n) * sizeof(float);
    case KvFormat::Kind::kInt8:
      // 4-byte scale + one int8 per element.
      return sizeof(float) + static_cast<std::size_t>(n);
    case KvFormat::Kind::kBlock: {
      // 2-byte shared exponent + packed sign/flag/mantissa fields.
      const int elem_bits =
          1 + (format_.block.is_bbfp() ? 1 : 0) + format_.block.mantissa_bits;
      const std::size_t bits =
          static_cast<std::size_t>(n) * static_cast<std::size_t>(elem_bits);
      return sizeof(std::int16_t) + (bits + 7) / 8;
    }
  }
  return 0;
}

void KvPageCodec::encode_row(std::span<const float> row,
                             std::span<std::uint8_t> out) const {
  assert(static_cast<int>(row.size()) == row_elems_);
  assert(out.size() == row_bytes_);
  if (format_.kind == KvFormat::Kind::kFp32) {
    std::memcpy(out.data(), row.data(), row.size() * sizeof(float));
    return;
  }
  const int gs = group_size();
  std::size_t off = 0;
  for (int start = 0; start < row_elems_; start += gs) {
    const int n = std::min(gs, row_elems_ - start);
    const std::size_t gb = group_bytes(n);
    std::span<std::uint8_t> dst = out.subspan(off, gb);
    std::fill(dst.begin(), dst.end(), std::uint8_t{0});
    const std::span<const float> group = row.subspan(
        static_cast<std::size_t>(start), static_cast<std::size_t>(n));
    if (format_.kind == KvFormat::Kind::kInt8) {
      const float scale = int8_scale(group);
      std::memcpy(dst.data(), &scale, sizeof(float));
      for (std::size_t i = 0; i < group.size(); ++i)
        dst[sizeof(float) + i] =
            static_cast<std::uint8_t>(int8_code(group[i], scale));
    } else {
      // encode_block's encoding, element by element: an all-zero group
      // stores kZeroBlockExponent and default elements.
      const std::optional<int> shared = shared_exponent(group, format_.block);
      const auto es =
          static_cast<std::int16_t>(shared.value_or(kZeroBlockExponent));
      std::memcpy(dst.data(), &es, sizeof(std::int16_t));
      BitWriter bits(dst.subspan(sizeof(std::int16_t)));
      for (int i = 0; i < n; ++i) {
        BlockElement e;
        if (shared)
          e = encode_element(group[static_cast<std::size_t>(i)], *shared,
                             format_.block);
        bits.put(e.negative ? 1u : 0u, 1);
        if (format_.block.is_bbfp()) bits.put(e.flag ? 1u : 0u, 1);
        bits.put(e.mantissa, format_.block.mantissa_bits);
      }
    }
    off += gb;
  }
}

void KvPageCodec::decode_row(std::span<const std::uint8_t> in,
                             std::span<float> out) const {
  assert(in.size() == row_bytes_);
  assert(static_cast<int>(out.size()) == row_elems_);
  if (format_.kind == KvFormat::Kind::kFp32) {
    std::memcpy(out.data(), in.data(), out.size() * sizeof(float));
    return;
  }
  const int gs = group_size();
  std::size_t off = 0;
  for (int start = 0; start < row_elems_; start += gs) {
    const int n = std::min(gs, row_elems_ - start);
    const std::size_t gb = group_bytes(n);
    std::span<const std::uint8_t> src = in.subspan(off, gb);
    if (format_.kind == KvFormat::Kind::kInt8) {
      float scale = 0.0f;
      std::memcpy(&scale, src.data(), sizeof(float));
      for (int i = 0; i < n; ++i) {
        const std::int8_t q = static_cast<std::int8_t>(
            src[sizeof(float) + static_cast<std::size_t>(i)]);
        out[static_cast<std::size_t>(start + i)] =
            static_cast<float>(q) * scale;
      }
    } else {
      std::int16_t es = 0;
      std::memcpy(&es, src.data(), sizeof(std::int16_t));
      BitReader bits(src.subspan(sizeof(std::int16_t)));
      for (int i = 0; i < n; ++i) {
        BlockElement e;
        e.negative = bits.get(1) != 0;
        if (format_.block.is_bbfp()) e.flag = bits.get(1) != 0;
        e.mantissa = bits.get(format_.block.mantissa_bits);
        out[static_cast<std::size_t>(start + i)] =
            static_cast<float>(decode_element(e, es, format_.block));
      }
    }
    off += gb;
  }
}

void KvPageCodec::quantise_row(std::span<const float> row,
                               std::span<float> out) const {
  assert(static_cast<int>(row.size()) == row_elems_);
  assert(out.size() == row.size());
  switch (format_.kind) {
    case KvFormat::Kind::kFp32:
      if (out.data() != row.data())
        std::copy(row.begin(), row.end(), out.begin());
      return;
    case KvFormat::Kind::kBlock:
      quantise(row, format_.block, out);
      return;
    case KvFormat::Kind::kInt8:
      for (std::size_t start = 0; start < row.size(); start += kInt8GroupSize) {
        const std::size_t n =
            std::min<std::size_t>(kInt8GroupSize, row.size() - start);
        const float scale = int8_scale(row.subspan(start, n));
        for (std::size_t i = start; i < start + n; ++i)
          out[i] = static_cast<float>(int8_code(row[i], scale)) * scale;
      }
      return;
  }
}

}  // namespace bbal::quant
