// quant::KvFormat / quant::KvPageCodec: name parsing, packed row sizes,
// FP32 identity, block-format round trips pinned against quant::quantise
// (the codec adds a byte layout, never a second rounding rule),
// quantise_row pinned to the byte round trip in every format, and the
// INT8 per-group error bound.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <random>
#include <vector>

#include "quant/block.hpp"
#include "quant/kv_codec.hpp"

namespace bbal::quant {
namespace {

/// Bit-for-bit equality: signed zeros must match too.
bool same_bits(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

std::vector<float> random_row(int n, unsigned seed) {
  std::mt19937 rng(seed);
  std::normal_distribution<float> dist(0.0f, 2.0f);
  std::vector<float> row(static_cast<std::size_t>(n));
  for (float& x : row) x = dist(rng);
  // A few structured values: zeros and an outlier exercise the shared
  // exponent and the BBFP high-group flag.
  if (n >= 4) {
    row[0] = 0.0f;
    row[1] = -0.0f;
    row[2] = 37.5f;
    row[3] = -1e-4f;
  }
  return row;
}

TEST(KvFormat, ParsesTheStorableFamiliesAndRoundTrips) {
  for (const char* name :
       {"FP32", "INT8", "BFP4", "BFP8", "BBFP(4,2)", "BBFP(6,3)"}) {
    const auto parsed = KvFormat::parse(name);
    ASSERT_TRUE(parsed.is_ok()) << name << ": " << parsed.message();
    EXPECT_EQ(parsed.value().name(), name);
    const auto again = KvFormat::parse(parsed.value().name());
    ASSERT_TRUE(again.is_ok());
    EXPECT_TRUE(again.value() == parsed.value());
  }
  // Case-insensitive like the strategy grammar.
  EXPECT_TRUE(KvFormat::parse("bbfp(4,2)").is_ok());
}

TEST(KvFormat, RejectsNonStorableStrategies) {
  for (const char* name :
       {"FP16", "INT4", "Oltron", "Olive", "OmniQuant", "BBFP-LUT(10,5)",
        "PseudoSoftmax", "garbage", ""}) {
    const auto parsed = KvFormat::parse(name);
    EXPECT_FALSE(parsed.is_ok()) << name << " should not be a KV format";
    if (!parsed.is_ok()) {
      EXPECT_NE(parsed.message().find("not storable"), std::string::npos)
          << parsed.message();
    }
  }
}

TEST(KvPageCodec, PackedRowBytesMatchTheDocumentedLayout) {
  // d_model = 128 -> 4 groups of 32 (the Llama-7B zoo width).
  const int d = 128;
  const auto bytes = [d](const char* name) {
    return KvPageCodec(KvFormat::parse(name).expect(name), d)
        .encoded_row_bytes();
  };
  EXPECT_EQ(bytes("FP32"), 512u);       // 128 raw floats
  EXPECT_EQ(bytes("INT8"), 144u);       // 4 x (4B scale + 32 int8)
  EXPECT_EQ(bytes("BFP4"), 88u);        // 4 x (2B exp + 32*5 bits)
  EXPECT_EQ(bytes("BBFP(4,2)"), 104u);  // 4 x (2B exp + 32*6 bits)
  EXPECT_EQ(bytes("BBFP(6,3)"), 136u);  // 4 x (2B exp + 32*8 bits)
  // The headline format packs >= 4x denser than FP32 pages.
  EXPECT_LE(bytes("BBFP(4,2)") * 4, bytes("FP32"));

  // A short final group is sized exactly, not padded to a full block.
  const KvPageCodec ragged(KvFormat::parse("BFP4").expect("BFP4"), 40);
  EXPECT_EQ(ragged.encoded_row_bytes(), (2u + 20u) + (2u + 5u));
}

TEST(KvPageCodec, Fp32IsTheByteIdentity) {
  const int d = 37;  // deliberately not a multiple of the group size
  const KvPageCodec codec(KvFormat::fp32(), d);
  ASSERT_EQ(codec.encoded_row_bytes(), static_cast<std::size_t>(d) * 4);
  const std::vector<float> row = random_row(d, 11);
  std::vector<std::uint8_t> packed(codec.encoded_row_bytes());
  codec.encode_row(row, packed);
  EXPECT_EQ(std::memcmp(packed.data(), row.data(), packed.size()), 0);
  std::vector<float> out(static_cast<std::size_t>(d));
  codec.decode_row(packed, out);
  EXPECT_EQ(std::memcmp(out.data(), row.data(), packed.size()), 0);
}

TEST(KvPageCodec, BlockFormatsRoundTripExactlyAsQuantise) {
  for (const char* name : {"BFP4", "BFP8", "BBFP(4,2)", "BBFP(6,3)"}) {
    const KvFormat format = KvFormat::parse(name).expect(name);
    for (const int d : {7, 32, 40, 128}) {
      const KvPageCodec codec(format, d);
      const std::vector<float> row =
          random_row(d, static_cast<unsigned>(d) * 31u + 5u);
      std::vector<std::uint8_t> packed(codec.encoded_row_bytes());
      codec.encode_row(row, packed);
      std::vector<float> out(static_cast<std::size_t>(d));
      codec.decode_row(packed, out);
      // The reference: quantise() runs encode_block + decode over the same
      // 32-element grouping. Bit-equality, not a tolerance.
      std::vector<float> ref(static_cast<std::size_t>(d));
      quantise(std::span<const float>(row), format.block,
               std::span<float>(ref));
      for (int i = 0; i < d; ++i)
        ASSERT_EQ(out[static_cast<std::size_t>(i)],
                  ref[static_cast<std::size_t>(i)])
            << name << " d=" << d << " elem " << i;
    }
  }
}

TEST(KvPageCodec, QuantiseRowIsTheByteRoundTripBitForBit) {
  for (const char* name :
       {"FP32", "INT8", "BFP4", "BFP8", "BBFP(4,2)", "BBFP(6,3)"}) {
    for (const int d : {7, 32, 40, 128}) {
      const KvPageCodec codec(KvFormat::parse(name).expect(name), d);
      std::vector<float> row = random_row(d, static_cast<unsigned>(d) + 3u);
      std::vector<std::uint8_t> packed(codec.encoded_row_bytes());
      codec.encode_row(row, packed);
      std::vector<float> decoded(row.size());
      codec.decode_row(packed, decoded);
      std::vector<float> quantised(row.size());
      codec.quantise_row(row, quantised);
      EXPECT_TRUE(same_bits(quantised, decoded)) << name << " d=" << d;
      codec.quantise_row(row, row);  // in place
      EXPECT_TRUE(same_bits(row, decoded)) << name << " d=" << d << " in place";
    }
  }
}

TEST(KvPageCodec, Int8RoundTripHonoursThePerGroupBound) {
  const int d = 71;
  const KvPageCodec codec(KvFormat::int8(), d);
  const std::vector<float> row = random_row(d, 99);
  std::vector<std::uint8_t> packed(codec.encoded_row_bytes());
  codec.encode_row(row, packed);
  std::vector<float> out(static_cast<std::size_t>(d));
  codec.decode_row(packed, out);
  // Per 32-element group: scale = max|x| / 127, and round-to-nearest keeps
  // every element within half a step of its input.
  for (int start = 0; start < d; start += 32) {
    const int n = std::min(32, d - start);
    float max_abs = 0.0f;
    for (int i = 0; i < n; ++i)
      max_abs = std::max(max_abs,
                         std::fabs(row[static_cast<std::size_t>(start + i)]));
    const float step = max_abs / 127.0f;
    for (int i = 0; i < n; ++i) {
      const std::size_t at = static_cast<std::size_t>(start + i);
      EXPECT_LE(std::fabs(out[at] - row[at]), 0.5f * step * 1.0001f)
          << "elem " << at;
    }
  }
}

TEST(KvPageCodec, AllZeroRowsEncodeAndDecodeToZero) {
  for (const char* name : {"FP32", "INT8", "BFP4", "BBFP(4,2)"}) {
    const KvPageCodec codec(KvFormat::parse(name).expect(name), 33);
    const std::vector<float> row(33, 0.0f);
    std::vector<std::uint8_t> packed(codec.encoded_row_bytes());
    codec.encode_row(row, packed);
    std::vector<float> out(33, 1.0f);
    codec.decode_row(packed, out);
    for (const float x : out) EXPECT_EQ(x, 0.0f) << name;
  }
}

}  // namespace
}  // namespace bbal::quant
