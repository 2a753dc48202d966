#include "nl/engine.hpp"

#include <algorithm>
#include <array>
#include <cassert>
#include <cmath>
#include <optional>
#include <string>

#include "common/float_parts.hpp"

namespace bbal::nl {
namespace {

double sigmoid_ref(double x) { return 1.0 / (1.0 + std::exp(-x)); }
double phi_ref(double x) { return 0.5 * (1.0 + std::erf(x / std::sqrt(2.0))); }

}  // namespace

NlUnitEngine::NlUnitEngine(quant::BlockFormat fmt, int addr_bits)
    : fmt_(fmt), addr_bits_(addr_bits) {
  check_format(fmt, addr_bits).expect("NlUnitEngine");
}

Status NlUnitEngine::check_format(const quant::BlockFormat& fmt,
                                  int addr_bits) {
  if (const Status s = fmt.validate(); !s.is_ok()) return s;
  if (addr_bits < 2 || addr_bits > fmt.mantissa_bits) {
    const std::string bits = std::to_string(addr_bits);
    return Status::error(fmt.name() + " cannot address the nonlinear unit's " +
                         bits + "-bit LUT: it needs at least " + bits +
                         " mantissa bits, the format has " +
                         std::to_string(fmt.mantissa_bits));
  }
  return Status::ok();
}

double NlUnitEngine::quantise_entry(double v) const {
  if (v == 0.0) return 0.0;
  // Entries are stored with the unit's mantissa precision (sign + 5-bit
  // exponent + m-bit mantissa), i.e. scalar round at m bits.
  const FloatParts parts = decompose(v, fmt_.mantissa_bits);
  return compose(parts, fmt_.mantissa_bits);
}

template <typename F>
void NlUnitEngine::lookup(std::span<const double> xs, std::span<double> out,
                          std::span<double> aligned, LutTables& tables,
                          const F& f) {
  assert(xs.size() == out.size());
  assert(aligned.empty() || aligned.size() == xs.size());
  if (xs.empty()) return;
  // The Align Exponent Unit computes ONE shared exponent for the whole
  // vector (Section IV.B: "once a shared exponent is calculated during the
  // alignment phase, the corresponding sub-table can be loaded") — this is
  // what makes max-aligned BFP catastrophic on wide-range vectors while
  // BBFP's lowered exponent keeps the bulk resolution.
  ++stats_.blocks_encoded;
  stats_.elements += xs.size();
  // A zero mantissa reads no sub-table: its output is f(0).
  const auto zero_output = [&] {
    if (!tables.zero.filled) tables.zero = {quantise_entry(f(0.0)), true};
    return tables.zero.value;
  };
  const std::optional<int> es = quant::shared_exponent(xs, fmt_);
  if (!es) {  // an all-zero block
    std::fill(out.begin(), out.end(), zero_output());
    std::fill(aligned.begin(), aligned.end(), 0.0);
    return;
  }
  const int m = fmt_.mantissa_bits;
  const int dd = fmt_.shift_distance();
  const int drop = m - addr_bits_;
  const std::size_t entries = std::size_t{1} << addr_bits_;
  // This block's sub-tables, indexed by 2 * flag + sign once touched.
  std::array<Entry*, 4> subtables{};

  for (std::size_t i = 0; i < xs.size(); ++i) {
    const quant::BlockElement e = quant::encode_element(xs[i], *es, fmt_);
    if (!aligned.empty()) aligned[i] = quant::decode_element(e, *es, fmt_);
    if (e.mantissa == 0) {
      out[i] = zero_output();
      continue;
    }
    ++stats_.lut_lookups;
    Entry*& table = subtables[(e.flag ? 2 : 0) + (e.negative ? 1 : 0)];
    if (table == nullptr) {
      std::vector<Entry>& sub = tables.subtables[{*es, e.flag, e.negative}];
      sub.resize(entries);
      table = sub.data();
      stats_.subtables_touched.insert({*es, e.flag});
    }
    // LUT address: top addr_bits of the aligned mantissa. The bucket
    // midpoint reconstructs the input the entry was tabulated at.
    const std::uint32_t addr = e.mantissa >> drop;
    Entry& entry = table[addr];
    if (!entry.filled) {
      const double mid_mantissa =
          (static_cast<double>(addr) + 0.5) * std::ldexp(1.0, drop);
      const double step = std::ldexp(1.0, *es - m + 1 + (e.flag ? dd : 0));
      const double x_mid = mid_mantissa * step * (e.negative ? -1.0 : 1.0);
      entry = {quantise_entry(f(x_mid)), true};
    }
    out[i] = entry.value;
  }
}

void NlUnitEngine::apply_lut(std::span<const double> xs, std::span<double> out,
                             const std::function<double(double)>& f) {
  LutTables cold;
  lookup(xs, out, {}, cold, f);
}

void NlUnitEngine::softmax(std::span<float> xs) {
  if (xs.empty()) return;
  // 1. Max unit.
  float mx = xs[0];
  for (const float v : xs) mx = std::max(mx, v);
  // 2. Sub unit (FP16-precision subtract), then exp LUT on x - max <= 0.
  in_.resize(xs.size());
  for (std::size_t i = 0; i < xs.size(); ++i)
    in_[i] = to_fp16(static_cast<double>(xs[i]) - mx);
  lut_out_.resize(xs.size());
  lookup(in_, lut_out_, {}, exp_lut_, [](double x) { return std::exp(x); });
  // 3. Adder tree (high-bitwidth integer in hardware; exact here).
  double sum = 0.0;
  for (const double v : lut_out_) sum += v;
  if (sum <= 0.0) {  // degenerate: uniform fallback
    const float u = 1.0f / static_cast<float>(xs.size());
    for (float& v : xs) v = u;
    return;
  }
  // 4. Div unit + output encoder (quotients re-quantised to m bits).
  for (std::size_t i = 0; i < xs.size(); ++i)
    xs[i] = static_cast<float>(quantise_entry(lut_out_[i] / sum));
}

template <typename F>
void NlUnitEngine::gated(std::span<float> xs, LutTables& tables, const F& g) {
  in_.assign(xs.begin(), xs.end());
  lut_out_.resize(xs.size());
  aligned_.resize(xs.size());
  lookup(in_, lut_out_, aligned_, tables, g);
  // Mul unit: multiply the vector-aligned quantised input by the entry.
  for (std::size_t i = 0; i < xs.size(); ++i)
    xs[i] = static_cast<float>(quantise_entry(aligned_[i] * lut_out_[i]));
}

void NlUnitEngine::silu(std::span<float> xs) {
  gated(xs, sigmoid_lut_, sigmoid_ref);
}

void NlUnitEngine::gelu(std::span<float> xs) { gated(xs, phi_lut_, phi_ref); }

void NlUnitEngine::sigmoid(std::span<float> xs) {
  in_.assign(xs.begin(), xs.end());
  lut_out_.resize(xs.size());
  lookup(in_, lut_out_, {}, sigmoid_lut_, sigmoid_ref);
  for (std::size_t i = 0; i < xs.size(); ++i)
    xs[i] = static_cast<float>(lut_out_[i]);
}

int NlUnitEngine::provisioned_subtables(int e_min, int e_max,
                                        bool both_signs) {
  assert(e_max >= e_min);
  return (e_max - e_min + 1) * (both_signs ? 2 : 1);
}

std::size_t NlUnitEngine::subtable_bits() const {
  const std::size_t entries = std::size_t{1} << addr_bits_;
  const std::size_t entry_bits =
      1 + static_cast<std::size_t>(fmt_.exponent_bits) +
      static_cast<std::size_t>(fmt_.mantissa_bits);
  return entries * entry_bits;
}

}  // namespace bbal::nl
