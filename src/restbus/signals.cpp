#include "restbus/signals.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "restbus/parse_number.hpp"

namespace mcan::restbus {
namespace {

/// DBC position -> (byte, bit-in-byte with 7 = MSB).
struct BitPos {
  int byte;
  int bit;
};

BitPos at(int position) { return {position / 8, position % 8}; }

int get_bit(const can::CanFrame& f, BitPos p) {
  return (f.data[static_cast<std::size_t>(p.byte)] >> p.bit) & 1;
}

void set_bit(can::CanFrame& f, BitPos p, int v) {
  auto& byte = f.data[static_cast<std::size_t>(p.byte)];
  byte = static_cast<std::uint8_t>(
      (byte & ~(1u << p.bit)) | (static_cast<unsigned>(v & 1) << p.bit));
}

/// Positions of the signal's bits from LSB (index 0) to MSB.
std::vector<BitPos> bit_positions(const SignalDef& sig) {
  std::vector<BitPos> out;
  out.reserve(static_cast<std::size_t>(sig.length));
  if (sig.order == ByteOrder::Intel) {
    for (int k = 0; k < sig.length; ++k) out.push_back(at(sig.start_bit + k));
  } else {
    // Motorola: start_bit is the MSB; walk down the sawtooth, then reverse
    // so index 0 is the LSB.
    int byte = sig.start_bit / 8;
    int bit = sig.start_bit % 8;
    std::vector<BitPos> msb_first;
    for (int k = 0; k < sig.length; ++k) {
      msb_first.push_back({byte, bit});
      if (--bit < 0) {
        bit = 7;
        ++byte;
      }
    }
    out.assign(msb_first.rbegin(), msb_first.rend());
  }
  return out;
}

}  // namespace

bool SignalDef::fits(int dlc) const noexcept {
  if (length < 1 || length > 64 || start_bit < 0) return false;
  int max_byte = 0;
  if (order == ByteOrder::Intel) {
    max_byte = (start_bit + length - 1) / 8;
  } else {
    // Motorola descends within a byte then moves to the next byte.
    const int bits_in_first = start_bit % 8 + 1;
    const int remaining = length - bits_in_first;
    max_byte = start_bit / 8 + (remaining > 0 ? (remaining + 7) / 8 : 0);
  }
  return max_byte < dlc;
}

std::uint64_t extract_raw(const can::CanFrame& frame, const SignalDef& sig) {
  assert(sig.fits(frame.dlc));
  std::uint64_t raw = 0;
  const auto positions = bit_positions(sig);
  for (std::size_t k = 0; k < positions.size(); ++k) {
    raw |= static_cast<std::uint64_t>(get_bit(frame, positions[k])) << k;
  }
  return raw;
}

void insert_raw(can::CanFrame& frame, const SignalDef& sig,
                std::uint64_t raw) {
  assert(sig.fits(frame.dlc));
  const auto positions = bit_positions(sig);
  for (std::size_t k = 0; k < positions.size(); ++k) {
    set_bit(frame, positions[k], static_cast<int>((raw >> k) & 1));
  }
}

double decode_signal(const can::CanFrame& frame, const SignalDef& sig) {
  std::uint64_t raw = extract_raw(frame, sig);
  if (sig.is_signed && sig.length < 64 &&
      (raw & (1ull << (sig.length - 1)))) {
    raw |= ~((1ull << sig.length) - 1);  // sign-extend
    return static_cast<double>(static_cast<std::int64_t>(raw)) * sig.scale +
           sig.offset;
  }
  return static_cast<double>(raw) * sig.scale + sig.offset;
}

void encode_signal(can::CanFrame& frame, const SignalDef& sig,
                   double physical) {
  const double raw_d = std::round((physical - sig.offset) / sig.scale);
  std::uint64_t raw;
  if (sig.is_signed) {
    const auto limit = 1ll << (sig.length - 1);
    const auto v = static_cast<std::int64_t>(
        std::clamp(raw_d, -static_cast<double>(limit),
                   static_cast<double>(limit - 1)));
    raw = static_cast<std::uint64_t>(v) &
          ((sig.length == 64) ? ~0ull : ((1ull << sig.length) - 1));
  } else {
    const double cap = sig.length == 64
                           ? 1.8446744073709552e19
                           : static_cast<double>((1ull << sig.length) - 1);
    raw = static_cast<std::uint64_t>(std::clamp(raw_d, 0.0, cap));
  }
  insert_raw(frame, sig, raw);
}

std::optional<SignalDef> parse_sg_line(const std::string& line) {
  const auto first = line.find_first_not_of(" \t");
  if (first == std::string::npos || line.compare(first, 4, "SG_ ") != 0) {
    return std::nullopt;
  }
  auto fail = [&](const char* what) -> SignalDef {
    throw std::runtime_error(std::string("SG_ line: ") + what + ": " + line);
  };
  SignalDef sig;
  std::istringstream ls{line.substr(first + 4)};
  std::string colon, layout, scale_off;
  if (!(ls >> sig.name >> colon >> layout >> scale_off)) {
    return fail("too few tokens");
  }
  if (colon != ":") return fail("expected ':'");
  // layout = <start>|<len>@<order><sign>
  const auto pipe = layout.find('|');
  const auto atp = layout.find('@');
  if (pipe == std::string::npos || atp == std::string::npos ||
      atp + 1 >= layout.size()) {
    return fail("bad layout");
  }
  const std::string_view lv{layout};
  if (!parse_number(lv.substr(0, pipe), sig.start_bit)) {
    return fail("bad start bit");
  }
  if (!parse_number(lv.substr(pipe + 1, atp - pipe - 1), sig.length)) {
    return fail("bad length");
  }
  sig.order = layout[atp + 1] == '1' ? ByteOrder::Intel : ByteOrder::Motorola;
  sig.is_signed = atp + 2 < layout.size() && layout[atp + 2] == '-';
  if (sig.length < 1 || sig.length > 64) return fail("bad length");
  // scale_off = (scale,offset)
  if (scale_off.size() < 5 || scale_off.front() != '(' ||
      scale_off.back() != ')') {
    return fail("bad (scale,offset)");
  }
  const std::string_view sv{scale_off};
  const auto comma = sv.find(',');
  if (comma == std::string_view::npos ||
      !parse_number(sv.substr(1, comma - 1), sig.scale) ||
      !parse_number(sv.substr(comma + 1, sv.size() - comma - 2), sig.offset)) {
    return fail("bad (scale,offset)");
  }
  if (sig.scale == 0.0) return fail("zero scale");
  // Optional [min|max] and "unit".
  std::string range, unit;
  if (ls >> range && range.size() >= 3 && range.front() == '[') {
    const std::string_view rv{range};
    const auto bar = rv.find('|');
    if (bar != std::string_view::npos && rv.back() == ']' &&
        (!parse_number(rv.substr(1, bar - 1), sig.min) ||
         !parse_number(rv.substr(bar + 1, rv.size() - bar - 2), sig.max))) {
      return fail("bad [min|max]");
    }
    ls >> unit;
  } else {
    unit = range;
  }
  if (unit.size() >= 2 && unit.front() == '"' && unit.back() == '"') {
    sig.unit = unit.substr(1, unit.size() - 2);
  }
  return sig;
}

std::string to_sg_line(const SignalDef& sig) {
  std::ostringstream os;
  os << " SG_ " << sig.name << " : " << sig.start_bit << "|" << sig.length
     << "@" << (sig.order == ByteOrder::Intel ? '1' : '0')
     << (sig.is_signed ? '-' : '+') << " (" << sig.scale << "," << sig.offset
     << ") [" << sig.min << "|" << sig.max << "] \"" << sig.unit
     << "\" Vector__XXX";
  return os.str();
}

}  // namespace mcan::restbus
