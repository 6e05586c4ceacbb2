// Core value types shared by the whole simulator.
//
// The simulation advances in *nominal bit times*: every node drives a level,
// the bus resolves the wired-AND, and every node samples the result.  All
// durations in the protocol layer are therefore expressed in bits; the
// conversion to wall-clock time is a single multiplication by the nominal
// bit time (paper Sec. V-C does exactly the same).
#pragma once

#include <cstdint>
#include <string>

namespace mcan::sim {

/// Logical level on the CAN bus.  CAN uses wired-AND semantics: a dominant
/// (logical 0) level transmitted by any node overrides recessive (logical 1).
enum class BitLevel : std::uint8_t {
  Dominant = 0,
  Recessive = 1,
};

/// Wired-AND resolution of two levels: dominant wins.
[[nodiscard]] constexpr BitLevel wired_and(BitLevel a, BitLevel b) noexcept {
  return (a == BitLevel::Dominant || b == BitLevel::Dominant)
             ? BitLevel::Dominant
             : BitLevel::Recessive;
}

[[nodiscard]] constexpr bool is_dominant(BitLevel l) noexcept {
  return l == BitLevel::Dominant;
}
[[nodiscard]] constexpr bool is_recessive(BitLevel l) noexcept {
  return l == BitLevel::Recessive;
}

/// 0/1 value of a level as it appears in a frame bit string (dominant = 0).
[[nodiscard]] constexpr int to_bit(BitLevel l) noexcept {
  return l == BitLevel::Dominant ? 0 : 1;
}
[[nodiscard]] constexpr BitLevel from_bit(int b) noexcept {
  return b == 0 ? BitLevel::Dominant : BitLevel::Recessive;
}
[[nodiscard]] constexpr BitLevel invert(BitLevel l) noexcept {
  return l == BitLevel::Dominant ? BitLevel::Recessive : BitLevel::Dominant;
}

/// Monotone simulation time, counted in nominal bit times since start.
using BitTime = std::uint64_t;

/// Saturating add for bit-time arithmetic on the skip path.  Horizon
/// math routinely mixes finite clocks with sentinel values (kNever, huge
/// geometric flip gaps); on soak-length runs an unchecked `now + span`
/// wraps to a tiny number and silently truncates or never terminates the
/// run loop.  Clamping at the maximum keeps every comparison correct.
[[nodiscard]] constexpr BitTime sat_add(BitTime a, BitTime b) noexcept {
  constexpr BitTime kMax = ~BitTime{0};
  return b > kMax - a ? kMax : a + b;
}

/// Strongly-typed duration.  Bits and milliseconds used to travel through
/// the API as raw doubles, which made `run_ms(2000)` vs `run(2000)` a silent
/// unit bug; Duration makes the unit part of the type and forces the
/// conversion through BusSpeed, where the bit rate actually lives.
template <class Rep, class UnitTag>
class Duration {
 public:
  using rep = Rep;

  constexpr Duration() noexcept = default;
  constexpr explicit Duration(Rep value) noexcept : value_{value} {}

  [[nodiscard]] constexpr Rep value() const noexcept { return value_; }

  friend constexpr bool operator==(Duration a, Duration b) noexcept {
    return a.value_ == b.value_;
  }
  friend constexpr bool operator!=(Duration a, Duration b) noexcept {
    return !(a == b);
  }
  friend constexpr bool operator<(Duration a, Duration b) noexcept {
    return a.value_ < b.value_;
  }
  friend constexpr bool operator<=(Duration a, Duration b) noexcept {
    return a.value_ <= b.value_;
  }
  friend constexpr bool operator>(Duration a, Duration b) noexcept {
    return b < a;
  }
  friend constexpr bool operator>=(Duration a, Duration b) noexcept {
    return b <= a;
  }
  friend constexpr Duration operator+(Duration a, Duration b) noexcept {
    return Duration{static_cast<Rep>(a.value_ + b.value_)};
  }
  friend constexpr Duration operator-(Duration a, Duration b) noexcept {
    return Duration{static_cast<Rep>(a.value_ - b.value_)};
  }

 private:
  Rep value_{};
};

/// A span of nominal bit times.
using Bits = Duration<BitTime, struct BitsUnitTag>;
/// A span of wall-clock milliseconds (meaningful only next to a BusSpeed).
using Millis = Duration<double, struct MillisUnitTag>;

/// Bus speed in bits per second (e.g. 50'000, 125'000, 500'000).
struct BusSpeed {
  std::uint32_t bits_per_second{500'000};

  /// Nominal bit time in microseconds.
  [[nodiscard]] constexpr double bit_time_us() const noexcept {
    return 1e6 / static_cast<double>(bits_per_second);
  }
  /// Convert a duration in bits to milliseconds at this speed.
  [[nodiscard]] constexpr double bits_to_ms(double bits) const noexcept {
    return bits * 1e3 / static_cast<double>(bits_per_second);
  }
  /// Convert a duration in milliseconds to (fractional) bits.
  [[nodiscard]] constexpr double ms_to_bits(double ms) const noexcept {
    return ms * static_cast<double>(bits_per_second) / 1e3;
  }

  /// Typed conversions: the only sanctioned way to cross the unit boundary.
  [[nodiscard]] constexpr Bits to_bits(Millis ms) const noexcept {
    return Bits{static_cast<BitTime>(ms_to_bits(ms.value()))};
  }
  [[nodiscard]] constexpr Millis to_millis(Bits bits) const noexcept {
    return Millis{bits_to_ms(static_cast<double>(bits.value()))};
  }
};

[[nodiscard]] std::string to_string(BitLevel l);

}  // namespace mcan::sim
