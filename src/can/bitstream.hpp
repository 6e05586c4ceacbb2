// Frame <-> wire bit sequence: layout, bit stuffing, destuffing.
//
// The stuffed region of a CAN 2.0A frame spans SOF through the end of the
// CRC sequence.  Whenever five consecutive bits of equal level have been
// transmitted there, the transmitter inserts one bit of the opposite level;
// receivers remove it again.  Six consecutive equal bits inside the stuffed
// region are a *stuff error* — which is exactly the flaw MichiCAN's
// counterattack exploits (paper Sec. IV-E).
#pragma once

#include <cstdint>
#include <vector>

#include "can/frame.hpp"
#include "can/types.hpp"
#include "sim/types.hpp"

namespace mcan::can {

/// One wire bit of a frame as the transmitter drives it.
struct TxBit {
  sim::BitLevel level{};
  Field field{};
  int unstuffed_pos{};  // position in the unstuffed frame; stuff bits carry
                        // the position of the bit they follow
  bool is_stuff{false};
};

/// Unstuffed bit values (0/1) of a frame from SOF through EOF, with the CRC
/// computed and inserted.  Index == unstuffed position.
[[nodiscard]] std::vector<std::uint8_t> unstuffed_bits(const CanFrame& frame);

/// Field tag for an unstuffed position, given the frame's DLC and format.
[[nodiscard]] Field field_at(int unstuffed_pos, int dlc, bool rtr,
                             bool extended = false) noexcept;

/// Number of unstuffed bits from SOF through CRC end (the stuffed region).
[[nodiscard]] int stuffed_region_length(int dlc, bool rtr,
                                        bool extended = false) noexcept;

/// Total unstuffed frame length, SOF through last EOF bit.
[[nodiscard]] int unstuffed_frame_length(int dlc, bool rtr,
                                         bool extended = false) noexcept;

/// Full wire bitstream for a frame: unstuffed bits with stuff bits inserted
/// in the stuffed region.  This is what a transmitter shifts out.
[[nodiscard]] std::vector<TxBit> wire_bits(const CanFrame& frame);

/// Incremental destuffer for receivers (and for MichiCAN's Algorithm 1).
/// Feed raw bus levels in order starting with SOF; it classifies each bit.
class Destuffer {
 public:
  enum class Result : std::uint8_t {
    DataBit,     // a real (unstuffed) frame bit
    StuffBit,    // inserted stuff bit, to be discarded
    StuffError,  // six consecutive equal levels observed
  };

  /// Classify the next raw bit inside the stuffed region.
  [[nodiscard]] Result feed(sim::BitLevel level) noexcept;

  /// Number of consecutive equal levels ending at the last fed bit.
  [[nodiscard]] int run_length() const noexcept { return run_; }

  void reset() noexcept {
    run_ = 0;
    have_last_ = false;
  }

 private:
  sim::BitLevel last_{};
  int run_{0};
  bool have_last_{false};
};

}  // namespace mcan::can
