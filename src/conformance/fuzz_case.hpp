// A fuzz case: the complete, self-contained description of one differential
// conformance run — per-node TX queues, a physical-layer fault plan and a
// bus-time budget.  Cases are plain values so the shrinker can mutate copies
// freely, and serialize both to JSON (machine-readable repro) and to a
// ready-to-paste GoogleTest translation unit (tests/repros/).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "can/fault_injector.hpp"
#include "can/frame.hpp"
#include "sim/types.hpp"

namespace mcan::conformance {

enum class CaseKind : std::uint8_t {
  /// Clean bus, unique arbitration keys: full oracle cross-check (wire
  /// windows, schedule, stuff counts, counters) plus fast/naive identity.
  Clean = 0,
  /// One scheduled bit flip into the body of a lone standard data frame:
  /// fast/naive identity plus the predicted TEC/REC trajectory.
  ScheduledFlip = 1,
  /// Random BER / stuck-at windows / extra flips: fast/naive identity plus
  /// protocol invariants (no oracle bit-for-bit check — the disturbance
  /// timing is below the frame-level model's resolution).
  Noisy = 2,
};

[[nodiscard]] std::string_view to_string(CaseKind k) noexcept;

/// One bus participant's transmit queue (frames enqueued before bit 0).
struct FuzzNode {
  std::vector<can::CanFrame> frames;
};

struct FuzzCase {
  /// Generator seed this case was derived from (provenance only — replaying
  /// a case never re-rolls the generator).
  std::uint64_t seed{0};
  CaseKind kind{CaseKind::Clean};
  std::vector<FuzzNode> nodes;
  /// Physical-layer disturbance plan.  `fault.seed` is pinned to a nonzero
  /// value at generation time so replays are exact.
  can::FaultSpec fault;
  /// Bus time to simulate.
  sim::BitTime run_bits{0};

  [[nodiscard]] std::size_t total_frames() const noexcept {
    std::size_t n = 0;
    for (const auto& node : nodes) n += node.frames.size();
    return n;
  }
};

/// A comfortable bus-time budget for the case: generous per-frame worst case
/// (longest extended frame + stuffing + error/retransmit headroom).
[[nodiscard]] sim::BitTime recommended_run_bits(const FuzzCase& c);

/// Machine-readable repro, schema "michican.fuzz_repro.v1".
[[nodiscard]] std::string to_json(const FuzzCase& c);

/// A complete GoogleTest translation unit reproducing the case through
/// conformance::run_case and asserting it no longer diverges.  `test_name`
/// must be a valid C++ identifier; `why` is embedded as a comment.
[[nodiscard]] std::string to_cpp_test(const FuzzCase& c,
                                      std::string_view test_name,
                                      std::string_view why);

}  // namespace mcan::conformance
