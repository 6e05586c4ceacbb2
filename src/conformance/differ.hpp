// The differential harness: run a FuzzCase through the real simulator under
// both engine tiers — quiescence (fast path) and naive per-bit — require the
// recordings to be byte-identical, then cross-check the run against the
// independent oracle (conformance/oracle.hpp) at whatever depth the case
// kind allows:
//
//   Clean          — full bit-for-bit wire check: every SOF window must
//                    decode to the predicted frame with the predicted stuff
//                    bits, frames must appear in predicted arbitration
//                    order with exactly 3 intermission bits between them,
//                    and every node's stats must match predict_schedule().
//   ScheduledFlip  — one flip into the body of a lone standard frame: the
//                    TEC/REC trajectory must match predict_counters() and
//                    the frame must still be delivered exactly once.
//   Noisy          — BER / stuck-at disturbances: protocol invariants only
//                    (counter bounds, no fabricated frames) — the
//                    frame-level oracle cannot time sub-frame noise.
//
// Any failed check is a divergence; the shrinker minimizes the case and the
// repro lands in tests/repros/.
#pragma once

#include <cstdint>
#include <string>

#include "conformance/fuzz_case.hpp"

namespace mcan::conformance {

struct CaseStats {
  bool oracle_checked{false};  // the Clean-tier oracle cross-check ran
  bool collision_skip{false};  // clean case had a same-key arbitration tie
  std::uint64_t frames_on_wire{};     // SOF windows decoded by the oracle
  std::uint64_t wire_bits_compared{};
  std::uint64_t stuff_bits_checked{};
  std::uint64_t arbitration_rounds{};
};

struct CaseOutcome {
  bool diverged{false};
  std::string divergence;  // first failed check, empty when ok
  CaseStats stats;
};

/// Execute the case (fast path on + off) and run every applicable check.
[[nodiscard]] CaseOutcome run_case(const FuzzCase& c);

}  // namespace mcan::conformance
