// Structured, timestamped log of protocol-level events.
//
// Controllers and defense nodes publish what happened (frame started, error
// raised, error-state changed, attack detected, ...) and the analysis layer
// (src/analysis) turns the stream into the paper's metrics: bus-off time,
// detection latency, retransmission counts.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "sim/types.hpp"

namespace mcan::sim {

enum class EventKind : std::uint8_t {
  FrameTxStart,       // node started transmitting a frame (SOF); id = CAN ID
  FrameTxSuccess,     // node completed a transmission (EOF reached, ACKed)
  FrameRxSuccess,     // node received a complete valid frame; id = CAN ID
  ArbitrationLost,    // node lost arbitration; id = its pending CAN ID
  TxError,            // transmitter observed an error; a = error type, b = TEC
  RxError,            // receiver observed an error; a = error type, b = REC
  ErrorStateChange,   // a = new ErrorState (0 active, 1 passive, 2 bus-off)
  BusOff,             // node entered bus-off; b = TEC
  BusOffRecovered,    // node finished 128*11 recessive recovery
  SuspendStart,       // error-passive transmitter began 8-bit suspend window
  AttackDetected,     // defense flagged a frame; id = attacker ID (if known),
                      // a = detection bit position within the CAN ID
  CounterattackStart, // defense began pulling the bus dominant
  CounterattackEnd,   // defense released the bus
  OverloadFrame,      // node transmitted an overload flag
  FaultInjected,      // physical-layer fault injected on the bus;
                      // a = can::FaultKind, b = kind-specific (level/node)
  Custom,             // free-form; see detail
};

/// Number of EventKind members.  Custom must stay the last member; the
/// to_string() exhaustiveness test iterates [0, kEventKindCount) and the
/// timeline exporter's switch has no default, so extending the enum
/// without updating both is a compile/test failure, not a silent gap.
inline constexpr std::size_t kEventKindCount =
    static_cast<std::size_t>(EventKind::Custom) + 1;

[[nodiscard]] std::string_view to_string(EventKind k) noexcept;

struct Event {
  BitTime at{};
  std::string node;
  EventKind kind{};
  std::uint32_t id{};  // CAN ID when applicable
  std::int64_t a{};    // kind-specific
  std::int64_t b{};    // kind-specific
  std::string detail;  // optional free-form text
};

class EventLog {
 public:
  // A rest-bus Table II cell (exp1/exp3, 100k bits) logs 16.6k events on
  // average and at most 17.0k over 64 seeds; reserving above that keeps
  // the geometric growth (one reallocation that moves the whole log) out
  // of the hot loop.  Isolated cells log about 8k and never touch the rest.
  EventLog() { events_.reserve(18432); }

  void push(Event e) { events_.push_back(std::move(e)); }

  [[nodiscard]] const std::vector<Event>& events() const noexcept {
    return events_;
  }
  [[nodiscard]] std::size_t size() const noexcept { return events_.size(); }

  /// All events of the given kind (optionally restricted to one node).
  [[nodiscard]] std::vector<Event> filter(EventKind kind,
                                          std::string_view node = {}) const;

  /// First event of the given kind at or after `from`, or nullptr.
  [[nodiscard]] const Event* first(EventKind kind, BitTime from = 0,
                                   std::string_view node = {}) const;

  /// Count of events of the given kind (optionally per node).
  [[nodiscard]] std::size_t count(EventKind kind,
                                  std::string_view node = {}) const;

  /// Human-readable dump (for examples and debugging).
  [[nodiscard]] std::string dump(std::size_t max_events = 200) const;

 private:
  std::vector<Event> events_;
};

}  // namespace mcan::sim
