// Interface between the wired-AND bus and anything attached to it.
#pragma once

#include <limits>
#include <string>
#include <string_view>

#include "sim/types.hpp"

namespace mcan::can {

/// next_activity() sentinel: the node cannot promise any quiescent window —
/// the bus must keep stepping it bit by bit.  Any return value <= now means
/// the same thing, so 0 is the universal "opt out".
inline constexpr sim::BitTime kAlways = 0;

/// next_activity() sentinel: the node is purely reactive — it never drives a
/// dominant level or changes state on its own while the bus stays recessive.
inline constexpr sim::BitTime kNever =
    std::numeric_limits<sim::BitTime>::max();

/// A device attached to the CAN bus.  Once per nominal bit time the bus
/// calls, in order: tick() (application work), tx_level() (the level this
/// node drives), then on_bus_bit() with the resolved wired-AND level
/// (the sample point).  Decisions made in on_bus_bit(t) take effect on the
/// level driven at t+1, matching real controllers that change their output
/// at the next bit boundary after the sample point.
class CanNode {
 public:
  virtual ~CanNode() = default;

  /// Application hook, called before levels are collected for this bit.
  virtual void tick(sim::BitTime /*now*/) {}

  /// Level this node drives onto the bus for the current bit time.
  [[nodiscard]] virtual sim::BitLevel tx_level() = 0;

  /// Resolved bus level for the current bit time (the sample).
  virtual void on_bus_bit(sim::BitLevel bus) = 0;

  /// Scheduling contract for the quiescence-skipping kernel.  Returns the
  /// earliest future bit T > now at which this node may drive a dominant
  /// level, run application logic, or log an event — PROVIDED the bus stays
  /// recessive for all of [now, T).  Silent state changes (a delimiter or
  /// intermission ending) may fall inside the window; on_idle_skip()
  /// applies them.  Returning kAlways (or any value <= now) opts the node
  /// out of skipping; kNever marks a purely reactive node.  When every
  /// attached node returns T > now, the bus may replace the per-bit
  /// stepping of [now, min T) with a single on_idle_skip() call and then
  /// steps bit T itself, so the promise must be exact: a node whose
  /// tx_level() would have gone dominant before its advertised T violates
  /// the contract (the bus detects this and throws), and one that logs
  /// inside the window logs at the wrong place in the event order.
  [[nodiscard]] virtual sim::BitTime next_activity(
      sim::BitTime /*now*/) const {
    return kAlways;
  }

  /// Bulk-apply `count` recessive bus bits.  Must leave the node in exactly
  /// the state that `count` consecutive tick()/tx_level()/on_bus_bit(
  /// Recessive) rounds would have — including every metrics-visible counter.
  /// Only called when next_activity() promised quiescence over the window.
  virtual void on_idle_skip(sim::BitTime /*count*/) {}

  [[nodiscard]] virtual std::string_view name() const = 0;
};

}  // namespace mcan::can
