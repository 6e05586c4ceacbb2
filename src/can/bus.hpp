// The shared medium: a wired-AND bus stepped at nominal bit-time
// granularity, with a logic-analyzer trace and a protocol event log.
//
// An optional FaultInjector hooks the step loop between wired-AND
// resolution and the nodes' sample points: it may disturb the resolved
// level (bit flips, stuck-at windows) and skew what individual nodes
// sample (clock-tolerance modelling).  Without an injector the step loop
// is exactly the clean-bus fast path.
#pragma once

#include <cstdint>
#include <vector>

#include "can/node.hpp"
#include "sim/event_log.hpp"
#include "sim/trace.hpp"
#include "sim/types.hpp"

namespace mcan::obs {
class Registry;
}  // namespace mcan::obs

namespace mcan::can {

class BitController;
class FaultInjector;

class WiredAndBus {
 public:
  explicit WiredAndBus(sim::BusSpeed speed = {}) : speed_(speed) {}

  /// Attach a node.  The bus does not own nodes; callers must keep them
  /// alive for the bus's lifetime.
  void attach(CanNode& node);

  /// Install (or clear, with nullptr) a physical-layer fault injector.
  /// The bus does not own it; the caller keeps it alive while attached.
  void set_fault_injector(FaultInjector* injector) noexcept {
    injector_ = injector;
  }
  [[nodiscard]] FaultInjector* fault_injector() const noexcept {
    return injector_;
  }

  /// Advance one nominal bit time.
  void step();

  /// Advance `bits` bit times.  With the fast path enabled (default) the
  /// loop consults every node's next_activity() after a recessive bit and
  /// jumps now_ straight to the quiescence horizon instead of stepping bit
  /// by bit, and it steps the plain receivers of one frame as one receiver
  /// group.  Trace, event log, metrics and node state (at every run()
  /// boundary) are byte-identical either way.
  void run(sim::Bits bits);
  void run(sim::BitTime bits) { run(sim::Bits{bits}); }

  /// Advance until `ms` milliseconds of bus time have elapsed.
  void run_for(sim::Millis ms) { run(speed_.to_bits(ms)); }

  /// Toggle the quiescence-skipping fast path (on by default).  Forcing it
  /// off (--no-fast-path) pins the naive per-bit kernel for bisection.
  void set_fast_path(bool enabled) noexcept { fast_path_ = enabled; }
  [[nodiscard]] bool fast_path() const noexcept { return fast_path_; }

  /// Bits covered by quiescence skips instead of per-bit stepping.  Runtime
  /// perf information — deliberately kept out of export_metrics() so the
  /// deterministic metrics registry is identical with the fast path on/off.
  [[nodiscard]] std::uint64_t bits_skipped() const noexcept {
    return bits_skipped_;
  }

  /// Node-bits a receiver group spared: one per parked member per stepped
  /// bit.  Runtime perf information, outside export_metrics() like
  /// bits_skipped().
  [[nodiscard]] std::uint64_t node_bits_parked() const noexcept {
    return node_bits_parked_;
  }

  [[nodiscard]] sim::BitTime now() const noexcept { return now_; }
  [[nodiscard]] sim::BusSpeed speed() const noexcept { return speed_; }

  [[nodiscard]] sim::LogicAnalyzer& trace() noexcept { return trace_; }
  [[nodiscard]] const sim::LogicAnalyzer& trace() const noexcept {
    return trace_;
  }
  [[nodiscard]] sim::EventLog& log() noexcept { return log_; }
  [[nodiscard]] const sim::EventLog& log() const noexcept { return log_; }

  /// Resolved level of the most recent bit (recessive before any step).
  [[nodiscard]] sim::BitLevel last_level() const noexcept { return last_; }

  /// Register bus-level metrics (bits simulated, dominant bits, logged
  /// events, attached nodes) into a metrics shard.  Harvest-time only —
  /// nothing on the per-bit step path.
  void export_metrics(obs::Registry& reg) const;

 private:
  /// min over all nodes' next_activity(now_) and the injector's
  /// next_disturbance(now_).  <= now_ means "cannot skip".
  [[nodiscard]] sim::BitTime quiescent_horizon() const;

  /// Jump now_ to `horizon`, recording the stretch as one recessive run and
  /// bulk-advancing every node and the injector.  Throws std::logic_error if
  /// any node is currently driving dominant (stale next_activity contract).
  void skip_to(sim::BitTime horizon);

  /// Receiver groups, after the bit just stepped (`previous` = the level
  /// before it): on a SOF, park every plain receiver that took it behind
  /// the first one; after a bit the members stepped themselves, park them
  /// again while the leader still decodes the stuffed region, or else
  /// group the plain controllers that began an active flag on that bit.
  void track_group(sim::BitLevel previous);
  /// Group the plain controllers for which `joins` holds behind the first.
  void form_group(bool (BitController::*joins)() const);
  void park_members();
  /// Hand every parked member the leader's state and step it again.
  void unpark_members();

  sim::BusSpeed speed_;
  std::vector<CanNode*> nodes_;
  /// Per node: the node as a plain BitController (receiver-group eligible),
  /// else nullptr; and 1 while it is a parked group member, which step()
  /// neither asks for a level nor samples (nor ticks, unless a hook is due).
  std::vector<BitController*> plain_;
  std::vector<std::uint8_t> parked_;
  /// The current receiver group: node indices of its members (the leader
  /// excluded) and whether they are parked right now.
  std::vector<std::size_t> members_;
  std::size_t leader_{0};
  bool members_parked_{false};
  FaultInjector* injector_{nullptr};
  sim::BitTime now_{0};
  sim::BitLevel last_{sim::BitLevel::Recessive};
  bool fast_path_{true};
  std::uint64_t bits_skipped_{0};
  std::uint64_t node_bits_parked_{0};
  /// Cheap backoff: after a failed horizon probe, don't re-probe until here.
  sim::BitTime skip_retry_at_{0};
  sim::LogicAnalyzer trace_;
  sim::EventLog log_;
};

}  // namespace mcan::can
