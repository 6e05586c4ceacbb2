#include "can/bus.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "can/fault_injector.hpp"
#include "obs/metrics.hpp"

namespace mcan::can {
namespace {

/// The bus must have been recessive this long before a skip is attempted:
/// an interframe space has elapsed, so every compliant controller is in
/// Idle/Suspend/BusOff territory rather than mid-frame.
constexpr sim::BitTime kMinIdleForSkip = 6;

/// After a horizon probe fails (some node says kAlways), wait roughly one
/// interframe-plus-SOF worth of bits before probing again.
constexpr sim::BitTime kProbeBackoff = 11;

}  // namespace

void WiredAndBus::export_metrics(obs::Registry& reg) const {
  reg.counter("bus.bits_simulated") += now_;
  reg.counter("bus.dominant_bits") += trace_.dominant_count(0, now_);
  reg.counter("bus.events") += log_.size();
  reg.counter("bus.nodes") += nodes_.size();
}

void WiredAndBus::step() {
  for (auto* n : nodes_) n->tick(now_);

  auto level = sim::BitLevel::Recessive;
  for (auto* n : nodes_) level = sim::wired_and(level, n->tx_level());

  if (injector_ != nullptr) level = injector_->transform(now_, level, &log_);

  trace_.sample(level);
  const auto previous = last_;
  last_ = level;
  idle_run_ = sim::is_recessive(level) ? idle_run_ + 1 : 0;

  if (injector_ != nullptr && injector_->has_skew()) {
    for (std::size_t i = 0; i < nodes_.size(); ++i) {
      nodes_[i]->on_bus_bit(
          injector_->deliver(i, nodes_[i]->name(), level, previous, now_,
                             &log_));
    }
  } else {
    for (auto* n : nodes_) n->on_bus_bit(level);
  }
  ++now_;
}

sim::BitTime WiredAndBus::quiescent_horizon() const {
  sim::BitTime horizon = kNever;
  for (const auto* n : nodes_) {
    const sim::BitTime t = n->next_activity(now_);
    if (t <= now_) return now_;  // opted out — cannot skip
    horizon = std::min(horizon, t);
  }
  if (injector_ != nullptr) {
    const sim::BitTime t = injector_->next_disturbance(now_);
    if (t <= now_) return now_;
    horizon = std::min(horizon, t);
  }
  return horizon;
}

void WiredAndBus::skip_to(sim::BitTime horizon) {
  // Contract check: a skip is only legal when nobody is driving dominant
  // right now.  A node that promised quiescence but holds the bus dominant
  // has a stale next_activity() — fail loudly instead of corrupting time.
  for (auto* n : nodes_) {
    if (!sim::is_recessive(n->tx_level())) {
      throw std::logic_error{
          "quiescence contract violation: node '" + std::string{n->name()} +
          "' drives dominant inside its promised idle window"};
    }
  }
  const sim::BitTime count = horizon - now_;
  for (auto* n : nodes_) n->on_idle_skip(count);
  // Re-check after the bulk advance: a node whose clock now sits at the
  // horizon but wants the bus is holding a *stale* promise — its dominant
  // edge fell inside the window we just declared recessive.
  for (auto* n : nodes_) {
    if (!sim::is_recessive(n->tx_level())) {
      throw std::logic_error{
          "quiescence contract violation: node '" + std::string{n->name()} +
          "' reports a stale next_activity(): it wants the bus before the "
          "promised horizon"};
    }
  }
  if (injector_ != nullptr) injector_->on_idle_skip(count);
  trace_.sample_run(sim::BitLevel::Recessive, count);
  last_ = sim::BitLevel::Recessive;
  idle_run_ += count;
  bits_skipped_ += count;
  now_ = horizon;
}

void WiredAndBus::run(sim::Bits bits) {
  const sim::BitTime end = sim::sat_add(now_, bits.value());
  while (now_ < end) {
    if (fast_path_ && idle_run_ >= kMinIdleForSkip &&
        now_ >= skip_retry_at_) {
      const sim::BitTime horizon = std::min(quiescent_horizon(), end);
      if (horizon > now_) {
        skip_to(horizon);
        continue;
      }
      skip_retry_at_ = now_ + kProbeBackoff;
    }
    step();
  }
}

}  // namespace mcan::can
