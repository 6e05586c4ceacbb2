#include "can/bus.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "can/controller.hpp"
#include "can/fault_injector.hpp"
#include "obs/metrics.hpp"

namespace mcan::can {
namespace {

/// After a horizon probe fails (some node says kAlways), wait roughly one
/// interframe-plus-SOF worth of bits before probing again.
constexpr sim::BitTime kProbeBackoff = 11;

}  // namespace

void WiredAndBus::attach(CanNode& node) {
  nodes_.push_back(&node);
  plain_.push_back(dynamic_cast<BitController*>(&node));
  parked_.push_back(0);
}

void WiredAndBus::export_metrics(obs::Registry& reg) const {
  reg.counter("bus.bits_simulated") += now_;
  reg.counter("bus.dominant_bits") += trace_.dominant_count(0, now_);
  reg.counter("bus.events") += log_.size();
  reg.counter("bus.nodes") += nodes_.size();
}

void WiredAndBus::step() {
  const std::size_t n = nodes_.size();
  for (std::size_t i = 0; i < n; ++i) {
    if (parked_[i] == 0 || plain_[i]->app_due(now_)) nodes_[i]->tick(now_);
  }

  auto level = sim::BitLevel::Recessive;
  for (std::size_t i = 0; i < n; ++i) {
    if (parked_[i] == 0) level = sim::wired_and(level, nodes_[i]->tx_level());
  }

  if (injector_ != nullptr) level = injector_->transform(now_, level, &log_);

  trace_.sample(level);
  const auto previous = last_;
  last_ = level;

  if (injector_ != nullptr && injector_->has_skew()) {
    for (std::size_t i = 0; i < n; ++i) {
      nodes_[i]->on_bus_bit(
          injector_->deliver(i, nodes_[i]->name(), level, previous, now_,
                             &log_));
    }
  } else {
    for (std::size_t i = 0; i < n; ++i) {
      if (parked_[i] == 0) nodes_[i]->on_bus_bit(level);
    }
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
  bits_skipped_ += count;
  now_ = horizon;
}

void WiredAndBus::park_members() {
  for (const std::size_t m : members_) parked_[m] = 1;
  members_parked_ = true;
}

void WiredAndBus::unpark_members() {
  for (const std::size_t m : members_) {
    plain_[m]->adopt_group_state(*plain_[leader_]);
    parked_[m] = 0;
  }
  members_parked_ = false;
}

void WiredAndBus::form_group(bool (BitController::*joins)() const) {
  bool have_leader = false;
  for (std::size_t i = 0; i < plain_.size(); ++i) {
    if (plain_[i] == nullptr || !(plain_[i]->*joins)()) continue;
    if (have_leader) {
      members_.push_back(i);
    } else {
      leader_ = i;
      have_leader = true;
    }
  }
  if (!members_.empty()) park_members();
}

void WiredAndBus::track_group(sim::BitLevel previous) {
  if (!members_.empty()) {
    if (members_parked_) return;
    // The members stepped this bit themselves from the leader's state, so
    // they still match it while the leader decodes the stuffed region.
    if (plain_[leader_]->rx_in_stuffed_region()) {
      park_members();
      return;
    }
    // The shared decode or flag ended.  A frame that failed here leaves
    // every receiver that saw the error start the same active flag.
    members_.clear();
    form_group(&BitController::flag_started);
    return;
  }
  // A SOF is a falling edge; with per-node sample skew every receiver may
  // read a different level, so no group forms.
  if (sim::is_recessive(previous) && !sim::is_recessive(last_) &&
      (injector_ == nullptr || !injector_->has_skew())) {
    form_group(&BitController::rx_at_sof);
  }
}

// The quiescence tier does two things the naive per-bit loop does not.
//
// Skips: after a recessive bit, every node's next_activity() and the
// injector's next_disturbance() bound a window of bits in which nothing
// drives dominant, runs a hook or logs; the window is applied in one
// on_idle_skip() per node.  Idle buses, bus-off recovery and the recessive
// tail of every error frame (flag end, delimiter, intermission, suspend)
// are skipped this way.
//
// Receiver groups: the plain controllers that took the same SOF share the
// leader's decode while it cannot differ from theirs, and those that start
// an active error flag on the same bit share the leader's flag (see
// track_group); step() leaves the parked members out.
void WiredAndBus::run(sim::Bits bits) {
  const sim::BitTime end = sim::sat_add(now_, bits.value());
  while (now_ < end) {
    if (fast_path_ && sim::is_recessive(last_) && now_ >= skip_retry_at_) {
      const sim::BitTime horizon = std::min(quiescent_horizon(), end);
      if (horizon > now_) {
        skip_to(horizon);
        // Some node acts at the horizon bit itself: step it unprobed.
        if (horizon < end) skip_retry_at_ = horizon + 1;
        continue;
      }
      skip_retry_at_ = now_ + kProbeBackoff;
    }
    if (members_parked_) {
      if (plain_[leader_]->group_may_diverge()) {
        unpark_members();
      } else {
        node_bits_parked_ += members_.size();
      }
    }
    const auto previous = last_;
    step();
    if (fast_path_) track_group(previous);
  }
  // Leave every node's state exact at the run() boundary.
  if (members_parked_) unpark_members();
  members_.clear();
}

}  // namespace mcan::can
