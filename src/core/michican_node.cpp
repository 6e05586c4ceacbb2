#include "core/michican_node.hpp"

namespace mcan::core {

MichiCanNode::MichiCanNode(std::string name, const IvnConfig& ivn,
                           MichiCanNodeConfig cfg)
    : name_(std::move(name)),
      cfg_(cfg),
      fsm_(DetectionFsm::build(
          ivn.detection_ranges(cfg.own_id, cfg.scenario))),
      ext_fsm_(DetectionFsm::build(
          cfg.guard_extended && cfg.scenario == Scenario::Full
              ? ivn.ext_detection_ranges(cfg.own_id)
              : IdRangeSet{},
          can::kExtIdBits)),
      ctrl_(name_ + "/ctrl", cfg.controller),
      monitor_(fsm_, pio_, cfg.monitor) {
  monitor_.set_self_transmitting([this] { return ctrl_.is_transmitting(); });
  if (cfg.guard_extended && cfg.scenario == Scenario::Full) {
    monitor_.set_extended_fsm(&ext_fsm_);
  }
}

void MichiCanNode::attach_to(can::WiredAndBus& bus) {
  bus.attach(*this);
  // The controller logs under "<name>/ctrl", the monitor under "<name>".
  monitor_.set_event_log(&bus.log(), name_);
  // Register the inner controller's event sink without double-attaching.
  ctrl_.set_event_sink(&bus.log());
  ctrl_.set_bus(&bus);
}

void MichiCanNode::tick(sim::BitTime now) {
  now_ = now;
  ctrl_.tick(now);
}

sim::BitLevel MichiCanNode::tx_level() {
  return sim::wired_and(ctrl_.tx_level(), pio_.tx_contribution());
}

void MichiCanNode::on_bus_bit(sim::BitLevel bus) {
  pio_.latch_rx(bus);
  ctrl_.on_bus_bit(bus);
  if (cfg_.defense_enabled) {
    monitor_.on_bit(now_, pio_.read_rx());
  }
}

sim::BitTime MichiCanNode::next_activity(sim::BitTime now) const {
  // While the monitor tracks a frame (or counterattacks) its per-bit
  // handler has real work each bit — no quiescence promise possible.
  if (cfg_.defense_enabled && !monitor_.quiescent()) return can::kAlways;
  return ctrl_.next_activity(now);
}

void MichiCanNode::on_idle_skip(sim::BitTime count) {
  // pio_.latch_rx(Recessive) x count collapses to its current state: the
  // bus was already recessive on the last stepped bit.
  ctrl_.on_idle_skip(count);
  if (cfg_.defense_enabled) monitor_.on_idle_bits(count);
  now_ += count;
}

}  // namespace mcan::core
