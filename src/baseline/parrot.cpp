#include "baseline/parrot.hpp"

namespace mcan::baseline {
namespace {

can::BitController::Config parrot_controller_config() {
  can::BitController::Config c;
  c.tx_queue_capacity = 2;  // flood frames are regenerated continuously
  return c;
}

}  // namespace

ParrotNode::ParrotNode(std::string name, ParrotConfig cfg)
    : cfg_(cfg), ctrl_(std::move(name), parrot_controller_config()) {
  ctrl_.set_rx_callback([this](const can::CanFrame& f, sim::BitTime now) {
    if (f.id == cfg_.own_id) {
      // A complete frame with our ID that we did not transmit: spoofing.
      ++spoofs_seen_;
      armed_ = true;
      last_spoof_ = now;
    }
  });
  ctrl_.add_app([this](sim::BitTime now, can::BitController&) { pump(now); });
}

void ParrotNode::attach_to(can::WiredAndBus& bus) { ctrl_.attach_to(bus); }

void ParrotNode::pump(sim::BitTime now) {
  if (!armed_) return;
  // Collisions on our flood frames mean the attacker is still alive even
  // though its (destroyed) instances never complete: stay armed.
  if (ctrl_.stats().tx_errors != prev_tx_errors_) {
    prev_tx_errors_ = ctrl_.stats().tx_errors;
    last_spoof_ = now;
  }
  if (static_cast<double>(now) - static_cast<double>(last_spoof_) >
      cfg_.disarm_after_bits) {
    // No spoofed instance for a while: attacker silenced; stop flooding.
    armed_ = false;
    return;
  }
  if (!ctrl_.queue_empty() || ctrl_.is_bus_off()) return;
  can::CanFrame flood;
  flood.id = cfg_.own_id;
  flood.dlc = cfg_.dlc;  // payload stays all 0x00: wins every collision
  if (ctrl_.enqueue(flood)) ++floods_;
}

}  // namespace mcan::baseline
