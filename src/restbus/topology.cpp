#include "restbus/topology.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "obs/metrics.hpp"

namespace mcan::restbus {

VehicleTopology::VehicleTopology(TopologyConfig cfg) : cfg_(std::move(cfg)) {
  if (cfg_.buses == 0) {
    throw std::invalid_argument("VehicleTopology: buses must be >= 1");
  }
  if (cfg_.buses > 1 && cfg_.gateway_latency.value() < 1) {
    throw std::invalid_argument(
        "VehicleTopology: gateway_latency must be >= 1 bit when bridging "
        "multiple buses (a zero-latency gateway would forward inside a "
        "lockstep chunk)");
  }
  buses_.reserve(cfg_.buses);
  for (std::size_t i = 0; i < cfg_.buses; ++i) {
    buses_.push_back(std::make_unique<can::WiredAndBus>(cfg_.speed));
  }
  gateways_.reserve(cfg_.buses > 0 ? cfg_.buses - 1 : 0);
  for (std::size_t i = 0; i + 1 < cfg_.buses; ++i) {
    auto gw = std::make_unique<can::GatewayNode>(
        "gw" + std::to_string(i), can::forward_routes(cfg_.routes),
        can::forward_routes(cfg_.routes));
    gw->set_forward_latency(cfg_.gateway_latency);
    gw->attach_to(*buses_[i], *buses_[i + 1]);
    gateways_.push_back(std::move(gw));
  }
}

sim::BitTime VehicleTopology::now() const noexcept {
  return buses_.front()->now();
}

void VehicleTopology::set_fast_path(bool enabled) {
  for (auto& bus : buses_) bus->set_fast_path(enabled);
}

void VehicleTopology::run(sim::Bits bits) {
  if (gateways_.empty()) {
    // Degenerate single-segment topology: no chunking, so the engine
    // tiers see one uninterrupted run() exactly like a bare bus.
    buses_.front()->run(bits);
    return;
  }
  const sim::BitTime end = sim::sat_add(now(), bits.value());
  while (now() < end) {
    const sim::BitTime chunk_start = now();
    // Frames whose store-and-forward delay has elapsed enter their egress
    // controller's queue now, before any segment steps into the chunk.
    for (auto& gw : gateways_) gw->flush_due(chunk_start);
    // No cross-bus interaction can happen before the earliest of: the
    // latency horizon (a frame received at chunk_start+1 releases at
    // chunk_start+1+latency at the earliest) and any already-parked
    // release.  Frames received *during* the chunk release at
    // rx + latency > chunk_start + latency >= chunk_end, so the bound
    // stays valid while the chunk runs.
    sim::BitTime chunk_end =
        std::min(end, sim::sat_add(chunk_start, cfg_.gateway_latency.value()));
    for (const auto& gw : gateways_) {
      chunk_end = std::min(chunk_end, gw->next_release());
    }
    chunk_end = std::max(chunk_end, chunk_start + 1);  // forward progress
    for (auto& bus : buses_) {
      bus->run(sim::Bits{chunk_end - bus->now()});
    }
  }
}

std::uint64_t VehicleTopology::frames_forwarded() const noexcept {
  std::uint64_t total = 0;
  for (const auto& gw : gateways_) {
    total += gw->forwarded_a_to_b() + gw->forwarded_b_to_a();
  }
  return total;
}

std::uint64_t VehicleTopology::frames_dropped() const noexcept {
  std::uint64_t total = 0;
  for (const auto& gw : gateways_) total += gw->dropped();
  return total;
}

std::uint64_t VehicleTopology::bits_skipped() const noexcept {
  std::uint64_t total = 0;
  for (const auto& bus : buses_) total += bus->bits_skipped();
  return total;
}

void VehicleTopology::export_metrics(obs::Registry& reg) const {
  if (gateways_.empty()) return;
  reg.counter("gateway.forwarded") += frames_forwarded();
  reg.counter("gateway.dropped") += frames_dropped();
  for (const auto& gw : gateways_) {
    gw->side_a().export_metrics(reg, "gateway");
    gw->side_b().export_metrics(reg, "gateway");
  }
}

}  // namespace mcan::restbus
