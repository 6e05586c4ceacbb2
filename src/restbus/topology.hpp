// Multi-bus vehicle topology: N WiredAndBus segments bridged by
// store-and-forward gateways.
//
// The paper's evaluation vehicles each carry two CAN buses joined by a
// central gateway ECU (Sec. V-A); a powertrain-bus attack only reaches the
// body bus through the gateway's routing table.  VehicleTopology owns the
// segments and the can::GatewayNode bridges and co-simulates them in
// lockstep *chunks*:
//
//   chunk_end = min(run end, now + gateway latency, earliest parked release)
//
// Within a chunk the buses cannot interact — a frame received by a gateway
// during the chunk is parked until rx_time + latency, which provably lands
// at or beyond the chunk boundary — so each bus runs its own engine tier
// (naive / quiescence-skipping) undisturbed.  Parked frames
// are flushed to the egress controllers only at chunk starts.  Chunk
// boundaries are derived from frame *reception times*, which the engine
// equivalence gates guarantee to be byte-identical across tiers, so the
// whole co-simulation inherits the tiers' byte-identity.
//
// A single-bus topology (buses == 1) degenerates to plain WiredAndBus
// stepping with no chunking at all: run() forwards to bus(0).run()
// unmodified, so the recording is bit-for-bit the same as a bare bus.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "can/bus.hpp"
#include "can/gateway.hpp"
#include "sim/types.hpp"

namespace mcan::restbus {

struct TopologyConfig {
  /// Number of bus segments; 1 means "no gateway at all".
  std::size_t buses{2};
  /// Every segment runs at the same nominal bit rate (the gateway latency
  /// below is expressed in those shared bit times).
  sim::BusSpeed speed{50'000};
  /// Store-and-forward latency of every gateway hop.  Must be >= 1 bit
  /// when buses > 1: a zero-latency gateway would forward mid-chunk and
  /// break the lockstep argument above.  Real gateways buffer a full frame
  /// plus processing time, so tens of bits is the realistic floor anyway.
  sim::Bits gateway_latency{64};
  /// Symmetric routing table installed on every gateway in both
  /// directions (can::forward_routes semantics: exact (id, extended) match
  /// forwards, cross-format numeric collision drops, all else ignored).
  std::vector<can::RouteId> routes;
};

class VehicleTopology {
 public:
  /// Builds `cfg.buses` segments chained by gateways "gw0" (bus 0 <-> 1),
  /// "gw1" (bus 1 <-> 2), ...  Throws std::invalid_argument when
  /// cfg.buses == 0 or a multi-bus config has gateway_latency < 1.
  explicit VehicleTopology(TopologyConfig cfg);

  [[nodiscard]] std::size_t bus_count() const noexcept {
    return buses_.size();
  }
  [[nodiscard]] can::WiredAndBus& bus(std::size_t i) { return *buses_.at(i); }
  [[nodiscard]] const can::WiredAndBus& bus(std::size_t i) const {
    return *buses_.at(i);
  }
  [[nodiscard]] std::size_t gateway_count() const noexcept {
    return gateways_.size();
  }
  [[nodiscard]] can::GatewayNode& gateway(std::size_t i) {
    return *gateways_.at(i);
  }
  [[nodiscard]] const can::GatewayNode& gateway(std::size_t i) const {
    return *gateways_.at(i);
  }

  /// Shared simulation clock (all segments advance in lockstep).
  [[nodiscard]] sim::BitTime now() const noexcept;

  /// Fan the engine-tier toggle out to every segment.
  void set_fast_path(bool enabled);

  /// Co-simulate all segments for `bits` shared bit times.
  void run(sim::Bits bits);
  void run_for(sim::Millis ms) { run(cfg_.speed.to_bits(ms)); }

  /// Totals across all gateways (both directions).
  [[nodiscard]] std::uint64_t frames_forwarded() const noexcept;
  [[nodiscard]] std::uint64_t frames_dropped() const noexcept;

  /// Quiescence-skip perf counter summed over all segments (runtime info,
  /// same caveat as WiredAndBus: never part of the deterministic record).
  [[nodiscard]] std::uint64_t bits_skipped() const noexcept;

  /// Gateway counters ("gateway.forwarded"/"gateway.dropped") plus each
  /// gateway side controller's metrics under the "gateway" prefix.  Only
  /// meaningful when gateway_count() > 0; a single-bus topology registers
  /// nothing, keeping single-bus metric shards identical to a bare bus.
  void export_metrics(obs::Registry& reg) const;

  [[nodiscard]] const TopologyConfig& config() const noexcept { return cfg_; }

 private:
  TopologyConfig cfg_;
  std::vector<std::unique_ptr<can::WiredAndBus>> buses_;
  std::vector<std::unique_ptr<can::GatewayNode>> gateways_;
};

}  // namespace mcan::restbus
