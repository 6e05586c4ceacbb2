// Micro-benchmarks of the building blocks plus two design-choice ablations
// from DESIGN.md:
//   1. Counterattack window width: how many forced dominant bits are needed
//      to reliably bus off an attacker (paper Sec. IV-E argues 6; Algorithm
//      1's window covers 7).
//   2. Software-synchronization robustness: how far oscillator drift can go
//      before the 70 % sample point leaves the bit cell within one frame —
//      the reason hard sync per SOF is required (Sec. IV-C).
#include <benchmark/benchmark.h>

#include <iostream>

#include "analysis/table.hpp"
#include "attack/attacker.hpp"
#include "can/bitstream.hpp"
#include "can/bus.hpp"
#include "can/controller.hpp"
#include "can/periodic.hpp"
#include "core/michican_node.hpp"
#include "mcu/bit_timer.hpp"
#include "restbus/vehicles.hpp"
#include "sim/rng.hpp"

namespace {

using namespace mcan;
using analysis::fmt;

void print_window_ablation() {
  analysis::AsciiTable t{{"Forced bits", "Attacker bused off (of 8 IDs)",
                          "Mean cycle (bits)"}};
  // Try a spread of attacker IDs: dominant-heavy and recessive-heavy LSBs,
  // several DLC patterns, against window widths 1..7.
  const can::CanId ids[] = {0x050, 0x051, 0x064, 0x0FF,
                            0x111, 0x155, 0x0AA, 0x07E};
  for (int window = 1; window <= 7; ++window) {
    int offed = 0;
    double cycle_sum = 0;
    int cycles = 0;
    for (const auto id : ids) {
      can::WiredAndBus bus{sim::BusSpeed{50'000}};
      const core::IvnConfig ivn{
          restbus::vehicle_matrix(restbus::Vehicle::D, 1).ecu_ids()};
      core::MichiCanNodeConfig cfg;
      cfg.own_id = 0x173;
      cfg.monitor.attack_bits = window;
      core::MichiCanNode def{"defender", ivn, cfg};
      def.attach_to(bus);
      auto acfg = attack::Attacker::targeted_dos(id);
      acfg.persistent = false;
      acfg.dlc = 1;  // worst case of Sec. IV-E: one data byte
      attack::Attacker atk{"attacker", acfg};
      atk.attach_to(bus);
      bus.run(4000);
      if (atk.node().is_bus_off()) {
        ++offed;
        const auto* start =
            bus.log().first(sim::EventKind::FrameTxStart, 0, "attacker");
        const auto* off = bus.log().first(sim::EventKind::BusOff, 0,
                                          "attacker");
        cycle_sum += static_cast<double>(off->at - start->at);
        ++cycles;
      }
    }
    t.add_row({std::to_string(window),
               std::to_string(offed) + " / 8",
               cycles ? fmt(cycle_sum / cycles, 0) : "-"});
  }
  t.print(std::cout,
          "Ablation: counterattack window width (dlc=1 attackers; paper "
          "requires 6 dominant bits in the worst case)");
}

void print_sync_ablation() {
  analysis::AsciiTable t{{"Drift (ppm)", "Safe bits after one hard sync",
                          "Covers a 130-bit frame?"}};
  for (const double ppm : {50.0, 100.0, 500.0, 1000.0, 2000.0, 5000.0}) {
    mcu::TimingConfig cfg;
    cfg.bit_time_us = 2.0;  // 500 kbit/s
    cfg.drift_ppm = ppm;
    const mcu::BitTimer timer{cfg};
    const int safe = timer.max_safe_bits(100'000);
    t.add_row({fmt(ppm, 0), std::to_string(safe),
               safe >= 130 ? "yes" : "NO (resync within frame needed)"});
  }
  t.print(std::cout,
          "\nAblation: oscillator drift vs per-SOF hard sync (Sec. IV-C). "
          "Typical crystals are < 100 ppm; RC oscillators can exceed 1 %.");
}

// --- microbenchmarks -------------------------------------------------------

void BM_WireBits(benchmark::State& state) {
  const auto frame = can::CanFrame::make_pattern(0x173, 8, 0x0123456789ABCDEF);
  for (auto _ : state) {
    auto bits = can::wire_bits(frame);
    benchmark::DoNotOptimize(bits);
  }
}
BENCHMARK(BM_WireBits);

void BM_Destuffer(benchmark::State& state) {
  const auto wire = can::wire_bits(
      can::CanFrame::make_pattern(0x173, 8, 0x0123456789ABCDEF));
  can::Destuffer d;
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(d.feed(wire[i].level));
    if (++i == wire.size()) {
      i = 0;
      d.reset();
    }
  }
}
BENCHMARK(BM_Destuffer);

void BM_BusStepPerNode(benchmark::State& state) {
  can::WiredAndBus bus{sim::BusSpeed{500'000}};
  std::vector<std::unique_ptr<can::BitController>> nodes;
  for (int i = 0; i < state.range(0); ++i) {
    // Appended, not `"n" + std::to_string(i)`: GCC 12 -O3 raises a
    // false-positive -Wrestrict on that concatenation inside libstdc++.
    std::string name = "n";
    name.append(std::to_string(i));
    nodes.push_back(std::make_unique<can::BitController>(name));
    nodes.back()->attach_to(bus);
    can::attach_periodic(*nodes.back(),
                         can::CanFrame::make_pattern(
                             static_cast<can::CanId>(0x100 + i), 8, 0xAB),
                         500.0 + i * 7);
  }
  for (auto _ : state) bus.step();
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(nodes.size()));
}
BENCHMARK(BM_BusStepPerNode)->Arg(4)->Arg(16)->Arg(64);

void BM_MonitorBit(benchmark::State& state) {
  const core::IvnConfig ivn{
      restbus::vehicle_matrix(restbus::Vehicle::D, 1).ecu_ids()};
  const auto fsm = core::DetectionFsm::build(ivn.detection_ranges(0x173));
  mcu::PioController pio;
  core::BitMonitor mon{fsm, pio, core::MonitorConfig{}};
  const auto wire = can::wire_bits(
      can::CanFrame::make_pattern(0x2A7, 8, 0x0123456789ABCDEF));
  // Feed idle gaps + frames forever.
  std::size_t i = 0;
  sim::BitTime now = 0;
  int idle = 12;
  for (auto _ : state) {
    if (idle > 0) {
      mon.on_bit(now++, sim::BitLevel::Recessive);
      --idle;
    } else {
      mon.on_bit(now++, wire[i].level);
      if (++i == wire.size()) {
        i = 0;
        idle = 12;
      }
    }
  }
}
BENCHMARK(BM_MonitorBit);

}  // namespace

int main(int argc, char** argv) {
  print_window_ablation();
  print_sync_ablation();
  std::cout << "\n";
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
