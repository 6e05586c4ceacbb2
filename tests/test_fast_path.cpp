// Simulation-engine equivalence and contract enforcement.
//
// The bus has two engine tiers, both required to produce BYTE-identical
// recordings — same waveform, same event log, same metrics, same campaign
// report — at any worker count:
//
//   naive       per-bit stepping only (fast path off): the oracle
//   quiescence  + idle-window skipping (next_activity/on_idle_skip)
//
// The differential harness here sweeps every scenario in the built-in
// registry — including the BER fault-sweep cells — plus a seeded
// scheduled-flip / stuck-bus fault grid through both engines x {jobs 1,
// jobs 4} and diffs the deterministic JSON reports character by character.
//
// The skipping contract is enforced, not trusted: a node that promises
// quiescence and then contradicts it must make the bus throw, never
// silently lose a dominant edge.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "analysis/experiments.hpp"
#include "analysis/scenarios.hpp"
#include "can/bus.hpp"
#include "can/controller.hpp"
#include "can/fault_injector.hpp"
#include "can/node.hpp"
#include "can/periodic.hpp"
#include "obs/timeline.hpp"
#include "runner/campaign.hpp"
#include "runner/report.hpp"
#include "sim/rng.hpp"

namespace mcan {
namespace {

/// The two engine tiers under differential test.
enum class Engine { Naive, Quiescence };

void configure(analysis::ExperimentSpec& spec, Engine engine) {
  spec.fast_path = engine == Engine::Quiescence;
}

const char* engine_name(Engine engine) {
  return engine == Engine::Naive ? "naive" : "quiescence";
}

constexpr Engine kEngines[] = {Engine::Naive, Engine::Quiescence};

/// A node that violates the scheduling contract: it advertises eternal
/// quiescence (kNever) but drives dominant once its clock passes kLieBit.
/// Its on_idle_skip() bookkeeping is honest, so the stale promise surfaces
/// the moment the bus bulk-advances it across the lie.
class LyingNode final : public can::CanNode {
 public:
  static constexpr sim::BitTime kLieBit = 50;

  void tick(sim::BitTime now) override { clock_ = now; }
  [[nodiscard]] sim::BitLevel tx_level() override {
    return clock_ >= kLieBit ? sim::BitLevel::Dominant
                             : sim::BitLevel::Recessive;
  }
  void on_bus_bit(sim::BitLevel /*bus*/) override {}
  [[nodiscard]] sim::BitTime next_activity(
      sim::BitTime /*now*/) const override {
    return can::kNever;  // the lie
  }
  void on_idle_skip(sim::BitTime count) override { clock_ += count; }
  [[nodiscard]] std::string_view name() const override { return "liar"; }

 private:
  sim::BitTime clock_{0};
};

std::string campaign_json(const std::vector<analysis::ExperimentSpec>& specs,
                          Engine engine, unsigned jobs) {
  runner::CampaignConfig cfg;
  for (auto spec : specs) {
    configure(spec, engine);
    cfg.specs.push_back(std::move(spec));
  }
  cfg.seeds = {0, 2};
  cfg.jobs = jobs;
  runner::JsonOptions opts;  // deterministic section only
  return runner::to_json(runner::run_campaign(cfg), opts);
}

std::vector<analysis::ExperimentSpec> registry_specs() {
  std::vector<analysis::ExperimentSpec> specs;
  for (const auto& s : analysis::ScenarioRegistry::built_in().all()) {
    auto spec = s.make();
    // Uniform short recordings keep the sweep cheap; equivalence must hold
    // at any duration, so a shared override loses no coverage.
    spec.duration = sim::Millis{500.0};
    specs.push_back(std::move(spec));
  }
  return specs;
}

/// Seeded fault grid beyond the registry's BER cells: scheduled flips land
/// inside mid-frame stretches (the fault tracker pins per-bit stepping
/// there) and a stuck-bus window interrupts a frame outright.
std::vector<analysis::ExperimentSpec> fault_grid_specs() {
  std::vector<analysis::ExperimentSpec> specs;
  {
    auto spec = analysis::table2_experiment(2);
    spec.label = "grid: scheduled flips";
    spec.duration = sim::Millis{400.0};
    for (std::uint64_t frame = 1; frame <= 9; frame += 2) {
      can::ScheduledFlip flip;
      flip.frame = frame;
      flip.field = can::Field::Data;
      flip.bit = static_cast<int>(frame) * 3 % 16;
      spec.fault.flips.push_back(flip);
    }
    specs.push_back(std::move(spec));
  }
  {
    auto spec = analysis::table2_experiment(4);
    spec.label = "grid: stuck bus + BER";
    spec.duration = sim::Millis{400.0};
    spec.fault.bit_error_rate = 5e-4;
    spec.fault.stuck.push_back({3000, 40, sim::BitLevel::Dominant});
    spec.fault.stuck.push_back({9000, 25, sim::BitLevel::Recessive});
    specs.push_back(std::move(spec));
  }
  {
    auto spec = analysis::ScenarioRegistry::built_in().make("busy-bus");
    spec.label = "grid: busy bus + BER";
    spec.duration = sim::Millis{400.0};
    spec.fault.bit_error_rate = 1e-4;
    specs.push_back(std::move(spec));
  }
  return specs;
}

TEST(EngineEquivalence, EveryScenarioByteIdenticalAcrossEnginesAndJobs) {
  const auto specs = registry_specs();
  ASSERT_GE(specs.size(), 10u);

  const std::string reference =
      campaign_json(specs, Engine::Quiescence, /*jobs=*/1);
  for (const Engine engine : kEngines) {
    for (const unsigned jobs : {1u, 4u}) {
      if (engine == Engine::Quiescence && jobs == 1) continue;  // reference
      EXPECT_EQ(reference, campaign_json(specs, engine, jobs))
          << "engine '" << engine_name(engine) << "' at jobs=" << jobs
          << " diverges from the quiescence jobs=1 reference";
    }
  }
}

TEST(EngineEquivalence, FaultInjectionGridByteIdenticalAcrossEngines) {
  const auto specs = fault_grid_specs();
  const std::string reference =
      campaign_json(specs, Engine::Quiescence, /*jobs=*/1);
  EXPECT_EQ(reference, campaign_json(specs, Engine::Naive, /*jobs=*/1))
      << "fault grid: naive engine diverges";
  EXPECT_EQ(reference, campaign_json(specs, Engine::Quiescence, /*jobs=*/4))
      << "fault grid: quiescence report depends on the worker count";
}

// The registry sweep above is only a multi-bus gate if the registry
// actually contains gateway-bridged scenarios; pin that so dropping them
// can't silently shrink the equivalence surface.
TEST(EngineEquivalence, RegistrySweepCoversMultiBusTopologies) {
  std::size_t multibus = 0;
  for (const auto& s : analysis::ScenarioRegistry::built_in().all()) {
    if (s.make().topology.buses > 1) ++multibus;
  }
  EXPECT_GE(multibus, 2u)
      << "expected gateway-bridged (buses > 1) scenarios in the registry";
}

// Likewise the sweep only exercises the toolkit attack profiles (flood /
// fuzz / replay, plus the rest-bus trace-replay path) if the registry keeps
// its atk-* rows; pin them so they stay under the equivalence gate.
TEST(EngineEquivalence, RegistrySweepCoversAttackProfiles) {
  const auto& reg = analysis::ScenarioRegistry::built_in();
  std::size_t atk = 0;
  for (const auto& s : reg.all()) {
    if (s.name.rfind("atk-", 0) == 0) ++atk;
  }
  EXPECT_GE(atk, 6u) << "expected the atk-* attack-profile scenarios";
  for (const char* name : {"atk-flood-dos", "atk-fuzz-std", "atk-fuzz-ext",
                           "atk-replay-spoof", "atk-replay-csv"}) {
    EXPECT_NE(reg.find(name), nullptr) << name;
  }
  EXPECT_FALSE(reg.make("atk-replay-csv").trace_replay.text.empty())
      << "atk-replay-csv must exercise the rest-bus trace-replay path";
}

// Cross-bus wakeups with an odd gateway latency: release times fall at
// arbitrary bits, so the quiescence skip must chunk around them without
// losing an edge.
TEST(EngineEquivalence, MultiBusOddLatencyByteIdenticalAcrossEngines) {
  auto base = analysis::ScenarioRegistry::built_in().make("gw-spoof");
  base.topology.gateway_latency = sim::Bits{13};
  base.duration = sim::Millis{400.0};
  const std::vector<analysis::ExperimentSpec> specs{base};
  EXPECT_EQ(campaign_json(specs, Engine::Quiescence, /*jobs=*/1),
            campaign_json(specs, Engine::Naive, /*jobs=*/1))
      << "multi-bus odd latency: quiescence engine diverges";
}

TEST(EngineEquivalence, GoldenOutputsByteIdenticalWithTimelineCapture) {
  auto make = [](Engine engine) {
    auto spec = analysis::ScenarioRegistry::built_in().make("fig6");
    configure(spec, engine);
    return analysis::run_experiment(spec);
  };
  const auto quiescence = make(Engine::Quiescence);
  const auto naive = make(Engine::Naive);

  EXPECT_EQ(quiescence.fig6_trace, naive.fig6_trace);
  EXPECT_EQ(quiescence.timeline_json, naive.timeline_json);
  EXPECT_EQ(quiescence.events_jsonl, naive.events_jsonl);
  EXPECT_EQ(quiescence.metrics.to_json(), naive.metrics.to_json());

  // The perf counter is the one allowed difference: it lives outside the
  // deterministic surfaces compared above.
  EXPECT_EQ(naive.bits_skipped, 0u);
}

TEST(EngineEquivalence, IdleHeavyScenarioActuallySkips) {
  auto spec = analysis::ScenarioRegistry::built_in().make("controllers-only");
  spec.duration = sim::Millis{500.0};
  const auto res = analysis::run_experiment(spec);
  const auto bits = res.metrics.counter_value("bus.bits_simulated");
  ASSERT_GT(bits, 0u);
  // A periodic defender plus the light rest-bus replay leaves the majority
  // of the bus quiescent; the kernel must skip most of it, not just probe.
  EXPECT_GT(res.bits_skipped, bits / 2);
}

/// Everything a bare-bus recording can differ in: the serialized event log,
/// the exact waveform, and the skip perf counter.
struct Recording {
  std::string events;
  std::string wave;
  std::uint64_t skipped{};
};

/// Two controllers with maximally stuff-heavy periodic traffic and idle
/// gaps between frames: all-zero and all-ones payloads produce a stuff bit
/// every five wire bits, and IDs 0x400/0x401 differ only in the last
/// arbitration bit, so the two simultaneous enqueues contest arbitration to
/// the end.  `chunk_seed` 0 runs the recording as one run() call; any other
/// value splits it into run() calls of random length (1..200 bits), so
/// every run end caps a quiescence skip at an arbitrary bit.
Recording record_stuffy(bool fast_path, std::uint64_t chunk_seed) {
  constexpr sim::BitTime kBits = 6000;
  can::WiredAndBus bus{sim::BusSpeed{50'000}};
  bus.set_fast_path(fast_path);

  can::BitController a{"ecu-a"};
  can::BitController b{"ecu-b"};
  a.attach_to(bus);
  b.attach_to(bus);
  can::CanFrame fa;
  fa.id = 0x400;
  fa.dlc = 8;  // data stays all-0x00: dominant stuff runs
  can::CanFrame fb;
  fb.id = 0x401;
  fb.dlc = 8;
  fb.data.fill(0xFF);  // recessive stuff runs
  can::attach_periodic(a, fa, /*period_bits=*/700.0, /*phase_bits=*/95.0);
  can::attach_periodic(b, fb, /*period_bits=*/700.0, /*phase_bits=*/95.0);

  if (chunk_seed == 0) {
    bus.run(sim::Bits{kBits});
  } else {
    sim::Rng rng{chunk_seed};
    while (bus.now() < kBits) {
      bus.run(sim::Bits{std::min<sim::BitTime>(rng.uniform(1, 200),
                                               kBits - bus.now())});
    }
  }
  return {obs::to_jsonl(bus.log()),
          bus.trace().render(0, bus.trace().size()), bus.bits_skipped()};
}

TEST(EngineEquivalence, HorizonSplitAssociativityPropertySweep) {
  // Splitting one recording into randomly sized run() calls must compose
  // to the unsplit recording on both tiers: the quiescence engine is
  // associative over skip-horizon boundaries, and the naive tier over
  // run() boundaries.
  const auto reference = record_stuffy(/*fast_path=*/false, 0);
  ASSERT_NE(reference.events.find("ArbitrationLost"), std::string::npos)
      << "scenario must actually contest arbitration";
  const auto unsplit = record_stuffy(/*fast_path=*/true, 0);
  EXPECT_EQ(reference.events, unsplit.events);
  EXPECT_EQ(reference.wave, unsplit.wave);
  EXPECT_GT(unsplit.skipped, 0u) << "the idle gaps must actually be skipped";
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    for (const bool fast_path : {false, true}) {
      const auto r = record_stuffy(fast_path, seed);
      ASSERT_EQ(reference.events, r.events)
          << "seed=" << seed << " fast_path=" << fast_path;
      ASSERT_EQ(reference.wave, r.wave)
          << "seed=" << seed << " fast_path=" << fast_path;
    }
  }
}

TEST(EngineEquivalence, StaleNextActivityThrowsInsteadOfSkipping) {
  can::WiredAndBus bus{sim::BusSpeed{50'000}};
  LyingNode liar;
  bus.attach(liar);
  EXPECT_THROW(bus.run(sim::Bits{200}), std::logic_error);
}

TEST(EngineEquivalence, NaiveKernelToleratesTheLiar) {
  // With skipping off the same node is stepped bit by bit — no promise, no
  // violation; its dominant edge simply lands on the wire.
  can::WiredAndBus bus{sim::BusSpeed{50'000}};
  bus.set_fast_path(false);
  LyingNode liar;
  bus.attach(liar);
  EXPECT_NO_THROW(bus.run(sim::Bits{200}));
  EXPECT_EQ(bus.bits_skipped(), 0u);
}

TEST(DurationTypes, BitsAndMillisConvertExactly) {
  const sim::BusSpeed speed{50'000};
  EXPECT_EQ(speed.to_bits(sim::Millis{1000.0}).value(), 50'000);
  EXPECT_EQ(speed.to_bits(sim::Millis{2.0}).value(), 100);
  EXPECT_DOUBLE_EQ(speed.to_millis(sim::Bits{50'000}).value(), 1000.0);
  EXPECT_TRUE(sim::Millis{1.0} < sim::Millis{2.0});
  EXPECT_EQ(sim::Bits{10} + sim::Bits{5}, sim::Bits{15});
}

TEST(DurationTypes, SaturatingBitArithmeticNeverWraps) {
  // Soak-length accumulations go through sim::sat_add, which clamps at the
  // BitTime maximum instead of wrapping to a tiny horizon.
  constexpr sim::BitTime kMax = std::numeric_limits<sim::BitTime>::max();
  static_assert(sim::sat_add(kMax, 1) == kMax);
  static_assert(sim::sat_add(kMax - 5, 10) == kMax);
  static_assert(sim::sat_add(kMax, kMax) == kMax);
  static_assert(sim::sat_add(3, 4) == 7);
  static_assert(sim::sat_add(0, kMax) == kMax);
  EXPECT_EQ(sim::sat_add(kMax - 1, 1), kMax);

  // The run() end marker is the guarded call site: asking for kNever bits
  // from a nonzero `now` must clamp, not wrap to an end before `now` (which
  // would silently turn run() into a no-op).
  can::WiredAndBus bus{sim::BusSpeed{50'000}};
  bus.set_fast_path(false);
  can::BitController idle{"idle"};
  idle.attach_to(bus);
  bus.run(sim::Bits{50});
  ASSERT_EQ(bus.now(), 50u);
  // kMax bits from now=50 would overflow unguarded: 50 + kMax wraps to 49.
  // With sat_add the end clamps to kMax and the loop keeps simulating; run
  // a bounded slice by checking the end computation directly instead.
  EXPECT_EQ(sim::sat_add(bus.now(), kMax), kMax);
}

}  // namespace
}  // namespace mcan
