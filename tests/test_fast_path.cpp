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
#include <functional>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "analysis/experiments.hpp"
#include "analysis/scenarios.hpp"
#include "can/bitstream.hpp"
#include "can/bus.hpp"
#include "can/controller.hpp"
#include "can/fault_injector.hpp"
#include "can/node.hpp"
#include "can/periodic.hpp"
#include "helpers.hpp"
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

// --- the recovery-tail contract ---------------------------------------------
//
// next_activity() in PassiveFlag, ErrorDelim, Intermission and Suspend must
// name the exact bit at which the naive tier logs the node's next event (or
// starts its queued frame), so the quiescence tier can skip the recessive
// tail of every error frame.  Each test steps a naive bus bit by bit, asks
// for the promise before every bit, and checks it against the event log.

/// Steps `bus` (naive tier) for `bits` bits and returns `ctrl`'s
/// next_activity() promise taken before each bit; `before(t)` runs first.
std::vector<sim::BitTime> promises_while_stepping(
    can::WiredAndBus& bus, const can::BitController& ctrl, sim::BitTime bits,
    const std::function<void(sim::BitTime)>& before = {}) {
  std::vector<sim::BitTime> promise;
  for (sim::BitTime t = 0; t < bits; ++t) {
    if (before) before(t);
    promise.push_back(ctrl.next_activity(bus.now()));
    bus.step();
  }
  return promise;
}

/// Bit of the `nth` event of `kind` logged by `node` (fails the test if
/// there is none).
sim::BitTime event_bit(const sim::EventLog& log, sim::EventKind kind,
                       std::string_view node, std::size_t nth = 0) {
  const auto events = log.filter(kind, node);
  EXPECT_GT(events.size(), nth) << sim::to_string(kind) << " #" << nth;
  return events.size() > nth ? events[nth].at : 0;
}

/// Every promise in [from, to) names `expected`.
void expect_promises(const std::vector<sim::BitTime>& promise,
                     sim::BitTime from, sim::BitTime to,
                     sim::BitTime expected, const char* phase) {
  ASSERT_LE(to, promise.size());
  for (sim::BitTime t = from; t < to; ++t) {
    EXPECT_EQ(promise[t], expected) << phase << " at bit " << t;
  }
}

can::CanFrame test_frame(can::CanId id) {
  can::CanFrame f;
  f.id = id;
  f.dlc = 2;
  f.data[0] = 0xA5;
  return f;
}

TEST(RecoveryTail, LonePassiveTransmitterPromisesItsSuspendAndRetry) {
  // No receiver: every attempt ends in an ACK error, which an error-passive
  // transmitter defers (pending ACK exception) to its passive flag's end.
  can::WiredAndBus bus{sim::BusSpeed{50'000}};
  bus.set_fast_path(false);
  can::BitController tx{"tx"};
  tx.attach_to(bus);
  tx.force_error_counters(128, 0);
  tx.enqueue(test_frame(0x123));
  const auto promise = promises_while_stepping(bus, tx, 400);

  const auto start = event_bit(bus.log(), sim::EventKind::FrameTxStart, "tx");
  const auto k = event_bit(bus.log(), sim::EventKind::TxError, "tx");
  const auto suspend =
      event_bit(bus.log(), sim::EventKind::SuspendStart, "tx");
  const auto retry =
      event_bit(bus.log(), sim::EventKind::FrameTxStart, "tx", 1);
  // 6 flag + 8 delimiter + 3 intermission bits, then the 8 suspend bits.
  ASSERT_EQ(suspend, k + 17);
  ASSERT_EQ(retry, suspend + 8);
  EXPECT_EQ(promise[0], start) << "integrating with a queued frame";
  expect_promises(promise, k + 1, k + 6, k + 6,
                  "passive flag, pending ACK exception");
  EXPECT_LE(promise[k + 6], k + 6) << "the flag's last bit is stepped";
  expect_promises(promise, k + 7, k + 8, suspend,
                  "error delimiter before its first recessive bit");
  expect_promises(promise, k + 8, k + 15, suspend,
                  "error delimiter counting recessive bits");
  expect_promises(promise, k + 15, suspend, suspend,
                  "intermission, suspend pending");
  expect_promises(promise, suspend + 1, retry, retry,
                  "suspend, queue not empty");
}

TEST(RecoveryTail, ActiveTransmitterPromisesItsRetryThroughTheDelimiter) {
  can::WiredAndBus bus{sim::BusSpeed{50'000}};
  bus.set_fast_path(false);
  can::BitController tx{"tx"};
  tx.attach_to(bus);
  tx.enqueue(test_frame(0x123));
  const auto promise = promises_while_stepping(bus, tx, 400);

  const auto k = event_bit(bus.log(), sim::EventKind::TxError, "tx");
  const auto retry =
      event_bit(bus.log(), sim::EventKind::FrameTxStart, "tx", 1);
  ASSERT_EQ(retry, k + 17);  // no suspend for an error-active transmitter
  expect_promises(promise, k + 1, k + 7, can::kAlways, "active flag");
  expect_promises(promise, k + 7, retry, retry,
                  "error delimiter and intermission, queue not empty");
}

TEST(RecoveryTail, EmptyQueueFallsIdleWithoutAnyPromisedBit) {
  // One-shot transmitters drop the frame on its error, so the tail ends in
  // Idle (active) or in an empty suspend window (passive): nothing more is
  // ever logged, and the promise is kNever.
  for (const int tec : {0, 128}) {
    SCOPED_TRACE(tec == 0 ? "error-active" : "error-passive");
    can::WiredAndBus bus{sim::BusSpeed{50'000}};
    bus.set_fast_path(false);
    can::BitController::Config cfg;
    cfg.auto_retransmit = false;
    can::BitController tx{"tx", cfg};
    tx.attach_to(bus);
    tx.force_error_counters(tec, 0);
    tx.enqueue(test_frame(0x123));
    const auto promise = promises_while_stepping(bus, tx, 400);

    const auto k = event_bit(bus.log(), sim::EventKind::TxError, "tx");
    if (tec == 0) {
      expect_promises(promise, k + 7, promise.size(), can::kNever,
                      "error delimiter, intermission and idle, queue empty");
      EXPECT_EQ(bus.log().events().back().at, k);
    } else {
      const auto suspend =
          event_bit(bus.log(), sim::EventKind::SuspendStart, "tx");
      expect_promises(promise, k + 7, suspend, suspend,
                      "error delimiter and intermission, suspend pending");
      expect_promises(promise, suspend + 1, promise.size(), can::kNever,
                      "suspend and idle, queue empty");
      EXPECT_EQ(bus.log().events().back().at, suspend);
    }
  }
}

TEST(RecoveryTail, PendingAckExceptionStopsAtTheFlagEnd) {
  // A dominant bit inside the passive flag makes the deferred ACK error
  // count at the flag's end: TEC 248 -> 256 logs the bus-off right there.
  sim::BitTime k = 0;
  for (const bool pulse : {false, true}) {
    can::WiredAndBus bus{sim::BusSpeed{50'000}};
    bus.set_fast_path(false);
    can::BitController tx{"tx"};
    tx.attach_to(bus);
    test::PulseInjector injector;
    bus.attach(injector);
    tx.force_error_counters(248, 0);
    tx.enqueue(test_frame(0x123));
    if (pulse) injector.pulse(k + 2, 1);
    const auto promise = promises_while_stepping(bus, tx, 300);
    k = event_bit(bus.log(), sim::EventKind::TxError, "tx");
    if (!pulse) continue;
    const auto bus_off = event_bit(bus.log(), sim::EventKind::BusOff, "tx");
    ASSERT_EQ(bus_off, k + 8);  // six recessive bits after the pulse
    expect_promises(promise, k + 3, bus_off, bus_off,
                    "passive flag, pending ACK exception that counts");
  }
}

/// `frame`'s wire levels with the last CRC bit inverted and the stuffed
/// region re-stuffed: a well-formed frame every receiver rejects with a CRC
/// error at the ACK delimiter.
std::vector<sim::BitLevel> bad_crc_wire(const can::CanFrame& frame) {
  auto bits = can::unstuffed_bits(frame);
  const auto stuffed =
      static_cast<std::size_t>(can::stuffed_region_length(frame.dlc, false));
  bits[stuffed - 1] ^= 1U;
  std::vector<sim::BitLevel> wire;
  int run = 0;
  std::uint8_t last = 2;
  for (std::size_t i = 0; i < bits.size(); ++i) {
    wire.push_back(bits[i] != 0 ? sim::BitLevel::Recessive
                                : sim::BitLevel::Dominant);
    if (i >= stuffed) continue;
    run = bits[i] == last ? run + 1 : 1;
    last = bits[i];
    if (run == 5) {
      wire.push_back(bits[i] != 0 ? sim::BitLevel::Dominant
                                  : sim::BitLevel::Recessive);
      last = bits[i] ^ 1U;
      run = 1;
    }
  }
  return wire;
}

TEST(RecoveryTail, PassiveReceiverPromisesItsQueuedFrameAfterACrcError) {
  // PassiveFlag without a pending ACK exception: an error-passive receiver
  // flags a CRC error with a recessive flag and then starts the frame it
  // queued while receiving.
  can::WiredAndBus bus{sim::BusSpeed{50'000}};
  bus.set_fast_path(false);
  can::BitController rx{"rx"};
  rx.attach_to(bus);
  rx.force_error_counters(0, 130);
  test::ScriptedNode scripted{20, bad_crc_wire(test_frame(0x2AA))};
  bus.attach(scripted);
  const auto promise = promises_while_stepping(
      bus, rx, 300, [&](sim::BitTime t) {
        if (t == 25) rx.enqueue(test_frame(0x400));
      });

  const auto c = event_bit(bus.log(), sim::EventKind::RxError, "rx");
  ASSERT_EQ(bus.log().filter(sim::EventKind::RxError, "rx").front().a,
            static_cast<std::int64_t>(can::ErrorType::Crc));
  const auto start =
      event_bit(bus.log(), sim::EventKind::FrameTxStart, "rx");
  ASSERT_EQ(start, c + 17);  // 6 flag + 8 delimiter + 3 intermission bits
  expect_promises(promise, c + 1, start, start,
                  "passive flag, delimiter and intermission, queue not empty");
}

// --- receiver groups --------------------------------------------------------

struct GroupRecording {
  std::string events;
  std::string wave;
  std::uint64_t parked{};
  std::size_t stuff_errors{};  // RxError events by type
  std::size_t crc_errors{};
};

/// A transmitter and seven receivers that differ in everything a shared
/// decode must not blur: error state (rx3 is error-passive), ACK behaviour
/// (rx5 never acknowledges) and a periodic hook that comes due mid-frame
/// (rx6).  The first frame is destroyed by a stuff error (the receivers
/// then share one active flag), a scripted frame ends in a CRC error, the
/// rest are valid and stuff-heavy.
GroupRecording record_group_bus(bool fast_path) {
  can::WiredAndBus bus{sim::BusSpeed{50'000}};
  bus.set_fast_path(fast_path);
  can::BitController tx{"tx"};
  tx.attach_to(bus);
  std::vector<std::unique_ptr<can::BitController>> rx;
  for (int i = 1; i <= 7; ++i) {
    can::BitController::Config cfg;
    cfg.ack_enabled = i != 5;
    rx.push_back(std::make_unique<can::BitController>(
        "rx" + std::to_string(i), cfg));
    rx.back()->attach_to(bus);
  }
  rx[2]->force_error_counters(0, 130);
  can::CanFrame own = test_frame(0x300);
  can::attach_periodic(*rx[5], own, /*period_bits=*/1000.0,
                       /*phase_bits=*/650.0);

  can::CanFrame stuffy;
  stuffy.id = 0x100;
  stuffy.dlc = 8;
  stuffy.data.fill(0xFF);  // a stuff bit every five recessive data bits
  can::attach_periodic(tx, stuffy, /*period_bits=*/1000.0,
                       /*phase_bits=*/20.0);
  test::FrameKiller killer{/*from=*/30, /*to=*/31, /*max_kills=*/1};
  bus.attach(killer);
  test::ScriptedNode scripted{600, bad_crc_wire(test_frame(0x2AA))};
  bus.attach(scripted);

  bus.run(sim::Bits{2500});
  GroupRecording rec{obs::to_jsonl(bus.log()),
                     bus.trace().render(0, bus.trace().size()),
                     bus.node_bits_parked()};
  for (const auto& e : bus.log().filter(sim::EventKind::RxError)) {
    if (e.a == static_cast<std::int64_t>(can::ErrorType::Stuff)) {
      ++rec.stuff_errors;
    }
    if (e.a == static_cast<std::int64_t>(can::ErrorType::Crc)) {
      ++rec.crc_errors;
    }
  }
  return rec;
}

TEST(ReceiverGroups, SevenReceiversMatchTheNaiveLogThroughStuffAndCrcErrors) {
  const auto naive = record_group_bus(/*fast_path=*/false);
  const auto grouped = record_group_bus(/*fast_path=*/true);
  EXPECT_EQ(naive.events, grouped.events);
  EXPECT_EQ(naive.wave, grouped.wave);
  EXPECT_EQ(naive.parked, 0u);
  EXPECT_GT(grouped.parked, 0u) << "the receivers must actually be grouped";
  // Both error kinds really happened, at every receiver.
  EXPECT_GE(naive.stuff_errors, 7u);
  EXPECT_GE(naive.crc_errors, 7u);
}

TEST(EngineEquivalence, RecoveryTailSkipKeepsExp2UnderItsSteppedBitBudget) {
  // The recovery-tail skip cut exp2's stepped bits from 48.5k to about 30k
  // per 2 s cell; the bound catches a contract that silently stops
  // skipping.  The count is deterministic.
  for (std::uint64_t seed = 0; seed < 3; ++seed) {
    auto spec = analysis::table2_experiment(2);
    spec.seed = seed;
    const auto res = analysis::run_experiment(spec);
    const auto stepped =
        res.metrics.counter_value("bus.bits_simulated") - res.bits_skipped;
    EXPECT_LE(stepped, 36'000u) << "seed " << seed;
  }
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
