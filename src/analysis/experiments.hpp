// The paper's six Table II experiments (plus the >2-attacker sweep of
// Sec. V-C) as a reusable harness: a MichiCAN defender configured for CAN
// ID 0x173 on Veh. D's powertrain bus, one or more attackers, optional
// restbus traffic, 2-second recordings at 50 kbit/s.
//
//   Exp. 1: spoofing 0x173, restbus on      Exp. 2: spoofing 0x173, no restbus
//   Exp. 3: DoS 0x064, restbus on           Exp. 4: DoS 0x064, no restbus
//   Exp. 5: two attackers, 0x066 + 0x067    Exp. 6: one attacker toggling
//                                                   0x050 / 0x051
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "attack/attacker.hpp"
#include "attack/error_frame.hpp"
#include "can/fault_injector.hpp"
#include "can/gateway.hpp"
#include "can/types.hpp"
#include "core/detection.hpp"
#include "obs/metrics.hpp"
#include "obs/profile.hpp"
#include "sim/stats.hpp"
#include "sim/types.hpp"

namespace mcan::analysis {

/// Multi-bus vehicle wiring for an experiment.  The default (buses == 1)
/// reproduces the historical single-segment recording bit-for-bit; with
/// buses > 1 the experiment builds a restbus::VehicleTopology — adjacent
/// segments chained by store-and-forward gateways with the symmetric
/// `routes` table — and places each actor on its configured segment, so a
/// powertrain-bus attack and a body-bus defender only interact through
/// gateway forwarding.
struct TopologySpec {
  /// Number of bus segments (all at ExperimentSpec::speed).
  std::size_t buses{1};
  /// Store-and-forward latency per gateway hop, in shared bit times.
  /// Must be >= 1 when buses > 1 (see restbus::VehicleTopology).
  sim::Bits gateway_latency{64};
  /// Routing table installed symmetrically on every gateway.
  std::vector<can::RouteId> routes;
  /// Segment indices (all must be < buses).  The fault injector and the
  /// error-frame stompers ride the defender's segment: faults are a
  /// property of the monitored wire, and a stomper needs the victim's
  /// transmissions under its feet.
  std::size_t attacker_bus{0};
  std::size_t defender_bus{0};
  std::size_t restbus_bus{0};
};

/// Rest-bus-side trace ingestion: a captured log (candump -L or toolkit
/// CSV) replayed onto the rest-bus segment through a dedicated controller,
/// so recorded vehicle traffic can drive any scenario.  Empty text = off.
/// (Attacker-side replay is AttackProfile::Replay on an AttackerConfig.)
struct TraceReplaySpec {
  std::string text;
  restbus::TraceFormat format{restbus::TraceFormat::Candump};
  double time_scale{1.0};
};

struct ExperimentSpec {
  int number{0};  // 1..6 for the paper's experiments, 0 for custom
  std::string label;
  std::vector<attack::AttackerConfig> attackers;
  bool restbus{false};
  can::CanId defender_id{0x173};
  /// Period of the defender's own 0x173 message; 0 = the defender stays
  /// silent during the recording.  The spoofing experiments (1, 2) default
  /// to silent: a victim that keeps transmitting while its own ID is
  /// flooded suffers same-ID collisions that destroy both frames and drive
  /// *both* error counters up (Cho & Shin bus-off physics) — see the
  /// dedicated SpoofedVictimCollisions test and EXPERIMENTS.md.
  sim::Millis defender_period{100.0};
  sim::BusSpeed speed{50'000};
  sim::Millis duration{2000.0};
  /// Analytical load the replayed Veh. D matrix is scaled to.  Table II's
  /// restbus runs show only mild interference with the bus-off sequences
  /// (mu moves < 1 ms while max doubles), matching a light replay load.
  double restbus_target_load{0.12};
  core::Scenario scenario{core::Scenario::Full};
  bool defense_enabled{true};
  std::uint64_t seed{42};
  /// Physical-layer fault plan (bit flips, stuck-at windows, sample skew).
  /// When no fault is configured the bus runs the clean fast path and the
  /// result is bit-identical to a pre-fault-injection recording.
  can::FaultSpec fault;
  /// Below-the-data-link-layer frame stompers (Rogers/Rasmussen-style
  /// error-frame abuse); they attack the wire, not through a controller.
  std::vector<attack::ErrorFrameConfig> error_attackers;
  /// Render the recording's event log as a Chrome trace-event timeline plus
  /// a JSONL event dump (ExperimentResult::timeline_json / events_jsonl).
  /// Off by default: export is the only obs feature with per-event cost.
  bool capture_timeline{false};
  /// Quiescence-skipping kernel (WiredAndBus fast path).  The recording is
  /// byte-identical either way; forcing it off (--no-fast-path) pins the
  /// naive per-bit kernel when bisecting.
  bool fast_path{true};
  /// Multi-bus wiring; the default single-bus value changes nothing.
  TopologySpec topology;
  /// Captured-log replay onto the rest-bus segment; default off.
  TraceReplaySpec trace_replay;
};

struct AttackerOutcome {
  std::string node;
  can::CanId primary_id{};
  sim::Summary busoff_bits;  // per completed bus-off cycle
  sim::Summary busoff_ms;
  /// Raw per-cycle bus-off durations (ms) behind the summaries.  Kept so a
  /// campaign can pool samples across seeds and compute exact aggregate
  /// stddev/percentiles instead of merging pre-reduced summaries.
  std::vector<double> busoff_cycles_ms;
  std::size_t busoff_count{};
  std::uint64_t retransmissions{};
  bool ended_bus_off{};
  int final_tec{};
};

struct ExperimentResult {
  ExperimentSpec spec;
  std::vector<AttackerOutcome> attackers;

  // Defender health: the counterattack must not cost the defender its bus
  // access (its TEC is untouched by the injected dominant bits).
  bool defender_bus_off{};
  int defender_tec{};
  int defender_rec{};
  std::uint64_t defender_frames_sent{};

  std::uint64_t attacks_detected{};
  std::uint64_t counterattacks{};
  double mean_detection_bit{};

  std::uint64_t restbus_frames_delivered{};
  std::uint64_t restbus_drops{};
  bool restbus_any_bus_off{};

  // Fault-injection forensics (all zero on a clean bus).
  can::FaultInjector::Stats faults;
  /// AttackDetected verdicts raised while no attacker was transmitting:
  /// the defense flagged legitimate traffic (arbitration false positives,
  /// e.g. a bit flip inside a benign ID).  Behind a gateway, where the
  /// attack frame arrives relayed, the observed ID decides instead.
  std::uint64_t false_detections{};
  /// Frame transmissions started by compliant attackers — the denominator
  /// of the arbitration detection (and miss) rate.
  std::uint64_t attacker_frames{};
  /// Frames destroyed by error-frame (Rogers/Rasmussen) stompers.
  std::uint64_t error_frame_stomps{};

  double busy_fraction{};           // measured bus load over the recording
  double first_cycle_total_bits{};  // first malicious SOF -> last attacker
                                    // bus-off of the opening joint cycle
  std::string fig6_trace;           // rendered waveform of the first cycle

  /// Per-task metrics shard, registered by the bus, the controllers, the
  /// detector and the fault injector at harvest time.  Campaigns merge the
  /// shards deterministically; the content is a pure function of the spec
  /// (wall clocks live in `profile`, never here).
  obs::Registry metrics;
  /// Wall-clock self-profile of this task's phases (setup / sim / harvest /
  /// metrics export / timeline render).  Runtime facts — not deterministic.
  obs::Profiler profile;
  /// Bits the quiescence-skipping kernel covered without per-bit stepping.
  /// Runtime perf info (varies with spec.fast_path) — kept out of `metrics`
  /// so the deterministic sections stay identical with the fast path on/off.
  std::uint64_t bits_skipped{};
  /// Always 0 (no engine tier batches bits); kept because the perfbench
  /// harness (perfbench/workloads.cpp) still reads it.
  std::uint64_t bits_batched{};
  /// Chrome trace-event JSON + JSONL dump when spec.capture_timeline.
  std::string timeline_json;
  std::string events_jsonl;
};

/// Spec for one of the paper's Table II experiments (1..6).
[[nodiscard]] ExperimentSpec table2_experiment(int number);

/// Exp.-5-style spec with `num_attackers` (2..4+) distinct DoS attackers
/// on consecutive IDs starting at 0x066 (Sec. V-C, Fig. 5).
[[nodiscard]] ExperimentSpec multi_attacker_spec(int num_attackers);

/// Rogers/Rasmussen scenario: the defender transmits its own 0x173
/// periodically while an error-frame stomper destroys every attempt from
/// below the data-link layer.  MichiCAN's arbitration monitor is blind to
/// this attacker; the experiment measures how fault confinement copes.
[[nodiscard]] ExperimentSpec error_frame_experiment();

/// The fault-sweep axis: `spec` with its bit-error rate set to `ber`.
/// A BER of 0 returns the spec *unchanged* (label included), which is what
/// makes a BER=0 sweep byte-identical to the clean-bus campaign.
[[nodiscard]] ExperimentSpec fault_variant(ExperimentSpec spec, double ber);

/// Throws std::invalid_argument if the spec cannot be simulated (no
/// duration, zero bus speed, an attacker with an empty ID list, or an
/// out-of-range standard CAN ID).  run_experiment() validates implicitly;
/// campaign runners call this up front to fail a task before it is queued.
void validate(const ExperimentSpec& spec);

[[nodiscard]] ExperimentResult run_experiment(const ExperimentSpec& spec);

}  // namespace mcan::analysis
