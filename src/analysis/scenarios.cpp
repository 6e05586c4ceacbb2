#include "analysis/scenarios.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>
#include <vector>

#include <cstdio>

#include "attack/profiles.hpp"
#include "restbus/candump.hpp"
#include "restbus/vehicles.hpp"

namespace mcan::analysis {
namespace {

/// Does `scenario` answer to `key` (canonical name or alias)?
bool matches(const Scenario& scenario, std::string_view key) {
  if (scenario.name == key) return true;
  for (const auto& alias : scenario.aliases) {
    if (alias == key) return true;
  }
  return false;
}

ExperimentSpec fig6_spec() {
  // 120 ms covers several bus-off cycles at 50 kbit/s while keeping the
  // rendered timeline small enough for an instant Perfetto load.
  auto spec = table2_experiment(2);
  spec.label = "fig6";
  spec.duration = sim::Millis{120.0};
  spec.capture_timeline = true;
  return spec;
}

ExperimentSpec idle_bus_spec() {
  ExperimentSpec spec;
  spec.label = "idle_bus";
  spec.defender_period = sim::Millis{0};  // silent defender, empty bus
  return spec;
}

ExperimentSpec controllers_only_spec() {
  ExperimentSpec spec;
  spec.label = "controllers_only";
  spec.defender_period = sim::Millis{10.0};
  spec.restbus = true;  // replayed Veh. D matrix, no attackers
  return spec;
}

ExperimentSpec busy_bus_spec() {
  // The stepped kernel's worst case: a heavily loaded bus with no armed
  // monitor and no attackers — the wire is almost always mid-frame, so the
  // quiescence fast path finds little idle time to skip and nearly every
  // bit is stepped.  The ~0.8 target load is the upper end of what a
  // production 50 kbit/s bus sustains.
  ExperimentSpec spec;
  spec.label = "busy_bus";
  spec.defense_enabled = false;
  spec.defender_period = sim::Millis{5.0};
  spec.restbus = true;
  spec.restbus_target_load = 0.8;
  return spec;
}

ExperimentSpec restbus_idle_spec() {
  // The quiescence-skipping kernel's home turf: the defender at its normal
  // 100 ms period plus the light rest-bus replay keeps the 50 kbit/s bus
  // ~85% recessive — the typical idle-heavy shape of a real vehicle bus.
  ExperimentSpec spec;
  spec.label = "restbus_idle";
  spec.restbus = true;
  return spec;
}

/// Spoofing duel across the gateway: the attacker floods 0x173 on the
/// powertrain segment, the gateway forwards it to the body segment where
/// the defender monitors.  The defender cannot reach the original attacker
/// — its counterattack lands on the gateway's egress controller, which
/// becomes the proxy victim — but the forwarded spoof is still neutralized
/// on the monitored bus (the CANflict-style cross-segment surface).
ExperimentSpec gw_spoof_spec() {
  auto spec = table2_experiment(2);
  spec.number = 0;
  spec.label = "gateway-forwarded spoofing 0x173";
  spec.topology.buses = 2;
  spec.topology.attacker_bus = 0;
  spec.topology.defender_bus = 1;
  spec.topology.restbus_bus = 1;
  spec.topology.routes = {{0x173, false}};
  return spec;
}

/// DoS containment: the 0x064 flood saturates the powertrain segment, but
/// the gateway's routing table only carries 0x173 — the body segment (with
/// the defender and a light rest-bus load) never sees the flood.
ExperimentSpec gw_dos_spec() {
  auto spec = table2_experiment(4);
  spec.number = 0;
  spec.label = "gateway-contained DoS 0x064";
  spec.restbus = true;
  spec.topology.buses = 2;
  spec.topology.attacker_bus = 0;
  spec.topology.defender_bus = 1;
  spec.topology.restbus_bus = 1;
  spec.topology.routes = {{0x173, false}};
  return spec;
}

/// Benign cross-segment traffic: the Veh. D rest-bus matrix replays on the
/// powertrain segment and the gateway forwards a handful of its IDs to the
/// body segment, where the armed defender must stay quiet (no false
/// detections on forwarded legitimate frames).
ExperimentSpec gw_forward_spec() {
  ExperimentSpec spec;
  spec.label = "gateway benign forwarding";
  spec.restbus = true;
  spec.topology.buses = 2;
  spec.topology.attacker_bus = 0;
  spec.topology.defender_bus = 1;
  spec.topology.restbus_bus = 0;
  const auto ids = restbus::vehicle_matrix(restbus::Vehicle::D, 1).ecu_ids();
  for (const auto id : ids) {
    if (id == spec.defender_id) continue;
    spec.topology.routes.push_back({id, /*extended=*/false});
    if (spec.topology.routes.size() == 4) break;
  }
  return spec;
}

// --- toolkit attack profiles (ROADMAP item 3) ------------------------------

ExperimentSpec atk_flood_dos_spec() {
  // candos: continuous lowest-priority flood — the Flood profile with no
  // pacing degenerates to the Table II DoS shape, but runs through the
  // profile dispatch end to end.
  ExperimentSpec spec;
  spec.label = "flood DoS 0x000 (continuous)";
  spec.defender_period = sim::Millis{0.0};
  auto a = attack::Attacker::traditional_dos();
  a.profile = attack::AttackProfile::Flood;
  spec.attackers = {a};
  spec.restbus = true;
  return spec;
}

ExperimentSpec atk_flood_paced_spec() {
  // flood --rate: a 0x173 spoof flood paced at 100 frames/s (500 bit times
  // at 50 kbit/s), so the monitor sees periodic rather than back-to-back
  // spoofs.
  ExperimentSpec spec;
  spec.label = "spoof flood 0x173 at 100 fps";
  spec.defender_period = sim::Millis{0.0};
  auto a = attack::Attacker::spoof(0x173);
  a.profile = attack::AttackProfile::Flood;
  a.rate_fps = 100.0;
  spec.attackers = {a};
  spec.restbus = true;
  return spec;
}

ExperimentSpec atk_fuzz_std_spec() {
  // canfuzzer over the 11-bit space: random ID/DLC/payload at 50 frames/s
  // against the armed defender and the rest-bus replay.
  ExperimentSpec spec;
  spec.label = "fuzz 11-bit IDs at 50 fps";
  spec.defender_period = sim::Millis{0.0};
  attack::AttackerConfig a;
  a.profile = attack::AttackProfile::Fuzz;
  a.rate_fps = 50.0;
  a.fuzz_id_min = 0x000;
  a.fuzz_id_max = can::kMaxStdId;
  a.fuzz_dlc_min = 0;
  a.fuzz_dlc_max = 8;
  spec.attackers = {a};
  spec.restbus = true;
  return spec;
}

ExperimentSpec atk_fuzz_ext_spec() {
  // canfuzzer with the extended-ID option: 29-bit identifiers exercise the
  // CAN 2.0B framing through every engine tier.
  ExperimentSpec spec;
  spec.label = "fuzz 29-bit IDs at 50 fps";
  spec.defender_period = sim::Millis{0.0};
  attack::AttackerConfig a;
  a.profile = attack::AttackProfile::Fuzz;
  a.extended = true;
  a.rate_fps = 50.0;
  a.fuzz_id_min = 0x000;
  a.fuzz_id_max = can::kMaxExtId;
  a.fuzz_dlc_min = 0;
  a.fuzz_dlc_max = 8;
  spec.attackers = {a};
  return spec;
}

/// A deterministic "captured" spoof log: 0x173 every 25 ms with seeded
/// payloads, closed by an equal-timestamp pair (stable-sort coverage).
/// Timestamps are composed from integers — never printf("%f") — so the
/// spec is identical under any process locale.
std::string spoof_replay_trace() {
  std::string out;
  sim::Rng rng{0xA77ACC};
  char buf[32];
  const auto append_frame = [&](long long us) {
    int n = std::snprintf(buf, sizeof buf, "(%lld.%06lld) can0 173#",
                          us / 1000000, us % 1000000);
    out.append(buf, static_cast<std::size_t>(n));
    for (int b = 0; b < 8; ++b) {
      std::snprintf(buf, sizeof buf, "%02X",
                    static_cast<unsigned>(rng.uniform(0, 255)));
      out += buf;
    }
    out += '\n';
  };
  for (int i = 0; i < 64; ++i) append_frame(2000 + 25000LL * i);
  append_frame(2000 + 25000LL * 64);
  append_frame(2000 + 25000LL * 64);  // duplicate timestamp, stable order
  return out;
}

ExperimentSpec atk_replay_spoof_spec() {
  // canreplay -t: the captured spoof log drives the attacker with exact
  // inter-frame timing through a compliant controller.
  ExperimentSpec spec;
  spec.label = "replayed spoof capture on 0x173";
  spec.defender_period = sim::Millis{0.0};
  attack::AttackerConfig a;
  a.profile = attack::AttackProfile::Replay;
  a.replay_trace = spoof_replay_trace();
  a.replay_format = restbus::TraceFormat::Candump;
  spec.attackers = {a};
  return spec;
}

ExperimentSpec atk_replay_csv_spec() {
  // Trace-replay ingestion on the rest-bus side: a benign toolkit CSV
  // capture (four Veh.-D-style IDs on a 20 ms cadence) replays onto the
  // monitored bus; the armed defender must stay quiet.
  ExperimentSpec spec;
  spec.label = "benign CSV capture on the rest-bus";
  std::vector<restbus::CandumpEntry> trace;
  sim::Rng rng{0xC5F};
  // The capture must carry IDs the IVN knows (the monitor treats unknown
  // identifiers as attack traffic): draw four from the Veh. D matrix.
  std::vector<can::CanId> ids;
  for (const auto id : restbus::vehicle_matrix(restbus::Vehicle::D, 1)
                           .ecu_ids()) {
    if (id == spec.defender_id) continue;
    ids.push_back(id);
    if (ids.size() == 4) break;
  }
  for (int i = 0; i < 80; ++i) {
    restbus::CandumpEntry e;
    e.t_seconds = (5000.0 + 20000.0 * i) / 1e6;
    e.frame.id = ids[static_cast<std::size_t>(i) % ids.size()];
    e.frame.dlc = 8;
    for (int b = 0; b < 8; ++b) {
      e.frame.data[static_cast<std::size_t>(b)] =
          static_cast<std::uint8_t>(rng.uniform(0, 255));
    }
    trace.push_back(std::move(e));
  }
  spec.trace_replay.text = restbus::to_csv(trace);
  spec.trace_replay.format = restbus::TraceFormat::Csv;
  return spec;
}

ScenarioRegistry make_built_in() {
  ScenarioRegistry reg;
  reg.add({"exp1",
           {"1"},
           "Table II Exp. 1: spoofing attack on 0x173, rest-bus traffic on",
           [] { return table2_experiment(1); }});
  reg.add({"exp2",
           {"2", "spoof"},
           "Table II Exp. 2: spoofing attack on 0x173, isolated bus",
           [] { return table2_experiment(2); }});
  reg.add({"exp3",
           {"3"},
           "Table II Exp. 3: DoS attack on 0x064, rest-bus traffic on",
           [] { return table2_experiment(3); }});
  reg.add({"exp4",
           {"4", "dos"},
           "Table II Exp. 4: DoS attack on 0x064, isolated bus",
           [] { return table2_experiment(4); }});
  reg.add({"exp5",
           {"5"},
           "Table II Exp. 5: two simultaneous DoS attackers (0x066 + 0x067)",
           [] { return table2_experiment(5); }});
  reg.add({"exp6",
           {"6"},
           "Table II Exp. 6: one attacker toggling 0x050 / 0x051",
           [] { return table2_experiment(6); }});
  reg.add({"ef",
           {"error-frame"},
           "Rogers/Rasmussen error-frame stomper vs the transmitting "
           "defender",
           [] { return error_frame_experiment(); }});
  reg.add({"fig6",
           {},
           "Fig. 6 waveform recording: 120 ms spoofing duel with timeline "
           "capture on",
           fig6_spec});
  reg.add({"multi3",
           {},
           "Sec. V-C sweep cell: three simultaneous DoS attackers",
           [] { return multi_attacker_spec(3); }});
  reg.add({"multi4",
           {},
           "Sec. V-C sweep cell: four simultaneous DoS attackers",
           [] { return multi_attacker_spec(4); }});
  reg.add({"idle-bus",
           {},
           "bench workload: silent defender on an empty bus (pure "
           "quiescence)",
           idle_bus_spec});
  reg.add({"controllers-only",
           {},
           "bench workload: fast-periodic defender plus replayed rest-bus "
           "matrix, no attackers",
           controllers_only_spec});
  reg.add({"restbus-idle",
           {},
           "bench workload: idle-heavy rest-bus replay (defender at its "
           "normal 100 ms period)",
           restbus_idle_spec});
  reg.add({"busy-bus",
           {},
           "bench workload: ~80% loaded rest-bus replay, defense off — "
           "almost every bit is stepped",
           busy_bus_spec});
  reg.add({"spoof-ber1e-4",
           {},
           "fault-sweep cell: Exp. 2 spoofing on a bus with BER 1e-4",
           [] { return fault_variant(table2_experiment(2), 1e-4); }});
  reg.add({"dos-ber1e-4",
           {},
           "fault-sweep cell: Exp. 4 DoS on a bus with BER 1e-4",
           [] { return fault_variant(table2_experiment(4), 1e-4); }});
  reg.add({"ef-ber1e-4",
           {},
           "fault-sweep cell: error-frame stomper on a bus with BER 1e-4",
           [] { return fault_variant(error_frame_experiment(), 1e-4); }});
  reg.add({"gw-spoof",
           {},
           "two-bus vehicle: spoofing 0x173 forwarded across the gateway to "
           "the defender's segment",
           gw_spoof_spec});
  reg.add({"gw-dos",
           {},
           "two-bus vehicle: DoS 0x064 contained by the gateway routing "
           "table (body segment unharmed)",
           gw_dos_spec});
  reg.add({"gw-forward",
           {},
           "two-bus vehicle: benign rest-bus IDs forwarded across the "
           "gateway, armed defender stays quiet",
           gw_forward_spec});
  reg.add({"atk-flood-dos",
           {},
           "attack profile: continuous lowest-priority (0x000) DoS flood "
           "through the Flood dispatch (candos)",
           atk_flood_dos_spec});
  reg.add({"atk-flood-paced",
           {},
           "attack profile: 0x173 spoof flood paced at 100 frames/s "
           "(flood --rate)",
           atk_flood_paced_spec});
  reg.add({"atk-fuzz-std",
           {},
           "attack profile: seeded random ID/DLC/payload fuzzing over the "
           "11-bit space at 50 frames/s (canfuzzer)",
           atk_fuzz_std_spec});
  reg.add({"atk-fuzz-ext",
           {},
           "attack profile: seeded fuzzing with 29-bit extended identifiers "
           "at 50 frames/s",
           atk_fuzz_ext_spec});
  reg.add({"atk-replay-spoof",
           {},
           "attack profile: captured 0x173 spoof log injected with exact "
           "inter-frame timing (canreplay -t)",
           atk_replay_spoof_spec});
  reg.add({"atk-replay-csv",
           {},
           "trace-replay ingestion: benign toolkit CSV capture drives the "
           "rest-bus, armed defender stays quiet",
           atk_replay_csv_spec});
  return reg;
}

/// Edit distance with unit costs, for near-miss suggestions on unknown
/// scenario names.  Inputs are short kebab-case keys, so the quadratic
/// table is microscopic.
std::size_t edit_distance(std::string_view a, std::string_view b) {
  std::vector<std::size_t> row(b.size() + 1);
  for (std::size_t j = 0; j <= b.size(); ++j) row[j] = j;
  for (std::size_t i = 1; i <= a.size(); ++i) {
    std::size_t prev = row[0];
    row[0] = i;
    for (std::size_t j = 1; j <= b.size(); ++j) {
      const std::size_t cur = row[j];
      row[j] = std::min({row[j] + 1, row[j - 1] + 1,
                         prev + (a[i - 1] == b[j - 1] ? 0 : 1)});
      prev = cur;
    }
  }
  return row[b.size()];
}

}  // namespace

const ScenarioRegistry& ScenarioRegistry::built_in() {
  static const ScenarioRegistry reg = make_built_in();
  return reg;
}

void ScenarioRegistry::add(Scenario scenario) {
  const auto check = [this](const std::string& key) {
    if (find(key) != nullptr) {
      throw std::invalid_argument("ScenarioRegistry: duplicate scenario key '" +
                                  key + "'");
    }
  };
  check(scenario.name);
  for (const auto& alias : scenario.aliases) check(alias);
  scenarios_.push_back(std::move(scenario));
}

const Scenario* ScenarioRegistry::find(std::string_view name) const noexcept {
  for (const auto& s : scenarios_) {
    if (matches(s, name)) return &s;
  }
  return nullptr;
}

std::vector<std::string> ScenarioRegistry::suggest(
    std::string_view name) const {
  // A lookup key counts as a near miss when it is within a small edit
  // distance (typos) or the input is a unique prefix (abbreviations).
  const std::size_t budget = name.size() <= 4 ? 1 : 2;
  std::vector<std::pair<std::size_t, std::string>> ranked;
  const auto consider = [&](const std::string& key) {
    const auto d = edit_distance(name, key);
    if (d <= budget || (name.size() >= 2 && key.rfind(name, 0) == 0)) {
      ranked.emplace_back(d, key);
    }
  };
  for (const auto& s : scenarios_) {
    consider(s.name);
    for (const auto& alias : s.aliases) consider(alias);
  }
  std::sort(ranked.begin(), ranked.end());
  std::vector<std::string> out;
  for (auto& [d, key] : ranked) {
    if (std::find(out.begin(), out.end(), key) == out.end()) {
      out.push_back(std::move(key));
    }
  }
  return out;
}

ExperimentSpec ScenarioRegistry::make(std::string_view name) const {
  if (const Scenario* s = find(name)) return s->make();
  std::string msg = "unknown scenario '" + std::string{name} + "'";
  if (const auto near = suggest(name); !near.empty()) {
    msg += " (did you mean: ";
    for (std::size_t i = 0; i < near.size(); ++i) {
      if (i != 0) msg += ", ";
      msg += near[i];
    }
    msg += "?)";
  }
  std::string known;
  for (const auto& s : scenarios_) {
    if (!known.empty()) known += ", ";
    known += s.name;
  }
  throw std::invalid_argument(msg + " (known: " + known + ")");
}

}  // namespace mcan::analysis
