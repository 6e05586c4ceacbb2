#include "analysis/experiments.hpp"

#include <algorithm>
#include <array>
#include <charconv>
#include <chrono>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>

#include "analysis/busoff_meter.hpp"
#include "attack/profiles.hpp"
#include "can/bus.hpp"
#include "can/periodic.hpp"
#include "core/michican_node.hpp"
#include "obs/timeline.hpp"
#include "restbus/replay.hpp"
#include "restbus/topology.hpp"
#include "restbus/vehicles.hpp"

namespace mcan::analysis {

using attack::Attacker;
using sim::EventKind;

ExperimentSpec table2_experiment(int number) {
  ExperimentSpec spec;
  spec.number = number;
  // The Table II recordings measure pure attack/counterattack dynamics:
  // the defender ECU is *configured* for 0x173 but does not inject its own
  // traffic during the 2 s windows (the paper's near-zero sigmas — 0.01 ms
  // in Exp. 6 — rule out defender-side interference).  The interaction of
  // an actively-transmitting victim with a same-ID flood is studied
  // separately (SpoofedVictimCollisions test / EXPERIMENTS.md).
  spec.defender_period = sim::Millis{0.0};
  switch (number) {
    case 1:
      spec.label = "spoofing 0x173, restbus";
      spec.attackers = {Attacker::spoof(0x173)};
      spec.restbus = true;
      break;
    case 2:
      spec.label = "spoofing 0x173, isolated";
      spec.attackers = {Attacker::spoof(0x173)};
      break;
    case 3:
      spec.label = "DoS 0x064, restbus";
      spec.attackers = {Attacker::targeted_dos(0x064)};
      spec.restbus = true;
      break;
    case 4:
      spec.label = "DoS 0x064, isolated";
      spec.attackers = {Attacker::targeted_dos(0x064)};
      break;
    case 5:
      spec.label = "two attackers 0x066/0x067";
      spec.attackers = {Attacker::targeted_dos(0x066),
                        Attacker::targeted_dos(0x067)};
      break;
    case 6:
      spec.label = "one attacker toggling 0x050/0x051";
      spec.attackers = {Attacker::alternating(0x050, 0x051)};
      break;
    default:
      spec.label = "custom";
      break;
  }
  return spec;
}

ExperimentSpec multi_attacker_spec(int num_attackers) {
  ExperimentSpec spec;
  spec.number = 0;
  spec.defender_period = sim::Millis{0.0};
  spec.label = "multi-attacker (A=" + std::to_string(num_attackers) + ")";
  for (int i = 0; i < num_attackers; ++i) {
    spec.attackers.push_back(
        Attacker::targeted_dos(static_cast<can::CanId>(0x066 + i)));
  }
  return spec;
}

ExperimentSpec error_frame_experiment() {
  ExperimentSpec spec;
  spec.number = 0;
  spec.label = "error-frame stomper on 0x173";
  // The victim must transmit to be stompable: the defender sends its own
  // 0x173 periodically and the stomper destroys every attempt from below
  // the data-link layer.
  spec.defender_period = sim::Millis{100.0};
  spec.error_attackers = {attack::ErrorFrameConfig{}};
  return spec;
}

ExperimentSpec fault_variant(ExperimentSpec spec, double ber) {
  if (ber <= 0.0) return spec;
  spec.fault.bit_error_rate = ber;
  std::array<char, 32> buf{};
  const auto [ptr, ec] = std::to_chars(buf.data(), buf.data() + buf.size(),
                                       ber);
  spec.label += " [BER=" +
                (ec == std::errc{} ? std::string{buf.data(), ptr}
                                   : std::string{"?"}) +
                "]";
  return spec;
}

void validate(const ExperimentSpec& spec) {
  if (spec.duration.value() <= 0) {
    throw std::invalid_argument("experiment '" + spec.label +
                                "': duration must be > 0");
  }
  if (spec.speed.bits_per_second == 0) {
    throw std::invalid_argument("experiment '" + spec.label +
                                "': bus speed must be > 0");
  }
  if (spec.defender_period.value() < 0) {
    throw std::invalid_argument("experiment '" + spec.label +
                                "': defender_period must be >= 0");
  }
  for (const auto& a : spec.attackers) {
    const bool scripted_ids = a.profile == attack::AttackProfile::Scripted ||
                              a.profile == attack::AttackProfile::Flood;
    if (scripted_ids && a.ids.empty()) {
      throw std::invalid_argument("experiment '" + spec.label +
                                  "': attacker with empty ID list");
    }
    for (const auto id : a.ids) {
      if (a.extended ? id > can::kMaxExtId : id > can::kMaxStdId) {
        throw std::invalid_argument("experiment '" + spec.label +
                                    "': CAN ID out of range");
      }
    }
    if (a.rate_fps < 0.0) {
      throw std::invalid_argument("experiment '" + spec.label +
                                  "': rate_fps must be >= 0");
    }
    if (a.profile == attack::AttackProfile::Fuzz) {
      if (a.fuzz_id_min > a.fuzz_id_max) {
        throw std::invalid_argument("experiment '" + spec.label +
                                    "': empty fuzz ID range");
      }
      if (a.fuzz_id_max > (a.extended ? can::kMaxExtId : can::kMaxStdId)) {
        throw std::invalid_argument("experiment '" + spec.label +
                                    "': fuzz ID range out of range");
      }
      if (a.fuzz_dlc_min > a.fuzz_dlc_max || a.fuzz_dlc_max > 8) {
        throw std::invalid_argument("experiment '" + spec.label +
                                    "': fuzz DLC range must stay within 0..8");
      }
    }
    if (a.profile == attack::AttackProfile::Replay) {
      if (a.replay_trace.empty()) {
        throw std::invalid_argument("experiment '" + spec.label +
                                    "': replay attacker with empty trace");
      }
      if (a.replay_time_scale <= 0.0) {
        throw std::invalid_argument("experiment '" + spec.label +
                                    "': replay_time_scale must be > 0");
      }
      try {
        (void)restbus::parse_trace(a.replay_trace, a.replay_format);
      } catch (const std::exception& e) {
        throw std::invalid_argument("experiment '" + spec.label +
                                    "': replay trace: " + e.what());
      }
    }
  }
  if (!spec.trace_replay.text.empty()) {
    if (spec.trace_replay.time_scale <= 0.0) {
      throw std::invalid_argument("experiment '" + spec.label +
                                  "': trace_replay.time_scale must be > 0");
    }
    try {
      (void)restbus::parse_trace(spec.trace_replay.text,
                                 spec.trace_replay.format);
    } catch (const std::exception& e) {
      throw std::invalid_argument("experiment '" + spec.label +
                                  "': trace_replay: " + e.what());
    }
  }
  if (spec.fault.bit_error_rate < 0.0 || spec.fault.bit_error_rate >= 1.0) {
    throw std::invalid_argument("experiment '" + spec.label +
                                "': bit_error_rate must be in [0, 1)");
  }
  for (const auto& w : spec.fault.stuck) {
    if (w.len == 0) {
      throw std::invalid_argument("experiment '" + spec.label +
                                  "': zero-length stuck-bus window");
    }
  }
  for (const auto& s : spec.fault.skews) {
    if (s.sjw < 0.0 || s.sjw >= 0.5 || s.drift_per_bit <= -0.5 ||
        s.drift_per_bit >= 0.5) {
      throw std::invalid_argument("experiment '" + spec.label +
                                  "': sample skew out of range (|drift| and "
                                  "sjw must stay below half a bit)");
    }
  }
  const auto& topo = spec.topology;
  if (topo.buses == 0) {
    throw std::invalid_argument("experiment '" + spec.label +
                                "': topology must have >= 1 bus");
  }
  if (topo.buses > 1 && topo.gateway_latency.value() < 1) {
    throw std::invalid_argument(
        "experiment '" + spec.label +
        "': gateway_latency must be >= 1 bit when buses > 1");
  }
  if (topo.attacker_bus >= topo.buses || topo.defender_bus >= topo.buses ||
      topo.restbus_bus >= topo.buses) {
    throw std::invalid_argument("experiment '" + spec.label +
                                "': bus index out of range (must be < " +
                                std::to_string(topo.buses) + ")");
  }
  for (const auto& r : topo.routes) {
    if (r.extended ? r.id > can::kMaxExtId : r.id > can::kMaxStdId) {
      throw std::invalid_argument("experiment '" + spec.label +
                                  "': gateway route ID out of range");
    }
  }
  for (const auto& e : spec.error_attackers) {
    if (e.victim_id > can::kMaxStdId) {
      throw std::invalid_argument("experiment '" + spec.label +
                                  "': stomper victim ID out of range");
    }
    if (e.stomp_bits < 1) {
      throw std::invalid_argument("experiment '" + spec.label +
                                  "': stomp_bits must be >= 1");
    }
    // The ID (11 unstuffed bits after SOF, up to two stuff bits) must be
    // fully decoded before the stomp is armed one bit early.
    if (e.stomp_pos < 15) {
      throw std::invalid_argument("experiment '" + spec.label +
                                  "': stomp_pos must be >= 15");
    }
  }
}

namespace {

using ProfileClock = std::chrono::steady_clock;

double ms_between(ProfileClock::time_point from, ProfileClock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

// Event-log-derived distributions: detection latency (ID bit position of the
// verdict), attacker TEC at each transmit error, and counterattack window
// lengths in raw bits.  Bounds follow the protocol's natural breakpoints
// (TEC thresholds 96/127, the paper's bit-5 detection for Table II IDs).
void export_log_histograms(const sim::EventLog& log,
                           const std::vector<AttackerOutcome>& attackers,
                           obs::Registry& reg) {
  auto& detect = reg.histogram("monitor.detection_bit",
                               {2.0, 4.0, 6.0, 8.0, 10.0, 12.0});
  auto& tec = reg.histogram(
      "attackers.tec_on_tx_error",
      {0.0, 16.0, 32.0, 64.0, 96.0, 127.0, 160.0, 192.0, 224.0, 255.0});
  auto& window = reg.histogram("monitor.counterattack_bits",
                               {2.0, 4.0, 6.0, 8.0, 12.0, 16.0});

  const auto is_attacker = [&](const std::string& node) {
    return std::any_of(attackers.begin(), attackers.end(),
                       [&](const AttackerOutcome& o) { return o.node == node; });
  };
  std::map<std::string, sim::BitTime> open_attack;
  for (const auto& ev : log.events()) {
    switch (ev.kind) {
      case sim::EventKind::AttackDetected:
        detect.observe(static_cast<double>(ev.a));
        break;
      case sim::EventKind::TxError:
        if (is_attacker(ev.node)) tec.observe(static_cast<double>(ev.b));
        break;
      case sim::EventKind::CounterattackStart:
        open_attack[ev.node] = ev.at;
        break;
      case sim::EventKind::CounterattackEnd:
        if (const auto it = open_attack.find(ev.node);
            it != open_attack.end()) {
          window.observe(static_cast<double>(ev.at - it->second));
          open_attack.erase(it);
        }
        break;
      default:
        break;
    }
  }
}

/// Alarms raised on a frame no attacker owns.  On the attackers' own
/// segment the log names the owner of the frame on the wire: the nodes
/// that logged FrameTxStart the bit before its SOF contend for it, and an
/// ArbitrationLost takes a contender out.  A TxError does not: a frame the
/// attacker started stays its own even when line noise destroys it before
/// the monitor's verdict, as when a flipped ID bit shows a neighbouring ID.
/// Across a gateway the attack frame reaches the defender relayed under its
/// own ID, so there an alarm is true when its ID is one an attacker
/// injected (configured IDs for scripted profiles, the runtime set for
/// fuzz/replay, extended IDs pre-expanded to their 11-bit base).
std::uint64_t count_false_detections(
    const sim::EventLog& log,
    const std::vector<std::unique_ptr<attack::AttackerNode>>& attackers,
    bool same_segment) {
  std::uint64_t false_alarms = 0;
  if (!same_segment) {
    std::vector<can::CanId> ids;
    for (const auto& a : attackers) {
      for (const auto id : a->injected_ids()) ids.push_back(id);
    }
    for (const auto& ev : log.events()) {
      if (ev.kind == EventKind::AttackDetected &&
          std::find(ids.begin(), ids.end(), ev.id) == ids.end()) {
        ++false_alarms;
      }
    }
    return false_alarms;
  }
  // contending[i]: attacker i started the current frame and still holds it.
  std::vector<bool> contending(attackers.size(), false);
  sim::BitTime frame_start = 0;
  const auto attacker_index = [&](const std::string& node) {
    for (std::size_t i = 0; i < attackers.size(); ++i) {
      if (attackers[i]->node().name() == node) return i;
    }
    return attackers.size();
  };
  for (const auto& ev : log.events()) {
    switch (ev.kind) {
      case EventKind::FrameTxStart: {
        if (ev.at != frame_start) {
          frame_start = ev.at;
          contending.assign(attackers.size(), false);
        }
        const auto i = attacker_index(ev.node);
        if (i < attackers.size()) contending[i] = true;
        break;
      }
      case EventKind::ArbitrationLost: {
        const auto i = attacker_index(ev.node);
        if (i < attackers.size()) contending[i] = false;
        break;
      }
      case EventKind::AttackDetected:
        if (std::find(contending.begin(), contending.end(), true) ==
            contending.end()) {
          ++false_alarms;
        }
        break;
      default:
        break;
    }
  }
  return false_alarms;
}

}  // namespace

ExperimentResult run_experiment(const ExperimentSpec& spec) {
  const auto t_begin = ProfileClock::now();
  validate(spec);
  // Always build a topology; a single-bus spec degenerates to one plain
  // WiredAndBus stepped without chunking, so the recording is bit-for-bit
  // the historical single-segment recording.
  restbus::TopologyConfig tcfg;
  tcfg.buses = spec.topology.buses;
  tcfg.speed = spec.speed;
  tcfg.gateway_latency = spec.topology.gateway_latency;
  tcfg.routes = spec.topology.routes;
  restbus::VehicleTopology topo{std::move(tcfg)};
  can::WiredAndBus& defender_bus = topo.bus(spec.topology.defender_bus);
  can::WiredAndBus& attacker_bus = topo.bus(spec.topology.attacker_bus);
  can::WiredAndBus& restbus_bus = topo.bus(spec.topology.restbus_bus);
  const double bits_per_ms =
      static_cast<double>(spec.speed.bits_per_second) / 1e3;

  // --- IVN configuration: Veh. D powertrain bus (Sec. V-A) ----------------
  const auto matrix = restbus::vehicle_matrix(restbus::Vehicle::D, 1);
  const core::IvnConfig ivn{matrix.ecu_ids()};

  // --- the MichiCAN defender (configured to send CAN ID 0x173) ------------
  core::MichiCanNodeConfig def_cfg;
  def_cfg.own_id = spec.defender_id;
  def_cfg.scenario = spec.scenario;
  def_cfg.defense_enabled = spec.defense_enabled;
  core::MichiCanNode defender{"defender", ivn, def_cfg};
  defender.attach_to(defender_bus);
  if (spec.defender_period.value() > 0) {
    can::CanFrame own;
    own.id = spec.defender_id;
    own.dlc = 8;
    can::attach_periodic(defender.controller(), own,
                         spec.defender_period.value() * bits_per_ms,
                         /*phase_bits=*/50.0, can::PayloadMode::Random,
                         sim::Rng{spec.seed ^ 0xDEF});
  }

  // --- attackers ------------------------------------------------------------
  std::vector<std::unique_ptr<attack::AttackerNode>> attackers;
  for (std::size_t i = 0; i < spec.attackers.size(); ++i) {
    auto cfg = spec.attackers[i];
    cfg.seed = spec.seed * 1000 + i;
    auto a = attack::make_attacker("attacker" + std::to_string(i + 1),
                                   std::move(cfg), spec.speed);
    a->attach_to(attacker_bus);
    attackers.push_back(std::move(a));
  }

  // --- error-frame stompers (wire-level, not protocol controllers) ----------
  std::vector<std::unique_ptr<attack::ErrorFrameAttacker>> stompers;
  for (std::size_t i = 0; i < spec.error_attackers.size(); ++i) {
    stompers.push_back(std::make_unique<attack::ErrorFrameAttacker>(
        "stomper" + std::to_string(i + 1), spec.error_attackers[i]));
    // Stompers destroy the victim's transmissions, so they sit on the
    // defender's segment (identical to the attacker's on a single bus).
    defender_bus.attach(*stompers.back());
  }

  // --- physical-layer fault injection ---------------------------------------
  std::unique_ptr<can::FaultInjector> injector;
  if (spec.fault.any()) {
    injector = std::make_unique<can::FaultInjector>(
        spec.fault, sim::derive_seed(spec.seed, 0xFA117));
    // Faults are a property of the monitored wire: they ride the
    // defender's segment (the only segment on a single bus).
    defender_bus.set_fault_injector(injector.get());
  }

  // --- restbus --------------------------------------------------------------
  std::unique_ptr<restbus::RestbusSim> rb;
  if (spec.restbus) {
    const auto replayed =
        matrix.without(spec.defender_id)
            .scaled_to_load(
                static_cast<double>(spec.speed.bits_per_second),
                spec.restbus_target_load);
    restbus::ReplayConfig rcfg;
    rcfg.seed = spec.seed ^ 0xBEEF;
    rb = std::make_unique<restbus::RestbusSim>(replayed, restbus_bus, rcfg);
  }

  // --- captured-trace replay onto the rest-bus segment ----------------------
  std::unique_ptr<can::BitController> trace_replay_ctrl;
  if (!spec.trace_replay.text.empty()) {
    trace_replay_ctrl = std::make_unique<can::BitController>("trace-replay");
    restbus::attach_candump_replay(
        *trace_replay_ctrl,
        restbus::parse_trace(spec.trace_replay.text, spec.trace_replay.format),
        spec.speed, spec.trace_replay.time_scale);
    trace_replay_ctrl->attach_to(restbus_bus);
  }

  // --- run the recording ----------------------------------------------------
  topo.set_fast_path(spec.fast_path);
  const auto t_setup = ProfileClock::now();
  topo.run_for(spec.duration);
  const auto t_sim = ProfileClock::now();

  // --- harvest --------------------------------------------------------------
  ExperimentResult res;
  res.spec = spec;
  res.bits_skipped = topo.bits_skipped();

  sim::BitTime first_attack_start = 0;
  sim::BitTime last_first_busoff = 0;
  bool have_start = false;
  bool all_attackers_offed = !attackers.empty();

  for (std::size_t i = 0; i < attackers.size(); ++i) {
    const auto& a = *attackers[i];
    AttackerOutcome out;
    out.node = std::string{a.node().name()};
    out.primary_id = attack::primary_attack_id(spec.attackers[i]);
    const auto bits = busoff_durations_bits(attacker_bus.log(), out.node);
    out.busoff_bits = sim::summarize(bits);
    auto ms = bits;
    for (auto& b : ms) b = spec.speed.bits_to_ms(b);
    out.busoff_ms = sim::summarize(ms);
    out.busoff_cycles_ms = std::move(ms);
    out.busoff_count = bits.size();
    out.retransmissions =
        attacker_bus.log().count(EventKind::FrameTxStart, out.node);
    out.ended_bus_off = a.node().is_bus_off();
    out.final_tec = a.node().tec();
    res.attackers.push_back(out);

    if (const auto* s =
            attacker_bus.log().first(EventKind::FrameTxStart, 0, out.node);
        s != nullptr) {
      if (!have_start || s->at < first_attack_start) {
        first_attack_start = s->at;
        have_start = true;
      }
    }
    if (const auto* b =
            attacker_bus.log().first(EventKind::BusOff, 0, out.node);
        b != nullptr) {
      last_first_busoff = std::max(last_first_busoff, b->at);
    } else {
      all_attackers_offed = false;
    }
  }
  if (have_start && all_attackers_offed) {
    res.first_cycle_total_bits =
        static_cast<double>(last_first_busoff - first_attack_start);
    res.fig6_trace = attacker_bus.trace().render(
        first_attack_start,
        std::min<sim::BitTime>(last_first_busoff + 30,
                               attacker_bus.trace().size()),
        /*group=*/39);
  }

  res.defender_bus_off = defender.controller().is_bus_off() ||
                         defender.controller().stats().bus_off_entries > 0;
  res.defender_tec = defender.controller().tec();
  res.defender_rec = defender.controller().rec();
  res.defender_frames_sent = defender.controller().stats().frames_sent;

  const auto& mon = defender.monitor().stats();
  res.attacks_detected = mon.attacks_detected;
  res.counterattacks = mon.counterattacks;
  res.mean_detection_bit =
      mon.attacks_detected == 0
          ? 0.0
          : static_cast<double>(mon.detection_bit_sum) /
                static_cast<double>(mon.attacks_detected);

  res.false_detections = count_false_detections(
      defender_bus.log(), attackers, &attacker_bus == &defender_bus);
  for (const auto& out : res.attackers) {
    res.attacker_frames += out.retransmissions;
  }
  if (injector) res.faults = injector->stats();
  for (const auto& s : stompers) res.error_frame_stomps += s->stomps();

  if (rb) {
    const auto rbs = rb->total_stats();
    res.restbus_frames_delivered = rbs.frames_sent;
    res.restbus_drops = rbs.dropped_frames;
    res.restbus_any_bus_off = rb->any_bus_off();
  }
  if (trace_replay_ctrl) {
    // The replayed capture is rest-bus traffic: fold its deliveries into
    // the same counter the campaign reports aggregate.
    res.restbus_frames_delivered += trace_replay_ctrl->stats().frames_sent;
    res.restbus_any_bus_off =
        res.restbus_any_bus_off || trace_replay_ctrl->is_bus_off();
  }
  // Measured load on the *monitored* segment (the only segment when
  // buses == 1, so the historical value is unchanged).
  res.busy_fraction =
      defender_bus.trace().busy_fraction(0, defender_bus.now());
  const auto t_harvest = ProfileClock::now();

  // --- metrics shard --------------------------------------------------------
  // Per-segment counters sum deterministically (export_metrics uses +=),
  // so a single-bus topology registers the historical values unchanged.
  for (std::size_t i = 0; i < topo.bus_count(); ++i) {
    topo.bus(i).export_metrics(res.metrics);
  }
  defender.controller().export_metrics(res.metrics, "defender");
  defender.monitor().export_metrics(res.metrics, "monitor");
  for (const auto& a : attackers) {
    a->node().export_metrics(res.metrics, "attackers");
  }
  if (rb) {
    res.metrics.counter("restbus.frames_delivered") +=
        res.restbus_frames_delivered;
    res.metrics.counter("restbus.drops") += res.restbus_drops;
  }
  if (trace_replay_ctrl) {
    res.metrics.counter("restbus.trace_replay_frames") +=
        trace_replay_ctrl->stats().frames_sent;
  }
  if (injector) injector->export_metrics(res.metrics);
  topo.export_metrics(res.metrics);  // no-op on a single bus
  for (std::size_t i = 0; i < topo.bus_count(); ++i) {
    export_log_histograms(topo.bus(i).log(), res.attackers, res.metrics);
  }
  const auto t_metrics = ProfileClock::now();

  // --- timeline export (opt-in: the only obs feature with per-event cost) ---
  if (spec.capture_timeline) {
    obs::TimelineOptions topt;
    topt.speed = spec.speed;
    res.timeline_json = obs::to_chrome_trace(defender_bus.log(),
                                             &defender_bus.trace(), topt);
    res.events_jsonl = obs::to_jsonl(defender_bus.log());
  }
  const auto t_timeline = ProfileClock::now();

  res.profile.add("task.setup", ms_between(t_begin, t_setup));
  res.profile.add("task.sim", ms_between(t_setup, t_sim));
  res.profile.add("task.harvest", ms_between(t_sim, t_harvest));
  res.profile.add("task.metrics", ms_between(t_harvest, t_metrics));
  if (spec.capture_timeline) {
    res.profile.add("task.timeline", ms_between(t_metrics, t_timeline));
  }
  return res;
}

}  // namespace mcan::analysis
