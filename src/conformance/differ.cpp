#include "conformance/differ.hpp"

#include <cstdio>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "can/bus.hpp"
#include "can/controller.hpp"
#include "can/fault_injector.hpp"
#include "conformance/oracle.hpp"

namespace mcan::conformance {

namespace {

std::string node_name(std::size_t i) { return "tx" + std::to_string(i); }

/// Everything one simulator run leaves behind, flattened for comparison.
struct SimRun {
  std::vector<sim::LogicAnalyzer::Run> runs;
  std::vector<std::uint8_t> levels;  // per-bit 0/1, dominant = 0
  std::vector<sim::Event> events;
  std::vector<can::BitController::Stats> stats;  // senders, then listener
  std::vector<int> tec;
  std::vector<int> rec;
  std::vector<can::CanFrame> listener_rx;  // in arrival order
  can::FaultInjector::Stats faults;
  sim::BitTime end{};
};

SimRun execute(const FuzzCase& c, bool fast_path) {
  can::WiredAndBus bus;
  bus.set_fast_path(fast_path);

  std::vector<std::unique_ptr<can::BitController>> senders;
  senders.reserve(c.nodes.size());
  for (std::size_t i = 0; i < c.nodes.size(); ++i) {
    senders.push_back(std::make_unique<can::BitController>(node_name(i)));
    senders.back()->attach_to(bus);
    for (const auto& f : c.nodes[i].frames) senders.back()->enqueue(f);
  }
  can::BitController listener{"rx"};
  listener.attach_to(bus);
  SimRun out;
  listener.set_rx_callback([&out](const can::CanFrame& f, sim::BitTime) {
    out.listener_rx.push_back(f);
  });

  can::FaultInjector injector{c.fault};
  if (c.fault.any()) bus.set_fault_injector(&injector);

  bus.run(sim::Bits{c.run_bits});

  out.runs = bus.trace().runs();
  out.levels.reserve(bus.trace().size());
  for (const auto& r : out.runs) {
    out.levels.insert(out.levels.end(), static_cast<std::size_t>(r.length),
                      static_cast<std::uint8_t>(sim::to_bit(r.level)));
  }
  out.events = bus.log().events();
  for (const auto& s : senders) {
    out.stats.push_back(s->stats());
    out.tec.push_back(s->tec());
    out.rec.push_back(s->rec());
  }
  out.stats.push_back(listener.stats());
  out.tec.push_back(listener.tec());
  out.rec.push_back(listener.rec());
  out.faults = injector.stats();
  out.end = bus.now();
  return out;
}

bool stats_equal(const can::BitController::Stats& a,
                 const can::BitController::Stats& b) {
  return a.frames_sent == b.frames_sent &&
         a.frames_received == b.frames_received && a.tx_errors == b.tx_errors &&
         a.rx_errors == b.rx_errors &&
         a.arbitration_losses == b.arbitration_losses &&
         a.bus_off_entries == b.bus_off_entries && a.recoveries == b.recoveries &&
         a.dropped_frames == b.dropped_frames &&
         a.overload_frames == b.overload_frames &&
         a.stuff_bits_tx == b.stuff_bits_tx;
}

bool events_equal(const sim::Event& a, const sim::Event& b) {
  return a.at == b.at && a.node == b.node && a.kind == b.kind && a.id == b.id &&
         a.a == b.a && a.b == b.b && a.detail == b.detail;
}

/// First difference between two engine recordings, if any.  `tag` names the
/// pair under comparison in the divergence message.
std::optional<std::string> compare_kernels(const SimRun& fast,
                                           const SimRun& naive,
                                           const std::string& tag) {
  if (fast.end != naive.end) return tag + ": end time differs";
  if (fast.levels != naive.levels) {
    for (std::size_t i = 0; i < fast.levels.size() && i < naive.levels.size();
         ++i) {
      if (fast.levels[i] != naive.levels[i]) {
        return tag + ": trace differs first at bit " + std::to_string(i);
      }
    }
    return tag + ": trace length differs";
  }
  if (fast.events.size() != naive.events.size()) {
    return tag + ": event count " + std::to_string(fast.events.size()) +
           " vs " + std::to_string(naive.events.size());
  }
  for (std::size_t i = 0; i < fast.events.size(); ++i) {
    if (!events_equal(fast.events[i], naive.events[i])) {
      return tag + ": event #" + std::to_string(i) + " differs";
    }
  }
  for (std::size_t i = 0; i < fast.stats.size(); ++i) {
    if (!stats_equal(fast.stats[i], naive.stats[i])) {
      return tag + ": node " + std::to_string(i) + " stats differ";
    }
    if (fast.tec[i] != naive.tec[i] || fast.rec[i] != naive.rec[i]) {
      return tag + ": node " + std::to_string(i) + " TEC/REC differ";
    }
  }
  if (fast.listener_rx != naive.listener_rx) {
    return tag + ": listener frame sequence differs";
  }
  if (fast.faults.random_flips != naive.faults.random_flips ||
      fast.faults.scheduled_flips != naive.faults.scheduled_flips ||
      fast.faults.stuck_bits != naive.faults.stuck_bits ||
      fast.faults.sample_slips != naive.faults.sample_slips) {
    return tag + ": fault-injector stats differ";
  }
  return std::nullopt;
}

/// First recessive->dominant edge at or after `from` in the per-bit vector.
std::optional<std::size_t> next_sof(const std::vector<std::uint8_t>& levels,
                                    std::size_t from) {
  for (std::size_t t = from; t < levels.size(); ++t) {
    if (levels[t] == 0 && (t == 0 || levels[t - 1] == 1)) return t;
  }
  return std::nullopt;
}

std::string frame_tag(const can::CanFrame& f) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%s0x%X/dlc%d%s", f.extended ? "ext " : "",
                static_cast<unsigned>(f.id), static_cast<int>(f.dlc),
                f.rtr ? " rtr" : "");
  return buf;
}

/// Clean tier: full wire + schedule + stats cross-check vs the oracle.
std::optional<std::string> check_clean(const FuzzCase& c, const SimRun& run,
                                       CaseStats& stats) {
  std::vector<std::vector<can::CanFrame>> queues;
  queues.reserve(c.nodes.size());
  for (const auto& n : c.nodes) queues.push_back(n.frames);
  const auto pred = predict_schedule(queues);
  if (!pred.ok) {
    // Same-key arbitration tie: the frame-level model cannot order the bus.
    // The fast/naive identity check still ran; record and move on.
    stats.collision_skip = true;
    return std::nullopt;
  }
  stats.oracle_checked = true;
  stats.arbitration_rounds = pred.rounds.size();

  std::size_t cursor = 0;
  std::size_t prev_end = 0;
  for (std::size_t r = 0; r < pred.rounds.size(); ++r) {
    const auto& round = pred.rounds[r];
    const auto sof = next_sof(run.levels, cursor);
    if (!sof) {
      return "oracle: frame " + std::to_string(r) + " (" +
             frame_tag(round.frame) + ") never appeared on the wire";
    }
    if (r == 0) {
      if (*sof < 11) {
        return "oracle: first SOF at bit " + std::to_string(*sof) +
               " — inside the 11-bit integration window";
      }
    } else if (*sof != prev_end + 3) {
      return "oracle: inter-frame gap before frame " + std::to_string(r) +
             " is " + std::to_string(*sof - prev_end) +
             " bits (expected exactly 3 intermission bits)";
    }
    const auto window =
        std::span<const std::uint8_t>{run.levels}.subspan(*sof);
    const auto dec = oracle_decode(window);
    if (!dec.ok) {
      return "oracle: frame " + std::to_string(r) +
             " window does not decode: " + dec.error;
    }
    if (!(dec.frame == round.frame)) {
      return "oracle: frame " + std::to_string(r) + " decoded as " +
             frame_tag(dec.frame) + ", predicted " + frame_tag(round.frame);
    }
    if (!dec.ack_seen) {
      return "oracle: frame " + std::to_string(r) + " was not acknowledged";
    }
    const int want_stuff = oracle_stuff_bit_count(round.frame);
    if (dec.stuff_bits != want_stuff) {
      return "oracle: frame " + std::to_string(r) + " (" +
             frame_tag(round.frame) + ") carries " +
             std::to_string(dec.stuff_bits) + " stuff bits on the wire, spec says " +
             std::to_string(want_stuff);
    }
    const auto want_wire = oracle_wire_bits(round.frame, /*ack_dominant=*/true);
    if (static_cast<std::size_t>(dec.wire_bits_consumed) != want_wire.size()) {
      return "oracle: frame " + std::to_string(r) + " wire length " +
             std::to_string(dec.wire_bits_consumed) + ", spec encodes " +
             std::to_string(want_wire.size());
    }
    for (std::size_t i = 0; i < want_wire.size(); ++i) {
      if (window[i] != want_wire[i]) {
        return "oracle: frame " + std::to_string(r) + " (" +
               frame_tag(round.frame) + ") wire bit " + std::to_string(i) +
               " is " + std::to_string(static_cast<int>(window[i])) +
               ", spec encodes " + std::to_string(static_cast<int>(want_wire[i]));
      }
    }
    stats.frames_on_wire += 1;
    stats.wire_bits_compared += want_wire.size();
    stats.stuff_bits_checked += static_cast<std::uint64_t>(dec.stuff_bits);
    prev_end = *sof + static_cast<std::size_t>(dec.wire_bits_consumed);
    cursor = prev_end;
  }
  if (const auto extra = next_sof(run.levels, cursor)) {
    return "oracle: unpredicted dominant activity at bit " +
           std::to_string(*extra) + " after the last predicted frame";
  }

  // Per-node bookkeeping vs the schedule prediction.
  const std::size_t total = pred.rounds.size();
  for (std::size_t i = 0; i < queues.size(); ++i) {
    const auto& s = run.stats[i];
    const auto wins = queues[i].size();
    if (s.frames_sent != wins) {
      return "oracle: node " + std::to_string(i) + " sent " +
             std::to_string(s.frames_sent) + " frames, queued " +
             std::to_string(wins);
    }
    if (s.arbitration_losses != pred.losses[i]) {
      return "oracle: node " + std::to_string(i) + " lost arbitration " +
             std::to_string(s.arbitration_losses) + " times, predicted " +
             std::to_string(pred.losses[i]);
    }
    if (s.stuff_bits_tx != pred.stuff_bits_tx[i]) {
      return "oracle: node " + std::to_string(i) + " drove " +
             std::to_string(s.stuff_bits_tx) + " stuff bits, spec predicts " +
             std::to_string(pred.stuff_bits_tx[i]);
    }
    if (s.frames_received != total - wins) {
      return "oracle: node " + std::to_string(i) + " received " +
             std::to_string(s.frames_received) + " frames, expected " +
             std::to_string(total - wins);
    }
    if (s.tx_errors != 0 || s.rx_errors != 0 || s.overload_frames != 0 ||
        s.dropped_frames != 0) {
      return "oracle: node " + std::to_string(i) +
             " counted errors/overloads/drops on a clean bus";
    }
    if (run.tec[i] != 0 || run.rec[i] != 0) {
      return "oracle: node " + std::to_string(i) + " ended with TEC " +
             std::to_string(run.tec[i]) + " / REC " +
             std::to_string(run.rec[i]) + " on a clean bus";
    }
  }
  // The pure listener must have seen every frame, in predicted order.
  if (run.listener_rx.size() != total) {
    return "oracle: listener received " +
           std::to_string(run.listener_rx.size()) + " frames, predicted " +
           std::to_string(total);
  }
  for (std::size_t r = 0; r < total; ++r) {
    if (!(run.listener_rx[r] == pred.rounds[r].frame)) {
      return "oracle: listener frame " + std::to_string(r) + " is " +
             frame_tag(run.listener_rx[r]) + ", predicted " +
             frame_tag(pred.rounds[r].frame);
    }
  }
  return std::nullopt;
}

/// ScheduledFlip tier: lone standard frame, one body flip — the counter
/// trajectory is exactly [TxError, TxSuccess] / [RxError, RxSuccess].
std::optional<std::string> check_flip(const FuzzCase& c, const SimRun& run,
                                      CaseStats& stats) {
  stats.oracle_checked = true;
  const auto& frame = c.nodes[0].frames[0];
  const auto& tx = run.stats[0];
  const auto& rx = run.stats[1];

  const CounterStep tx_steps[] = {CounterStep::TxError, CounterStep::TxSuccess};
  const CounterStep rx_steps[] = {CounterStep::RxError, CounterStep::RxSuccess};
  const auto tx_want = predict_counters({}, tx_steps);
  const auto rx_want = predict_counters({}, rx_steps);

  if (tx.tx_errors != 1) {
    return "oracle: transmitter counted " + std::to_string(tx.tx_errors) +
           " tx errors for one injected body flip (expected 1)";
  }
  if (tx.frames_sent != 1) {
    return "oracle: transmitter completed " + std::to_string(tx.frames_sent) +
           " transmissions (expected 1 after retransmit)";
  }
  if (run.tec[0] != tx_want.tec) {
    return "oracle: transmitter TEC " + std::to_string(run.tec[0]) +
           ", §10.11 trajectory predicts " + std::to_string(tx_want.tec);
  }
  if (rx.rx_errors != 1) {
    return "oracle: listener counted " + std::to_string(rx.rx_errors) +
           " rx errors for one destroyed frame (expected 1)";
  }
  if (run.rec[1] != rx_want.rec) {
    return "oracle: listener REC " + std::to_string(run.rec[1]) +
           ", §10.11 trajectory predicts " + std::to_string(rx_want.rec);
  }
  if (run.listener_rx.size() != 1 || !(run.listener_rx[0] == frame)) {
    return "oracle: flipped frame was not delivered exactly once intact";
  }
  return std::nullopt;
}

/// Noisy tier: invariants the frame-level oracle can still enforce.
std::optional<std::string> check_noisy(const FuzzCase& c, const SimRun& run) {
  for (std::size_t i = 0; i < run.rec.size(); ++i) {
    if (run.rec[i] < 0 || run.rec[i] > 255) {
      return "invariant: node " + std::to_string(i) + " REC " +
             std::to_string(run.rec[i]) + " outside the 8-bit register range";
    }
    if (run.tec[i] < 0) {
      return "invariant: node " + std::to_string(i) + " TEC went negative";
    }
  }
  if (run.end != c.run_bits) {
    return "invariant: simulated " + std::to_string(run.end) +
           " bits, case asked for " + std::to_string(c.run_bits);
  }
  // No fabricated frames: everything delivered must have been enqueued.
  // (A multi-bit CRC collision could break this legitimately; at the BERs
  // the generator uses that is a ~2^-15-per-corrupted-frame event.)
  for (const auto& got : run.listener_rx) {
    bool known = false;
    for (const auto& n : c.nodes) {
      for (const auto& f : n.frames) {
        if (got == f) {
          known = true;
          break;
        }
      }
      if (known) break;
    }
    if (!known) {
      return "invariant: listener delivered a frame nobody enqueued (" +
             frame_tag(got) + ") — corruption passed the CRC";
    }
  }
  return std::nullopt;
}

}  // namespace

CaseOutcome run_case(const FuzzCase& c) {
  CaseOutcome out;
  // Both engine tiers: the quiescence fast path against the naive per-bit
  // reference.  Any difference is a divergence in its own right.
  const auto fast = execute(c, /*fast_path=*/true);
  const auto naive = execute(c, /*fast_path=*/false);

  if (auto d = compare_kernels(fast, naive, "fast-path")) {
    out.diverged = true;
    out.divergence = std::move(*d);
    return out;
  }

  std::optional<std::string> d;
  switch (c.kind) {
    case CaseKind::Clean: d = check_clean(c, fast, out.stats); break;
    case CaseKind::ScheduledFlip: d = check_flip(c, fast, out.stats); break;
    case CaseKind::Noisy: d = check_noisy(c, fast); break;
  }
  if (d) {
    out.diverged = true;
    out.divergence = std::move(*d);
  }
  return out;
}

}  // namespace mcan::conformance
