#include "can/fault_injector.hpp"

#include <algorithm>
#include <limits>

#include "obs/metrics.hpp"

namespace mcan::can {

void FaultInjector::export_metrics(obs::Registry& reg) const {
  reg.counter("faults.random_flips") += stats_.random_flips;
  reg.counter("faults.scheduled_flips") += stats_.scheduled_flips;
  reg.counter("faults.stuck_bits") += stats_.stuck_bits;
  reg.counter("faults.sample_slips") += stats_.sample_slips;
}

std::string_view to_string(FaultKind k) noexcept {
  switch (k) {
    case FaultKind::RandomFlip: return "RandomFlip";
    case FaultKind::ScheduledFlip: return "ScheduledFlip";
    case FaultKind::StuckBus: return "StuckBus";
    case FaultKind::SampleSlip: return "SampleSlip";
  }
  return "Unknown";
}

int ScheduledFlip::wire_position(int dlc) const noexcept {
  int base = kPosSof;
  switch (field) {
    case Field::Sof: base = kPosSof; break;
    case Field::Id: base = kPosIdFirst; break;
    case Field::Srr: base = kPosSrr; break;
    case Field::Ide: base = kPosIde; break;
    case Field::ExtId: base = kPosExtIdFirst; break;
    case Field::Rtr: base = kPosRtr; break;
    case Field::R1: base = kPosR1; break;
    case Field::R0: base = kPosR0; break;
    case Field::Dlc: base = kPosDlcFirst; break;
    case Field::Data: base = kPosDataFirst; break;
    case Field::Crc: base = kPosDataFirst + 8 * dlc; break;
    case Field::CrcDelim: base = kPosDataFirst + 8 * dlc + 15; break;
    case Field::AckSlot: base = kPosDataFirst + 8 * dlc + 16; break;
    case Field::AckDelim: base = kPosDataFirst + 8 * dlc + 17; break;
    case Field::Eof: base = kPosDataFirst + 8 * dlc + 18; break;
  }
  return base + bit;
}

FaultInjector::FaultInjector(FaultSpec spec, std::uint64_t derived_seed)
    : spec_(std::move(spec)),
      rng_(spec_.seed != 0 ? spec_.seed
                           : (derived_seed != 0 ? derived_seed
                                                : 0xFA117'5EEDull)) {
  if (spec_.bit_error_rate > 0.0) {
    next_flip_gap_ = rng_.geometric(spec_.bit_error_rate);
  }
}

std::optional<sim::BitLevel> FaultInjector::stuck_level(
    sim::BitTime now) const noexcept {
  for (const auto& w : spec_.stuck) {
    if (now >= w.start && now - w.start < w.len) return w.level;
  }
  return std::nullopt;
}

sim::BitLevel FaultInjector::transform(sim::BitTime now, sim::BitLevel level,
                                       sim::EventLog* log) {
  sim::BitLevel out = level;

  if (const auto stuck = stuck_level(now)) {
    out = *stuck;
    ++stats_.stuck_bits;
    // One event per window, at its first bit.
    for (std::size_t i = 0; i < spec_.stuck.size(); ++i) {
      const auto& w = spec_.stuck[i];
      if (now >= w.start && now - w.start < w.len) {
        if (i != last_logged_window_) {
          last_logged_window_ = i;
          if (log != nullptr) {
            log->push({now, "fault", sim::EventKind::FaultInjected, 0,
                       static_cast<std::int64_t>(FaultKind::StuckBus),
                       static_cast<std::int64_t>(w.level),
                       "stuck for " + std::to_string(w.len) + " bits"});
          }
        }
        break;
      }
    }
  } else {
    if (in_frame_ && !spec_.flips.empty()) {
      // pos_ is still the previous bit's offset from SOF: track() advances
      // it only after this bit.
      const int pos = pos_ + 1;
      for (const auto& flip : spec_.flips) {
        if (flip.frame + 1 == frames_seen_ && flip.bit >= 0 &&
            flip.field != Field::Sof && pos == flip.wire_position()) {
          out = sim::invert(out);
          ++stats_.scheduled_flips;
          if (log != nullptr) {
            log->push({now, "fault", sim::EventKind::FaultInjected, 0,
                       static_cast<std::int64_t>(FaultKind::ScheduledFlip),
                       static_cast<std::int64_t>(out),
                       std::string{to_string(flip.field)} + "+" +
                           std::to_string(flip.bit)});
          }
          break;
        }
      }
    }
    if (spec_.bit_error_rate > 0.0) {
      if (next_flip_gap_ == 0) {
        out = sim::invert(out);
        ++stats_.random_flips;
        if (log != nullptr) {
          log->push({now, "fault", sim::EventKind::FaultInjected, 0,
                     static_cast<std::int64_t>(FaultKind::RandomFlip),
                     static_cast<std::int64_t>(out), {}});
        }
        next_flip_gap_ = rng_.geometric(spec_.bit_error_rate);
      } else {
        --next_flip_gap_;
      }
    }
  }

  track(out);
  return out;
}

void FaultInjector::track(sim::BitLevel out) {
  if (!in_frame_) {
    if (sim::is_dominant(out) && recessive_run_ >= 11) {
      in_frame_ = true;
      pos_ = 0;
      ++frames_seen_;
    }
    // Saturate like on_idle_skip() does: only the >= 11 threshold matters,
    // and an unbounded per-bit increment would overflow the int on
    // soak-length idle stretches.
    constexpr int kRunCap = 1 << 20;
    recessive_run_ = sim::is_recessive(out)
                         ? std::min(recessive_run_ + 1, kRunCap)
                         : 0;
    return;
  }
  ++pos_;
  if (sim::is_recessive(out)) {
    if (++recessive_run_ >= 11) in_frame_ = false;
  } else {
    recessive_run_ = 0;
  }
}

sim::BitTime FaultInjector::next_disturbance(sim::BitTime now) const {
  // Mid-frame (per the wire tracker) every bit moves pos_, which scheduled
  // flips key off, and every bit drifts skewed sample points — both are
  // per-bit effects a skip cannot replay, so refuse until the tracker sees
  // the frame end.
  if (in_frame_ && (!spec_.flips.empty() || has_skew())) return now;
  sim::BitTime horizon = std::numeric_limits<sim::BitTime>::max();
  if (spec_.bit_error_rate > 0.0) {
    // The pending geometric gap counts transform() calls until the flip
    // fires: it lands exactly at now + next_flip_gap_ (saturating: a tiny
    // BER can draw gaps that would wrap the clock on soak-length runs).
    horizon = std::min(horizon, sim::sat_add(now, next_flip_gap_));
  }
  for (const auto& w : spec_.stuck) {
    if (w.len == 0 || now >= w.start + w.len) continue;
    // Inside a window this yields `now` (stuck_bits counts per bit);
    // otherwise the window's first bit bounds the skip.
    horizon = std::min(horizon, std::max(w.start, now));
  }
  return horizon;
}

void FaultInjector::on_idle_skip(sim::BitTime count) {
  // Replay the frame-exit tail bit by bit: at most 11 recessive bits until
  // the tracker leaves the frame (only reachable with no flips/skews, per
  // next_disturbance).
  sim::BitTime replayed = 0;
  while (in_frame_ && replayed < count) {
    track(sim::BitLevel::Recessive);
    ++replayed;
  }
  const sim::BitTime rest = count - replayed;
  if (rest > 0) {
    // Idle recessive bits only grow the run; saturate well above the 11
    // SOF-eligibility threshold to keep the int in range.
    constexpr int kRunCap = 1 << 20;
    recessive_run_ = static_cast<int>(std::min<sim::BitTime>(
        static_cast<sim::BitTime>(recessive_run_) + rest, kRunCap));
  }
  // The skip horizon never exceeds the pending flip position, so the gap
  // cannot underflow.
  if (spec_.bit_error_rate > 0.0) next_flip_gap_ -= count;
  // Per idle bit deliver() resets each skewed node's phase; count resets
  // collapse to one.
  for (auto& st : skew_) {
    if (st.configured) {
      st.phase = 0.0;
      st.slipping = false;
    }
  }
}

sim::BitLevel FaultInjector::deliver(std::size_t index, std::string_view name,
                                     sim::BitLevel current,
                                     sim::BitLevel previous, sim::BitTime now,
                                     sim::EventLog* log) {
  if (index >= skew_.size()) skew_.resize(index + 1);
  auto& st = skew_[index];
  if (!st.resolved) {
    st.resolved = true;
    for (const auto& s : spec_.skews) {
      if (s.node == name) {
        st.configured = true;
        st.drift = s.drift_per_bit;
        st.sjw = s.sjw;
        break;
      }
    }
  }
  if (!st.configured) return current;

  // Bus idle: the controller's bit clock free-runs with nothing to sample
  // and will hard-synchronize on the next SOF edge, so accumulated phase is
  // moot — mis-sampling can only happen inside a frame.
  if (!in_frame_) {
    st.phase = 0.0;
    st.slipping = false;
    return current;
  }

  // Synchronization happens on recessive->dominant edges, exactly as a real
  // controller's clock recovery does: hard sync on a SOF edge out of bus
  // idle (phase snaps to zero), SJW-limited resync anywhere else.
  if (sim::is_recessive(previous) && sim::is_dominant(current)) {
    if (pos_ == 0) {
      st.phase = 0.0;
    } else {
      st.phase -= std::clamp(st.phase, -st.sjw, st.sjw);
    }
  }
  st.phase += st.drift;

  const bool slipping = st.phase >= 0.5 || st.phase <= -0.5;
  if (slipping && !st.slipping && log != nullptr) {
    log->push({now, std::string{name}, sim::EventKind::FaultInjected, 0,
               static_cast<std::int64_t>(FaultKind::SampleSlip),
               static_cast<std::int64_t>(index), {}});
  }
  st.slipping = slipping;
  if (!slipping) return current;
  // Beyond half a bit of phase error the node's sample point has left the
  // current bit: it reads the neighbouring (previous) level instead.
  ++stats_.sample_slips;
  return previous;
}

}  // namespace mcan::can
