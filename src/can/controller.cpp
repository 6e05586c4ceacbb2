#include "can/controller.hpp"

#include <algorithm>
#include <cassert>

#include "can/crc15.hpp"
#include "obs/metrics.hpp"

namespace mcan::can {

using sim::BitLevel;
using sim::BitTime;
using sim::EventKind;

BitController::BitController(std::string name)
    : BitController(std::move(name), Config{}) {}

BitController::BitController(std::string name, Config cfg)
    : name_(std::move(name)), cfg_(cfg) {}

void BitController::attach_to(WiredAndBus& bus) {
  bus.attach(*this);
  log_ = &bus.log();
  bus_ = &bus;
}

bool BitController::enqueue(const CanFrame& frame) {
  assert(frame.valid());
  if (txq_.size() >= cfg_.tx_queue_capacity) {
    ++stats_.dropped_frames;
    return false;
  }
  if (txq_.empty()) txbits_ready_ = false;  // new head frame
  txq_.push_back(frame);
  return true;
}

void BitController::add_app(
    std::function<void(sim::BitTime, BitController&)> app) {
  apps_.push_back({std::move(app), nullptr});
  apps_due_ = 0;
}

void BitController::add_app(
    std::function<void(sim::BitTime, BitController&)> app,
    std::function<sim::BitTime(sim::BitTime)> next, bool sticky_next) {
  apps_.push_back({std::move(app), std::move(next), sticky_next, 0});
  apps_due_ = 0;
}

void BitController::set_rx_callback(
    std::function<void(const CanFrame&, sim::BitTime)> cb) {
  rx_cb_ = std::move(cb);
}

void BitController::set_tx_callback(
    std::function<void(const CanFrame&, sim::BitTime)> cb) {
  tx_cb_ = std::move(cb);
}

std::optional<CanId> BitController::active_tx_id() const noexcept {
  if (phase_ != Phase::Transmit || txq_.empty()) return std::nullopt;
  return txq_.front().id;
}

void BitController::tick(BitTime now) {
  now_ = now;
  // Sticky hooks promised to be a no-op before their cached due bit, so the
  // std::function dispatch itself can be skipped.  The cache is only armed
  // when the bus runs the quiescence fast path: the naive per-bit tier stays
  // a contract-free oracle that dispatches every hook every bit, so the
  // differential harness would catch a hook whose promise lies.
  const bool trust = bus_ != nullptr && bus_->fast_path();
  if (trust && now < apps_due_) return;
  BitTime min_due = kNever;
  for (auto& app : apps_) {
    BitTime due = app.cached_due;
    if (!trust || now >= due) {
      app.fn(now, *this);
      due = 0;
      if (app.sticky && trust) {
        const BitTime t = app.next(now);
        if (t > now) due = t;
        app.cached_due = due;
      }
    }
    min_due = std::min(min_due, due);
  }
  apps_due_ = min_due;
}

BitTime BitController::next_activity(BitTime now) const {
  // The phase first: mid-frame and flag phases opt out at once, which keeps
  // the bus's probes cheap while a frame is on the wire.
  BitTime phase_next = kNever;
  switch (phase_) {
    case Phase::Transmit:
    case Phase::Receive:
    case Phase::ActiveFlag:
    case Phase::OverloadFlag:
      return kAlways;
    case Phase::Idle:
      // A queued frame starts transmitting on the next bit.
      if (!txq_.empty()) return kAlways;
      break;
    case Phase::Integrating:
      // 11 - integrate_count_ recessive bits reach Idle; the bit after
      // that starts a queued frame (FrameTxStart).
      if (!txq_.empty()) {
        phase_next = now + static_cast<BitTime>(11 - integrate_count_);
      }
      break;
    case Phase::BusOff: {
      if (!cfg_.auto_recover) break;
      // Recovery completes (and logs) after `remaining` further recessive
      // bits; keep that bit itself on the stepped path so the events carry
      // their exact timestamps.
      const BitTime remaining =
          static_cast<BitTime>(128 - busoff_idle_seqs_) * 11 -
          static_cast<BitTime>(busoff_recessive_run_);
      if (remaining <= 1) return kAlways;
      phase_next = now + remaining - 1;
      break;
    }
    case Phase::PassiveFlag:
    case Phase::ErrorDelim:
    case Phase::Intermission:
    case Phase::Suspend:
      phase_next = recovery_next(now);
      break;
  }
  if (phase_next <= now) return kAlways;
  // Application hooks run every tick: a hook without a scheduling companion
  // could enqueue at any bit, so it pins the controller to kAlways.
  if (apps_due_ > now) return std::min(phase_next, apps_due_);
  BitTime app_next = kNever;
  for (const auto& app : apps_) {
    if (!app.next) return kAlways;
    const BitTime t = app.sticky ? app.cached_due : app.next(now);
    if (t <= now) return kAlways;
    app_next = std::min(app_next, t);
  }
  return std::min(phase_next, app_next);
}

BitTime BitController::recovery_next(BitTime now) const {
  // On a recessive bus the tail runs: the rest of a passive flag (six equal
  // levels), the 8-bit error delimiter, the 3-bit intermission, then either
  // a SuspendStart, a FrameTxStart or a silent fall to Idle.  `end` is the
  // bit of after_intermission(); `suspend` is what suspend_pending_ will
  // hold there.
  const bool passive = fault_.state() == ErrorState::ErrorPassive;
  BitTime end = 0;
  bool suspend = suspend_pending_;
  switch (phase_) {
    case Phase::Suspend:
      return txq_.empty() ? kNever
                          : now + static_cast<BitTime>(suspend_left_) - 1;
    case Phase::Intermission:
      end = now + static_cast<BitTime>(intermission_left_) - 1;
      break;
    case Phase::ErrorDelim: {
      // Before the first recessive bit the whole 8-bit delimiter is ahead.
      const int left = delim_seen_recessive_ ? delim_recessive_left_ : 8;
      end = now + static_cast<BitTime>(left) + 2;
      if (!delim_after_overload_) suspend = was_transmitter_ && passive;
      break;
    }
    case Phase::PassiveFlag: {
      const BitTime flag_end =
          now + static_cast<BitTime>(6 - passive_recessive_run()) - 1;
      // The deferred ACK-error rule may bump TEC (and log) at the flag's
      // last bit: stop there.
      if (pending_ack_exception_) return flag_end;
      end = flag_end + 11;
      suspend = was_transmitter_ && passive;
      break;
    }
    default:
      return kAlways;
  }
  return suspend || !txq_.empty() ? end : kNever;
}

void BitController::on_idle_skip(BitTime count) {
  const BitTime orig_now = now_;
  switch (phase_) {
    case Phase::Idle:
      break;  // recessive bits on an idle bus change nothing
    case Phase::Integrating: {
      const BitTime need = static_cast<BitTime>(11 - integrate_count_);
      if (count >= need) {
        integrate_count_ = 0;
        phase_ = Phase::Idle;
      } else {
        integrate_count_ += static_cast<int>(count);
      }
      break;
    }
    case Phase::BusOff:
      if (cfg_.auto_recover) {
        // next_activity capped the horizon below the recovery bit, so the
        // bulk update can never complete the 128th sequence here.
        const BitTime total =
            static_cast<BitTime>(busoff_recessive_run_) + count;
        busoff_idle_seqs_ += static_cast<int>(total / 11);
        busoff_recessive_run_ = static_cast<int>(total % 11);
        assert(busoff_idle_seqs_ < 128);
      }
      break;
    case Phase::PassiveFlag:
    case Phase::ErrorDelim:
    case Phase::Intermission:
    case Phase::Suspend:
      skip_recovery_tail(count);
      break;
    case Phase::Transmit:
    case Phase::Receive:
    case Phase::ActiveFlag:
    case Phase::OverloadFlag:
      assert(false && "on_idle_skip in a non-quiescent phase");
      break;
  }
  now_ = orig_now + count;
}

void BitController::skip_recovery_tail(BitTime count) {
  // What on_bus_bit(Recessive) does `count` times, phase by phase.
  // recovery_next() ended the window before any bit that logs or starts a
  // frame, so every phase boundary crossed here is a silent one.
  if (phase_ == Phase::PassiveFlag) {
    const int run = passive_recessive_run();
    const BitTime need = static_cast<BitTime>(6 - run);
    passive_run_level_ = BitLevel::Recessive;
    if (count < need) {
      passive_run_ = run + static_cast<int>(count);
      return;
    }
    assert(!pending_ack_exception_);
    passive_run_ = 6;
    count -= need;
    enter_error_delim();
    if (count == 0) return;  // the delimiter has not seen its first bit
  }
  if (phase_ == Phase::ErrorDelim) {
    const BitTime left = static_cast<BitTime>(
        delim_seen_recessive_ ? delim_recessive_left_ : 8);
    if (count < left) {
      delim_seen_recessive_ = true;
      delim_recessive_left_ = static_cast<int>(left - count);
      return;
    }
    count -= left;
    delim_seen_recessive_ = true;
    delim_recessive_left_ = 0;
    if (!delim_after_overload_) {
      suspend_pending_ =
          was_transmitter_ && fault_.state() == ErrorState::ErrorPassive;
    }
    enter_intermission();
  }
  if (phase_ == Phase::Intermission) {
    const BitTime left = static_cast<BitTime>(intermission_left_);
    if (count < left) {
      intermission_left_ -= static_cast<int>(count);
      return;
    }
    assert(!suspend_pending_ && txq_.empty());
    intermission_left_ = 0;
    consecutive_overloads_ = 0;
    phase_ = Phase::Idle;
    return;
  }
  if (phase_ == Phase::Suspend) {
    if (count < static_cast<BitTime>(suspend_left_)) {
      suspend_left_ -= static_cast<int>(count);
      return;
    }
    assert(txq_.empty());
    suspend_left_ = 0;
    phase_ = Phase::Idle;
  }
}

void BitController::log_event(EventKind kind, std::uint32_t id, std::int64_t a,
                              std::int64_t b, std::string detail) {
  if (log_ == nullptr) return;
  log_->push({now_, name_, kind, id, a, b, std::move(detail)});
}

// ---------------------------------------------------------------------------
// RxEngine

void BitController::RxEngine::reset() {
  bits.clear();
  destuff.reset();
  dlc = -1;
  slen = kUnknownLen;
  rtr = false;
  ext = false;
  crc_ok = false;
}

void BitController::RxEngine::check_crc() {
  // Full stuffed region received: verify the CRC.
  const int data_end = stuffed_len() - kCrcBits;
  const std::uint16_t computed =
      crc15({bits.data(), static_cast<std::size_t>(data_end)});
  std::uint16_t received = 0;
  for (int i = data_end; i < stuffed_len(); ++i) {
    received = static_cast<std::uint16_t>(
        (received << 1) | bits[static_cast<std::size_t>(i)]);
  }
  crc_ok = computed == received;
}

CanFrame BitController::RxEngine::to_frame() const {
  CanFrame f;
  for (int i = kPosIdFirst; i <= kPosIdLast; ++i) {
    f.id = static_cast<CanId>(
        (f.id << 1) | bits[static_cast<std::size_t>(i)]);
  }
  if (ext) {
    f.extended = true;
    for (int i = kPosExtIdFirst; i <= kPosExtIdLast; ++i) {
      f.id = static_cast<CanId>(
          (f.id << 1) | bits[static_cast<std::size_t>(i)]);
    }
  }
  f.rtr = rtr;
  f.dlc = static_cast<std::uint8_t>(dlc);
  const int data_first = ext ? kPosDataFirstExt : kPosDataFirst;
  if (!rtr) {
    for (int byte = 0; byte < dlc; ++byte) {
      std::uint8_t v = 0;
      for (int i = 0; i < 8; ++i) {
        v = static_cast<std::uint8_t>(
            (v << 1) |
            bits[static_cast<std::size_t>(data_first + 8 * byte + i)]);
      }
      f.data[static_cast<std::size_t>(byte)] = v;
    }
  }
  return f;
}

// ---------------------------------------------------------------------------
// Main sampling entry point

void BitController::on_bus_bit(BitLevel bus) {
  switch (phase_) {
    case Phase::Integrating:
      drive_ = BitLevel::Recessive;
      if (sim::is_recessive(bus)) {
        if (++integrate_count_ >= 11) {
          integrate_count_ = 0;
          phase_ = Phase::Idle;
        }
      } else {
        integrate_count_ = 0;
      }
      break;

    case Phase::BusOff:
      drive_ = BitLevel::Recessive;
      if (!cfg_.auto_recover) break;
      if (sim::is_recessive(bus)) {
        if (++busoff_recessive_run_ == 11) {
          busoff_recessive_run_ = 0;
          if (++busoff_idle_seqs_ >= 128) {
            busoff_idle_seqs_ = 0;
            fault_.reset();
            ++stats_.recoveries;
            log_event(EventKind::BusOffRecovered);
            log_event(EventKind::ErrorStateChange, 0,
                      static_cast<std::int64_t>(ErrorState::ErrorActive));
            phase_ = Phase::Integrating;
            integrate_count_ = 0;
          }
        }
      } else {
        busoff_recessive_run_ = 0;
      }
      break;

    case Phase::Idle:
      drive_ = BitLevel::Recessive;
      if (sim::is_dominant(bus)) {
        start_receive_with_sof();
        feed_rx(bus);
      } else if (!txq_.empty()) {
        start_transmit_next_bit();
      }
      break;

    case Phase::Transmit:
      handle_transmit_bit(bus);
      break;

    case Phase::Receive:
      drive_ = BitLevel::Recessive;  // feed_rx overrides for the ACK slot
      feed_rx(bus);
      break;

    case Phase::ActiveFlag:
      // We are driving dominant; the bus is necessarily dominant too.
      if (--flag_bits_left_ <= 0) {
        enter_error_delim();
      } else {
        drive_ = BitLevel::Dominant;
      }
      break;

    case Phase::PassiveFlag: {
      drive_ = BitLevel::Recessive;
      if (sim::is_dominant(bus)) passive_saw_dominant_ = true;
      if (passive_run_ > 0 && bus == passive_run_level_) {
        ++passive_run_;
      } else {
        passive_run_level_ = bus;
        passive_run_ = 1;
      }
      if (passive_run_ >= 6) {
        // Deferred ACK-error rule: an error-passive transmitter that saw no
        // dominant bit while sending its passive flag does not bump TEC.
        if (pending_ack_exception_) {
          if (passive_saw_dominant_) {
            const ErrorState before = fault_.state();
            fault_.on_transmitter_error();
            check_state_transition(before);
            if (fault_.state() == ErrorState::BusOff) {
              enter_bus_off();
              break;
            }
          }
          pending_ack_exception_ = false;
        }
        enter_error_delim();
      }
      break;
    }

    case Phase::ErrorDelim:
      drive_ = BitLevel::Recessive;
      if (!delim_seen_recessive_) {
        if (sim::is_dominant(bus)) {
          ++delim_dominant_run_;
          // First dominant bit right after a receiver's error flag: REC += 8
          // (error flags only; overload flags are exempt per ISO 11898-1).
          if (delim_dominant_run_ == 1 && !was_transmitter_ &&
              !delim_after_overload_) {
            const ErrorState before = fault_.state();
            fault_.on_dominant_after_error_flag_rx();
            check_state_transition(before);
          }
          // Every further run of 8 consecutive dominant bits: +8.
          if (delim_dominant_run_ % 8 == 0) {
            const ErrorState before = fault_.state();
            if (was_transmitter_) {
              fault_.on_dominant_after_error_flag_tx();
            } else {
              fault_.on_dominant_after_error_flag_rx();
            }
            check_state_transition(before);
            if (fault_.state() == ErrorState::BusOff) {
              enter_bus_off();
              break;
            }
          }
        } else {
          delim_seen_recessive_ = true;
          delim_recessive_left_ = 7;
        }
      } else {
        if (sim::is_dominant(bus)) {
          // Dominant inside the error delimiter: form error.
          begin_error(was_transmitter_, ErrorType::Form,
                      /*tec_exception=*/false);
        } else if (--delim_recessive_left_ <= 0) {
          if (!delim_after_overload_) {
            suspend_pending_ =
                was_transmitter_ && fault_.state() == ErrorState::ErrorPassive;
          }
          enter_intermission();
        }
      }
      break;

    case Phase::Intermission:
      drive_ = BitLevel::Recessive;
      if (sim::is_dominant(bus)) {
        if (intermission_left_ >= 2) {
          // Dominant during the first two intermission bits: overload
          // condition (ISO 11898-1).  At most two consecutive overload
          // frames may be generated; afterwards it is a form error.
          if (consecutive_overloads_ < 2) {
            begin_overload();
          } else {
            begin_error(false, ErrorType::Form, false);
          }
        } else {
          // Third intermission bit: interpreted as SOF.
          consecutive_overloads_ = 0;
          start_receive_with_sof();
          feed_rx(bus);
        }
      } else if (--intermission_left_ <= 0) {
        consecutive_overloads_ = 0;
        after_intermission();
      }
      break;

    case Phase::OverloadFlag:
      if (--flag_bits_left_ <= 0) {
        delim_after_overload_ = true;
        enter_error_delim();
      } else {
        drive_ = BitLevel::Dominant;
      }
      break;

    case Phase::Suspend:
      drive_ = BitLevel::Recessive;
      if (sim::is_dominant(bus)) {
        // Another node started during our suspend window; the window is
        // considered served and we join that frame as a receiver.
        start_receive_with_sof();
        feed_rx(bus);
      } else if (--suspend_left_ <= 0) {
        if (!txq_.empty()) {
          start_transmit_next_bit();
        } else {
          phase_ = Phase::Idle;
        }
      }
      break;
  }
}

// ---------------------------------------------------------------------------
// Transmit path

void BitController::start_transmit_next_bit() {
  assert(!txq_.empty());
  // Rebuild the wire image only when the head frame changed: a retry after
  // an arbitration loss or error retransmits the identical frame, so the
  // cached TxBit vector (and its stuff layout) is still exact.
  if (!txbits_ready_) {
    txbits_ = wire_bits(txq_.front());
    txbits_ready_ = true;
    txbits_stuff_ = 0;
    for (const TxBit& b : txbits_) {
      if (b.is_stuff) ++txbits_stuff_;
    }
  }
  stats_.stuff_bits_tx += txbits_stuff_;
  txpos_ = 0;
  phase_ = Phase::Transmit;
  drive_ = BitLevel::Dominant;  // SOF appears on the next bit
  tx_start_ = now_ + 1;
  log_event(EventKind::FrameTxStart, txq_.front().id);
}

void BitController::handle_transmit_bit(BitLevel bus) {
  assert(txpos_ < txbits_.size());
  const TxBit& sent = txbits_[txpos_];

  if (sent.field == Field::AckSlot) {
    if (sim::is_recessive(bus)) {
      // Nobody acknowledged.  Error flag starts at the next bit; an
      // error-passive transmitter only bumps TEC if it later sees a
      // dominant level during its passive flag (rule exception A).
      begin_error(/*as_transmitter=*/true, ErrorType::Ack,
                  /*tec_exception=*/false);
      return;
    }
  } else if (bus != sent.level) {
    if (sim::is_recessive(bus)) {
      // A driven dominant bit read back recessive.  No other node can cause
      // that on a wired-AND bus — only a disturbance (a FaultInjector flip)
      // can — so it is a bit error in every field, arbitration included:
      // ISO 11898-1 exempts only a recessive bit monitored dominant there.
      begin_error(true, ErrorType::Bit, /*tec_exception=*/false);
      return;
    }
    const bool ext = txq_.front().extended;
    if (in_arbitration(sent.unstuffed_pos, ext) && !sent.is_stuff) {
      lose_arbitration(bus);
      return;
    }
    if (sent.is_stuff && sent.unstuffed_pos < (ext ? kPosRtrExt : kPosRtr)) {
      // Recessive stuff bit inside the ID field monitored dominant: stuff
      // error, TEC unchanged (ISO 11898-1 exception B).
      begin_error(true, ErrorType::Stuff, /*tec_exception=*/true);
      return;
    }
    begin_error(true, ErrorType::Bit, /*tec_exception=*/false);
    return;
  }

  ++txpos_;
  if (txpos_ >= txbits_.size()) {
    complete_transmission();
  } else {
    drive_ = txbits_[txpos_].level;
  }
}

void BitController::complete_transmission() {
  const CanFrame frame = txq_.front();
  txq_.pop_front();
  txbits_ready_ = false;
  ++stats_.frames_sent;
  fault_.on_tx_success();
  log_event(EventKind::FrameTxSuccess, frame.id);
  if (tx_cb_) tx_cb_(frame, now_);
  suspend_pending_ = fault_.state() == ErrorState::ErrorPassive;
  enter_intermission();
}

void BitController::lose_arbitration(BitLevel current_bus) {
  ++stats_.arbitration_losses;
  log_event(EventKind::ArbitrationLost, txq_.front().id,
            txbits_[txpos_].unstuffed_pos);
  if (!cfg_.auto_retransmit) {
    txq_.pop_front();
    txbits_ready_ = false;
  }
  // Continue as a receiver.  All bus bits so far equal what we drove, so the
  // receive engine can be rebuilt from our own transmit history.
  const std::size_t sent_so_far = txpos_;
  phase_ = Phase::Receive;
  drive_ = BitLevel::Recessive;
  rx_.reset();
  for (std::size_t i = 0; i < sent_so_far; ++i) feed_rx(txbits_[i].level);
  feed_rx(current_bus);
}

// ---------------------------------------------------------------------------
// Receive path

void BitController::start_receive_with_sof() {
  phase_ = Phase::Receive;
  drive_ = BitLevel::Recessive;
  rx_.reset();
}

void BitController::feed_rx(BitLevel bus) {
  const int pos = static_cast<int>(rx_.bits.size());
  if (pos < rx_.stuffed_len()) {
    switch (rx_.destuff.feed(bus)) {
      case Destuffer::Result::StuffError:
        begin_error(/*as_transmitter=*/false, ErrorType::Stuff, false);
        return;
      case Destuffer::Result::StuffBit:
        return;  // discard
      case Destuffer::Result::DataBit:
        break;
    }
    rx_.bits.push_back(static_cast<std::uint8_t>(sim::to_bit(bus)));
    if (pos == kPosIde) {
      // The IDE bit decides the frame format: dominant = standard (the bit
      // at position 12 was RTR), recessive = extended (position 12 was SRR
      // and RTR follows the 18 extension bits).
      rx_.ext = rx_.bits.back() != 0;
      if (!rx_.ext) {
        rx_.rtr = rx_.bits[static_cast<std::size_t>(kPosRtr)] != 0;
      }
    } else if (rx_.ext && pos == kPosRtrExt) {
      rx_.rtr = rx_.bits.back() != 0;
    } else if (pos == (rx_.ext ? kPosDlcLastExt : kPosDlcLast) &&
               pos > kPosIde) {
      const int first = rx_.ext ? kPosDlcFirstExt : kPosDlcFirst;
      int dlc = 0;
      for (int i = first; i <= pos; ++i) {
        dlc = (dlc << 1) | rx_.bits[static_cast<std::size_t>(i)];
      }
      rx_.dlc = dlc > 8 ? 8 : dlc;  // DLC codes 9..15 mean 8 bytes
      rx_.slen = stuffed_region_length(rx_.dlc, rx_.rtr, rx_.ext);
    }
    if (static_cast<int>(rx_.bits.size()) == rx_.stuffed_len()) {
      rx_.check_crc();
    }
    return;
  }

  // A run of five equal levels ending at the final CRC bit still forces a
  // stuff bit (ISO 11898-1 §10.5 stuffs the whole CRC sequence), so the
  // first post-CRC wire bit may be one last stuff bit to discard — or a
  // sixth equal level, which is a stuff error, not a CRC-delimiter form
  // error.  Once consumed the destuffer run drops below five, so this
  // branch cannot trigger twice.
  if (pos == rx_.stuffed_len() && rx_.destuff.run_length() == 5) {
    switch (rx_.destuff.feed(bus)) {
      case Destuffer::Result::StuffError:
        begin_error(/*as_transmitter=*/false, ErrorType::Stuff, false);
        return;
      case Destuffer::Result::StuffBit:
        return;  // discard
      case Destuffer::Result::DataBit:
        break;  // unreachable: a fed bit either extends or breaks the run
    }
  }

  // Post-CRC fixed-format trailer (not subject to stuffing).
  rx_.bits.push_back(static_cast<std::uint8_t>(sim::to_bit(bus)));
  const int rel = pos - rx_.stuffed_len();
  switch (rel) {
    case 0:  // CRC delimiter
      if (sim::is_dominant(bus)) {
        begin_error(false, ErrorType::Form, false);
        return;
      }
      if (rx_.crc_ok && cfg_.ack_enabled) {
        drive_ = BitLevel::Dominant;  // assert ACK on the next bit
      }
      return;
    case 1:  // ACK slot — we may be the one driving it dominant
      drive_ = BitLevel::Recessive;
      return;
    case 2:  // ACK delimiter
      if (sim::is_dominant(bus)) {
        begin_error(false, ErrorType::Form, false);
      } else if (!rx_.crc_ok) {
        // CRC error: the error flag starts after the ACK delimiter.
        begin_error(false, ErrorType::Crc, false);
      }
      return;
    case 3:
    case 4:
    case 5:
    case 6:
    case 7:
      if (sim::is_dominant(bus)) begin_error(false, ErrorType::Form, false);
      return;
    case 8:  // 6th EOF bit: the frame is valid for receivers here
      if (sim::is_dominant(bus)) {
        begin_error(false, ErrorType::Form, false);
        return;
      }
      accept_rx_frame();
      return;
    case 9:  // last EOF bit; dominant is an overload condition — the frame
             // stays valid for receivers (it was accepted one bit earlier)
      if (sim::is_dominant(bus)) {
        begin_overload();
        return;
      }
      enter_intermission();
      return;
    default:
      assert(false && "receiver ran past end of frame");
  }
}

void BitController::accept_rx_frame() {
  ++stats_.frames_received;
  fault_.on_rx_success();
  const CanFrame frame = rx_.to_frame();
  log_event(EventKind::FrameRxSuccess, frame.id);
  if (rx_cb_) rx_cb_(frame, now_);
}

// ---------------------------------------------------------------------------
// Error signalling

void BitController::apply_error_counter_change(bool as_transmitter,
                                               ErrorType type,
                                               bool tec_exception) {
  if (as_transmitter) {
    if (type == ErrorType::Ack && fault_.state() == ErrorState::ErrorPassive) {
      // Deferred: only counts if a dominant level shows up during the
      // passive error flag (see Phase::PassiveFlag handling).
      pending_ack_exception_ = true;
      return;
    }
    if (!tec_exception) fault_.on_transmitter_error();
  } else {
    fault_.on_receiver_error();
  }
}

void BitController::begin_error(bool as_transmitter, ErrorType type,
                                bool tec_exception) {
  const ErrorState before = fault_.state();
  if (as_transmitter) {
    ++stats_.tx_errors;
    log_event(EventKind::TxError, txq_.empty() ? 0 : txq_.front().id,
              static_cast<std::int64_t>(type), fault_.tec());
  } else {
    ++stats_.rx_errors;
    log_event(EventKind::RxError, 0, static_cast<std::int64_t>(type),
              fault_.rec());
  }

  apply_error_counter_change(as_transmitter, type, tec_exception);
  was_transmitter_ = as_transmitter;
  delim_after_overload_ = false;
  consecutive_overloads_ = 0;
  check_state_transition(before);

  // One-shot mode: a transmitter that errs gives up on the frame.
  if (as_transmitter && !cfg_.auto_retransmit && !txq_.empty()) {
    txq_.pop_front();
    txbits_ready_ = false;
  }

  if (fault_.state() == ErrorState::BusOff) {
    enter_bus_off();
    return;
  }

  passive_saw_dominant_ = false;
  if (before == ErrorState::ErrorActive) {
    phase_ = Phase::ActiveFlag;
    flag_bits_left_ = 6;
    drive_ = BitLevel::Dominant;
  } else {
    phase_ = Phase::PassiveFlag;
    passive_run_ = 0;
    drive_ = BitLevel::Recessive;
  }
}

void BitController::begin_overload() {
  ++stats_.overload_frames;
  ++consecutive_overloads_;
  log_event(EventKind::OverloadFrame);
  was_transmitter_ = false;
  phase_ = Phase::OverloadFlag;
  flag_bits_left_ = 6;
  drive_ = BitLevel::Dominant;
}

void BitController::check_state_transition(ErrorState before) {
  const ErrorState after = fault_.state();
  if (after != before) {
    log_event(EventKind::ErrorStateChange, 0,
              static_cast<std::int64_t>(after), fault_.tec());
  }
}

void BitController::enter_error_delim() {
  phase_ = Phase::ErrorDelim;
  drive_ = BitLevel::Recessive;
  delim_seen_recessive_ = false;
  delim_recessive_left_ = 0;
  delim_dominant_run_ = 0;
  // Note: begin_overload() sets delim_after_overload_ before transferring
  // here; error flags clear it again in begin_error().
}

void BitController::enter_intermission() {
  phase_ = Phase::Intermission;
  drive_ = BitLevel::Recessive;
  intermission_left_ = 3;
}

void BitController::after_intermission() {
  if (suspend_pending_) {
    suspend_pending_ = false;
    phase_ = Phase::Suspend;
    suspend_left_ = 8;
    log_event(EventKind::SuspendStart);
    return;
  }
  if (!txq_.empty()) {
    start_transmit_next_bit();
  } else {
    phase_ = Phase::Idle;
  }
}

void BitController::enter_bus_off() {
  phase_ = Phase::BusOff;
  drive_ = BitLevel::Recessive;
  pending_ack_exception_ = false;
  suspend_pending_ = false;
  busoff_recessive_run_ = 0;
  busoff_idle_seqs_ = 0;
  ++stats_.bus_off_entries;
  log_event(EventKind::BusOff, txq_.empty() ? 0 : txq_.front().id, 0,
            fault_.tec());
  if (cfg_.clear_queue_on_bus_off) {
    txq_.clear();
    txbits_ready_ = false;
  }
}

void BitController::export_metrics(obs::Registry& reg,
                                   std::string_view prefix) const {
  const std::string p{prefix};
  reg.counter(p + ".frames_sent") += stats_.frames_sent;
  reg.counter(p + ".frames_received") += stats_.frames_received;
  reg.counter(p + ".tx_errors") += stats_.tx_errors;
  reg.counter(p + ".rx_errors") += stats_.rx_errors;
  reg.counter(p + ".arbitration_losses") += stats_.arbitration_losses;
  reg.counter(p + ".bus_off_entries") += stats_.bus_off_entries;
  reg.counter(p + ".recoveries") += stats_.recoveries;
  reg.counter(p + ".dropped_frames") += stats_.dropped_frames;
  reg.counter(p + ".overload_frames") += stats_.overload_frames;
  reg.counter(p + ".stuff_bits_tx") += stats_.stuff_bits_tx;
  auto& tec = reg.gauge(p + ".tec_final_max");
  tec = std::max(tec, static_cast<std::int64_t>(fault_.tec()));
  auto& rec = reg.gauge(p + ".rec_final_max");
  rec = std::max(rec, static_cast<std::int64_t>(fault_.rec()));
}

}  // namespace mcan::can
