#include "conformance/generator.hpp"

#include <set>
#include <string>
#include <vector>

#include "can/types.hpp"
#include "conformance/oracle.hpp"
#include "sim/rng.hpp"

namespace mcan::conformance {

namespace {

can::CanId random_id(sim::Rng& rng, bool extended) {
  const auto max = extended ? can::kMaxExtId : can::kMaxStdId;
  switch (rng.uniform(0, 3)) {
    case 0:  // leading-zero run: stuff bits right inside the ID
      return static_cast<can::CanId>(rng.uniform(0, 15));
    case 1:  // leading-one run
      return static_cast<can::CanId>(max - rng.uniform(0, 15));
    default:
      return static_cast<can::CanId>(rng.uniform(0, max));
  }
}

void fill_payload(sim::Rng& rng, can::CanFrame& f) {
  if (f.rtr || f.dlc == 0) return;
  switch (rng.uniform(0, 4)) {
    case 0:  // all-dominant: maximal stuffing
      for (int i = 0; i < f.dlc; ++i) f.data[static_cast<size_t>(i)] = 0x00;
      break;
    case 1:  // all-recessive
      for (int i = 0; i < f.dlc; ++i) f.data[static_cast<size_t>(i)] = 0xFF;
      break;
    case 2: {  // alternating 5-bit runs straddling byte boundaries
      for (int i = 0; i < f.dlc; ++i) {
        f.data[static_cast<size_t>(i)] = (i % 2) ? 0xE0 : 0x1F;
      }
      break;
    }
    case 3: {  // one byte value repeated
      const auto b = static_cast<std::uint8_t>(rng.uniform(0, 255));
      for (int i = 0; i < f.dlc; ++i) f.data[static_cast<size_t>(i)] = b;
      break;
    }
    default:
      for (int i = 0; i < f.dlc; ++i) {
        f.data[static_cast<size_t>(i)] =
            static_cast<std::uint8_t>(rng.uniform(0, 255));
      }
      break;
  }
}

can::CanFrame random_frame(sim::Rng& rng) {
  can::CanFrame f;
  f.extended = rng.chance(0.3);
  f.rtr = rng.chance(0.2);
  f.id = random_id(rng, f.extended);
  f.dlc = static_cast<std::uint8_t>(rng.uniform(0, 8));
  fill_payload(rng, f);
  return f;
}

std::string key_of(const can::CanFrame& f) {
  const auto key = arbitration_key(f);
  return std::string{key.begin(), key.end()};
}

/// Clean-bus queue population shared by the plain and dense Clean cases: every
/// arbitration key unique so the frame-level oracle can order the wire.
void gen_clean_queues(sim::Rng& rng, FuzzCase& c, std::uint64_t max_nodes,
                      std::uint64_t max_frames, std::uint8_t min_dlc) {
  const auto node_count = rng.uniform(1, max_nodes);
  std::set<std::string> keys;
  for (std::uint64_t n = 0; n < node_count; ++n) {
    FuzzNode node;
    const auto frame_count = rng.uniform(1, max_frames);
    for (std::uint64_t i = 0; i < frame_count; ++i) {
      auto f = random_frame(rng);
      if (f.dlc < min_dlc) {
        f.dlc = static_cast<std::uint8_t>(rng.uniform(min_dlc, 8));
        fill_payload(rng, f);
      }
      // Unique arbitration keys across the whole case keep the schedule
      // predictable; same-key contenders would tie on the wire.
      for (int tries = 0; tries < 64 && keys.count(key_of(f)); ++tries) {
        f.id = random_id(rng, f.extended);
        if (tries > 32) {
          f.id = static_cast<can::CanId>(
              (f.id + 1) &
              (f.extended ? can::kMaxExtId : can::kMaxStdId));
        }
      }
      if (keys.count(key_of(f))) continue;  // give up on this slot
      keys.insert(key_of(f));
      node.frames.push_back(f);
    }
    if (!node.frames.empty()) c.nodes.push_back(std::move(node));
  }
  if (c.nodes.empty()) {  // all slots collided (vanishingly unlikely)
    FuzzNode node;
    can::CanFrame f;
    f.id = 0x123;
    f.dlc = 1;
    f.data[0] = 0xA5;
    node.frames.push_back(f);
    c.nodes.push_back(std::move(node));
  }
}

void gen_clean(sim::Rng& rng, FuzzCase& c) {
  gen_clean_queues(rng, c, /*max_nodes=*/3, /*max_frames=*/3, /*min_dlc=*/0);
}

void gen_dense(sim::Rng& rng, FuzzCase& c) {
  // Fuller queues and large payloads keep the bus mid-frame nearly the whole
  // recording, with frame boundaries, stuff runs and arbitration packed
  // tightly; checked at the same Clean oracle tier.
  gen_clean_queues(rng, c, /*max_nodes=*/4, /*max_frames=*/4, /*min_dlc=*/6);
}

void gen_flip(sim::Rng& rng, FuzzCase& c) {
  // A lone standard data frame with a flip somewhere in its body: raw wire
  // offset 19+bit is always past standard arbitration, so the transmitter
  // sees a bit error (never a fake arbitration loss) and the §10.11
  // trajectory is exactly [TxError, TxSuccess].
  FuzzNode node;
  can::CanFrame f;
  f.id = random_id(rng, /*extended=*/false);
  f.dlc = static_cast<std::uint8_t>(rng.uniform(1, 8));
  fill_payload(rng, f);
  node.frames.push_back(f);
  c.nodes.push_back(std::move(node));
  can::ScheduledFlip flip;
  flip.frame = 0;
  flip.field = can::Field::Data;
  flip.bit = static_cast<int>(rng.uniform(0, f.dlc * 8u - 1));
  c.fault.flips.push_back(flip);
}

void gen_noisy(sim::Rng& rng, FuzzCase& c) {
  const auto node_count = rng.uniform(1, 3);
  for (std::uint64_t n = 0; n < node_count; ++n) {
    FuzzNode node;
    const auto frame_count = rng.uniform(1, 2);
    for (std::uint64_t i = 0; i < frame_count; ++i) {
      node.frames.push_back(random_frame(rng));
    }
    c.nodes.push_back(std::move(node));
  }
  const auto base =
      static_cast<sim::BitTime>(c.total_frames()) * 220 + 200;
  bool any = false;
  if (rng.chance(0.5)) {
    // 1e-4 .. ~2e-3 flipped bits per bit time.
    const double exponent = 2.7 + rng.uniform01() * 1.3;
    double ber = 1.0;
    for (int i = 0; i < static_cast<int>(exponent); ++i) ber /= 10.0;
    const double frac = exponent - static_cast<int>(exponent);
    ber /= 1.0 + 9.0 * frac;  // crude 10^-frac without <cmath>
    c.fault.bit_error_rate = ber;
    any = true;
  }
  if (rng.chance(0.4)) {
    const auto windows = rng.uniform(1, 2);
    for (std::uint64_t i = 0; i < windows; ++i) {
      can::StuckWindow w;
      w.start = rng.uniform(0, base);
      w.len = rng.uniform(1, 40);
      w.level = rng.chance(0.5) ? sim::BitLevel::Dominant
                                : sim::BitLevel::Recessive;
      c.fault.stuck.push_back(w);
    }
    any = true;
  }
  if (!any || rng.chance(0.3)) {
    static constexpr can::Field kFields[] = {
        can::Field::Id,  can::Field::Dlc,     can::Field::Data,
        can::Field::Crc, can::Field::AckSlot, can::Field::Eof};
    const auto flips = rng.uniform(1, 3);
    for (std::uint64_t i = 0; i < flips; ++i) {
      can::ScheduledFlip flip;
      flip.frame = rng.uniform(0, 3);
      flip.field = kFields[rng.uniform(0, 5)];
      flip.bit = static_cast<int>(rng.uniform(0, 7));
      c.fault.flips.push_back(flip);
    }
  }
}

}  // namespace

FuzzCase generate_case(std::uint64_t seed) {
  FuzzCase c;
  c.seed = seed;
  sim::Rng rng{seed};
  const auto roll = rng.uniform(0, 99);
  if (roll < 50) {
    c.kind = CaseKind::Clean;
    gen_clean(rng, c);
  } else if (roll < 70) {
    c.kind = CaseKind::ScheduledFlip;
    gen_flip(rng, c);
  } else if (roll < 85) {
    c.kind = CaseKind::Noisy;
    gen_noisy(rng, c);
  } else {
    c.kind = CaseKind::Clean;
    gen_dense(rng, c);
  }
  // Pin the fault-schedule seed so replays never depend on context.
  c.fault.seed = sim::derive_seed(seed, 0xFA17) | 1;
  c.run_bits = recommended_run_bits(c);
  return c;
}

}  // namespace mcan::conformance
