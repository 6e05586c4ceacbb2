// Tests for the DBC signal codec: bit packing in both byte orders,
// scaling, sign extension, and SG_ line parsing.
#include "restbus/signals.hpp"

#include <gtest/gtest.h>

#include "sim/rng.hpp"

namespace mcan::restbus {
namespace {


SignalDef make_sig(std::string name, int start, int length,
                   ByteOrder order = ByteOrder::Intel,
                   bool is_signed = false, double scale = 1.0,
                   double offset = 0.0) {
  SignalDef s;
  s.name = std::move(name);
  s.start_bit = start;
  s.length = length;
  s.order = order;
  s.is_signed = is_signed;
  s.scale = scale;
  s.offset = offset;
  return s;
}

can::CanFrame empty_frame(std::uint8_t dlc = 8) {
  can::CanFrame f;
  f.id = 0x123;
  f.dlc = dlc;
  return f;
}

TEST(Signals, IntelByteOrderPacksLsbFirst) {
  // 16-bit Intel signal at start bit 8: occupies bytes 1..2, byte 1 = LSB.
  const auto sig = make_sig("s", 8, 16);
  auto f = empty_frame();
  insert_raw(f, sig, 0xBEEF);
  EXPECT_EQ(f.data[1], 0xEF);
  EXPECT_EQ(f.data[2], 0xBE);
  EXPECT_EQ(extract_raw(f, sig), 0xBEEFu);
}

TEST(Signals, MotorolaByteOrderPacksMsbFirst) {
  // Classic Motorola 16-bit at start bit 7 (MSB of byte 0).
  const auto sig = make_sig("s", 7, 16, ByteOrder::Motorola);
  auto f = empty_frame();
  insert_raw(f, sig, 0xBEEF);
  EXPECT_EQ(f.data[0], 0xBE);
  EXPECT_EQ(f.data[1], 0xEF);
  EXPECT_EQ(extract_raw(f, sig), 0xBEEFu);
}

TEST(Signals, MotorolaSawtoothAcrossByteBoundary) {
  // 12-bit Motorola signal starting mid-byte: start bit 3 of byte 0
  // (position 3), descending 3..0 then byte 1 bits 7..0.
  const auto sig = make_sig("s", 3, 12, ByteOrder::Motorola);
  auto f = empty_frame();
  insert_raw(f, sig, 0xABC);
  EXPECT_EQ(extract_raw(f, sig), 0xABCu);
  EXPECT_EQ(f.data[0] & 0x0F, 0xA);
  EXPECT_EQ(f.data[1], 0xBC);
}

TEST(Signals, RoundTripRandomSignals) {
  sim::Rng rng{0x516};
  for (int trial = 0; trial < 500; ++trial) {
    SignalDef sig;
    sig.length = static_cast<int>(rng.uniform(1, 32));
    sig.order = rng.chance(0.5) ? ByteOrder::Intel : ByteOrder::Motorola;
    if (sig.order == ByteOrder::Intel) {
      sig.start_bit = static_cast<int>(
          rng.uniform(0, static_cast<std::uint64_t>(64 - sig.length)));
    } else {
      // Pick a start position whose descending run stays inside 8 bytes.
      do {
        sig.start_bit = static_cast<int>(rng.uniform(0, 63));
      } while (!sig.fits(8));
    }
    auto f = empty_frame();
    const auto raw = rng.uniform(0, (1ull << sig.length) - 1);
    insert_raw(f, sig, raw);
    ASSERT_EQ(extract_raw(f, sig), raw)
        << "start=" << sig.start_bit << " len=" << sig.length << " order="
        << (sig.order == ByteOrder::Intel ? "intel" : "motorola");
  }
}

TEST(Signals, NeighbouringSignalsDoNotClobberEachOther) {
  const auto a = make_sig("a", 0, 12);
  const auto b = make_sig("b", 12, 12);
  auto f = empty_frame();
  insert_raw(f, a, 0xFFF);
  insert_raw(f, b, 0x000);
  EXPECT_EQ(extract_raw(f, a), 0xFFFu);
  insert_raw(f, b, 0xABC);
  EXPECT_EQ(extract_raw(f, a), 0xFFFu);
  EXPECT_EQ(extract_raw(f, b), 0xABCu);
}

TEST(Signals, ScaleAndOffset) {
  // Typical engine-speed signal: 0.25 rpm/bit.
  const auto sig = make_sig("rpm", 24, 16, ByteOrder::Intel, false, 0.25);
  auto f = empty_frame();
  encode_signal(f, sig, 800.0);
  EXPECT_DOUBLE_EQ(decode_signal(f, sig), 800.0);
  EXPECT_EQ(extract_raw(f, sig), 3200u);
}

TEST(Signals, SignedSignalsSignExtend) {
  // Steering angle style: signed 12-bit, 0.1 deg/bit.
  const auto sig = make_sig("angle", 0, 12, ByteOrder::Intel, true, 0.1);
  auto f = empty_frame();
  encode_signal(f, sig, -12.5);
  EXPECT_NEAR(decode_signal(f, sig), -12.5, 1e-9);
  encode_signal(f, sig, 100.0);
  EXPECT_NEAR(decode_signal(f, sig), 100.0, 1e-9);
}

TEST(Signals, EncodeClampsToRepresentableRange) {
  const auto sig = make_sig("u4", 0, 4);
  auto f = empty_frame();
  encode_signal(f, sig, 500.0);  // raw would be 500 >> 4 bits
  EXPECT_EQ(extract_raw(f, sig), 15u);
  const auto s4 = make_sig("s4", 8, 4, ByteOrder::Intel, true);
  encode_signal(f, s4, -100.0);
  EXPECT_DOUBLE_EQ(decode_signal(f, s4), -8.0);
}

TEST(Signals, FitsChecksPayloadBounds) {
  EXPECT_TRUE(make_sig("x", 56, 8).fits(8));
  EXPECT_FALSE(make_sig("x", 57, 8).fits(8));
  EXPECT_FALSE(make_sig("x", 0, 8).fits(0));
  // Motorola starting at bit 0 of byte 0 can only hold 1 bit in byte 0.
  EXPECT_TRUE(make_sig("x", 0, 9, ByteOrder::Motorola).fits(2));
}

TEST(Signals, ParseSgLine) {
  const auto sig = parse_sg_line(
      R"( SG_ EngineSpeed : 24|16@1+ (0.25,0) [0|16383.75] "rpm" ECM)");
  ASSERT_TRUE(sig.has_value());
  EXPECT_EQ(sig->name, "EngineSpeed");
  EXPECT_EQ(sig->start_bit, 24);
  EXPECT_EQ(sig->length, 16);
  EXPECT_EQ(sig->order, ByteOrder::Intel);
  EXPECT_FALSE(sig->is_signed);
  EXPECT_DOUBLE_EQ(sig->scale, 0.25);
  EXPECT_DOUBLE_EQ(sig->offset, 0.0);
  EXPECT_DOUBLE_EQ(sig->max, 16383.75);
  EXPECT_EQ(sig->unit, "rpm");
}

TEST(Signals, ParseSignedMotorola) {
  const auto sig =
      parse_sg_line(R"(SG_ Angle : 7|12@0- (0.1,-5) [-200|200] "deg" X)");
  ASSERT_TRUE(sig.has_value());
  EXPECT_EQ(sig->order, ByteOrder::Motorola);
  EXPECT_TRUE(sig->is_signed);
  EXPECT_DOUBLE_EQ(sig->offset, -5.0);
}

TEST(Signals, NonSgLinesReturnNullopt) {
  EXPECT_FALSE(parse_sg_line("BO_ 291 X: 8 E").has_value());
  EXPECT_FALSE(parse_sg_line("").has_value());
}

TEST(Signals, MalformedSgLinesThrow) {
  EXPECT_THROW((void)parse_sg_line("SG_ X : garbage (1,0)"),
               std::runtime_error);
  EXPECT_THROW((void)parse_sg_line("SG_ X : 0|0@1+ (1,0)"),
               std::runtime_error);
  EXPECT_THROW((void)parse_sg_line("SG_ X : 0|8@1+ (0,0)"),
               std::runtime_error);
}

TEST(Signals, MalformedNumericFieldsThrowParseErrors) {
  // Whole-field parsing: "8x", "1.5q", empty and "-" are the parser's own
  // runtime_error, never a prefix value or an escaped invalid_argument.
  const char* bad[] = {
      "SG_ X : 0|8x@1+ (1,0)",       "SG_ X : 0x|8@1+ (1,0)",
      "SG_ X : -|8@1+ (1,0)",        "SG_ X : |8@1+ (1,0)",
      "SG_ X : 0|@1+ (1,0)",         "SG_ X : 0|8@1+ (1.5q,0)",
      "SG_ X : 0|8@1+ (1,1.5q)",     "SG_ X : 0|8@1+ (-,0)",
      "SG_ X : 0|8@1+ (,00)",        "SG_ X : 0|8@1+ (1,-)",
      "SG_ X : 0|8@1+ (1,0) [0|1.5q]", "SG_ X : 0|8@1+ (1,0) [|1]",
      "SG_ X : 0|8@1+ (1,0) [-|1]",
  };
  for (const char* line : bad) {
    EXPECT_THROW((void)parse_sg_line(line), std::runtime_error) << line;
  }
}

TEST(Signals, SgLineRoundTrips) {
  auto sig = make_sig("Speed", 8, 13, ByteOrder::Intel, false, 0.01);
  sig.max = 81.91;
  sig.unit = "m/s";
  const auto parsed = parse_sg_line(to_sg_line(sig));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->name, sig.name);
  EXPECT_EQ(parsed->start_bit, sig.start_bit);
  EXPECT_EQ(parsed->length, sig.length);
  EXPECT_DOUBLE_EQ(parsed->scale, sig.scale);
  EXPECT_EQ(parsed->unit, sig.unit);
}

}  // namespace
}  // namespace mcan::restbus
