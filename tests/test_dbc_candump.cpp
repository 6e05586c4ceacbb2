// Tests for the DBC-subset matrix format and candump/CSV trace I/O.
#include <gtest/gtest.h>

#include <clocale>

#include "can/bus.hpp"
#include "can/periodic.hpp"
#include "restbus/candump.hpp"
#include "restbus/dbc.hpp"
#include "restbus/vehicles.hpp"

namespace mcan::restbus {
namespace {

TEST(Dbc, ParsesMessagesAndCycleTimes) {
  const auto m = parse_dbc(R"(VERSION ""
BO_ 291 ENGINE_RPM: 8 ECM
BO_ 512 BRAKE_STATUS: 4 ABS
BA_ "GenMsgCycleTime" BO_ 291 10;
BA_ "GenMsgCycleTime" BO_ 512 50;
)");
  ASSERT_EQ(m.size(), 2u);
  const auto* rpm = m.find(291);
  ASSERT_NE(rpm, nullptr);
  EXPECT_EQ(rpm->name, "ENGINE_RPM");
  EXPECT_EQ(rpm->dlc, 8);
  EXPECT_EQ(rpm->tx_ecu, "ECM");
  EXPECT_DOUBLE_EQ(rpm->period_ms, 10.0);
  EXPECT_DOUBLE_EQ(m.find(512)->period_ms, 50.0);
}

TEST(Dbc, MissingCycleTimeUsesDefault) {
  const auto m = parse_dbc("BO_ 100 M: 8 E\n", "b", 250.0);
  EXPECT_DOUBLE_EQ(m.find(100)->period_ms, 250.0);
}

TEST(Dbc, UnknownLinesIgnored) {
  const auto m = parse_dbc(R"(
NS_ :
SG_ whatever
BO_ 5 X: 1 E
CM_ "comment";
)");
  EXPECT_EQ(m.size(), 1u);
}

TEST(Dbc, MalformedLinesThrow) {
  EXPECT_THROW((void)parse_dbc("BO_ not_a_number X: 8 E\n"),
               std::exception);
  EXPECT_THROW((void)parse_dbc("BO_ 5 MISSING_COLON 8 E\n"),
               std::runtime_error);
  EXPECT_THROW((void)parse_dbc("BO_ 5 X: 9 E\n"), std::runtime_error);
  EXPECT_THROW(
      (void)parse_dbc("BO_ 5 X: 8 E\nBA_ \"GenMsgCycleTime\" BO_ 6 10;\n"),
      std::runtime_error);
}

TEST(Dbc, MalformedNumericFieldsThrowParseErrors) {
  // Every numeric field is parsed whole: trailing garbage, an empty field
  // or a lone sign is the parser's own runtime_error, never a prefix value
  // or an escaped std::invalid_argument.
  const char* bad[] = {
      "BO_ 5 X: 8x E\n",
      "BO_ 5x X: 8 E\n",
      "BO_ 5 X: - E\n",
      "BO_ - X: 8 E\n",
      "BO_ 5 X: 8 E\nBA_ \"GenMsgCycleTime\" BO_ 5 1.5q;\n",
      "BO_ 5 X: 8 E\nBA_ \"GenMsgCycleTime\" BO_ 5 ;\n",
      "BO_ 5 X: 8 E\nBA_ \"GenMsgCycleTime\" BO_ 5 -;\n",
      "BO_ 5 X: 8 E\nBA_ \"GenMsgCycleTime\" BO_ 5x 10;\n",
      "BO_ 5 X: 8 E\nBA_ \"GenMsgCycleTime\" BO_ 5 10 junk\n",
  };
  for (const char* text : bad) {
    EXPECT_THROW((void)parse_dbc(text), std::runtime_error) << text;
  }
  // The closing ';' may stand apart from the value.
  const auto m = parse_dbc(
      "BO_ 5 X: 8 E\nBA_ \"GenMsgCycleTime\" BO_ 5 12.5 ;\n");
  EXPECT_DOUBLE_EQ(m.messages().at(0).period_ms, 12.5);
}

TEST(Dbc, RoundTripsVehicleMatrix) {
  const auto original = vehicle_matrix(Vehicle::B, 1);
  const auto parsed = parse_dbc(to_dbc(original), original.bus_name());
  ASSERT_EQ(parsed.size(), original.size());
  for (const auto& m : original.messages()) {
    const auto* p = parsed.find(m.id);
    ASSERT_NE(p, nullptr) << m.name;
    EXPECT_EQ(p->dlc, m.dlc);
    EXPECT_EQ(p->tx_ecu, m.tx_ecu);
    EXPECT_DOUBLE_EQ(p->period_ms, m.period_ms);
  }
}

TEST(Dbc, ExtendedIdsUseBit31Convention) {
  const auto m = parse_dbc("BO_ 2147484307 EXT_MSG: 8 E\n");  // 0x80000293
  ASSERT_EQ(m.size(), 1u);
  EXPECT_EQ(m.messages()[0].id, 0x293u);
  // Serialization restores the flag for IDs beyond 11 bits.
  CommMatrix ext{"e", {{0x00012345, 100, 8, "EM", "E"}}};
  EXPECT_NE(to_dbc(ext).find("BO_ 2147558213 "), std::string::npos);
}

TEST(Candump, LineFormat) {
  CandumpEntry e;
  e.t_seconds = 1.25;
  e.frame = can::CanFrame::make(0x173, {0xDE, 0xAD});
  EXPECT_EQ(to_candump_line(e), "(1.250000) can0 173#DEAD");

  e.frame = can::CanFrame::make_ext(0x42, {0x11});
  EXPECT_EQ(to_candump_line(e), "(1.250000) can0 00000042#11");

  e.frame = can::CanFrame::make_remote(0x2A0);
  EXPECT_EQ(to_candump_line(e), "(1.250000) can0 2A0#R");
}

TEST(Candump, ParseRoundTrip) {
  const char* text =
      "(0.000100) can0 064#0011223344556677\n"
      "(0.000350) can0 00000042#AB\n"
      "(0.000600) can0 173#R\n";
  const auto trace = parse_candump(text);
  ASSERT_EQ(trace.size(), 3u);
  EXPECT_EQ(trace[0].frame.id, 0x64u);
  EXPECT_EQ(trace[0].frame.dlc, 8);
  EXPECT_FALSE(trace[0].frame.extended);
  EXPECT_TRUE(trace[1].frame.extended);
  EXPECT_TRUE(trace[2].frame.rtr);
  EXPECT_EQ(to_candump(trace), text);
}

TEST(Candump, MalformedLinesThrow) {
  EXPECT_THROW((void)parse_candump("garbage\n"), std::runtime_error);
  EXPECT_THROW((void)parse_candump("(1.0) can0 173DEAD\n"),
               std::runtime_error);
  EXPECT_THROW((void)parse_candump("(1.0) can0 173#DEA\n"),
               std::runtime_error);
  EXPECT_THROW((void)parse_candump("(1.0) can0 999#00\n"),
               std::runtime_error);
}

TEST(Candump, RecorderCapturesBusTraffic) {
  can::WiredAndBus bus{sim::BusSpeed{500'000}};
  can::BitController tx{"tx"};
  tx.attach_to(bus);
  CandumpRecorder rec;
  rec.attach_to(bus);
  tx.enqueue(can::CanFrame::make(0x123, {0x01, 0x02}));
  tx.enqueue(can::CanFrame::make_ext(0x00099, {0x03}));
  bus.run(600);
  ASSERT_EQ(rec.trace().size(), 2u);
  EXPECT_EQ(rec.trace()[0].frame.id, 0x123u);
  EXPECT_TRUE(rec.trace()[1].frame.extended);
  EXPECT_GT(rec.trace()[1].t_seconds, rec.trace()[0].t_seconds);
}

TEST(Candump, RecordAndReplayReproducesTraffic) {
  // Record a short session, then replay it on a fresh bus: same frames in
  // the same order with (approximately) the same spacing.
  std::vector<CandumpEntry> trace;
  {
    can::WiredAndBus bus{sim::BusSpeed{500'000}};
    can::BitController tx{"tx"};
    tx.attach_to(bus);
    CandumpRecorder rec;
    rec.attach_to(bus);
    can::attach_periodic(tx, can::CanFrame::make(0x0F0, {0x10}), 700.0);
    can::attach_periodic(tx, can::CanFrame::make(0x1F0, {0x20}), 1100.0);
    bus.run(8000);
    trace = rec.trace();
  }
  ASSERT_GE(trace.size(), 10u);

  can::WiredAndBus bus{sim::BusSpeed{500'000}};
  can::BitController player{"player"};
  player.attach_to(bus);
  attach_candump_replay(player, trace, bus.speed());
  CandumpRecorder rec2;
  rec2.attach_to(bus);
  bus.run(9000);
  ASSERT_GE(rec2.trace().size(), trace.size() - 1);
  for (std::size_t i = 0; i + 1 < trace.size(); ++i) {
    EXPECT_EQ(rec2.trace()[i].frame, trace[i].frame) << "frame " << i;
  }
}

TEST(Candump, ReplayTimeScaleDilatesTrace) {
  std::vector<CandumpEntry> trace;
  trace.push_back({0.0, "can0", can::CanFrame::make(0x100, {0x01})});
  trace.push_back({0.01, "can0", can::CanFrame::make(0x101, {0x02})});

  can::WiredAndBus bus{sim::BusSpeed{50'000}};
  can::BitController player{"player"};
  player.attach_to(bus);
  attach_candump_replay(player, trace, bus.speed(), /*time_scale=*/10.0);
  CandumpRecorder rec;
  rec.attach_to(bus);
  bus.run_for(sim::Millis{200.0});
  ASSERT_EQ(rec.trace().size(), 2u);
  // 0.01 s * 10 = 0.1 s apart on the slow bus.
  EXPECT_NEAR(rec.trace()[1].t_seconds - rec.trace()[0].t_seconds, 0.1,
              0.01);
}

TEST(Candump, MalformedTimestampsThrow) {
  // std::from_chars-based parsing: no leading sign, whitespace, or
  // trailing junk inside the parentheses.
  EXPECT_THROW((void)parse_candump("(-1.0) can0 173#00\n"),
               std::runtime_error);
  EXPECT_THROW((void)parse_candump("(+1.0) can0 173#00\n"),
               std::runtime_error);
  EXPECT_THROW((void)parse_candump("(1.0x) can0 173#00\n"),
               std::runtime_error);
  EXPECT_THROW((void)parse_candump("(abc) can0 173#00\n"),
               std::runtime_error);
}

TEST(Candump, ParsingIsLocaleIndependent) {
  // Regression: std::stod honors LC_NUMERIC, so a comma-decimal locale
  // mis-parsed "(1436509052.249713)" as 1436509052.  Skip (rather than
  // fail) when no comma-decimal locale is installed in the environment.
  const char* previous = std::setlocale(LC_NUMERIC, nullptr);
  const std::string saved = previous != nullptr ? previous : "C";
  const char* applied = std::setlocale(LC_NUMERIC, "de_DE.UTF-8");
  if (applied == nullptr) applied = std::setlocale(LC_NUMERIC, "de_DE");
  if (applied == nullptr) {
    GTEST_SKIP() << "no comma-decimal locale installed";
  }
  const auto trace = parse_candump("(1436509052.249713) can0 173#00\n");
  const auto line = to_candump_line(trace.at(0));
  std::setlocale(LC_NUMERIC, saved.c_str());
  EXPECT_DOUBLE_EQ(trace.at(0).t_seconds, 1436509052.249713);
  // Output is locale-independent too (no printf("%f")).
  EXPECT_EQ(line, "(1436509052.249713) can0 173#00");
}

TEST(Candump, ReplayKeepsEqualTimestampsInTraceOrder) {
  // Regression: std::sort on t_seconds could reorder equal timestamps
  // across stdlibs; std::stable_sort pins the original trace order.
  std::vector<CandumpEntry> trace;
  trace.push_back({0.001, "can0", can::CanFrame::make(0x300, {0x0A})});
  for (std::uint8_t i = 0; i < 4; ++i) {
    trace.push_back({0.0, "can0", can::CanFrame::make(0x200, {i})});
  }

  can::WiredAndBus bus{sim::BusSpeed{500'000}};
  can::BitController player{"player"};
  player.attach_to(bus);
  attach_candump_replay(player, trace, bus.speed());
  CandumpRecorder rec;
  rec.attach_to(bus);
  bus.run(2000);
  ASSERT_EQ(rec.trace().size(), 5u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(rec.trace()[i].frame,
              can::CanFrame::make(0x200, {static_cast<std::uint8_t>(i)}))
        << "frame " << i;
  }
  EXPECT_EQ(rec.trace()[4].frame.id, 0x300u);
}

TEST(Candump, ReplayReportsEnqueuedFrames) {
  std::vector<CandumpEntry> trace;
  trace.push_back({0.0, "can0", can::CanFrame::make(0x100, {0x01})});
  trace.push_back({0.001, "can0", can::CanFrame::make(0x101, {0x02})});

  can::WiredAndBus bus{sim::BusSpeed{500'000}};
  can::BitController player{"player"};
  player.attach_to(bus);
  std::vector<can::CanId> seen;
  attach_candump_replay(player, trace, bus.speed(), 1.0,
                        [&seen](const can::CanFrame& f) {
                          seen.push_back(f.id);
                        });
  bus.run(1500);
  EXPECT_EQ(seen, (std::vector<can::CanId>{0x100, 0x101}));
}

TEST(CsvTrace, ParseAndRoundTrip) {
  const char* text =
      "timestamp,id,dlc,data\n"
      "0.000100,064,8,0011223344556677\n"
      "0.000350,00000042,1,AB\n"
      "0.000600,173,0,R\n";
  const auto trace = parse_csv_trace(text);
  ASSERT_EQ(trace.size(), 3u);
  EXPECT_DOUBLE_EQ(trace[0].t_seconds, 0.0001);
  EXPECT_EQ(trace[0].frame.id, 0x64u);
  EXPECT_EQ(trace[0].frame.dlc, 8);
  EXPECT_FALSE(trace[0].frame.extended);
  EXPECT_TRUE(trace[1].frame.extended);
  EXPECT_TRUE(trace[2].frame.rtr);
  EXPECT_EQ(to_csv(trace), text);
}

TEST(CsvTrace, ToolkitConventionsAccepted) {
  // 0x prefix, a >0x7FF value promoting to extended, no header row.
  const auto trace = parse_csv_trace(
      "0.5,0x1F334455,4,DEADBEEF\n"
      "1.0,7FF1,2,AABB\n");
  ASSERT_EQ(trace.size(), 2u);
  EXPECT_TRUE(trace[0].frame.extended);
  EXPECT_EQ(trace[0].frame.id, 0x1F334455u);
  EXPECT_TRUE(trace[1].frame.extended);
}

TEST(CsvTrace, MalformedLinesThrow) {
  EXPECT_THROW((void)parse_csv_trace("0.1,064,8\n"), std::runtime_error);
  EXPECT_THROW((void)parse_csv_trace("0.1,064,9,00\n"), std::runtime_error);
  EXPECT_THROW((void)parse_csv_trace("0.1,064,2,ABC\n"), std::runtime_error);
  EXPECT_THROW((void)parse_csv_trace("0.1,064,1,0011\n"),  // dlc mismatch
               std::runtime_error);
  EXPECT_THROW((void)parse_csv_trace("0.1,zzz,1,00\n"), std::runtime_error);
  // A malformed first line is absorbed by the header-skip heuristic, so the
  // negative timestamp must sit on a later record to be diagnosed.
  EXPECT_THROW((void)parse_csv_trace("0.1,064,1,00\n-0.2,064,1,00\n"),
               std::runtime_error);
  // A second non-numeric row is not a header.
  EXPECT_THROW((void)parse_csv_trace("0.1,064,1,00\nts,id,dlc,data\n"),
               std::runtime_error);
}

TEST(CsvTrace, SniffsFormatFromFirstLine) {
  EXPECT_EQ(sniff_trace_format("(1.0) can0 173#00\n"), TraceFormat::Candump);
  EXPECT_EQ(sniff_trace_format("\n  \n(1.0) can0 173#00\n"),
            TraceFormat::Candump);
  EXPECT_EQ(sniff_trace_format("timestamp,id,dlc,data\n"), TraceFormat::Csv);
  EXPECT_EQ(sniff_trace_format("0.1,064,1,00\n"), TraceFormat::Csv);
  const char* csv = "0.25,100,1,7F\n";
  const auto trace = parse_trace(csv, sniff_trace_format(csv));
  ASSERT_EQ(trace.size(), 1u);
  EXPECT_EQ(trace[0].frame.id, 0x100u);
}

}  // namespace
}  // namespace mcan::restbus
