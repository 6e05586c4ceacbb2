#include "conformance/fuzz_case.hpp"

#include <cstdio>

#include "obs/jsonfmt.hpp"

namespace mcan::conformance {

namespace {

std::string hex_id(can::CanId id) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "0x%X", static_cast<unsigned>(id));
  return buf;
}

const char* field_name(can::Field f) {
  switch (f) {
    case can::Field::Sof: return "Sof";
    case can::Field::Id: return "Id";
    case can::Field::Srr: return "Srr";
    case can::Field::Ide: return "Ide";
    case can::Field::ExtId: return "ExtId";
    case can::Field::Rtr: return "Rtr";
    case can::Field::R1: return "R1";
    case can::Field::R0: return "R0";
    case can::Field::Dlc: return "Dlc";
    case can::Field::Data: return "Data";
    case can::Field::Crc: return "Crc";
    case can::Field::CrcDelim: return "CrcDelim";
    case can::Field::AckSlot: return "AckSlot";
    case can::Field::AckDelim: return "AckDelim";
    case can::Field::Eof: return "Eof";
  }
  return "Data";
}

void json_frame(std::string& out, const can::CanFrame& f) {
  out += "{\"id\":\"" + hex_id(f.id) + "\"";
  out += ",\"extended\":";
  out += f.extended ? "true" : "false";
  out += ",\"rtr\":";
  out += f.rtr ? "true" : "false";
  out += ",\"dlc\":" + std::to_string(static_cast<int>(f.dlc));
  out += ",\"data\":[";
  for (int i = 0; i < f.dlc; ++i) {
    if (i) out += ",";
    out += std::to_string(static_cast<int>(f.data[static_cast<size_t>(i)]));
  }
  out += "]}";
}

}  // namespace

std::string_view to_string(CaseKind k) noexcept {
  switch (k) {
    case CaseKind::Clean: return "clean";
    case CaseKind::ScheduledFlip: return "scheduled_flip";
    case CaseKind::Noisy: return "noisy";
  }
  return "unknown";
}

sim::BitTime recommended_run_bits(const FuzzCase& c) {
  // Longest frame: extended, dlc 8 -> 39 + 64 + 15 body bits, <= 29 stuff
  // bits, 10 trailer bits ~= 160 on the wire; + 3 intermission.  Budget 220
  // per frame, + 11 integration bits and error/retransmit headroom.  Stuck
  // windows and bus-off recovery (128 * 11 bits) get their own allowance.
  sim::BitTime bits =
      static_cast<sim::BitTime>(c.total_frames()) * 220 + 200;
  if (c.kind == CaseKind::ScheduledFlip) bits += 300;  // error frame + retx
  if (c.kind == CaseKind::Noisy) {
    bits += 2000;  // disturbance + possible bus-off recovery headroom
    for (const auto& w : c.fault.stuck) {
      const auto end = w.start + w.len;
      if (end + 1600 > bits) bits = end + 1600;
    }
  }
  return bits;
}

std::string to_json(const FuzzCase& c) {
  std::string out;
  out.reserve(512);
  out += "{\"schema\":\"michican.fuzz_repro.v1\"";
  out += ",\"seed\":" + std::to_string(c.seed);
  out += ",\"kind\":\"";
  out += to_string(c.kind);
  out += "\",\"run_bits\":" + std::to_string(c.run_bits);
  out += ",\"nodes\":[";
  for (std::size_t n = 0; n < c.nodes.size(); ++n) {
    if (n) out += ",";
    out += "{\"frames\":[";
    for (std::size_t i = 0; i < c.nodes[n].frames.size(); ++i) {
      if (i) out += ",";
      json_frame(out, c.nodes[n].frames[i]);
    }
    out += "]}";
  }
  out += "],\"fault\":{";
  out += "\"seed\":" + std::to_string(c.fault.seed);
  out += ",\"bit_error_rate\":" + obs::fmt_double(c.fault.bit_error_rate);
  out += ",\"flips\":[";
  for (std::size_t i = 0; i < c.fault.flips.size(); ++i) {
    const auto& fl = c.fault.flips[i];
    if (i) out += ",";
    out += "{\"frame\":" + std::to_string(fl.frame);
    out += ",\"field\":\"";
    out += field_name(fl.field);
    out += "\",\"bit\":" + std::to_string(fl.bit) + "}";
  }
  out += "],\"stuck\":[";
  for (std::size_t i = 0; i < c.fault.stuck.size(); ++i) {
    const auto& w = c.fault.stuck[i];
    if (i) out += ",";
    out += "{\"start\":" + std::to_string(w.start);
    out += ",\"len\":" + std::to_string(w.len);
    out += ",\"level\":\"";
    out += w.level == sim::BitLevel::Dominant ? "dominant" : "recessive";
    out += "\"}";
  }
  out += "]}}";
  return out;
}

std::string to_cpp_test(const FuzzCase& c, std::string_view test_name,
                        std::string_view why) {
  std::string out;
  out.reserve(2048);
  out += "// Auto-generated conformance repro — produced by the fuzz\n";
  out += "// shrinker; edit only to document the fix.\n//\n";
  out += "// ";
  for (const char ch : why) {
    out += ch;
    if (ch == '\n') out += "// ";
  }
  out += "\n#include <gtest/gtest.h>\n\n";
  out += "#include \"conformance/differ.hpp\"\n\n";
  out += "namespace mcan::conformance {\nnamespace {\n\n";
  out += "TEST(FuzzRepro, ";
  out += test_name;
  out += ") {\n";
  out += "  FuzzCase c;\n";
  out += "  c.seed = " + std::to_string(c.seed) + "ull;\n";
  out += "  c.kind = CaseKind::";
  switch (c.kind) {
    case CaseKind::Clean: out += "Clean"; break;
    case CaseKind::ScheduledFlip: out += "ScheduledFlip"; break;
    case CaseKind::Noisy: out += "Noisy"; break;
  }
  out += ";\n";
  out += "  c.run_bits = " + std::to_string(c.run_bits) + ";\n";
  for (const auto& node : c.nodes) {
    out += "  {\n    FuzzNode n;\n";
    for (const auto& f : node.frames) {
      out += "    {\n      can::CanFrame f;\n";
      out += "      f.id = " + hex_id(f.id) + ";\n";
      if (f.extended) out += "      f.extended = true;\n";
      if (f.rtr) out += "      f.rtr = true;\n";
      out += "      f.dlc = " + std::to_string(static_cast<int>(f.dlc)) +
             ";\n";
      bool any_data = false;
      for (int i = 0; i < f.dlc; ++i) {
        if (f.data[static_cast<size_t>(i)] != 0) any_data = true;
      }
      if (any_data) {
        out += "      f.data = {";
        for (int i = 0; i < f.dlc; ++i) {
          if (i) out += ", ";
          char buf[8];
          std::snprintf(buf, sizeof(buf), "0x%02X",
                        static_cast<unsigned>(f.data[static_cast<size_t>(i)]));
          out += buf;
        }
        out += "};\n";
      }
      out += "      n.frames.push_back(f);\n    }\n";
    }
    out += "    c.nodes.push_back(std::move(n));\n  }\n";
  }
  if (c.fault.seed != 0) {
    out += "  c.fault.seed = " + std::to_string(c.fault.seed) + "ull;\n";
  }
  if (c.fault.bit_error_rate > 0.0) {
    out += "  c.fault.bit_error_rate = " +
           obs::fmt_double(c.fault.bit_error_rate) + ";\n";
  }
  for (const auto& fl : c.fault.flips) {
    out += "  c.fault.flips.push_back({" + std::to_string(fl.frame) +
           ", can::Field::";
    out += field_name(fl.field);
    out += ", " + std::to_string(fl.bit) + "});\n";
  }
  for (const auto& w : c.fault.stuck) {
    out += "  c.fault.stuck.push_back({" + std::to_string(w.start) + ", " +
           std::to_string(w.len) + ", sim::BitLevel::";
    out += w.level == sim::BitLevel::Dominant ? "Dominant" : "Recessive";
    out += "});\n";
  }
  out += "\n  const auto out = run_case(c);\n";
  out += "  EXPECT_FALSE(out.diverged) << out.divergence;\n";
  out += "}\n\n}  // namespace\n}  // namespace mcan::conformance\n";
  return out;
}

}  // namespace mcan::conformance
