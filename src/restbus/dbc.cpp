#include "restbus/dbc.hpp"

#include <map>
#include <sstream>
#include <stdexcept>

#include "restbus/parse_number.hpp"

namespace mcan::restbus {
namespace {

constexpr std::uint32_t kDbcExtendedFlag = 0x8000'0000u;

std::string trim(std::string s) {
  const auto from = s.find_first_not_of(" \t\r\n");
  if (from == std::string::npos) return {};
  const auto to = s.find_last_not_of(" \t\r\n");
  return s.substr(from, to - from + 1);
}

}  // namespace

CommMatrix parse_dbc(std::string_view text, std::string bus_name,
                     double default_period_ms) {
  std::map<std::uint64_t, MessageDef> by_raw_id;
  std::istringstream in{std::string{text}};
  std::string line;
  int lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    line = trim(line);
    auto fail = [&](const char* what) {
      throw std::runtime_error("dbc line " + std::to_string(lineno) + ": " +
                               what + ": " + line);
    };
    if (line.rfind("BO_ ", 0) == 0) {
      std::istringstream ls{line.substr(4)};
      std::string id_str, name, dlc_str, ecu;
      if (!(ls >> id_str >> name >> dlc_str >> ecu)) fail("malformed BO_");
      std::uint64_t raw_id = 0;
      if (!parse_number(id_str, raw_id)) fail("bad message id");
      if (name.empty() || name.back() != ':') fail("missing ':' after name");
      name.pop_back();
      MessageDef m;
      const bool extended = (raw_id & kDbcExtendedFlag) != 0;
      m.id = static_cast<can::CanId>(raw_id & ~kDbcExtendedFlag);
      if (extended ? !can::is_valid_ext_id(m.id) : !can::is_valid_id(m.id)) {
        fail("identifier out of range");
      }
      // The CommMatrix keeps 11-bit IDs; extended entries are stored with
      // their full 29-bit value (callers distinguish via is_valid_id()).
      unsigned dlc = 0;
      if (!parse_number(dlc_str, dlc)) fail("bad DLC");
      if (dlc > 8) fail("DLC > 8");
      m.dlc = static_cast<std::uint8_t>(dlc);
      m.name = name;
      m.tx_ecu = ecu;
      m.period_ms = default_period_ms;
      by_raw_id[raw_id] = std::move(m);
    } else if (line.rfind("BA_ \"GenMsgCycleTime\" BO_ ", 0) == 0) {
      std::istringstream ls{line.substr(26)};
      std::string id_str, period_str, rest;
      if (!(ls >> id_str >> period_str)) fail("malformed BA_ cycle time");
      // The closing ';' may touch the value ("100;") or stand alone.
      if (!period_str.empty() && period_str.back() == ';') {
        period_str.pop_back();
      } else if (ls >> rest && rest != ";") {
        fail("malformed BA_ cycle time");
      }
      std::uint64_t raw_id = 0;
      double period = 0;
      if (!parse_number(id_str, raw_id)) fail("bad message id");
      if (!parse_number(period_str, period)) fail("bad cycle time");
      const auto it = by_raw_id.find(raw_id);
      if (it == by_raw_id.end()) fail("BA_ for unknown message");
      if (period <= 0) fail("non-positive cycle time");
      it->second.period_ms = period;
    }
  }
  std::vector<MessageDef> msgs;
  msgs.reserve(by_raw_id.size());
  for (auto& [id, m] : by_raw_id) msgs.push_back(std::move(m));
  return CommMatrix{std::move(bus_name), std::move(msgs)};
}

std::string to_dbc(const CommMatrix& matrix) {
  std::ostringstream os;
  os << "VERSION \"\"\n\n";
  for (const auto& m : matrix.messages()) {
    std::uint64_t raw = m.id;
    if (!can::is_valid_id(m.id)) raw |= kDbcExtendedFlag;
    os << "BO_ " << raw << " " << m.name << ": " << int{m.dlc} << " "
       << m.tx_ecu << "\n";
  }
  os << "\n";
  for (const auto& m : matrix.messages()) {
    std::uint64_t raw = m.id;
    if (!can::is_valid_id(m.id)) raw |= kDbcExtendedFlag;
    os << "BA_ \"GenMsgCycleTime\" BO_ " << raw << " " << m.period_ms
       << ";\n";
  }
  return os.str();
}

}  // namespace mcan::restbus
