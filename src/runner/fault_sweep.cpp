#include "runner/fault_sweep.hpp"

#include <array>
#include <cstdio>
#include <sstream>
#include <stdexcept>

#include "obs/jsonfmt.hpp"
#include "runner/schemas.hpp"

namespace mcan::runner {
namespace {

using obs::fmt_double;

FaultSweepRow distil_row(const SpecAggregate& agg, std::size_t scenario,
                         double ber) {
  FaultSweepRow row;
  row.scenario = scenario;
  row.ber = ber;
  row.label = agg.label;

  const auto true_detections =
      agg.attacks_detected > agg.false_detections
          ? agg.attacks_detected - agg.false_detections
          : 0;
  if (agg.attacker_frames > 0) {
    row.detection_rate = std::min(
        1.0, static_cast<double>(true_detections) /
                 static_cast<double>(agg.attacker_frames));
    row.fn_rate = 1.0 - row.detection_rate;
  }
  if (agg.attacks_detected > 0) {
    row.fp_rate = static_cast<double>(agg.false_detections) /
                  static_cast<double>(agg.attacks_detected);
  }

  row.busoff_ms = agg.busoff_ms;
  row.defender_bus_off_runs = agg.defender_bus_off_runs;
  row.max_defender_tec = agg.max_defender_tec;
  row.max_defender_rec = agg.max_defender_rec;
  row.faults = agg.faults;
  row.error_frame_stomps = agg.error_frame_stomps;
  return row;
}

}  // namespace

CampaignConfig fault_sweep_campaign(const FaultSweepConfig& cfg) {
  if (cfg.base_specs.empty()) {
    throw std::invalid_argument("fault-sweep: no base specs");
  }
  if (cfg.bers.empty()) {
    throw std::invalid_argument("fault-sweep: no bit-error rates");
  }
  for (const double ber : cfg.bers) {
    if (ber < 0.0 || ber >= 1.0) {
      throw std::invalid_argument(
          "fault-sweep: bit-error rate must be in [0, 1)");
    }
  }

  CampaignConfig campaign;
  campaign.seeds = cfg.seeds;
  campaign.base_seed = cfg.base_seed;
  campaign.jobs = cfg.jobs;
  campaign.progress = cfg.progress;
  campaign.cells = cfg.cells;
  campaign.cancel = cfg.cancel;
  campaign.spans = cfg.spans;
  campaign.specs.reserve(cfg.base_specs.size() * cfg.bers.size());
  for (const auto& base : cfg.base_specs) {
    for (const double ber : cfg.bers) {
      campaign.specs.push_back(analysis::fault_variant(base, ber));
    }
  }
  return campaign;
}

FaultSweepReport run_fault_sweep(const FaultSweepConfig& cfg) {
  const CampaignConfig campaign = fault_sweep_campaign(cfg);

  FaultSweepReport report;
  report.bers = cfg.bers;
  for (const auto& base : cfg.base_specs) report.scenarios.push_back(base.label);
  report.campaign = run_campaign(campaign);

  report.rows.reserve(report.campaign.specs.size());
  for (std::size_t sc = 0; sc < cfg.base_specs.size(); ++sc) {
    for (std::size_t bi = 0; bi < cfg.bers.size(); ++bi) {
      report.rows.push_back(
          distil_row(report.campaign.specs[sc * cfg.bers.size() + bi], sc,
                     cfg.bers[bi]));
    }
  }

  // Degradation vs the scenario's own clean baseline, if the sweep has one.
  for (std::size_t sc = 0; sc < cfg.base_specs.size(); ++sc) {
    const FaultSweepRow* clean = nullptr;
    for (std::size_t bi = 0; bi < cfg.bers.size(); ++bi) {
      const auto& row = report.rows[sc * cfg.bers.size() + bi];
      if (row.ber == 0.0) {
        clean = &row;
        break;
      }
    }
    if (clean == nullptr || clean->busoff_ms.count == 0) continue;
    for (std::size_t bi = 0; bi < cfg.bers.size(); ++bi) {
      auto& row = report.rows[sc * cfg.bers.size() + bi];
      if (row.busoff_ms.count > 0) {
        row.busoff_mean_delta_ms = row.busoff_ms.mean - clean->busoff_ms.mean;
      }
    }
  }
  return report;
}

std::string to_json(const FaultSweepReport& report, JsonOptions opts) {
  std::ostringstream os;
  os << "{\"schema\":\"" << kFaultSweepSchema << "\",\"bers\":[";
  for (std::size_t i = 0; i < report.bers.size(); ++i) {
    if (i != 0) os << ",";
    os << fmt_double(report.bers[i]);
  }
  os << "],\"rows\":[";
  for (std::size_t i = 0; i < report.rows.size(); ++i) {
    const auto& r = report.rows[i];
    if (i != 0) os << ",";
    os << "{\"scenario\":" << r.scenario << ",\"ber\":" << fmt_double(r.ber)
       << ",\"detection_rate\":" << fmt_double(r.detection_rate)
       << ",\"fn_rate\":" << fmt_double(r.fn_rate)
       << ",\"fp_rate\":" << fmt_double(r.fp_rate)
       << ",\"busoff_mean_ms\":" << fmt_double(r.busoff_ms.mean)
       << ",\"busoff_cycles\":" << r.busoff_ms.count
       << ",\"busoff_mean_delta_ms\":" << fmt_double(r.busoff_mean_delta_ms)
       << ",\"defender\":{\"bus_off_runs\":" << r.defender_bus_off_runs
       << ",\"max_tec\":" << r.max_defender_tec
       << ",\"max_rec\":" << r.max_defender_rec
       << "},\"faults\":{\"random_flips\":" << r.faults.random_flips
       << ",\"scheduled_flips\":" << r.faults.scheduled_flips
       << ",\"stuck_bits\":" << r.faults.stuck_bits
       << ",\"sample_slips\":" << r.faults.sample_slips
       << "},\"error_frame_stomps\":" << r.error_frame_stomps << "}";
  }
  os << "],\"campaign\":";
  auto campaign = to_json(report.campaign, opts);
  while (!campaign.empty() && campaign.back() == '\n') campaign.pop_back();
  os << campaign << "}\n";
  return os.str();
}

std::string format_table(const FaultSweepReport& report) {
  std::ostringstream os;
  std::array<char, 256> line{};
  std::snprintf(line.data(), line.size(),
                "%-38s %-8s %6s %6s %6s %10s %9s %5s %5s %6s %8s\n",
                "scenario", "BER", "det%", "fp%", "fn%", "busoff_ms", "d_ms",
                "dTEC", "dREC", "dBOff", "stomps");
  os << line.data();
  for (const auto& r : report.rows) {
    auto label = report.scenarios.at(r.scenario);
    if (label.size() > 38) label.resize(38);
    std::snprintf(
        line.data(), line.size(),
        "%-38s %-8s %6.1f %6.1f %6.1f %10.3f %+9.3f %5d %5d %6zu %8llu\n",
        label.c_str(), fmt_double(r.ber).c_str(), 100.0 * r.detection_rate,
        100.0 * r.fp_rate, 100.0 * r.fn_rate, r.busoff_ms.mean,
        r.busoff_mean_delta_ms, r.max_defender_tec, r.max_defender_rec,
        r.defender_bus_off_runs,
        static_cast<unsigned long long>(r.error_frame_stomps));
    os << line.data();
  }
  return os.str();
}

}  // namespace mcan::runner
