#include "harness.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <fstream>
#include <stdexcept>
#include <utility>

#include "obs/jsonfmt.hpp"

namespace perfbench {

double percentile(std::vector<double> xs, double pct) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const double n = static_cast<double>(xs.size());
  const auto rank = static_cast<std::size_t>(std::ceil(pct / 100.0 * n));
  return xs[std::clamp<std::size_t>(rank, 1, xs.size()) - 1];
}

double median(std::vector<double> xs) { return percentile(std::move(xs), 50.0); }

Tail tail_percentile(std::vector<double> xs) {
  Tail tail;
  tail.samples = xs.size();
  const double n = static_cast<double>(xs.size());
  for (const double pct : {99.0, 95.0, 90.0, 75.0, 50.0}) {
    const auto rank = static_cast<std::size_t>(std::ceil(pct / 100.0 * n));
    if (rank == 0 || xs.size() - rank < 10) continue;
    tail.pct = pct;
    tail.value = percentile(std::move(xs), pct);
    tail.beyond = tail.samples - rank;
    break;
  }
  return tail;
}

std::uint64_t steal_ticks() {
  // cpu  user nice system idle iowait irq softirq steal ...
  std::ifstream in{"/proc/stat"};
  std::string label;
  std::array<std::uint64_t, 8> fields{};
  in >> label;
  for (auto& f : fields) in >> f;
  return in && label == "cpu" ? fields[7] : 0;
}

double calm_median(const std::vector<double>& walls,
                   const std::vector<double>& stolen) {
  std::vector<double> rate(walls.size());
  for (std::size_t i = 0; i < walls.size(); ++i) {
    rate[i] = walls[i] > 0.0 ? stolen.at(i) / walls[i] : 0.0;
  }
  const double cut = median(rate);
  std::vector<double> calm;
  for (std::size_t i = 0; i < walls.size(); ++i) {
    if (rate[i] <= cut) calm.push_back(walls[i]);
  }
  return median(std::move(calm));
}

const std::vector<MetricDef>& end_to_end_metrics() {
  static const std::vector<MetricDef> defs{
      {"setup_s", "s"},
      {"wall_s", "s"},
      {"cells_per_s", "1/s"},
      {"peak_rss_mb", "MB"},
  };
  return defs;
}

const std::vector<MetricDef>& per_layer_metrics() {
  static const std::vector<MetricDef> defs{
      {"can.sim_bits", "count"},
      {"can.stepped_bits", "count"},
      {"can.skip_ratio", "ratio"},
      {"can.batch_ratio", "ratio"},
      {"can.events", "count"},
      {"can.sim_ns_per_bit", "ns/bit"},
      {"can.sim_ns_per_stepped_bit", "ns/bit"},
      {"fault.flips", "count"},
      {"fault.sim_ns_per_bit_delta", "ns/bit"},
      {"core.fsm_bits", "count"},
      {"core.track_bits", "count"},
      {"core.idle_bits", "count"},
      {"core.counterattacks", "count"},
      {"core.on_bit_ns", "ns"},
      {"core.sim_share_pct", "%"},
      {"restbus.frames_delivered", "count"},
      {"restbus.extra_cell_ms", "ms"},
      {"attack.tx_errors", "count"},
      {"attack.bus_off_entries", "count"},
      {"analysis.setup_ms_per_cell", "ms"},
      {"analysis.harvest_ms_per_cell", "ms"},
      {"analysis.table2_err_pct", "%"},
      {"obs.metrics_ms_per_cell", "ms"},
      {"obs.metrics_share_pct", "%"},
      {"obs.timeline_overhead_pct", "%"},
      {"runner.plan_ms", "ms"},
      {"runner.aggregate_ms", "ms"},
      {"runner.serialize_ms", "ms"},
      {"runner.encode_us_per_cell", "us"},
      {"runner.decode_us_per_cell", "us"},
      {"runner.cell_bytes", "B"},
      {"runner.pool_efficiency", "ratio"},
      {"runner.cell_ms_p50", "ms"},
      {"runner.cell_ms_p99", "ms"},
      {"serve.fetch_us_p50", "us"},
      {"serve.fetch_us_p99", "us"},
      {"serve.store_us_p50", "us"},
      {"serve.hit_ratio", "ratio"},
      {"serve.bytes", "B"},
      {"serve.corrupt", "count"},
      {"conformance.generate_us_per_case", "us"},
      {"conformance.run_case_us_p50", "us"},
      {"conformance.wire_bits_compared", "count"},
      {"conformance.oracle_checked", "count"},
      {"trace.overhead_pct", "%"},
      {"trace.residual_pct", "%"},
  };
  return defs;
}

std::optional<std::string> TimingStore::fetch(
    const mcan::runner::CellKey& key) {
  const auto t0 = Clock::now();
  auto bytes = inner_->fetch(key);
  const double us = seconds_since(t0) * 1e6;
  const std::lock_guard<std::mutex> lock{mu_};
  sample_.fetch_us.push_back(us);
  if (bytes) ++sample_.hits;
  return bytes;
}

void TimingStore::store(const mcan::runner::CellKey& key,
                        std::string_view bytes) {
  const auto t0 = Clock::now();
  inner_->store(key, bytes);
  const double us = seconds_since(t0) * 1e6;
  const std::lock_guard<std::mutex> lock{mu_};
  sample_.store_us.push_back(us);
}

TimingStore::Sample TimingStore::take() {
  const std::lock_guard<std::mutex> lock{mu_};
  return std::exchange(sample_, Sample{});
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::string result_line(bool correct, std::uint64_t attempted,
                        std::uint64_t failed,
                        const std::vector<MetricDef>& catalogue,
                        const std::map<std::string, double>& values) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  bool first = true;
  for (const auto& def : catalogue) {
    const auto it = values.find(std::string{def.name});
    if (it == values.end() || !std::isfinite(it->second)) {
      throw std::logic_error("metric not measured: " + std::string{def.name});
    }
    if (!first) out += ", ";
    first = false;
    out += "\"" + std::string{def.name} + "\": {\"value\": " +
           mcan::obs::fmt_double(it->second) + ", \"unit\": \"" +
           std::string{def.unit} + "\"}";
  }
  out += "}}";
  return out;
}

}  // namespace perfbench
