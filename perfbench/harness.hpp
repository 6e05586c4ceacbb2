// Measurement plumbing shared by the perfbench binary and its tests: the
// tail-percentile rule, the metric catalogue, the timing CellStore
// decorator and the result line.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "runner/cell_store.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Nearest-rank percentile (`pct` in (0, 100]) of `xs`; 0 when empty.
[[nodiscard]] double percentile(std::vector<double> xs, double pct);
[[nodiscard]] double median(std::vector<double> xs);

/// A tail percentile together with the evidence behind it.
struct Tail {
  double pct{};          // the percentile reported (0 = none qualifies)
  double value{};
  std::size_t samples{};
  std::size_t beyond{};  // samples ranked above the reported one
};

/// The highest percentile, among 99/95/90/75/50, that leaves at least 10
/// samples beyond it.  A tail read off fewer than 10 samples is noise, so a
/// small sample falls back to a lower percentile instead of reporting its
/// maximum.
[[nodiscard]] Tail tail_percentile(std::vector<double> xs);

/// CPU time the hypervisor has taken from this machine since boot, in
/// USER_HZ ticks: the steal column of /proc/stat's "cpu" line.  0 where it
/// cannot be read, so every sample then counts as calm.
[[nodiscard]] std::uint64_t steal_ticks();

/// Median of `walls` over its calm half: the samples whose stolen ticks per
/// second (`stolen[i] / walls[i]`) are at or below the median rate.  Ties
/// at the median are all kept, so when most samples lost nothing to the
/// hypervisor, every one of those counts.
[[nodiscard]] double calm_median(const std::vector<double>& walls,
                                 const std::vector<double>& stolen);

struct MetricDef {
  std::string_view name;
  std::string_view unit;
};

/// Metrics of a plain run (`--trace 0`), in BENCHMARK.json order.
[[nodiscard]] const std::vector<MetricDef>& end_to_end_metrics();
/// Metrics of a traced run (`--trace 1`), in BENCHMARK.json order.
[[nodiscard]] const std::vector<MetricDef>& per_layer_metrics();

/// CellStore decorator that times every fetch() and store() of the store it
/// wraps and otherwise passes bytes and stats through untouched.
class TimingStore final : public mcan::runner::CellStore {
 public:
  explicit TimingStore(mcan::runner::CellStore& inner) : inner_(&inner) {}

  [[nodiscard]] std::optional<std::string> fetch(
      const mcan::runner::CellKey& key) override;
  void store(const mcan::runner::CellKey& key,
             std::string_view bytes) override;
  [[nodiscard]] Stats stats() const override { return inner_->stats(); }

  struct Sample {
    std::vector<double> fetch_us;
    std::vector<double> store_us;
    std::uint64_t hits{};
  };
  /// Everything recorded since construction or the last take().
  [[nodiscard]] Sample take();

 private:
  mcan::runner::CellStore* inner_;
  std::mutex mu_;
  Sample sample_;
};

/// Peak resident set size of this process, in MiB.
[[nodiscard]] double peak_rss_mb();

/// The JSON result line: {"correct", "attempted", "failed", "metrics"} with
/// one {"value", "unit"} entry per catalogue metric, in catalogue order.
/// Throws std::logic_error when `values` lacks a catalogue metric.
[[nodiscard]] std::string result_line(bool correct, std::uint64_t attempted,
                                      std::uint64_t failed,
                                      const std::vector<MetricDef>& catalogue,
                                      const std::map<std::string, double>& values);

}  // namespace perfbench
