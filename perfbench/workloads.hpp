// The four paper workloads and the loop that times them.
//
// Every workload is a closed-loop batch: one client submits a fixed grid,
// waits for the report, and submits it again until the measuring time is
// used up, on two worker threads.  A run is set-up (repeated, median
// reported) and a timed phase of whole batches; with tracing on, untraced
// and traced batches alternate in that phase and per-layer calibrations
// follow it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// Grid sizes.  The defaults are the benchmark's; tests shrink them.
struct Sizes {
  std::size_t campaign_seeds{64};   // paper-campaign: exp1-6 x this
  std::size_t sweep_seeds{64};      // fault-sweep: 3 scenarios x 4 BERs x this
  std::size_t fuzz_cases{5000};     // fuzz: cases per batch
  std::size_t replay_seeds{64};     // warm-replay: exp1-6 x this
  std::size_t latency_cases{500};   // fuzz: cases timed singly per batch
  // Set-up repeats until it has run setup_reps times and setup_seconds
  // in total (median reported): a set-up of a few tens of ms needs more
  // repetitions than one of a second to resist short bursts of host noise.
  int setup_reps{5};
  double setup_seconds{1.0};
  int calibration_reps{9};          // repetitions of each calibration
};

struct Options {
  std::string workload;
  std::uint64_t seed{0};
  double seconds{10.0};
  bool trace{false};
  /// Root of the campaign's two-level seed split (CampaignConfig::base_seed).
  std::uint64_t base_seed{0x4D696368u};
  /// Scratch directory for the warm-replay store (created and removed).
  std::filesystem::path work_dir;
  Sizes sizes;
};

struct Outcome {
  std::uint64_t attempted{};
  std::uint64_t failed{};
  /// Output checks that did not hold, one line each.
  std::vector<std::string> failures;
  std::map<std::string, double> metrics;
  /// Human-readable lines printed before the result line.
  std::vector<std::string> notes;

  [[nodiscard]] bool correct() const {
    return failures.empty() && failed == 0;
  }
};

[[nodiscard]] const std::vector<std::string>& workload_names();

/// Run one workload.  Throws std::invalid_argument for an unknown name.
[[nodiscard]] Outcome run_workload(const Options& opts);

}  // namespace perfbench
