// Differential conformance fuzz campaign: generate N cases, run each
// through conformance::run_case on the thread pool, shrink every divergence
// and emit repro artifacts.
//
// Determinism contract (same discipline as run_campaign): case `index` is
// assigned to stream `seeds.begin + index % seeds.size()` and derives its
// seed as
//   derive_seed(derive_seed(derive_seed(base_seed, kFuzzSalt), stream),
//               index / seeds.size())
// — a pure function of (base_seed, seeds, index).  Results land in
// slot-indexed storage and shrinking runs serially in index order, so the
// michican.fuzz.v1 report is byte-identical for any `jobs` value.
//
// Schema "michican.fuzz.v1":
//   {
//     "schema": "michican.fuzz.v1",
//     "base_seed": <u64>, "seeds": {"begin","end"}, "cases": <n>,
//     "kinds": {"clean": <n>, "scheduled_flip": <n>, "noisy": <n>},
//     "checks": {"oracle_checked": <n>, "collision_skips": <n>,
//                "frames_on_wire": <n>, "wire_bits_compared": <n>,
//                "stuff_bits_checked": <n>, "arbitration_rounds": <n>},
//     "divergences": [{"index": <n>, "stream": <u64>, "seed": <u64>,
//                      "kind": <str>, "divergence": <str>,
//                      "shrink": {"tried": <n>, "accepted": <n>,
//                                 "frames": <n>, "divergence": <str>},
//                      "case": {original fuzz_repro JSON},
//                      "minimized": {minimized fuzz_repro JSON}}],
//     "runtime": {"jobs": <n>, "wall_ms": <f>}       // include_runtime only
//   }
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "conformance/differ.hpp"
#include "conformance/fuzz_case.hpp"
#include "conformance/shrinker.hpp"
#include "runner/campaign.hpp"
#include "runner/report.hpp"

namespace mcan::runner {

struct FuzzConfig {
  /// Total cases across all streams (NOT multiplied by the seed range).
  std::size_t cases{500};
  /// Seed streams the cases are spread over round-robin; re-running with a
  /// different range explores a disjoint case population.
  SeedRange seeds{0, 8};
  std::uint64_t base_seed{0x4D696368u};  // "Mich"
  unsigned jobs{1};
  /// Minimize diverging cases (serial, deterministic).  Off = raw cases.
  bool shrink{true};
  int max_shrink_tries{600};
  /// Serialized progress sink, called after every finished case.
  std::function<void(std::size_t, std::size_t)> progress;
  /// Result-cache seam (see CampaignConfig::cells): each case's outcome is
  /// content-addressed by (fuzz domain tag, derived seed, engine version)
  /// and replayed on a warm rerun instead of re-simulating.  Shrinking of
  /// diverging cases always recomputes — divergences are rare and the
  /// repro artifacts must come from a live run.
  CellStore* cells{nullptr};
  /// Graceful-cancellation flag (see CampaignConfig::cancel).
  const std::atomic<bool>* cancel{nullptr};
  /// Run-trace sink (see CampaignConfig::spans) — telemetry only.
  obs::SpanCollector* spans{nullptr};
};

/// Outcome of one fuzz case.
struct FuzzCellResult {
  std::size_t index{};
  std::uint64_t stream{};        // user-visible seed stream
  std::uint64_t derived_seed{};  // generate_case input
  conformance::CaseKind kind{conformance::CaseKind::Clean};
  bool diverged{false};
  std::string divergence;
  conformance::CaseStats stats;
  /// Replayed from the cell store (runtime fact; the deterministic report
  /// section is identical either way).
  bool cached{false};
  /// Fetched bytes failed to decode; the case was recomputed (runtime fact,
  /// never encoded into the cell codec).
  bool cache_corrupt{false};
  /// Skipped by a cancellation request before it started.
  bool cancelled{false};
};

/// A diverging case plus its minimized repro artifacts.
struct FuzzDivergence {
  std::size_t index{};
  std::uint64_t stream{};
  std::uint64_t derived_seed{};
  conformance::FuzzCase original;
  conformance::ShrinkResult shrunk;
  std::string test_name;   // GoogleTest case name for the generated repro
  std::string repro_json;  // to_json(shrunk.minimized)
  std::string repro_test;  // to_cpp_test(shrunk.minimized, ...)
};

struct FuzzReport {
  std::uint64_t base_seed{};
  SeedRange seeds{};
  std::size_t cases{};
  std::uint64_t kind_counts[3]{};  // indexed by CaseKind
  std::uint64_t oracle_checked{};
  std::uint64_t collision_skips{};
  std::uint64_t frames_on_wire{};
  std::uint64_t wire_bits_compared{};
  std::uint64_t stuff_bits_checked{};
  std::uint64_t arbitration_rounds{};
  std::vector<FuzzCellResult> cells;  // index order
  std::vector<FuzzDivergence> divergences;
  // Runtime-only (never in the deterministic report section).
  unsigned jobs_used{};
  double wall_ms{};
  bool cache_enabled{};
  std::uint64_t cache_hits{};
  std::uint64_t cache_misses{};
  std::uint64_t cells_cancelled{};
  /// Cases whose fetched bytes failed to decode and were recomputed.
  std::uint64_t cache_corrupt{};
};

/// Run the fuzz campaign.  Throws std::invalid_argument on zero cases or an
/// empty seed range.
[[nodiscard]] FuzzReport run_fuzz(const FuzzConfig& cfg);

/// Deterministic JSON (schema "michican.fuzz.v1").  Only include_runtime of
/// `opts` applies; per-cell rows are aggregated, divergences are explicit.
[[nodiscard]] std::string to_json(const FuzzReport& report,
                                  JsonOptions opts = {});

/// Human summary for the CLI: totals, check coverage, divergence digests.
[[nodiscard]] std::string format_summary(const FuzzReport& report);

}  // namespace mcan::runner
