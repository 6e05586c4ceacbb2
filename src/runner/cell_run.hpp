// One fetch-or-compute loop for every cell run (ARCHITECTURE.md §7).
//
// A campaign cell and a fuzz case differ only in four steps: the key the
// cell is stored under, how stored bytes decode into it, how it is
// computed, and how its result encodes.  run_cells() owns everything else
// — the thread pool, the store probe, the store write, the per-cell wall
// clock, progress and the hit/miss/corrupt tally — so CellStore::fetch and
// CellStore::store each have exactly one caller.
//
// A fetched entry that fails to decode is treated exactly like a miss:
// the cell is recomputed and re-stored over the bad bytes, and counted as
// corrupt.  Cells are stored as they finish, so a killed run leaves every
// finished cell in the store and a re-run resumes from there.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <vector>

#include "obs/trace_context.hpp"
#include "runner/cell_store.hpp"
#include "runner/thread_pool.hpp"

namespace mcan::runner {

/// Run settings shared by CampaignConfig, FaultSweepConfig and FuzzConfig;
/// each adds its own cell set and seed range.
struct CellRunConfig {
  /// Root of the stateless seed split every cell derives its seed from.
  std::uint64_t base_seed{0x4D696368u};  // "Mich"
  /// Worker threads; 0 = hardware concurrency.
  unsigned jobs{1};
  /// Optional progress sink, called serialized (under a lock) after every
  /// finished cell with (done, total).
  std::function<void(std::size_t, std::size_t)> progress;
  /// Result cache.  Null = compute every cell.  With a store attached each
  /// cell is fetched by content address first and only computed — then
  /// stored — on a miss, so a warm rerun of an unchanged run is pure cache
  /// replay and byte-identical by construction.  Not owned; must outlive
  /// the run.
  CellStore* cells{nullptr};
  /// Run-trace sink.  Null = no tracing.  When set, the runner records
  /// per-cell "cell.probe" / "cell.compute" spans plus its own phases.
  /// Telemetry only — attaching a collector never changes the report
  /// (guarded by test).
  obs::SpanCollector* spans{nullptr};
};

/// Runtime tallies of one run, shared by CampaignReport and FuzzReport.
/// Never part of a deterministic report section.
struct CellRunStats {
  unsigned jobs_used{};
  double wall_ms{};  // the whole run, set by the runner
  bool cache_enabled{};
  std::uint64_t cache_hits{};    // cells replayed from the store
  std::uint64_t cache_misses{};  // cells computed with a store attached
  /// Fetched bytes that failed to decode; those cells were recomputed (a
  /// subset of cache_misses).  The store already verified the payload
  /// hash, so this flags codec/version skew rather than disk rot.
  std::uint64_t cache_corrupt{};
};

/// Fetch-or-compute every element of `cells` on `cfg.jobs` workers and
/// tally the outcome into `stats` (all but wall_ms).  A Cell carries the
/// runtime fields run_cells sets: `cached`, `cache_corrupt`, `wall_ms`.
/// The steps run on worker threads; each call touches only cell `i`:
///   key(i)           the CellKey cell i is stored under (called once per
///                    cell, and only with a store attached)
///   decode(i, bytes) fill cell i from stored bytes; false = corrupt
///   compute(i)       fill cell i by running it; false = do not store it
///   encode(i)        the bytes to store for cell i
template <class Cell, class Key, class Decode, class Compute, class Encode>
void run_cells(const CellRunConfig& cfg, std::vector<Cell>& cells,
               CellRunStats& stats, Key key, Decode decode, Compute compute,
               Encode encode) {
  using Clock = std::chrono::steady_clock;
  CellStore* const store = cfg.cells;
  std::mutex progress_mu;
  std::size_t done = 0;

  const auto run_one = [&](std::size_t i) {
    Cell& cell = cells[i];
    const auto start = Clock::now();
    if (store == nullptr) {
      obs::SpanCollector::Scope span{cfg.spans, "cell.compute", "cell"};
      (void)compute(i);
    } else {
      const auto& cell_key = key(i);
      {
        obs::SpanCollector::Scope probe{cfg.spans, "cell.probe", "cell"};
        if (const auto bytes = store->fetch(cell_key)) {
          const bool decoded = decode(i, *bytes);
          cell.cached = decoded;
          cell.cache_corrupt = !decoded;
        }
      }
      if (!cell.cached) {
        obs::SpanCollector::Scope span{cfg.spans, "cell.compute", "cell"};
        if (compute(i)) store->store(cell_key, encode(i));
      }
    }
    cell.wall_ms =
        std::chrono::duration<double, std::milli>(Clock::now() - start)
            .count();
    if (cfg.progress) {
      std::lock_guard<std::mutex> lock{progress_mu};
      cfg.progress(++done, cells.size());
    }
  };

  {
    ThreadPool pool{cfg.jobs};
    stats.jobs_used = pool.jobs();
    for (std::size_t i = 0; i < cells.size(); ++i) {
      pool.submit([&run_one, i] { run_one(i); });
    }
    pool.wait_idle();
  }

  stats.cache_enabled = store != nullptr;
  for (const Cell& cell : cells) {
    if (cell.cached) {
      ++stats.cache_hits;
    } else if (stats.cache_enabled) {
      ++stats.cache_misses;
    }
    if (cell.cache_corrupt) ++stats.cache_corrupt;
  }
}

}  // namespace mcan::runner
