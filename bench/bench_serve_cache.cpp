// Cell-cache bench: the cold-vs-warm contract of the CellStore seam,
// measured end to end through run_campaign().
//
//   bench_serve_cache [--jobs N] [--seeds A..B] [--report PATH]
//
// The driver runs one campaign grid three ways — uncached, cold through a
// cache (compute + persist every cell), warm through the same cache (replay
// every cell) — asserts the two guarantees `--cache-dir` is built on (warm
// report byte-identical to cold, warm run 100% hits), and reports the
// measured replay speedup.  Exits nonzero if either guarantee breaks or the
// warm replay fails to beat the cold run by at least 10x.  Both MemoryStore
// and DiskStore are exercised; the microbenchmarks isolate the codec, store
// and span-scope costs per cell.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>

#include "analysis/experiments.hpp"
#include "analysis/table.hpp"
#include "obs/jsonfmt.hpp"
#include "obs/trace_context.hpp"
#include "runner/campaign.hpp"
#include "runner/cell_codec.hpp"
#include "runner/cli.hpp"
#include "runner/report.hpp"
#include "serve/disk_store.hpp"

namespace {

using namespace mcan;
using Clock = std::chrono::steady_clock;

double run_ms(const runner::CampaignConfig& cfg, runner::CampaignReport& out) {
  const auto start = Clock::now();
  out = runner::run_campaign(cfg);
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

runner::CampaignConfig grid(const runner::CliOptions& opts,
                            runner::CellStore* cells) {
  runner::CampaignConfig cfg;
  for (const int n : {2, 4}) {
    cfg.specs.push_back(analysis::table2_experiment(n));
  }
  cfg.seeds = opts.seeds;
  cfg.jobs = opts.jobs;
  cfg.cells = cells;
  return cfg;
}

/// Cold + warm through `store`; returns false when a guarantee breaks.
bool check_store(const runner::CliOptions& opts, runner::CellStore& store,
                 const char* label, std::ostream& report) {
  runner::CampaignReport cold, warm;
  const double cold_ms = run_ms(grid(opts, &store), cold);
  const double warm_ms = run_ms(grid(opts, &store), warm);
  const bool identical = runner::to_json(cold) == runner::to_json(warm);
  const bool all_hits = warm.cache_hits == warm.tasks.size();
  const double speedup = cold_ms / std::max(warm_ms, 1e-9);

  std::cout << label << ": cold " << analysis::fmt(cold_ms, 1) << " ms, warm "
            << analysis::fmt(warm_ms, 2) << " ms (" << warm.cache_hits << "/"
            << warm.tasks.size() << " hits, "
            << analysis::fmt(speedup, 1) << "x), byte-identical: "
            << (identical ? "yes" : "NO") << "\n";
  report << "{\"store\":\"" << label
         << "\",\"cold_ms\":" << obs::fmt_double(cold_ms)
         << ",\"warm_ms\":" << obs::fmt_double(warm_ms)
         << ",\"speedup\":" << obs::fmt_double(speedup)
         << ",\"hits\":" << warm.cache_hits << ",\"cells\":"
         << warm.tasks.size() << ",\"byte_identical\":"
         << (identical ? "true" : "false") << "}";

  if (!identical) {
    std::cerr << label << ": warm report is NOT byte-identical to cold\n";
    return false;
  }
  if (!all_hits) {
    std::cerr << label << ": warm run was not a 100% cache hit\n";
    return false;
  }
  if (speedup < 10.0) {
    std::cerr << label << ": warm replay only " << analysis::fmt(speedup, 1)
              << "x faster (>=10x required)\n";
    return false;
  }
  return true;
}

// ------------------------------------------------------- microbenches --

const analysis::ExperimentResult& sample_cell() {
  static const auto res = [] {
    auto spec = analysis::table2_experiment(4);
    spec.duration = sim::Millis{500};
    return analysis::run_experiment(spec);
  }();
  return res;
}

void BM_EncodeCell(benchmark::State& state) {
  const auto& res = sample_cell();
  for (auto _ : state) {
    benchmark::DoNotOptimize(runner::encode_cell(res));
  }
}
BENCHMARK(BM_EncodeCell);

void BM_DecodeCell(benchmark::State& state) {
  const auto bytes = runner::encode_cell(sample_cell());
  analysis::ExperimentResult out;
  for (auto _ : state) {
    benchmark::DoNotOptimize(runner::decode_cell(bytes, out));
  }
}
BENCHMARK(BM_DecodeCell);

void BM_MemoryStoreFetch(benchmark::State& state) {
  runner::MemoryStore store;
  runner::CellKey key;
  key.seed = 1;
  store.store(key, runner::encode_cell(sample_cell()));
  for (auto _ : state) {
    benchmark::DoNotOptimize(store.fetch(key));
  }
}
BENCHMARK(BM_MemoryStoreFetch);

void BM_DiskStoreFetch(benchmark::State& state) {
  const auto dir = std::filesystem::temp_directory_path() / "michican_bench_ds";
  std::filesystem::remove_all(dir);
  serve::DiskStore store{dir};
  runner::CellKey key;
  key.seed = 1;
  store.store(key, runner::encode_cell(sample_cell()));
  for (auto _ : state) {
    benchmark::DoNotOptimize(store.fetch(key));  // read + hash re-verify
  }
  std::filesystem::remove_all(dir);
}
BENCHMARK(BM_DiskStoreFetch);

void BM_SpanScope(benchmark::State& state) {
  obs::SpanCollector spans{0x1ull};
  for (auto _ : state) {
    obs::SpanCollector::Scope scope{&spans, "cell.compute", "cell"};
    benchmark::DoNotOptimize(scope.id());
  }
}
BENCHMARK(BM_SpanScope);

}  // namespace

int main(int argc, char** argv) {
  runner::CliOptions defaults;
  defaults.jobs = 0;
  defaults.seeds = {0, 8};
  auto opts = runner::parse_cli(argc, argv, defaults);

  std::ostringstream rows;
  bool ok = true;
  {
    runner::MemoryStore store;
    ok = check_store(opts, store, "MemoryStore", rows) && ok;
  }
  rows << ",";
  {
    const auto dir =
        std::filesystem::temp_directory_path() / "michican_bench_serve";
    std::filesystem::remove_all(dir);
    serve::DiskStore store{dir};
    ok = check_store(opts, store, "DiskStore", rows) && ok;
    std::filesystem::remove_all(dir);
  }

  if (!opts.report_path.empty()) {
    std::ofstream out{opts.report_path, std::ios::binary};
    out << "{\"schema\":\"michican.bench.serve_cache.v1\",\"stores\":["
        << rows.str() << "]}\n";
    out.flush();
    if (!out) {
      std::cerr << "error: could not write " << opts.report_path << "\n";
      return 1;
    }
  }
  if (!ok) return 1;

  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
