#include "runner/fuzz.hpp"

#include <chrono>
#include <mutex>
#include <sstream>
#include <stdexcept>

#include "conformance/generator.hpp"
#include "obs/jsonfmt.hpp"
#include "runner/cell_codec.hpp"
#include "runner/schemas.hpp"
#include "runner/thread_pool.hpp"
#include "sim/rng.hpp"

namespace mcan::runner {

namespace {

using Clock = std::chrono::steady_clock;

double elapsed_ms(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

/// Salt separating the fuzz seed universe from campaign spec roots.
constexpr std::uint64_t kFuzzSalt = 0x66757A7Aull;  // "fuzz"

std::uint64_t case_seed(std::uint64_t base_seed, const SeedRange& seeds,
                        std::size_t index) {
  const auto streams = seeds.size();
  const std::uint64_t stream = seeds.begin + index % streams;
  const std::uint64_t offset = index / streams;
  return sim::derive_seed(
      sim::derive_seed(sim::derive_seed(base_seed, kFuzzSalt), stream),
      offset);
}

}  // namespace

FuzzReport run_fuzz(const FuzzConfig& cfg) {
  if (cfg.cases == 0) throw std::invalid_argument("fuzz: zero cases");
  if (cfg.seeds.size() == 0) {
    throw std::invalid_argument("fuzz: empty seed range");
  }

  const auto start = Clock::now();
  FuzzReport report;
  report.base_seed = cfg.base_seed;
  report.seeds = cfg.seeds;
  report.cases = cfg.cases;
  report.cache_enabled = cfg.cells != nullptr;
  report.cells.resize(cfg.cases);

  // Plan the cell set up front: identity and content-addressed cache key
  // per case, before any work starts (same shape as plan_campaign()).
  const std::uint64_t fuzz_hash = fuzz_cell_fingerprint();
  for (std::size_t index = 0; index < cfg.cases; ++index) {
    auto& cell = report.cells[index];
    cell.index = index;
    cell.stream = cfg.seeds.begin + index % cfg.seeds.size();
    cell.derived_seed = case_seed(cfg.base_seed, cfg.seeds, index);
  }

  std::mutex progress_mu;
  std::size_t done = 0;

  ThreadPool pool{cfg.jobs == 0 ? 0u : cfg.jobs};
  report.jobs_used = pool.jobs();

  for (std::size_t index = 0; index < cfg.cases; ++index) {
    pool.submit([&, index, fuzz_hash] {
      auto& cell = report.cells[index];
      if (cfg.cancel != nullptr &&
          cfg.cancel->load(std::memory_order_relaxed)) {
        cell.cancelled = true;
      } else {
        CellKey key;
        key.spec_hash = fuzz_hash;
        key.seed = cell.derived_seed;
        if (cfg.cells != nullptr) {
          obs::SpanCollector::Scope probe{cfg.spans, "cell.probe", "cell"};
          if (const auto bytes = cfg.cells->fetch(key)) {
            if (decode_fuzz_cell(*bytes, cell)) {
              cell.cached = true;
            } else {
              cell.cache_corrupt = true;
            }
          }
        }
        if (!cell.cached) {
          obs::SpanCollector::Scope compute{cfg.spans, "cell.compute", "cell"};
          try {
            const auto c = conformance::generate_case(cell.derived_seed);
            cell.kind = c.kind;
            auto out = conformance::run_case(c);
            cell.diverged = out.diverged;
            cell.divergence = std::move(out.divergence);
            cell.stats = out.stats;
          } catch (const std::exception& e) {
            cell.diverged = true;
            cell.divergence = std::string{"exception: "} + e.what();
          } catch (...) {
            cell.diverged = true;
            cell.divergence = "unknown exception";
          }
          if (cfg.cells != nullptr) {
            cfg.cells->store(key, encode_fuzz_cell(cell));
          }
        }
      }
      std::lock_guard<std::mutex> lock{progress_mu};
      ++done;
      if (cfg.progress) cfg.progress(done, cfg.cases);
    });
  }
  pool.wait_idle();

  for (const auto& cell : report.cells) {
    if (cell.cache_corrupt) ++report.cache_corrupt;
    if (cell.cached) {
      ++report.cache_hits;
    } else if (cell.cancelled) {
      ++report.cells_cancelled;
      continue;
    } else if (report.cache_enabled) {
      ++report.cache_misses;
    }
    report.kind_counts[static_cast<std::size_t>(cell.kind)] += 1;
    report.oracle_checked += cell.stats.oracle_checked ? 1 : 0;
    report.collision_skips += cell.stats.collision_skip ? 1 : 0;
    report.frames_on_wire += cell.stats.frames_on_wire;
    report.wire_bits_compared += cell.stats.wire_bits_compared;
    report.stuff_bits_checked += cell.stats.stuff_bits_checked;
    report.arbitration_rounds += cell.stats.arbitration_rounds;
  }

  // Shrink serially, in index order: deterministic regardless of jobs.
  obs::SpanCollector::Scope shrink_span{cfg.spans, "shrink", "service"};
  for (const auto& cell : report.cells) {
    if (!cell.diverged) continue;
    FuzzDivergence div;
    div.index = cell.index;
    div.stream = cell.stream;
    div.derived_seed = cell.derived_seed;
    div.original = conformance::generate_case(cell.derived_seed);
    if (cfg.shrink) {
      div.shrunk = conformance::shrink(div.original, conformance::run_case,
                                       cfg.max_shrink_tries);
    } else {
      div.shrunk.minimized = div.original;
      div.shrunk.divergence = cell.divergence;
    }
    div.test_name = "Seed" + std::to_string(cell.derived_seed);
    div.repro_json = conformance::to_json(div.shrunk.minimized);
    div.repro_test = conformance::to_cpp_test(
        div.shrunk.minimized, div.test_name,
        "Diverged: " + div.shrunk.divergence + "\nFound by `michican_cli " +
            "fuzz` at case index " + std::to_string(cell.index) +
            ", derived seed " + std::to_string(cell.derived_seed) + ".");
    report.divergences.push_back(std::move(div));
  }

  report.wall_ms = elapsed_ms(start);
  return report;
}

std::string to_json(const FuzzReport& report, JsonOptions opts) {
  using obs::fmt_double;
  using obs::json_escape;
  std::ostringstream os;
  os << "{\"schema\":\"" << kFuzzSchema << "\",\"base_seed\":" << report.base_seed
     << ",\"seeds\":{\"begin\":" << report.seeds.begin
     << ",\"end\":" << report.seeds.end << "},\"cases\":" << report.cases
     << ",\"kinds\":{\"clean\":" << report.kind_counts[0]
     << ",\"scheduled_flip\":" << report.kind_counts[1]
     << ",\"noisy\":" << report.kind_counts[2]
     << "},\"checks\":{\"oracle_checked\":" << report.oracle_checked
     << ",\"collision_skips\":" << report.collision_skips
     << ",\"frames_on_wire\":" << report.frames_on_wire
     << ",\"wire_bits_compared\":" << report.wire_bits_compared
     << ",\"stuff_bits_checked\":" << report.stuff_bits_checked
     << ",\"arbitration_rounds\":" << report.arbitration_rounds
     << "},\"divergences\":[";
  for (std::size_t i = 0; i < report.divergences.size(); ++i) {
    const auto& d = report.divergences[i];
    if (i != 0) os << ",";
    const auto& cell = report.cells[d.index];
    os << "{\"index\":" << d.index << ",\"stream\":" << d.stream
       << ",\"seed\":" << d.derived_seed << ",\"kind\":\""
       << to_string(cell.kind) << "\",\"divergence\":\""
       << json_escape(cell.divergence)
       << "\",\"shrink\":{\"tried\":" << d.shrunk.tried
       << ",\"accepted\":" << d.shrunk.accepted
       << ",\"frames\":" << d.shrunk.minimized.total_frames()
       << ",\"divergence\":\"" << json_escape(d.shrunk.divergence)
       << "\"},\"case\":" << conformance::to_json(d.original)
       << ",\"minimized\":" << d.repro_json << "}";
  }
  os << "]";
  if (opts.include_runtime) {
    os << ",\"runtime\":{\"jobs\":" << report.jobs_used
       << ",\"wall_ms\":" << fmt_double(report.wall_ms)
       << ",\"cache\":{\"enabled\":"
       << (report.cache_enabled ? "true" : "false")
       << ",\"hits\":" << report.cache_hits
       << ",\"misses\":" << report.cache_misses
       << ",\"cancelled\":" << report.cells_cancelled
       << ",\"corrupt\":" << report.cache_corrupt << "}}";
  }
  os << "}\n";
  return os.str();
}

std::string format_summary(const FuzzReport& report) {
  std::ostringstream os;
  os << "fuzz: " << report.cases << " cases (clean " << report.kind_counts[0]
     << ", scheduled_flip " << report.kind_counts[1] << ", noisy "
     << report.kind_counts[2] << "), seeds [" << report.seeds.begin << ", "
     << report.seeds.end << ")\n";
  os << "checks: " << report.oracle_checked << " oracle-checked, "
     << report.frames_on_wire << " frames decoded bit-for-bit, "
     << report.wire_bits_compared << " wire bits compared, "
     << report.stuff_bits_checked << " stuff bits verified, "
     << report.arbitration_rounds << " arbitration rounds predicted";
  if (report.collision_skips != 0) {
    os << ", " << report.collision_skips << " same-key collisions skipped";
  }
  os << "\n";
  if (report.divergences.empty()) {
    os << "divergences: none\n";
    return os.str();
  }
  os << "divergences: " << report.divergences.size() << "\n";
  for (const auto& d : report.divergences) {
    const auto& cell = report.cells[d.index];
    os << "  #" << d.index << " seed=" << d.derived_seed << " ["
       << to_string(cell.kind) << "] " << cell.divergence << "\n";
    os << "     minimized to " << d.shrunk.minimized.total_frames()
       << " frame(s) in " << d.shrunk.tried << " tries: "
       << d.shrunk.divergence << "\n";
  }
  return os.str();
}

}  // namespace mcan::runner
