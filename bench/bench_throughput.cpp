// Simulator self-profiling baseline: bits simulated per wall-clock second
// across scenarios of increasing protocol activity, the speedup of the
// quiescence-skipping kernel over the naive per-bit kernel, and the cost of
// the observability layer itself (metrics-harvest share and
// timeline-capture on-vs-off overhead).
//
//   bench_throughput [--seeds N] [--report PATH]
//
// The workload mix comes from analysis::ScenarioRegistry — the same names
// `michican_cli list-scenarios` prints — so a scenario row here and a
// campaign invocation mean the same spec.  Every scenario runs under both
// engine tiers — quiescence (fast path, the default) and naive per-bit;
// the two recordings are byte-identical (the equivalence tests enforce
// it), so the speedup column isolates pure kernel cost.
//
// --seeds N controls the repetitions per scenario (default 3; each rep uses
// its own seed so the recordings differ).  The sim_ms columns sum over
// reps; the speedup column compares the *fastest* rep of each engine
// (per-engine minima), which filters out scheduler preemption noise on
// shared runners.  The report is "michican.throughput.v2":
//   {
//     "schema": "michican.throughput.v2",
//     "reps": <n>, "duration_ms": <f>,
//     "scenarios": [{"name": <str>, "bits": <u64>, "sim_ms": <f>,
//                    "bits_per_second": <f>, "events": <u64>,
//                    "busy_fraction": <f>, "bits_skipped": <u64>,
//                    "naive_sim_ms": <f>, "naive_bits_per_second": <f>,
//                    "min_sim_ms": <f>, "min_naive_sim_ms": <f>,
//                    "speedup": <f>}],
//     "fast_path_speedup": <f>,   // idle-heavy rest-bus row, quiescence/naive
//     "overhead": {"scenario": <str>, "trace_off_ms": <f>,
//                  "trace_on_ms": <f>, "trace_overhead_pct": <f>,
//                  "metrics_phase_pct": <f>}
//   }
// "fast_path_speedup" is gated in this binary: the run exits nonzero when
// it drops below "fast_path_speedup_floor" in bench/throughput_floor.json.
// Like the golden traces, the pin updates via an env var —
//
//   MICHICAN_UPDATE_FLOOR=1 ./bench_throughput
//
// rewrites the floor to half the measured speedup (the margin absorbs
// shared-runner timing noise) instead of gating.
// Timings are wall clocks — the one intentionally non-deterministic output
// in the BENCH_* family.  The metrics-harvest share should stay well below
// 5% of task wall time; the driver warns (but does not fail) above that.
#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/experiments.hpp"
#include "analysis/scenarios.hpp"
#include "analysis/table.hpp"
#include "obs/jsonfmt.hpp"
#include "obs/timeline.hpp"
#include "runner/argspec.hpp"
#include "runner/cli.hpp"

namespace {

using namespace mcan;
using analysis::fmt;
using obs::fmt_double;

/// Registry names of the workload mix, in increasing protocol activity.
/// kIdleHeavy is the reference row for the fast-path speedup gate: a
/// periodic defender plus the replayed rest-bus matrix leaves most of the
/// 50 kbit/s bus quiescent — exactly the regime the skipping kernel
/// targets.  busy-bus is the opposite end: an ~80% loaded rest-bus replay
/// with the defense monitor off, where nearly every bit is stepped.
/// kOverheadScenario hosts the observability-cost measurement.
/// atk-flood-paced tracks the toolkit attack profiles: a rate-paced flood
/// against the live defense with the rest-bus replay underneath.
constexpr const char* kScenarioNames[] = {
    "idle-bus", "restbus-idle", "controllers-only",
    "exp2",     "exp5",         "atk-flood-paced",
    "busy-bus", "dos-ber1e-4"};
constexpr const char* kIdleHeavy = "restbus-idle";
constexpr const char* kOverheadScenario = "exp5";

struct ScenarioRun {
  std::string name;
  // The quiescence tier — the shipping default — fills the primary
  // columns; the naive_* columns hold the per-bit comparison tier.
  std::uint64_t bits{};
  double sim_ms{};      // wall clock inside bus.run, summed over reps
  double total_ms{};    // whole run_experiment wall clock, summed over reps
  double metrics_ms{};  // metrics-harvest phase, summed over reps
  std::uint64_t events{};
  std::uint64_t bits_skipped{};  // covered by the quiescence-skipping kernel
  double busy_fraction{};        // of the last rep
  double naive_sim_ms{};  // same reps with the fast path off
  std::uint64_t naive_bits{};
  // Fastest single rep per engine.  The speedup column (and the floor
  // gate) use these: each rep simulates the same bit count, so the ratio
  // of per-engine minima measures kernel cost with scheduler noise — a
  // real hazard on shared runners — filtered out, where a ratio of sums
  // lets one preempted rep swing the gate by 2-3x.
  double min_sim_ms{1e300};
  double min_naive_sim_ms{1e300};

  [[nodiscard]] double bits_per_second() const {
    return sim_ms > 0 ? static_cast<double>(bits) / (sim_ms / 1e3) : 0.0;
  }
  [[nodiscard]] double naive_bits_per_second() const {
    return naive_sim_ms > 0
               ? static_cast<double>(naive_bits) / (naive_sim_ms / 1e3)
               : 0.0;
  }
  /// Quiescence-kernel speedup over the naive kernel (1 = no gain), from
  /// the fastest rep of each engine.
  [[nodiscard]] double speedup() const {
    return min_sim_ms > 0 && min_naive_sim_ms < 1e300
               ? min_naive_sim_ms / min_sim_ms
               : 0.0;
  }
};

#ifndef MICHICAN_BENCH_DIR
#error "MICHICAN_BENCH_DIR must point at the bench source directory"
#endif

std::string floor_path() {
  return std::string{MICHICAN_BENCH_DIR} + "/throughput_floor.json";
}

constexpr const char* kFloorKey = "\"fast_path_speedup_floor\":";

/// Read "fast_path_speedup_floor" out of the pinned floor file.  The file
/// is a one-object JSON document we wrote ourselves, so a key scan is
/// enough — no parser dependency.  Returns a negative value when the file
/// or key is missing or the value is malformed (the caller fails loudly: a
/// silently absent floor is no gate).
double read_pinned_floor() {
  std::ifstream in{floor_path()};
  if (!in) return -1.0;
  std::ostringstream ss;
  ss << in.rdbuf();
  const std::string text = ss.str();
  const auto at = text.find(kFloorKey);
  if (at == std::string::npos) return -1.0;
  const auto begin = at + std::string_view{kFloorKey}.size();
  const auto end = text.find_first_of(",}", begin);
  try {
    return runner::parse_double_arg(text.substr(begin, end - begin),
                                    "fast_path_speedup_floor");
  } catch (const std::invalid_argument&) {
    return -1.0;
  }
}

bool write_pinned_floor(double floor) {
  std::string os;
  os += "{\"schema\":\"michican.throughput_floor.v2\",";
  os += kFloorKey;
  os += fmt_double(floor) + ",";
  os += "\"note\":\"Minimum restbus-idle quiescence-kernel speedup over the "
        "naive per-bit kernel; bench_throughput fails below it.  Regenerate "
        "with MICHICAN_UPDATE_FLOOR=1 (pins half the measured speedup).\"}\n";
  return obs::write_text_file(floor_path(), os);
}

analysis::ExperimentSpec bench_spec(const std::string& name,
                                    double duration_ms) {
  auto spec = analysis::ScenarioRegistry::built_in().make(name);
  spec.duration = sim::Millis{duration_ms};
  spec.capture_timeline = false;
  return spec;
}

/// Accumulate `reps` recordings of `spec` into `run` under one engine tier
/// (the fast path fills the primary columns, naive its comparison ones).
void accumulate(ScenarioRun& run, analysis::ExperimentSpec spec,
                std::size_t reps, bool fast_path, bool capture_timeline) {
  spec.fast_path = fast_path;
  spec.capture_timeline = capture_timeline;
  for (std::size_t rep = 0; rep < reps; ++rep) {
    spec.seed = 42 + rep;
    const auto res = analysis::run_experiment(spec);
    const auto bits = res.metrics.counter_value("bus.bits_simulated");
    const auto sim_ms = res.profile.total_ms("task.sim");
    if (fast_path) {
      run.bits += bits;
      run.events += res.metrics.counter_value("bus.events");
      run.sim_ms += sim_ms;
      run.min_sim_ms = std::min(run.min_sim_ms, sim_ms);
      for (const auto& [name, phase] : res.profile.phases()) {
        run.total_ms += phase.total_ms;
      }
      run.metrics_ms += res.profile.total_ms("task.metrics");
      run.bits_skipped += res.bits_skipped;
      run.busy_fraction = res.busy_fraction;
    } else {
      run.naive_bits += bits;
      run.naive_sim_ms += sim_ms;
      run.min_naive_sim_ms = std::min(run.min_naive_sim_ms, sim_ms);
    }
  }
}

ScenarioRun run_scenario(const std::string& name, double duration_ms,
                         std::size_t reps, bool capture_timeline) {
  ScenarioRun run;
  run.name = name;
  accumulate(run, bench_spec(name, duration_ms), reps, /*fast_path=*/true,
             capture_timeline);
  accumulate(run, bench_spec(name, duration_ms), reps, /*fast_path=*/false,
             capture_timeline);
  return run;
}

bool write_report(const std::string& path,
                  const std::vector<ScenarioRun>& runs, std::size_t reps,
                  double duration_ms, double fast_path_speedup,
                  const ScenarioRun& trace_off, const ScenarioRun& trace_on) {
  std::string os;
  os += "{\"schema\":\"michican.throughput.v2\",\"reps\":";
  os += std::to_string(reps);
  os += ",\"duration_ms\":" + fmt_double(duration_ms);
  os += ",\"scenarios\":[";
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const auto& r = runs[i];
    if (i != 0) os += ",";
    os += "{\"name\":\"" + obs::json_escape(r.name) + "\",\"bits\":";
    os += std::to_string(r.bits);
    os += ",\"sim_ms\":" + fmt_double(r.sim_ms);
    os += ",\"bits_per_second\":" + fmt_double(r.bits_per_second());
    os += ",\"events\":" + std::to_string(r.events);
    os += ",\"busy_fraction\":" + fmt_double(r.busy_fraction);
    os += ",\"bits_skipped\":" + std::to_string(r.bits_skipped);
    os += ",\"naive_sim_ms\":" + fmt_double(r.naive_sim_ms);
    os += ",\"naive_bits_per_second\":" + fmt_double(r.naive_bits_per_second());
    os += ",\"min_sim_ms\":" + fmt_double(r.min_sim_ms);
    os += ",\"min_naive_sim_ms\":" + fmt_double(r.min_naive_sim_ms);
    os += ",\"speedup\":" + fmt_double(r.speedup()) + "}";
  }
  const double overhead_pct =
      trace_off.total_ms > 0
          ? 100.0 * (trace_on.total_ms - trace_off.total_ms) /
                trace_off.total_ms
          : 0.0;
  const double metrics_pct = trace_off.total_ms > 0
                                 ? 100.0 * trace_off.metrics_ms /
                                       trace_off.total_ms
                                 : 0.0;
  os += "],\"fast_path_speedup\":" + fmt_double(fast_path_speedup);
  os += ",\"overhead\":{\"scenario\":\"" + obs::json_escape(trace_off.name);
  os += "\",\"trace_off_ms\":" + fmt_double(trace_off.total_ms);
  os += ",\"trace_on_ms\":" + fmt_double(trace_on.total_ms);
  os += ",\"trace_overhead_pct\":" + fmt_double(overhead_pct);
  os += ",\"metrics_phase_pct\":" + fmt_double(metrics_pct);
  os += "}}\n";
  return obs::write_text_file(path, os);
}

}  // namespace

int main(int argc, char** argv) {
  runner::CliOptions defaults;
  defaults.seeds = {0, 3};  // --seeds N = repetitions per scenario
  defaults.report_path = "BENCH_throughput.json";
  const auto opts = runner::parse_cli(argc, argv, defaults);
  const std::size_t reps = opts.seeds.size();
  const double duration_ms = 500.0;

  std::vector<ScenarioRun> runs;
  for (const char* name : kScenarioNames) {
    runs.push_back(
        run_scenario(name, duration_ms, reps, /*capture_timeline=*/false));
  }

  double fast_path_speedup = 0.0;
  analysis::AsciiTable t{{"Scenario", "Bits", "Mbit/s (sim)", "Skipped",
                          "Speedup", "Busy"}};
  for (const auto& r : runs) {
    if (r.name == kIdleHeavy) fast_path_speedup = r.speedup();
    t.add_row({r.name, std::to_string(r.bits),
               fmt(r.bits_per_second() / 1e6, 2),
               std::to_string(r.bits_skipped), fmt(r.speedup(), 2) + "x",
               analysis::fmt_pct(r.busy_fraction)});
  }
  t.print(std::cout, "Simulated-bit throughput (" + std::to_string(reps) +
                         " reps x " + fmt(duration_ms, 0) +
                         " ms at 50 kbit/s, quiescence vs naive kernel):");
  std::cout << "fast-path speedup on " << kIdleHeavy << ": "
            << fmt(fast_path_speedup, 2) << "x\n";

  // Regression gate for the quiescence kernel, pinned like a golden trace.
  if (std::getenv("MICHICAN_UPDATE_FLOOR") != nullptr) {
    const double floor = 0.5 * fast_path_speedup;
    if (!write_pinned_floor(floor)) {
      std::cerr << "error: could not write " << floor_path() << "\n";
      return 1;
    }
    std::cout << "floor regenerated: " << floor_path() << " ("
              << fmt(floor, 2) << "x)\n";
  } else {
    const double floor = read_pinned_floor();
    if (floor < 0) {
      std::cerr << "error: missing or malformed " << floor_path()
                << " — regenerate with MICHICAN_UPDATE_FLOOR=1\n";
      return 1;
    }
    if (fast_path_speedup < floor) {
      std::cerr << "error: fast-path speedup " << fmt(fast_path_speedup, 2)
                << "x on " << kIdleHeavy << " fell below the pinned floor "
                << fmt(floor, 2)
                << "x; if the regression is intentional, rerun with "
                   "MICHICAN_UPDATE_FLOOR=1 and review the diff\n";
      return 1;
    }
    std::cout << "pinned floor: " << fmt(floor, 2) << "x (ok)\n";
  }

  // Observability overhead, measured on the busiest attack scenario: the
  // timeline exporter is the only per-event cost, everything else is
  // counter increments and a harvest pass.
  const auto trace_off = run_scenario(kOverheadScenario, duration_ms, reps,
                                      /*capture_timeline=*/false);
  const auto trace_on = run_scenario(kOverheadScenario, duration_ms, reps,
                                     /*capture_timeline=*/true);
  const double overhead_pct =
      trace_off.total_ms > 0
          ? 100.0 * (trace_on.total_ms - trace_off.total_ms) /
                trace_off.total_ms
          : 0.0;
  const double metrics_pct =
      trace_off.total_ms > 0
          ? 100.0 * trace_off.metrics_ms / trace_off.total_ms
          : 0.0;
  std::cout << "\nObservability cost (" << trace_off.name
            << "): metrics harvest " << fmt(metrics_pct, 2)
            << "% of task wall, timeline capture "
            << (overhead_pct >= 0 ? "+" : "") << fmt(overhead_pct, 1)
            << "% on top\n";
  if (metrics_pct > 5.0) {
    std::cout << "warning: metrics harvest above the 5% budget (timing "
                 "noise is likely at short durations)\n";
  }

  if (!opts.report_path.empty()) {
    if (write_report(opts.report_path, runs, reps, duration_ms,
                     fast_path_speedup, trace_off, trace_on)) {
      std::cout << "JSON report: " << opts.report_path << "\n";
    } else {
      std::cerr << "error: could not write " << opts.report_path << "\n";
      return 1;
    }
  }
  return 0;
}
