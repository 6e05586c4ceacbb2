#include "workloads.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <numeric>
#include <optional>
#include <stdexcept>
#include <string_view>

#include "analysis/experiments.hpp"
#include "analysis/scenarios.hpp"
#include "attack/profiles.hpp"
#include "can/bus.hpp"
#include "conformance/differ.hpp"
#include "conformance/generator.hpp"
#include "core/michican_node.hpp"
#include "core/monitor.hpp"
#include "harness.hpp"
#include "mcu/pinmux.hpp"
#include "obs/trace_context.hpp"
#include "restbus/vehicles.hpp"
#include "runner/campaign.hpp"
#include "runner/cell_codec.hpp"
#include "runner/fault_sweep.hpp"
#include "runner/fuzz.hpp"
#include "runner/report.hpp"
#include "serve/disk_store.hpp"

namespace perfbench {
namespace {

using namespace mcan;

/// Worker threads of every workload: half of a shared 4-vCPU host.
constexpr unsigned kJobs = 2;

double ms_since(Clock::time_point t0) { return seconds_since(t0) * 1e3; }

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

double mean(const std::vector<double>& xs) {
  return xs.empty() ? 0.0
                    : std::accumulate(xs.begin(), xs.end(), 0.0) /
                          static_cast<double>(xs.size());
}

/// Keeps a user seed range well clear of u64 wrap-around.
runner::SeedRange seed_range(std::uint64_t seed, std::size_t size) {
  const std::uint64_t begin = (seed % (std::uint64_t{1} << 40)) * size;
  return {begin, begin + size};
}

double span_ms(const obs::SpanCollector& spans, std::string_view name) {
  double us = 0.0;
  for (const auto& s : spans.spans()) {
    if (s.name == name) us += s.dur_us;
  }
  return us / 1e3;
}

// --- Table II -------------------------------------------------------------

/// Paper mean bus-off time per Table II row (EXPERIMENTS.md), addressed as
/// (spec index in exp1..exp6 order, attacker slot).
struct PaperRow {
  std::size_t spec;
  std::size_t attacker;
  double mean_ms;
};
constexpr PaperRow kTable2[] = {{0, 0, 24.6}, {1, 0, 24.2}, {2, 0, 25.1},
                                {3, 0, 24.9}, {4, 0, 39.0}, {4, 1, 35.4},
                                {5, 0, 24.9}};
/// EXPERIMENTS.md documents per-row deviations up to ~12 % (restbus rows);
/// the seven-row mean sits near 5 %.  Beyond this the model has changed.
constexpr double kTable2TolerancePct = 10.0;

double table2_err_pct(const runner::CampaignReport& r) {
  double sum = 0.0;
  for (const auto& row : kTable2) {
    const double sim = r.specs.at(row.spec).attackers.at(row.attacker)
                           .busoff_ms.mean;
    sum += std::abs(sim - row.mean_ms) / row.mean_ms;
  }
  return 100.0 * sum / static_cast<double>(std::size(kTable2));
}

std::vector<analysis::ExperimentSpec> paper_specs() {
  std::vector<analysis::ExperimentSpec> specs;
  for (int n = 1; n <= 6; ++n) specs.push_back(analysis::table2_experiment(n));
  return specs;
}

// --- calibrations ---------------------------------------------------------

/// ns per BitMonitor::on_bit call, replaying the bus waveform of one
/// Exp. 2 recording (2 s spoofing flood) through a standalone monitor.
/// A replay in which the monitor never counterattacks is a failed check.
double monitor_on_bit_ns(std::uint64_t seed, int reps,
                         std::vector<std::string>& failures) {
  auto spec = analysis::table2_experiment(2);
  can::WiredAndBus bus{spec.speed};
  const core::IvnConfig ivn{
      restbus::vehicle_matrix(restbus::Vehicle::D, 1).ecu_ids()};
  core::MichiCanNodeConfig def_cfg;
  def_cfg.own_id = spec.defender_id;
  core::MichiCanNode defender{"defender", ivn, def_cfg};
  defender.attach_to(bus);
  auto atk_cfg = spec.attackers.at(0);
  atk_cfg.seed = seed;
  auto attacker = attack::make_attacker("attacker1", atk_cfg, spec.speed);
  attacker->attach_to(bus);
  bus.run_for(spec.duration);

  std::vector<sim::BitLevel> wave;
  for (const auto& run : bus.trace().runs()) {
    wave.insert(wave.end(), static_cast<std::size_t>(run.length), run.level);
  }
  std::vector<double> ns;
  bool attacked = true;
  for (int r = 0; r < reps; ++r) {
    mcu::PioController pio;
    core::BitMonitor mon{defender.fsm(), pio, core::MonitorConfig{}};
    const auto t0 = Clock::now();
    sim::BitTime now = 0;
    for (const auto level : wave) mon.on_bit(now++, level);
    ns.push_back(seconds_since(t0) * 1e9 /
                 static_cast<double>(std::max<std::size_t>(wave.size(), 1)));
    attacked = attacked && mon.stats().counterattacks != 0;
  }
  if (!attacked) failures.push_back("on_bit replay saw no attack");
  return median(ns);
}

/// Wall-time cost of timeline capture on the grid's first cell: rerun_cell
/// (capture on) against run_experiment of the same recording (capture off).
double timeline_overhead_pct(const runner::CampaignConfig& cfg, int reps) {
  const auto cell = runner::plan_campaign(cfg).front();
  auto spec = cfg.specs.at(cell.spec_index);
  spec.seed = cell.derived_seed;
  std::vector<double> off;
  std::vector<double> on;
  for (int r = 0; r < reps; ++r) {
    auto t0 = Clock::now();
    (void)analysis::run_experiment(spec);
    off.push_back(seconds_since(t0));
    t0 = Clock::now();
    (void)runner::rerun_cell(cfg, cell.spec_index, cell.seed);
    on.push_back(seconds_since(t0));
  }
  return 100.0 * (median(on) - median(off)) / median(off);
}

struct CodecCost {
  double encode_us{};
  double decode_us{};
  double bytes{};
  std::size_t bad_round_trips{};
};

/// Per-cell codec cost over a set of results, median of `reps` passes.
template <class Cell, class Encode, class Decode>
CodecCost codec_cost(const std::vector<const Cell*>& cells, Encode encode,
                     Decode decode, int reps) {
  CodecCost cost;
  if (cells.empty()) return cost;
  std::vector<std::string> bytes(cells.size());
  std::vector<double> enc;
  std::vector<double> dec;
  const double n = static_cast<double>(cells.size());
  for (int r = 0; r < reps; ++r) {
    auto t0 = Clock::now();
    for (std::size_t i = 0; i < cells.size(); ++i) bytes[i] = encode(*cells[i]);
    enc.push_back(seconds_since(t0) * 1e6 / n);
    t0 = Clock::now();
    for (const auto& b : bytes) {
      Cell out;
      if (!decode(b, out)) ++cost.bad_round_trips;
    }
    dec.push_back(seconds_since(t0) * 1e6 / n);
  }
  double total = 0.0;
  for (const auto& b : bytes) total += static_cast<double>(b.size());
  cost.encode_us = median(enc);
  cost.decode_us = median(dec);
  cost.bytes = total / n;
  return cost;
}

void note_codec(const CodecCost& codec, std::vector<std::string>& failures) {
  if (codec.bad_round_trips != 0) {
    failures.push_back(std::to_string(codec.bad_round_trips) +
                       " cells failed the codec round trip");
  }
}

// --- workloads ------------------------------------------------------------

/// Seeds per spec of the untimed warm-up pass in each set-up.
constexpr std::uint64_t kWarmupSeeds = 4;

/// One timed unit of work: the grid submitted once, waited for, serialized.
struct Batch {
  std::uint64_t cells{};
  std::uint64_t failed{};
  std::string report_json;  // deterministic section only
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// One set-up from scratch; run_workload repeats it and reports the median.
  virtual void setup(bool traced) = 0;
  virtual Batch batch(bool traced) = 0;
  /// The report every batch must reproduce; empty = the first batch's.
  [[nodiscard]] virtual std::string reference_json() const { return {}; }
  /// Per-cell latencies (ms) of the batch just run, gathered after its wall
  /// clock stopped.
  virtual std::vector<double> cell_latencies() = 0;
  /// Workload-specific output checks, after every batch has run.
  virtual void check(Outcome& out) const = 0;
  /// Traced runs: the per-layer metrics of the traced batches.
  virtual void per_layer(std::map<std::string, double>& m) = 0;
  /// Lines for the human-readable summary.
  virtual void describe(std::vector<std::string>& notes) const = 0;
};

/// Sums over the traced batches of a campaign grid.
struct GridTrace {
  std::size_t batches{};
  double run_ms{};  // run_campaign / run_fault_sweep calls
  double serialize_ms{};
  double plan_ms{};
  double aggregate_ms{};
  double task_wall_ms{};
  // Phase clocks and counts of the cells that were simulated.
  double setup_ms{}, sim_ms{}, harvest_ms{}, metrics_ms{};
  double computed{};
  double cached{};
  double sim_bits{};
  double stepped_bits{};
  std::vector<std::vector<double>> spec_cell_ms;
  std::vector<double> ber_sim_ms;
  std::vector<double> ber_bits;
};

/// paper-campaign, fault-sweep and warm-replay: one campaign grid each.
class GridWorkload final : public Workload {
 public:
  enum class Kind { Paper, Sweep, Replay };

  GridWorkload(Kind kind, const Options& opts) : kind_(kind), opts_(opts) {}
  ~GridWorkload() override {
    timing_.reset();
    store_.reset();
    std::error_code ec;
    if (!store_dir_.empty()) std::filesystem::remove_all(store_dir_, ec);
  }
  GridWorkload(const GridWorkload&) = delete;
  GridWorkload& operator=(const GridWorkload&) = delete;

  void setup(bool traced) override {
    const auto& sz = opts_.sizes;
    if (kind_ == Kind::Sweep) {
      const auto& reg = analysis::ScenarioRegistry::built_in();
      sweep_ = {};
      sweep_.base_specs = {reg.make("spoof"), reg.make("dos"), reg.make("ef")};
      sweep_.seeds = seed_range(opts_.seed, sz.sweep_seeds);
      sweep_.base_seed = opts_.base_seed;
      sweep_.jobs = kJobs;
      auto warm = sweep_;
      warm.seeds.end = warm.seeds.begin + kWarmupSeeds;
      note_failed("warm-up", runner::run_fault_sweep(warm).campaign);
      return;
    }
    cfg_ = {};
    cfg_.specs = paper_specs();
    cfg_.seeds = seed_range(opts_.seed, kind_ == Kind::Paper
                                            ? sz.campaign_seeds
                                            : sz.replay_seeds);
    cfg_.base_seed = opts_.base_seed;
    cfg_.jobs = kJobs;
    if (kind_ == Kind::Paper) {
      auto warm = cfg_;
      warm.seeds.end = warm.seeds.begin + kWarmupSeeds;
      note_failed("warm-up", runner::run_campaign(warm));
      return;
    }
    // warm-replay: the cold fill of a fresh store is the set-up.
    timing_.reset();
    store_.reset();
    std::error_code ec;
    if (!store_dir_.empty()) std::filesystem::remove_all(store_dir_, ec);
    store_dir_ = opts_.work_dir / ("replay-store-" + std::to_string(getpid()) +
                                   "-" + std::to_string(++fills_));
    std::filesystem::remove_all(store_dir_, ec);
    store_ = std::make_unique<serve::DiskStore>(store_dir_);
    timing_ = std::make_unique<TimingStore>(*store_);
    auto cold = cfg_;
    cold.cells = traced ? static_cast<runner::CellStore*>(timing_.get())
                        : store_.get();
    const auto report = runner::run_campaign(cold);
    note_failed("cold fill", report);
    if (report.cache_hits != 0) {
      failures_.push_back("cold fill hit a store that should be empty");
    }
    cold_json_ = runner::to_json(report);
    store_us_ = timing_->take().store_us;
    // One untimed warm pass (its first reads update atime) and a flush of
    // the fill's dirty pages, so neither lands in the timed batches.
    cold.cells = store_.get();
    if (runner::run_campaign(cold).cache_hits != report.tasks.size()) {
      failures_.push_back("warm-up pass after the cold fill missed the store");
    }
    const int fd = ::open(store_dir_.c_str(), O_RDONLY | O_DIRECTORY);
    if (fd >= 0) {
      ::syncfs(fd);
      ::close(fd);
    }
  }

  Batch batch(bool traced) override {
    obs::SpanCollector spans{1};
    runner::CellStore* cells = nullptr;
    if (kind_ == Kind::Replay) {
      cells = traced ? static_cast<runner::CellStore*>(timing_.get())
                     : store_.get();
    }
    Batch b;
    runner::CampaignReport rep;
    const auto t0 = Clock::now();
    Clock::time_point t1;
    if (kind_ == Kind::Sweep) {
      auto cfg = sweep_;
      cfg.spans = traced ? &spans : nullptr;
      auto sweep = runner::run_fault_sweep(cfg);
      t1 = Clock::now();
      b.report_json = runner::to_json(sweep);
      if (sweep_rows_.empty()) sweep_rows_ = sweep.rows;
      rep = std::move(sweep.campaign);
    } else {
      auto cfg = cfg_;
      cfg.cells = cells;
      cfg.spans = traced ? &spans : nullptr;
      rep = runner::run_campaign(cfg);
      t1 = Clock::now();
      b.report_json = runner::to_json(rep);
    }
    const double serialize_ms = ms_since(t1);
    const double run_ms =
        std::chrono::duration<double, std::milli>(t1 - t0).count();

    b.cells = rep.tasks.size();
    b.failed = rep.failed_tasks();
    cell_ms_.clear();
    for (const auto& t : rep.tasks) cell_ms_.push_back(t.wall_ms);
    if (kind_ == Kind::Replay &&
        (rep.cache_hits != rep.tasks.size() || rep.cache_corrupt != 0)) {
      ++replay_misses_;
    }
    if (traced) accumulate(rep, spans, run_ms, serialize_ms);
    if (!first_) {
      first_ = std::move(rep);
    } else if (traced && !first_traced_) {
      first_traced_ = std::move(rep);
    }
    return b;
  }

  [[nodiscard]] std::string reference_json() const override {
    return cold_json_;
  }

  std::vector<double> cell_latencies() override { return cell_ms_; }

  void check(Outcome& out) const override {
    out.failures.insert(out.failures.end(), failures_.begin(), failures_.end());
    if (replay_misses_ != 0) {
      out.failures.push_back(std::to_string(replay_misses_) +
                             " warm passes were not 100% clean hits");
    }
    if (!first_) return;
    if (kind_ == Kind::Sweep) {
      for (const auto& row : sweep_rows_) {
        const bool arbitration_attack =
            !sweep_.base_specs.at(row.scenario).attackers.empty();
        if (arbitration_attack && row.ber <= 1e-4 &&
            row.defender_bus_off_runs != 0) {
          out.failures.push_back("defender reached bus-off in " + row.label);
        }
        if (arbitration_attack && row.detection_rate < 0.98) {
          out.failures.push_back("detection below 98% in " + row.label);
        }
        // The error-frame stomper is invisible to the arbitration monitor
        // and confines the victim (EXPERIMENTS.md): that blind spot is the
        // expected output, so its disappearance is a model change too.
        if (!arbitration_attack &&
            (row.detection_rate != 0.0 || row.defender_bus_off_runs == 0)) {
          out.failures.push_back("error-frame blind spot changed in " +
                                 row.label);
        }
      }
      return;
    }
    for (const auto& spec : first_->specs) {
      if (spec.defender_bus_off_runs != 0 || spec.counterattacks == 0) {
        out.failures.push_back("defense did not hold in " + spec.label);
      }
    }
    if (table2_err_pct(*first_) > kTable2TolerancePct) {
      out.failures.push_back("Table II error above tolerance");
    }
  }

  void per_layer(std::map<std::string, double>& m) override {
    const auto& r = first_traced_ ? *first_traced_ : *first_;
    const auto& tr = trace_;
    const int reps = opts_.sizes.calibration_reps;
    const bool simulates = tr.computed > 0;

    // Deterministic counts: one batch, simulated cells only.
    double sim_bits = 0, skipped = 0, batched = 0, events = 0, flips = 0;
    auto counter = [&r](std::string_view name) {
      double v = 0;
      for (const auto& t : r.tasks) {
        if (t.ok && !t.cached) {
          v += static_cast<double>(t.result.metrics.counter_value(name));
        }
      }
      return v;
    };
    for (const auto& t : r.tasks) {
      if (!t.ok || t.cached) continue;
      skipped += static_cast<double>(t.result.bits_skipped);
      batched += static_cast<double>(t.result.bits_batched);
      flips += static_cast<double>(t.result.faults.total());
    }
    sim_bits = counter("bus.bits_simulated");
    events = counter("bus.events");
    m["can.sim_bits"] = sim_bits;
    m["can.stepped_bits"] = sim_bits - skipped - batched;
    m["can.skip_ratio"] = ratio(skipped, sim_bits);
    m["can.batch_ratio"] = ratio(batched, sim_bits);
    m["can.events"] = events;
    m["can.sim_ns_per_bit"] = ratio(tr.sim_ms * 1e6, tr.sim_bits);
    m["can.sim_ns_per_stepped_bit"] = ratio(tr.sim_ms * 1e6, tr.stepped_bits);

    m["fault.flips"] = flips;
    double delta = 0.0;
    if (tr.ber_bits.size() > 1) {
      const double clean = ratio(tr.ber_sim_ms[0] * 1e6, tr.ber_bits[0]);
      const double noisy_ms = std::accumulate(tr.ber_sim_ms.begin() + 1,
                                              tr.ber_sim_ms.end(), 0.0);
      const double noisy_bits = std::accumulate(tr.ber_bits.begin() + 1,
                                                tr.ber_bits.end(), 0.0);
      delta = ratio(noisy_ms * 1e6, noisy_bits) - clean;
    }
    m["fault.sim_ns_per_bit_delta"] = delta;

    m["core.fsm_bits"] = counter("monitor.fsm_bits");
    m["core.track_bits"] = counter("monitor.track_bits");
    m["core.idle_bits"] = counter("monitor.idle_bits");
    m["core.counterattacks"] = counter("monitor.counterattacks");
    const double on_bit_ns =
        simulates ? monitor_on_bit_ns(opts_.seed, reps, failures_) : 0.0;
    m["core.on_bit_ns"] = on_bit_ns;
    // Every stepped bit runs the armed defender's handler once.
    m["core.sim_share_pct"] =
        100.0 * ratio(tr.stepped_bits * on_bit_ns, tr.sim_ms * 1e6);

    m["restbus.frames_delivered"] = counter("restbus.frames_delivered");
    double extra = 0.0;
    if (kind_ == Kind::Paper) {
      const auto& c = tr.spec_cell_ms;
      extra = ((median(c[0]) - median(c[1])) + (median(c[2]) - median(c[3]))) /
              2.0;
    }
    m["restbus.extra_cell_ms"] = extra;
    m["attack.tx_errors"] = counter("attackers.tx_errors");
    m["attack.bus_off_entries"] = counter("attackers.bus_off_entries");

    const double task_ms = tr.setup_ms + tr.sim_ms + tr.harvest_ms + tr.metrics_ms;
    m["analysis.setup_ms_per_cell"] = ratio(tr.setup_ms, tr.computed);
    m["analysis.harvest_ms_per_cell"] = ratio(tr.harvest_ms, tr.computed);
    m["analysis.table2_err_pct"] =
        kind_ == Kind::Sweep ? 0.0 : table2_err_pct(r);
    m["obs.metrics_ms_per_cell"] = ratio(tr.metrics_ms, tr.computed);
    m["obs.metrics_share_pct"] = 100.0 * ratio(tr.metrics_ms, task_ms);
    runner::CampaignConfig grid = cfg_;
    if (kind_ == Kind::Sweep) grid = runner::fault_sweep_campaign(sweep_);
    m["obs.timeline_overhead_pct"] =
        simulates ? timeline_overhead_pct(grid, std::max(1, reps / 2)) : 0.0;

    const double batches = static_cast<double>(std::max<std::size_t>(tr.batches, 1));
    m["runner.plan_ms"] = tr.plan_ms / batches;
    m["runner.aggregate_ms"] = tr.aggregate_ms / batches;
    m["runner.serialize_ms"] = tr.serialize_ms / batches;
    std::vector<const analysis::ExperimentResult*> results;
    for (const auto& t : r.tasks) {
      if (t.ok) results.push_back(&t.result);
    }
    const auto codec = codec_cost(
        results,
        [](const analysis::ExperimentResult& x) { return runner::encode_cell(x); },
        [](std::string_view b, analysis::ExperimentResult& x) {
          return runner::decode_cell(b, x);
        },
        reps);
    note_codec(codec, failures_);
    m["runner.encode_us_per_cell"] = codec.encode_us;
    m["runner.decode_us_per_cell"] = codec.decode_us;
    m["runner.cell_bytes"] = codec.bytes;
    m["runner.pool_efficiency"] =
        ratio(tr.task_wall_ms, tr.run_ms * static_cast<double>(kJobs));

    const auto fetched = timing_ ? timing_->take() : TimingStore::Sample{};
    const auto tail = tail_percentile(fetched.fetch_us);
    m["serve.fetch_us_p50"] = median(fetched.fetch_us);
    m["serve.fetch_us_p99"] = tail.value;
    m["serve.store_us_p50"] = median(store_us_);
    m["serve.hit_ratio"] =
        ratio(static_cast<double>(fetched.hits),
              static_cast<double>(fetched.fetch_us.size()));
    const auto st = store_ ? store_->stats() : runner::CellStore::Stats{};
    m["serve.bytes"] = static_cast<double>(st.bytes);
    m["serve.corrupt"] = static_cast<double>(st.corrupt);
    if (kind_ == Kind::Replay &&
        (fetched.hits != fetched.fetch_us.size() || st.corrupt != 0)) {
      failures_.push_back("traced warm passes were not 100% clean hits");
    }

    m["conformance.generate_us_per_case"] = 0.0;
    m["conformance.run_case_us_p50"] = 0.0;
    m["conformance.wire_bits_compared"] = 0.0;
    m["conformance.oracle_checked"] = 0.0;

    // Self time the layer clocks above account for: the task phases of
    // simulated cells, the store fetch and decode of replayed ones.
    double fetch_ms = 0.0;
    for (const double us : fetched.fetch_us) fetch_ms += us / 1e3;
    const double covered =
        task_ms + fetch_ms + tr.cached * codec.decode_us / 1e3;
    m["trace.residual_pct"] =
        100.0 * ratio(tr.task_wall_ms - covered, tr.task_wall_ms);
  }

  void describe(std::vector<std::string>& notes) const override {
    if (!first_) return;
    const auto& r = *first_;
    notes.push_back("grid: " + std::to_string(r.specs.size()) + " specs x seeds [" +
                    std::to_string(r.seeds.begin) + ", " +
                    std::to_string(r.seeds.end) + "), base seed " +
                    std::to_string(r.base_seed) + ", jobs " +
                    std::to_string(kJobs));
    if (kind_ != Kind::Sweep) {
      notes.push_back("table2_err_pct: " + std::to_string(table2_err_pct(r)) +
                      " (tolerance " + std::to_string(kTable2TolerancePct) + ")");
    }
  }

 private:
  void note_failed(const std::string& what, const runner::CampaignReport& r) {
    if (r.failed_tasks() != 0) {
      failures_.push_back(what + ": " + std::to_string(r.failed_tasks()) +
                          " cells failed");
    }
  }

  void accumulate(const runner::CampaignReport& rep,
                  const obs::SpanCollector& spans, double run_ms,
                  double serialize_ms) {
    auto& tr = trace_;
    ++tr.batches;
    tr.run_ms += run_ms;
    tr.serialize_ms += serialize_ms;
    tr.plan_ms += span_ms(spans, "plan");
    tr.aggregate_ms += rep.profile.total_ms("campaign.aggregate");
    const std::size_t nspecs = rep.specs.size();
    const std::size_t nbers = kind_ == Kind::Sweep ? sweep_.bers.size() : 1;
    tr.spec_cell_ms.resize(nspecs);
    tr.ber_sim_ms.resize(nbers);
    tr.ber_bits.resize(nbers);
    for (const auto& t : rep.tasks) {
      tr.task_wall_ms += t.wall_ms;
      if (!t.ok) continue;
      if (t.cached) {
        ++tr.cached;
        continue;
      }
      const auto& res = t.result;
      const double sim = res.profile.total_ms("task.sim");
      const auto bits = static_cast<double>(
          res.metrics.counter_value("bus.bits_simulated"));
      ++tr.computed;
      tr.setup_ms += res.profile.total_ms("task.setup");
      tr.sim_ms += sim;
      tr.harvest_ms += res.profile.total_ms("task.harvest");
      tr.metrics_ms += res.profile.total_ms("task.metrics");
      tr.sim_bits += bits;
      tr.stepped_bits += bits - static_cast<double>(res.bits_skipped) -
                         static_cast<double>(res.bits_batched);
      tr.spec_cell_ms[t.spec_index].push_back(t.wall_ms);
      tr.ber_sim_ms[t.spec_index % nbers] += sim;
      tr.ber_bits[t.spec_index % nbers] += bits;
    }
  }

  Kind kind_;
  Options opts_;
  runner::CampaignConfig cfg_;
  runner::FaultSweepConfig sweep_;
  std::vector<runner::FaultSweepRow> sweep_rows_;

  std::filesystem::path store_dir_;
  int fills_{0};
  std::unique_ptr<serve::DiskStore> store_;
  std::unique_ptr<TimingStore> timing_;
  std::string cold_json_;
  std::vector<double> store_us_;
  std::uint64_t replay_misses_{0};

  std::vector<std::string> failures_;
  std::vector<double> cell_ms_;  // TaskResult::wall_ms of the last batch
  std::optional<runner::CampaignReport> first_;
  std::optional<runner::CampaignReport> first_traced_;
  GridTrace trace_;
};

/// fuzz: the differential conformance fuzzer, shrinking on.
class FuzzWorkload final : public Workload {
 public:
  explicit FuzzWorkload(const Options& opts) : opts_(opts) {}

  void setup(bool /*traced*/) override {
    cfg_ = {};
    cfg_.cases = opts_.sizes.fuzz_cases;
    cfg_.seeds = seed_range(opts_.seed, 8);
    cfg_.base_seed = opts_.base_seed;
    cfg_.jobs = kJobs;
    cfg_.shrink = true;
    auto warm = cfg_;
    warm.cases = std::max<std::size_t>(1, cfg_.cases / 10);
    const auto rep = runner::run_fuzz(warm);
    if (!rep.divergences.empty()) {
      failures_.push_back("warm-up: " + std::to_string(rep.divergences.size()) +
                          " divergences");
    }
  }

  Batch batch(bool traced) override {
    obs::SpanCollector spans{1};
    auto cfg = cfg_;
    cfg.spans = traced ? &spans : nullptr;
    const auto t0 = Clock::now();
    auto rep = runner::run_fuzz(cfg);
    const auto t1 = Clock::now();
    Batch b;
    b.report_json = runner::to_json(rep);
    b.cells = rep.cases;
    b.failed = rep.divergences.size() + rep.cells_cancelled;
    if (traced) {
      ++batches_;
      run_ms_ += std::chrono::duration<double, std::milli>(t1 - t0).count();
      serialize_ms_ += ms_since(t1);
      compute_ms_ += span_ms(spans, "cell.compute");
      cases_ += static_cast<double>(rep.cases);
    }
    if (!first_) {
      first_ = std::move(rep);
    } else if (traced && !first_traced_) {
      first_traced_ = std::move(rep);
    }
    return b;
  }

  /// run_fuzz returns no per-case clock, so after every batch the next
  /// slice of the grid's cases is timed one by one — generate_case, then
  /// run_case — on this thread.  Slicing spreads the sample over the run.
  std::vector<double> cell_latencies() override {
    std::vector<double> ms;
    const auto& cells = first_->cells;
    for (std::size_t i = 0; i < opts_.sizes.latency_cases; ++i) {
      const auto& cell = cells[next_case_++ % cells.size()];
      const auto t0 = Clock::now();
      const auto c = conformance::generate_case(cell.derived_seed);
      const auto t1 = Clock::now();
      const auto outcome = conformance::run_case(c);
      const auto t2 = Clock::now();
      if (outcome.diverged) ++sample_divergences_;
      gen_us_.push_back(std::chrono::duration<double, std::micro>(t1 - t0).count());
      run_us_.push_back(std::chrono::duration<double, std::micro>(t2 - t1).count());
      ms.push_back(std::chrono::duration<double, std::milli>(t2 - t0).count());
    }
    return ms;
  }

  void check(Outcome& out) const override {
    out.failures.insert(out.failures.end(), failures_.begin(), failures_.end());
    if (sample_divergences_ != 0) {
      out.failures.push_back(std::to_string(sample_divergences_) +
                             " divergences in the latency sample");
    }
  }

  void per_layer(std::map<std::string, double>& m) override {
    for (const auto& def : per_layer_metrics()) m[std::string{def.name}] = 0.0;
    const auto& r = first_traced_ ? *first_traced_ : *first_;
    m["conformance.generate_us_per_case"] = mean(gen_us_);
    m["conformance.run_case_us_p50"] = median(run_us_);
    m["conformance.wire_bits_compared"] =
        static_cast<double>(r.wire_bits_compared);
    m["conformance.oracle_checked"] = static_cast<double>(r.oracle_checked);

    const double batches = static_cast<double>(std::max<std::size_t>(batches_, 1));
    m["runner.serialize_ms"] = serialize_ms_ / batches;
    std::vector<const runner::FuzzCellResult*> cells;
    for (const auto& c : r.cells) cells.push_back(&c);
    const auto codec = codec_cost(
        cells,
        [](const runner::FuzzCellResult& c) { return runner::encode_fuzz_cell(c); },
        [](std::string_view b, runner::FuzzCellResult& c) {
          return runner::decode_fuzz_cell(b, c);
        },
        opts_.sizes.calibration_reps);
    note_codec(codec, failures_);
    m["runner.encode_us_per_cell"] = codec.encode_us;
    m["runner.decode_us_per_cell"] = codec.decode_us;
    m["runner.cell_bytes"] = codec.bytes;
    m["runner.pool_efficiency"] =
        ratio(compute_ms_, run_ms_ * static_cast<double>(kJobs));
    // A case's compute span covers generate_case + run_case.
    const double covered = cases_ * (mean(gen_us_) + mean(run_us_)) / 1e3;
    m["trace.residual_pct"] = 100.0 * ratio(compute_ms_ - covered, compute_ms_);
  }

  void describe(std::vector<std::string>& notes) const override {
    if (!first_) return;
    notes.push_back("fuzz: " + std::to_string(first_->cases) +
                    " cases per batch over streams [" +
                    std::to_string(first_->seeds.begin) + ", " +
                    std::to_string(first_->seeds.end) + "), base seed " +
                    std::to_string(first_->base_seed) + ", shrink on, jobs " +
                    std::to_string(kJobs));
  }

 private:
  Options opts_;
  runner::FuzzConfig cfg_;
  std::vector<std::string> failures_;
  std::optional<runner::FuzzReport> first_;
  std::optional<runner::FuzzReport> first_traced_;
  std::vector<double> gen_us_;
  std::vector<double> run_us_;
  std::uint64_t sample_divergences_{0};
  std::size_t next_case_{0};
  std::size_t batches_{0};
  double run_ms_{0};
  double serialize_ms_{0};
  double compute_ms_{0};
  double cases_{0};
};

std::unique_ptr<Workload> make_workload(const Options& opts) {
  using K = GridWorkload::Kind;
  if (opts.workload == "paper-campaign") {
    return std::make_unique<GridWorkload>(K::Paper, opts);
  }
  if (opts.workload == "fault-sweep") {
    return std::make_unique<GridWorkload>(K::Sweep, opts);
  }
  if (opts.workload == "warm-replay") {
    return std::make_unique<GridWorkload>(K::Replay, opts);
  }
  if (opts.workload == "fuzz") return std::make_unique<FuzzWorkload>(opts);
  throw std::invalid_argument("unknown workload: " + opts.workload);
}

std::string latency_note(const std::vector<double>& cell_ms,
                         const Tail& tail) {
  return "cell latency over " + std::to_string(cell_ms.size()) +
         " untraced cells: p50 = " + std::to_string(median(cell_ms)) +
         " ms, p" + std::to_string(static_cast<int>(tail.pct)) + " (" +
         std::to_string(tail.beyond) + " samples beyond it) = " +
         std::to_string(tail.value) + " ms";
}

struct Phase {
  std::vector<double> plain_s;   // wall of each untraced batch
  std::vector<double> traced_s;  // wall of each traced batch
  // Ticks the hypervisor stole from the machine during each batch.
  std::vector<double> plain_stolen;
  std::vector<double> traced_stolen;
  // Per-cell latency of the untraced batches, kept in traced runs only: a
  // sample kept over a plain run would grow its peak RSS, an end-to-end
  // metric, with the batch count.
  std::vector<double> cell_ms;
  std::uint64_t plain_cells{};
};

/// Whole batches until `seconds` have passed, each checked against the
/// reference report.  With `trace`, untraced and traced batches alternate,
/// so both sets see the same host drift; otherwise none is traced.  At
/// least three batches of each kind run, so medians exist.
Phase timed_phase(Workload& w, bool trace, double seconds,
                  std::string& reference, Outcome& out) {
  Phase ph;
  std::size_t mismatches = 0;
  const auto start = Clock::now();
  for (std::size_t i = 0;; ++i) {
    const bool enough =
        ph.plain_s.size() >= 3 && (!trace || ph.traced_s.size() >= 3);
    if (enough && seconds_since(start) >= seconds) break;
    const bool traced = trace && i % 2 == 1;
    const std::uint64_t stolen0 = steal_ticks();
    const auto t0 = Clock::now();
    Batch b = w.batch(traced);
    (traced ? ph.traced_s : ph.plain_s).push_back(seconds_since(t0));
    (traced ? ph.traced_stolen : ph.plain_stolen)
        .push_back(static_cast<double>(steal_ticks() - stolen0));
    if (reference.empty()) reference = b.report_json;
    if (b.report_json != reference) ++mismatches;
    out.attempted += b.cells;
    out.failed += b.failed;
    const auto cell_ms = w.cell_latencies();
    if (traced) continue;
    ph.plain_cells += b.cells;
    if (trace) ph.cell_ms.insert(ph.cell_ms.end(), cell_ms.begin(), cell_ms.end());
  }
  if (mismatches != 0) {
    out.failures.push_back(
        std::to_string(mismatches) + " of " +
        std::to_string(ph.plain_s.size() + ph.traced_s.size()) +
        " batches differ from the reference report");
  }
  return ph;
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names{"paper-campaign", "fault-sweep",
                                              "fuzz", "warm-replay"};
  return names;
}

Outcome run_workload(const Options& opts) {
  Outcome out;
  auto w = make_workload(opts);

  const auto& sz = opts.sizes;
  std::vector<double> setup_s;
  double setup_total = 0.0;
  do {
    const auto t0 = Clock::now();
    w->setup(opts.trace);
    setup_s.push_back(seconds_since(t0));
    setup_total += setup_s.back();
  } while (!opts.trace &&
           (setup_s.size() < static_cast<std::size_t>(sz.setup_reps) ||
            setup_total < sz.setup_seconds));

  // Traced batches run with the runner's span collector and, on
  // warm-replay, the timing store attached; their deterministic report must
  // not change (telemetry neutrality), which the reference comparison
  // checks.
  std::string reference = w->reference_json();
  const Phase ph = timed_phase(*w, opts.trace, opts.seconds, reference, out);
  const double wall = calm_median(ph.plain_s, ph.plain_stolen);
  if (opts.trace) {
    w->per_layer(out.metrics);
    const Tail tail = tail_percentile(ph.cell_ms);
    out.notes.push_back(latency_note(ph.cell_ms, tail));
    // Cell latency is reported here, not end to end: on a shared 4-vCPU
    // host it spreads more than the batch wall (README, "Host noise").
    out.metrics["runner.cell_ms_p50"] = median(ph.cell_ms);
    out.metrics["runner.cell_ms_p99"] = tail.value;
    out.metrics["trace.overhead_pct"] =
        100.0 * (calm_median(ph.traced_s, ph.traced_stolen) - wall) / wall;
  } else {
    // Medians over the calm half of the batches: a stretch of host noise
    // moves one batch, not the figure, and batches during which the
    // hypervisor took CPU time from the machine are left out.
    const double batch_cells = static_cast<double>(ph.plain_cells) /
                               static_cast<double>(ph.plain_s.size());
    out.metrics["setup_s"] = median(setup_s);
    out.metrics["wall_s"] = wall;
    out.metrics["cells_per_s"] = batch_cells / wall;
    out.metrics["peak_rss_mb"] = peak_rss_mb();
  }
  w->check(out);
  // Every failed output check counts as one failed unit of work.
  out.failed = std::min(out.attempted, out.failed + out.failures.size());
  w->describe(out.notes);
  out.notes.push_back("set-up: median of " + std::to_string(setup_s.size()) +
                      " runs");
  out.notes.push_back(std::to_string(ph.plain_s.size()) + " untraced batches (" +
                      std::to_string(ph.plain_cells) + " cells), " +
                      std::to_string(ph.traced_s.size()) + " traced");
  return out;
}

}  // namespace perfbench
