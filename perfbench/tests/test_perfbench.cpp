// Unit tests of the benchmark's own plumbing plus a tiny-size smoke run of
// every workload, traced and untraced.  The metric-name grammar, caps and
// uniqueness are checked against BENCHMARK.json by test_benchmark_json.py.
#include <gtest/gtest.h>

#include <filesystem>
#include <numeric>
#include <string>
#include <vector>

#include "harness.hpp"
#include "runner/cell_store.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

std::vector<double> one_to(std::size_t n) {
  std::vector<double> xs(n);
  std::iota(xs.begin(), xs.end(), 1.0);
  return xs;
}

TEST(Percentile, NearestRank) {
  EXPECT_EQ(median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_EQ(percentile(one_to(100), 99.0), 99.0);
  EXPECT_EQ(percentile(one_to(100), 100.0), 100.0);
  EXPECT_EQ(percentile({}, 50.0), 0.0);
}

TEST(TailPercentile, P99NeedsTenSamplesBeyond) {
  const Tail t = tail_percentile(one_to(1000));
  EXPECT_EQ(t.pct, 99.0);
  EXPECT_EQ(t.value, 990.0);
  EXPECT_EQ(t.samples, 1000u);
  EXPECT_EQ(t.beyond, 10u);
}

TEST(TailPercentile, FallsBackWhenTheTailIsThin) {
  // 999 samples leave only 9 beyond p99; p95 leaves 49.
  const Tail t = tail_percentile(one_to(999));
  EXPECT_EQ(t.pct, 95.0);
  EXPECT_EQ(t.value, 950.0);
  EXPECT_EQ(t.beyond, 49u);

  const Tail small = tail_percentile(one_to(25));
  EXPECT_EQ(small.pct, 50.0);
  EXPECT_EQ(small.beyond, 12u);

  const Tail none = tail_percentile(one_to(15));
  EXPECT_EQ(none.pct, 0.0);
  EXPECT_EQ(none.samples, 15u);
}

TEST(CalmMedian, LeavesOutTheMostStolenHalf) {
  // Two batches lost time to the hypervisor; the calm ones give the median.
  EXPECT_EQ(calm_median({1.0, 2.0, 3.0, 10.0, 9.0}, {0, 0, 0, 2, 1}), 2.0);
  // Rates, not counts: one tick over 10 s is calmer than one over 1 s.
  EXPECT_EQ(calm_median({1.0, 10.0, 11.0}, {1, 1, 1}), 10.0);
  // Nothing stolen, or no steal counter: every sample counts.
  EXPECT_EQ(calm_median({4.0, 1.0, 2.0, 3.0, 5.0}, {0, 0, 0, 0, 0}), 3.0);
  EXPECT_EQ(calm_median({}, {}), 0.0);
}

TEST(ResultLine, NeedsEveryMetric) {
  const std::vector<MetricDef> defs{{"a", "s"}, {"b", "ms"}};
  EXPECT_EQ(result_line(true, 3, 0, defs, {{"a", 1.5}, {"b", 0.25}}),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": "
            "{\"a\": {\"value\": 1.5, \"unit\": \"s\"}, \"b\": {\"value\": "
            "0.25, \"unit\": \"ms\"}}}");
  EXPECT_THROW((void)result_line(true, 1, 0, defs, {{"a", 1.0}}),
               std::logic_error);
}

TEST(TimingStore, PassesBytesAndStatsThrough) {
  mcan::runner::MemoryStore inner;
  TimingStore timed{inner};
  mcan::runner::CellKey k1;
  k1.spec_hash = 1;
  k1.seed = 2;
  mcan::runner::CellKey k2 = k1;
  k2.seed = 3;
  const std::string payload("cell\0bytes\xff", 11);

  timed.store(k1, payload);
  EXPECT_EQ(timed.fetch(k1), std::optional<std::string>{payload});
  EXPECT_EQ(timed.fetch(k2), std::nullopt);

  const auto a = timed.stats();
  const auto b = inner.stats();
  EXPECT_EQ(a.hits, b.hits);
  EXPECT_EQ(a.misses, b.misses);
  EXPECT_EQ(a.stores, b.stores);
  EXPECT_EQ(a.bytes, b.bytes);
  EXPECT_EQ(a.entries, b.entries);
  EXPECT_EQ(b.hits, 1u);
  EXPECT_EQ(b.misses, 1u);

  const auto s = timed.take();
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.fetch_us.size(), 2u);
  EXPECT_EQ(s.store_us.size(), 1u);
  EXPECT_TRUE(timed.take().fetch_us.empty());  // take() drains
}

class Smoke : public ::testing::TestWithParam<std::tuple<std::string, bool>> {};

TEST_P(Smoke, TinyRunIsCorrectAndComplete) {
  Options o;
  o.workload = std::get<0>(GetParam());
  o.trace = std::get<1>(GetParam());
  o.seed = 3;
  o.seconds = 0.01;
  o.work_dir = std::filesystem::current_path() / "smoke-work";
  std::filesystem::remove_all(o.work_dir);
  std::filesystem::create_directory(o.work_dir);
  o.sizes = {1, 1, 40, 1, 20, 1, 0.0, 1};
  const Outcome out = run_workload(o);
  for (const auto& f : out.failures) ADD_FAILURE() << f;
  EXPECT_TRUE(out.correct());
  EXPECT_GT(out.attempted, 0u);
  const auto& defs = o.trace ? per_layer_metrics() : end_to_end_metrics();
  EXPECT_NO_THROW((void)result_line(true, out.attempted, out.failed, defs,
                                    out.metrics));
  if (!o.trace) {
    EXPECT_GT(out.metrics.at("setup_s"), 0.0);
    EXPECT_GT(out.metrics.at("cells_per_s"), 0.0);
  } else {
    EXPECT_EQ(out.metrics.at("can.batch_ratio"), 0.0);
  }
  // The warm-replay store lives in the work dir only while the run lasts.
  EXPECT_TRUE(std::filesystem::is_empty(o.work_dir));
  std::filesystem::remove_all(o.work_dir);
}

INSTANTIATE_TEST_SUITE_P(
    Workloads, Smoke,
    ::testing::Combine(::testing::Values("paper-campaign", "fault-sweep",
                                         "fuzz", "warm-replay"),
                       ::testing::Bool()),
    [](const auto& param_info) {
      std::string name = std::get<0>(param_info.param) +
                         (std::get<1>(param_info.param) ? "_traced" : "_plain");
      for (auto& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

}  // namespace
