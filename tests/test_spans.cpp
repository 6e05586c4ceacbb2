// Run tracing: span scopes record nested, parented spans, a null collector
// is free — and the invariant the layer hangs on: attaching a collector
// never changes a report's deterministic bytes.
#include <gtest/gtest.h>

#include <string>

#include "analysis/scenarios.hpp"
#include "obs/trace_context.hpp"
#include "runner/campaign.hpp"
#include "runner/fuzz.hpp"
#include "runner/report.hpp"

namespace {

using namespace mcan;

TEST(SpanCollector, ScopesRecordNestedSpansWithParentLinkage) {
  obs::SpanCollector spans{0xABCDull};
  std::uint64_t outer_id = 0;
  std::uint64_t inner_id = 0;
  {
    obs::SpanCollector::Scope outer{&spans, "plan", "service"};
    outer_id = outer.id();
    {
      obs::SpanCollector::Scope inner{&spans, "cell.compute", "cell",
                                      outer.id()};
      inner_id = inner.id();
    }
  }
  const auto recorded = spans.spans();  // snapshot copy
  ASSERT_EQ(recorded.size(), 2u);
  // Inner scope closed first, so it records first.
  const auto& inner = recorded[0];
  const auto& outer = recorded[1];
  EXPECT_EQ(inner.id, inner_id);
  EXPECT_EQ(inner.parent, outer_id);
  EXPECT_EQ(inner.name, "cell.compute");
  EXPECT_EQ(inner.category, "cell");
  EXPECT_EQ(outer.id, outer_id);
  EXPECT_EQ(outer.parent, 0u);
  EXPECT_GE(outer.dur_us, inner.dur_us);
}

TEST(SpanCollector, NullCollectorScopeIsANoOp) {
  obs::SpanCollector::Scope scope{nullptr, "plan", "service"};
  EXPECT_EQ(scope.id(), 0u);
}

analysis::ExperimentSpec tiny_spec() {
  auto spec = analysis::ScenarioRegistry::built_in().make("4");
  spec.duration = sim::Millis{200};
  return spec;
}

TEST(TelemetryNeutrality, CampaignReportBytesIgnoreSpans) {
  runner::CampaignConfig plain;
  plain.specs = {tiny_spec()};
  plain.seeds = {0, 2};
  plain.jobs = 2;
  const auto baseline = runner::to_json(runner::run_campaign(plain));

  obs::SpanCollector spans{0x5EEDull};
  auto traced = plain;
  traced.spans = &spans;
  EXPECT_EQ(runner::to_json(runner::run_campaign(traced)), baseline);
  EXPECT_FALSE(spans.spans().empty());  // telemetry actually ran
}

TEST(TelemetryNeutrality, FuzzReportBytesIgnoreSpans) {
  runner::FuzzConfig plain;
  plain.cases = 8;
  plain.seeds = {0, 2};
  plain.jobs = 2;
  const auto baseline = runner::to_json(runner::run_fuzz(plain), {});

  obs::SpanCollector spans{0xF00Dull};
  auto traced = plain;
  traced.spans = &spans;
  EXPECT_EQ(runner::to_json(runner::run_fuzz(traced), {}), baseline);
  EXPECT_FALSE(spans.spans().empty());
}

}  // namespace
