// Process-sharded fleet campaigns: seed-range partitioning, the
// store-centric merge's shard-count independence, checkpoint manifest
// round-trips, and warm-cache resume accounting.
//
// The fork/exec layer is exercised end-to-end by the CI fleet-smoke job
// (K=1 vs K=4 `cmp`, SIGKILL + resume); these tests pin the in-process
// invariants that make that job deterministic: run_fleet_shard over a
// shared store followed by a full-range run_campaign pass reproduces the
// direct single-process report byte-for-byte, and a resumed run replays
// every finished cell as a cache hit.
#include "runner/fleet.hpp"

#include <gtest/gtest.h>

#include <set>
#include <stdexcept>

#include "runner/cell_store.hpp"
#include "runner/report.hpp"
#include "runner/schemas.hpp"

namespace mcan {
namespace {

using runner::CheckpointManifest;
using runner::FleetConfig;
using runner::SeedRange;

FleetConfig small_fleet() {
  FleetConfig cfg;
  cfg.scenarios = {"exp2", "gw-spoof"};
  cfg.vehicles = 4;
  cfg.shards = 3;
  cfg.jobs = 1;
  cfg.duration_ms = 40;  // keep each cell cheap; override applies to both
  return cfg;
}

std::string deterministic_json(const runner::CampaignReport& report) {
  return runner::to_json(report);  // include_runtime=false by default
}

TEST(ShardSeedRange, PartitionsExactlyAndBalanced) {
  const struct {
    std::uint64_t vehicles;
    std::size_t shards;
  } cases[] = {{10, 3}, {7, 7}, {5, 1}, {1000, 16}, {4, 4}, {3, 8}};
  for (const auto& c : cases) {
    std::uint64_t covered = 0;
    std::uint64_t next = 0;
    std::uint64_t min_size = c.vehicles + 1;
    std::uint64_t max_size = 0;
    for (std::size_t k = 0; k < c.shards; ++k) {
      const SeedRange r = runner::shard_seed_range(c.vehicles, c.shards, k);
      // Contiguous: each shard starts exactly where the previous ended.
      EXPECT_EQ(r.begin, next) << "vehicles=" << c.vehicles << " k=" << k;
      EXPECT_GE(r.end, r.begin);
      next = r.end;
      covered += r.size();
      min_size = std::min<std::uint64_t>(min_size, r.size());
      max_size = std::max<std::uint64_t>(max_size, r.size());
    }
    EXPECT_EQ(next, c.vehicles);
    EXPECT_EQ(covered, c.vehicles);
    // Balanced to within one seed (some shards may be empty only when
    // shards > vehicles).
    EXPECT_LE(max_size - min_size, 1u);
  }
}

TEST(ShardSeedRange, RejectsBadArguments) {
  EXPECT_THROW((void)runner::shard_seed_range(10, 0, 0),
               std::invalid_argument);
  EXPECT_THROW((void)runner::shard_seed_range(10, 3, 3),
               std::invalid_argument);
  EXPECT_THROW((void)runner::shard_seed_range(10, 3, 7),
               std::invalid_argument);
}

TEST(FleetCampaign, ResolvesScenariosAndAppliesOverrides) {
  FleetConfig cfg = small_fleet();
  cfg.fast_path = false;
  const auto cc = runner::fleet_campaign(cfg);
  ASSERT_EQ(cc.specs.size(), 2u);
  EXPECT_DOUBLE_EQ(cc.specs[0].duration.value(), 40.0);
  EXPECT_DOUBLE_EQ(cc.specs[1].duration.value(), 40.0);
  EXPECT_FALSE(cc.specs[0].fast_path);
  EXPECT_EQ(cc.specs[1].topology.buses, 2u);
  EXPECT_EQ(cc.seeds.begin, 0u);
  EXPECT_EQ(cc.seeds.end, cfg.vehicles);
  EXPECT_EQ(cc.base_seed, cfg.base_seed);
}

TEST(FleetCampaign, RejectsUnusableConfigs) {
  {
    FleetConfig cfg = small_fleet();
    cfg.vehicles = 0;
    EXPECT_THROW(runner::fleet_campaign(cfg), std::invalid_argument);
  }
  {
    FleetConfig cfg = small_fleet();
    cfg.scenarios.clear();
    EXPECT_THROW(runner::fleet_campaign(cfg), std::invalid_argument);
  }
  {
    FleetConfig cfg = small_fleet();
    cfg.scenarios = {"no-such-scenario"};
    EXPECT_THROW(runner::fleet_campaign(cfg), std::invalid_argument);
  }
}

/// The heart of the design: shards only decide who *computes* each cell.
/// Running every shard into one store and then re-running the full plan
/// against that store must reproduce the direct single-process report
/// byte-for-byte, with the merge pass replaying every cell as a hit.
TEST(FleetMerge, ShardedComputeThenMergeMatchesDirectRun) {
  const FleetConfig cfg = small_fleet();

  // Direct reference: the full plan, no store.
  const auto direct = runner::run_campaign(runner::fleet_campaign(cfg));
  const std::string want = deterministic_json(direct);

  // Sharded compute: each shard covers its sub-range against one store.
  runner::MemoryStore store;
  std::size_t sharded_cells = 0;
  for (std::size_t k = 0; k < cfg.shards; ++k) {
    const auto shard = runner::run_fleet_shard(cfg, k, &store);
    EXPECT_EQ(shard.cache_hits, 0u) << "shard " << k;
    sharded_cells += shard.tasks.size();
  }
  const auto plan = runner::plan_campaign(runner::fleet_campaign(cfg));
  EXPECT_EQ(sharded_cells, plan.size());

  // Merge: full-range pass over the warm store.
  auto merge_cfg = runner::fleet_campaign(cfg);
  merge_cfg.cells = &store;
  const auto merged = runner::run_campaign(merge_cfg);
  EXPECT_EQ(merged.cache_hits, plan.size());
  EXPECT_EQ(merged.cache_misses, 0u);
  EXPECT_EQ(deterministic_json(merged), want);
}

/// Kill-then-resume equivalence, modeled in-process: a "crashed" shard
/// leaves its cells uncomputed, and the merge pass recomputes exactly
/// those — the report is still byte-identical to the direct run.
TEST(FleetMerge, MergeRecomputesCellsACrashedShardLeftBehind) {
  const FleetConfig cfg = small_fleet();
  const auto direct = runner::run_campaign(runner::fleet_campaign(cfg));
  const std::string want = deterministic_json(direct);

  runner::MemoryStore store;
  std::size_t computed = 0;
  for (std::size_t k = 0; k < cfg.shards; ++k) {
    if (k == 1) continue;  // shard 1 "was SIGKILLed before finishing"
    computed += runner::run_fleet_shard(cfg, k, &store).tasks.size();
  }

  auto merge_cfg = runner::fleet_campaign(cfg);
  merge_cfg.cells = &store;
  const auto merged = runner::run_campaign(merge_cfg);
  const auto plan = runner::plan_campaign(runner::fleet_campaign(cfg));
  EXPECT_EQ(merged.cache_hits, computed);
  EXPECT_EQ(merged.cache_misses, plan.size() - computed);
  EXPECT_EQ(deterministic_json(merged), want);
}

/// Resume accounting: a second full pass over the store left by a finished
/// run replays 100% of the plan from cache.
TEST(FleetMerge, WarmStoreReplaysEveryCell) {
  const FleetConfig cfg = small_fleet();
  runner::MemoryStore store;

  auto cc = runner::fleet_campaign(cfg);
  cc.cells = &store;
  const auto cold = runner::run_campaign(cc);
  const auto plan = runner::plan_campaign(runner::fleet_campaign(cfg));
  EXPECT_EQ(cold.cache_misses, plan.size());

  const auto warm = runner::run_campaign(cc);
  EXPECT_EQ(warm.cache_hits, plan.size());
  EXPECT_EQ(warm.cache_misses, 0u);
  EXPECT_EQ(deterministic_json(warm), deterministic_json(cold));
}

TEST(Checkpoint, ManifestRoundTripsThroughJson) {
  CheckpointManifest m;
  m.plan_hash = 0x0123456789abcdefull;
  m.total = 12;
  m.done = {"aa-bb-michican-cell-v1", "cc-dd-michican-cell-v1"};

  const std::string text = m.to_json();
  EXPECT_NE(text.find(runner::kFleetCheckpointSchema), std::string::npos);

  const auto parsed = runner::parse_checkpoint(text);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->plan_hash, m.plan_hash);
  EXPECT_EQ(parsed->total, m.total);
  EXPECT_EQ(parsed->done, m.done);
}

TEST(Checkpoint, ParseRejectsForeignDocuments) {
  EXPECT_FALSE(runner::parse_checkpoint("").has_value());
  EXPECT_FALSE(runner::parse_checkpoint("not json at all").has_value());
  EXPECT_FALSE(
      runner::parse_checkpoint(R"({"schema":"michican.campaign.v1"})")
          .has_value());
  // Right schema, mangled hash field.
  EXPECT_FALSE(runner::parse_checkpoint(
                   R"({"schema":"michican.fleet-checkpoint.v1",)"
                   R"("plan_hash":"xyz","total":1,"done":[]})")
                   .has_value());
  // Hash longer than 16 nibbles.
  EXPECT_FALSE(runner::parse_checkpoint(
                   R"({"schema":"michican.fleet-checkpoint.v1",)"
                   R"("plan_hash":"00112233445566778899","total":1,"done":[]})")
                   .has_value());
}

/// The plan hash names the *work* — scenarios, vehicles, base seed, spec
/// content — never the execution shape (shards, jobs), so resuming with a
/// different worker count is legal by construction.
TEST(Checkpoint, PlanHashCoversWorkDefinitionOnly) {
  const FleetConfig base = small_fleet();
  const auto h = runner::fleet_plan_hash(base);

  {
    FleetConfig cfg = base;
    cfg.shards = 16;
    cfg.jobs = 8;
    EXPECT_EQ(runner::fleet_plan_hash(cfg), h);
  }
  {
    FleetConfig cfg = base;
    cfg.fast_path = false;  // the engine toggle is equivalence-gated
    EXPECT_EQ(runner::fleet_plan_hash(cfg), h);
  }
  {
    FleetConfig cfg = base;
    cfg.vehicles += 1;
    EXPECT_NE(runner::fleet_plan_hash(cfg), h);
  }
  {
    FleetConfig cfg = base;
    cfg.base_seed += 1;
    EXPECT_NE(runner::fleet_plan_hash(cfg), h);
  }
  {
    FleetConfig cfg = base;
    cfg.scenarios = {"exp2"};
    EXPECT_NE(runner::fleet_plan_hash(cfg), h);
  }
  {
    FleetConfig cfg = base;
    cfg.duration_ms = 80;  // folded in via the resolved spec fingerprints
    EXPECT_NE(runner::fleet_plan_hash(cfg), h);
  }
}

}  // namespace
}  // namespace mcan
