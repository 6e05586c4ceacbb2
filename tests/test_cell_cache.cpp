// The CellStore seam: cache-key fingerprints, the cell codec, cold-vs-warm
// byte identity through run_campaign()/run_fuzz(), resume from a partly
// filled DiskStore, and DiskStore pathologies (corruption, torn files,
// engine-version invalidation).
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include <unistd.h>

#include "analysis/scenarios.hpp"
#include "runner/campaign.hpp"
#include "runner/cell_codec.hpp"
#include "runner/cell_store.hpp"
#include "runner/fuzz.hpp"
#include "runner/report.hpp"
#include "serve/disk_store.hpp"

namespace {

using namespace mcan;
namespace fs = std::filesystem;

analysis::ExperimentSpec small_spec() {
  auto spec = analysis::ScenarioRegistry::built_in().make("4");
  spec.duration = sim::Millis{200};
  return spec;
}

runner::CampaignConfig small_campaign(runner::CellStore* cells = nullptr) {
  runner::CampaignConfig cfg;
  cfg.specs = {small_spec()};
  cfg.seeds = {0, 3};
  cfg.jobs = 2;
  cfg.cells = cells;
  return cfg;
}

runner::FuzzConfig small_fuzz(runner::CellStore* cells = nullptr) {
  runner::FuzzConfig cfg;
  cfg.cases = 24;
  cfg.seeds = {0, 4};
  cfg.jobs = 2;
  cfg.cells = cells;
  return cfg;
}

/// Unique scratch directory under the system temp dir.
fs::path scratch_dir(const std::string& tag) {
  const auto dir = fs::temp_directory_path() /
                   ("michican_" + tag + "_" + std::to_string(::getpid()));
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

// ---------------------------------------------------------------- keys --

TEST(CellKey, FingerprintIsStableAcrossCalls) {
  const auto a = runner::spec_fingerprint(small_spec());
  const auto b = runner::spec_fingerprint(small_spec());
  EXPECT_EQ(a, b);
}

TEST(CellKey, FingerprintExcludesSeedAndEngineToggles) {
  auto spec = small_spec();
  const auto base = runner::spec_fingerprint(spec);
  spec.seed = 12345;  // keyed separately as the derived seed
  EXPECT_EQ(base, runner::spec_fingerprint(spec));
  spec.fast_path = !spec.fast_path;  // equivalence-gated: same result
  spec.capture_timeline = true;
  EXPECT_EQ(base, runner::spec_fingerprint(spec));
}

TEST(CellKey, FingerprintSeesSemanticFields) {
  auto spec = small_spec();
  const auto base = runner::spec_fingerprint(spec);
  spec.duration = sim::Millis{spec.duration.value() + 1};
  const auto longer = runner::spec_fingerprint(spec);
  EXPECT_NE(base, longer);
  spec = small_spec();
  spec.defense_enabled = !spec.defense_enabled;
  EXPECT_NE(base, runner::spec_fingerprint(spec));
  spec = small_spec();
  spec.fault.bit_error_rate = 1e-4;
  EXPECT_NE(base, runner::spec_fingerprint(spec));
}

TEST(CellKey, IdEncodesEveryComponent) {
  runner::CellKey key;
  key.spec_hash = 0xABCDEF;
  key.seed = 42;
  const auto id = key.id();
  EXPECT_NE(id.find("0000000000abcdef"), std::string::npos);
  EXPECT_NE(id.find("000000000000002a"), std::string::npos);
  EXPECT_NE(id.find(runner::kEngineVersion), std::string::npos);

  auto other = key;
  other.engine = "michican-cell-v999";
  EXPECT_NE(id, other.id());
}

// --------------------------------------------------------------- codec --

TEST(CellCodec, RoundTripsARealExperimentResult) {
  auto cfg = small_campaign();
  const auto res = runner::rerun_cell(cfg, 0, 0);
  const auto bytes = runner::encode_cell(res);
  analysis::ExperimentResult decoded;
  ASSERT_TRUE(runner::decode_cell(bytes, decoded));
  // Re-encoding the decoded result must reproduce the exact bytes — the
  // codec covers every field the aggregation reads, losslessly.
  EXPECT_EQ(bytes, runner::encode_cell(decoded));
  EXPECT_EQ(res.counterattacks, decoded.counterattacks);
  EXPECT_EQ(res.defender_tec, decoded.defender_tec);
  EXPECT_EQ(res.attackers.size(), decoded.attackers.size());
}

TEST(CellCodec, RejectsTruncatedAndGarbageBytes) {
  const auto res = runner::rerun_cell(small_campaign(), 0, 0);
  const auto bytes = runner::encode_cell(res);
  analysis::ExperimentResult out;
  for (const auto cut : {std::size_t{0}, std::size_t{3}, bytes.size() / 2,
                         bytes.size() - 1}) {
    EXPECT_FALSE(runner::decode_cell(bytes.substr(0, cut), out));
  }
  EXPECT_FALSE(runner::decode_cell("not a cell at all", out));
  EXPECT_FALSE(runner::decode_cell(bytes + "trailing", out));
}

TEST(CellCodec, RoundTripsFuzzCells) {
  runner::FuzzCellResult cell;
  cell.kind = conformance::CaseKind::Noisy;
  cell.diverged = true;
  cell.divergence = "wire bit 17 mismatch";
  cell.stats.oracle_checked = true;
  cell.stats.frames_on_wire = 3;
  cell.stats.wire_bits_compared = 321;
  const auto bytes = runner::encode_fuzz_cell(cell);
  runner::FuzzCellResult out;
  ASSERT_TRUE(runner::decode_fuzz_cell(bytes, out));
  EXPECT_EQ(out.kind, cell.kind);
  EXPECT_TRUE(out.diverged);
  EXPECT_EQ(out.divergence, cell.divergence);
  EXPECT_EQ(out.stats.wire_bits_compared, 321u);
  EXPECT_FALSE(runner::decode_fuzz_cell(bytes.substr(0, 8), out));
}

// ---------------------------------------------------- campaign caching --

TEST(CampaignCache, WarmRerunIsByteIdenticalAndAllHits) {
  runner::MemoryStore store;
  auto cfg = small_campaign(&store);

  const auto cold = runner::run_campaign(cfg);
  EXPECT_EQ(cold.cache_hits, 0u);
  EXPECT_EQ(cold.cache_misses, cold.tasks.size());

  const auto warm = runner::run_campaign(cfg);
  EXPECT_EQ(warm.cache_hits, warm.tasks.size());
  EXPECT_EQ(warm.cache_misses, 0u);
  for (const auto& t : warm.tasks) EXPECT_TRUE(t.cached);

  // Deterministic report section: byte-for-byte equal, tasks included.
  EXPECT_EQ(runner::to_json(cold), runner::to_json(warm));
}

TEST(CampaignCache, NullStoreStillComputesEverything) {
  const auto rep = runner::run_campaign(small_campaign());
  EXPECT_FALSE(rep.cache_enabled);
  EXPECT_EQ(rep.cache_hits, 0u);
  EXPECT_EQ(rep.failed_tasks(), 0u);
}

TEST(CampaignCache, EngineVersionBumpInvalidatesEveryCell) {
  runner::MemoryStore store;
  auto cfg = small_campaign(&store);
  (void)runner::run_campaign(cfg);
  ASSERT_GT(store.stats().stores, 0u);

  // A changed engine string addresses a disjoint key space: every fetch of
  // the planned cells under the new version misses.
  for (const auto& cell : runner::plan_campaign(cfg)) {
    auto bumped = cell.key;
    bumped.engine = "michican-cell-v999";
    EXPECT_FALSE(store.fetch(bumped).has_value());
    EXPECT_TRUE(store.fetch(cell.key).has_value());
  }
}

/// Overwrite one cached cell with bytes that hash fine at the store layer
/// but fail to decode: the runner must count it corrupt, recompute it, and
/// still land on the identical report.  `key_of(cfg, cold)` names the cell.
template <class Config, class Run, class KeyOf>
void expect_decode_corrupt_entry_recomputed(Config cfg, Run run,
                                            KeyOf key_of) {
  runner::MemoryStore store;
  cfg.cells = &store;
  const auto cold = run(cfg);
  EXPECT_EQ(cold.cache_corrupt, 0u);
  store.store(key_of(cfg, cold), "not a cell payload");

  const auto warm = run(cfg);
  EXPECT_EQ(warm.cache_corrupt, 1u);
  EXPECT_EQ(warm.cache_misses, 1u);  // the corrupt probe is a miss
  EXPECT_EQ(warm.cache_hits, cold.cache_misses - 1);
  EXPECT_EQ(runner::to_json(cold), runner::to_json(warm));
}

TEST(CampaignCache, DecodeCorruptEntryIsCountedAndRecomputed) {
  expect_decode_corrupt_entry_recomputed(
      small_campaign(), runner::run_campaign,
      [](const runner::CampaignConfig& cfg, const runner::CampaignReport&) {
        return runner::plan_campaign(cfg).front().key;
      });
}

TEST(FuzzCache, DecodeCorruptEntryIsCountedAndRecomputed) {
  expect_decode_corrupt_entry_recomputed(
      small_fuzz(), runner::run_fuzz,
      [](const runner::FuzzConfig&, const runner::FuzzReport& cold) {
        runner::CellKey key;
        key.spec_hash = runner::fuzz_cell_fingerprint();
        key.seed = cold.cells.front().derived_seed;
        return key;
      });
}

TEST(FuzzCache, WarmRerunIsByteIdenticalAndAllHits) {
  runner::MemoryStore store;
  const auto cfg = small_fuzz(&store);

  const auto cold = runner::run_fuzz(cfg);
  EXPECT_EQ(cold.cache_misses, 24u);
  const auto warm = runner::run_fuzz(cfg);
  EXPECT_EQ(warm.cache_hits, 24u);
  EXPECT_EQ(warm.cache_misses, 0u);
  EXPECT_EQ(runner::to_json(cold, {}), runner::to_json(warm, {}));
}

// ----------------------------------------------------------- DiskStore --

TEST(DiskStore, PersistsAcrossInstances) {
  const auto dir = scratch_dir("persist");
  runner::CellKey key;
  key.spec_hash = 7;
  key.seed = 9;
  {
    serve::DiskStore store{dir};
    store.store(key, "hello cell");
    EXPECT_EQ(store.fetch(key).value_or(""), "hello cell");
  }
  serve::DiskStore reopened{dir};
  EXPECT_EQ(reopened.stats().entries, 1u);
  EXPECT_EQ(reopened.fetch(key).value_or(""), "hello cell");
  fs::remove_all(dir);
}

TEST(DiskStore, TruncatedEntryIsCorruptNotFatal) {
  const auto dir = scratch_dir("trunc");
  serve::DiskStore store{dir};
  runner::CellKey key;
  key.spec_hash = 1;
  store.store(key, std::string(256, 'x'));

  // Truncate the entry file mid-payload: the stored hash can no longer
  // verify, so the fetch must report a miss and discard the entry.
  const auto file = dir / (key.id() + ".cell");
  ASSERT_TRUE(fs::exists(file));
  fs::resize_file(file, fs::file_size(file) / 2);

  EXPECT_FALSE(store.fetch(key).has_value());
  EXPECT_EQ(store.stats().corrupt, 1u);
  EXPECT_FALSE(fs::exists(file));

  // Recompute-and-restore works after the discard.
  store.store(key, std::string(256, 'x'));
  EXPECT_TRUE(store.fetch(key).has_value());
  fs::remove_all(dir);
}

TEST(DiskStore, FlippedPayloadByteIsCorruptNotFatal) {
  const auto dir = scratch_dir("fliprot");
  serve::DiskStore store{dir};
  runner::CellKey key;
  key.spec_hash = 2;
  store.store(key, "payload-that-will-rot");

  const auto file = dir / (key.id() + ".cell");
  {
    std::fstream f{file, std::ios::in | std::ios::out | std::ios::binary};
    f.seekp(-3, std::ios::end);
    f.put('!');
  }
  EXPECT_FALSE(store.fetch(key).has_value());
  EXPECT_EQ(store.stats().corrupt, 1u);
  fs::remove_all(dir);
}

TEST(DiskStore, StartupSweepDropsAndCountsTornShortFiles) {
  const auto dir = scratch_dir("sweep");
  {
    serve::DiskStore store{dir};
    runner::CellKey key;
    key.spec_hash = 5;
    store.store(key, "survives the restart");
  }
  // A file too short to hold even a header is a torn write from a crash.
  const auto torn = dir / "torn-entry.cell";
  std::ofstream{torn, std::ios::binary} << "MCST";

  serve::DiskStore reopened{dir};
  const auto s = reopened.stats();
  EXPECT_EQ(s.corrupt, 1u);
  EXPECT_EQ(s.entries, 1u);  // only the valid entry was indexed
  EXPECT_FALSE(fs::exists(torn));
  fs::remove_all(dir);
}

TEST(DiskStore, DrivesAWarmCampaignLikeMemoryStore) {
  const auto dir = scratch_dir("campaign");
  serve::DiskStore store{dir};
  auto cfg = small_campaign(&store);
  const auto cold = runner::run_campaign(cfg);
  const auto warm = runner::run_campaign(cfg);
  EXPECT_EQ(warm.cache_hits, warm.tasks.size());
  EXPECT_EQ(runner::to_json(cold), runner::to_json(warm));
  fs::remove_all(dir);
}

TEST(CampaignCache, PartlyFilledDiskStoreResumesToTheUncachedReport) {
  const auto dir = scratch_dir("resume");
  auto cfg = small_campaign();
  cfg.seeds = {0, 8};
  const auto uncached = runner::to_json(runner::run_campaign(cfg));

  // First run: seeds 0..3 only, as a run killed part-way would leave the
  // directory — every finished cell stored, nothing else.
  std::uint64_t stored = 0;
  {
    serve::DiskStore store{dir};
    auto first = cfg;
    first.seeds = {0, 4};
    first.cells = &store;
    (void)runner::run_campaign(first);
    stored = store.stats().stores;
    EXPECT_EQ(stored, 4u);
  }

  // Second run over the reopened directory: the stored cells replay, the
  // rest compute, and the report is the one an uncached run writes.
  serve::DiskStore store{dir};
  auto second = cfg;
  second.cells = &store;
  const auto rep = runner::run_campaign(second);
  EXPECT_EQ(rep.cache_hits, stored);
  EXPECT_EQ(rep.cache_misses, rep.tasks.size() - stored);
  EXPECT_EQ(runner::to_json(rep), uncached);
  fs::remove_all(dir);
}

// ------------------------------------------------------- report writes --

TEST(ReportWrite, FailurePropagatesAsFalse) {
  const auto rep = runner::run_campaign(small_campaign());
  EXPECT_FALSE(runner::write_json_file(
      "/nonexistent_michican_dir/report.json", rep));
  // A full device only fails small buffered writes at flush time — the
  // exact bug class the flush-before-check fix covers.
  if (fs::exists("/dev/full")) {
    EXPECT_FALSE(runner::write_json_file("/dev/full", rep));
  }
  const auto ok_path = scratch_dir("report") / "report.json";
  EXPECT_TRUE(runner::write_json_file(ok_path.string(), rep));
  fs::remove_all(ok_path.parent_path());
}

}  // namespace
