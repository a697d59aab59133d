// Warehouse tests: the rollup-vs-full-scan invariant on single, resumed and
// shard-merged stores, segment round-trip and CRC validation, idempotent and
// incremental compaction (byte-identical to one-shot), torn-segment
// recovery, and query rendering.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "store/checkpoint.hpp"
#include "store/merge.hpp"
#include "store/records.hpp"
#include "store/result_log.hpp"
#include "warehouse/compact.hpp"
#include "warehouse/query.hpp"
#include "warehouse/rollups.hpp"
#include "warehouse/segment.hpp"

using namespace gpf;

namespace {

class WarehouseTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("gpfwh-test-" + std::to_string(::getpid()) + "-" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string path(const std::string& name) const {
    return (dir_ / name).string();
  }

  static store::CampaignMeta gate_meta(std::uint32_t shard_index = 0,
                                       std::uint32_t shard_count = 1,
                                       std::uint64_t total = 120) {
    store::CampaignMeta m;
    m.kind = store::CampaignKind::Gate;
    m.target = 0;
    m.engine = 2;
    m.seed = 42;
    m.total = total;
    m.shard_index = shard_index;
    m.shard_count = shard_count;
    m.param0 = total;
    m.param1 = 50;
    return m;
  }

  /// Deterministic gate record covering every class and several nets/models.
  static std::vector<std::uint8_t> gate_payload(std::uint64_t id) {
    store::GateRecord r;
    r.net = static_cast<std::uint32_t>(id % 7);
    r.stuck_high = (id % 2) != 0;
    r.activated = (id % 3) != 0;
    r.hang = (id % 5) == 0 && r.activated;
    if (id % 3 == 1)
      r.error_counts[id % errmodel::kNumErrorModels] =
          static_cast<std::uint32_t>(id % 9 + 1);
    return store::encode(r);
  }

  static store::CampaignMeta perfi_meta(std::uint64_t total = 90) {
    store::CampaignMeta m;
    m.kind = store::CampaignKind::Perfi;
    m.model = 0;
    m.seed = 7;
    m.total = total;
    m.app = "mxm";
    return m;
  }

  static std::vector<std::uint8_t> perfi_payload(std::uint64_t id) {
    store::PerfiRecord r;
    r.outcome = static_cast<store::PerfiOutcome>(id % 7);
    return store::encode(r);
  }

  static store::CampaignMeta rtl_meta(std::uint64_t total = 40) {
    store::CampaignMeta m;
    m.kind = store::CampaignKind::Rtl;
    m.target = 1;
    m.seed = 9;
    m.total = total;
    m.param0 = 2;
    return m;
  }

  static std::vector<std::uint8_t> rtl_payload(std::uint64_t id) {
    store::RtlRecord r;
    r.outcome = static_cast<store::RtlOutcome>(id % 4);
    r.corrupted = static_cast<std::uint32_t>(id * 3 % 11);
    r.per_warp_corrupted = 0.125 * static_cast<double>(id % 8);
    for (std::uint64_t k = 0; k < id % 3; ++k)
      r.rel_errors.push_back(1e-3 * static_cast<double>(id + k));
    for (std::uint64_t k = 0; k < id % 4; ++k)
      r.corrupted_idx.push_back(static_cast<std::uint32_t>(id + k));
    return store::encode(r);
  }

  static std::vector<std::uint8_t> file_bytes(const std::string& p) {
    std::ifstream in(p, std::ios::binary);
    return std::vector<std::uint8_t>(std::istreambuf_iterator<char>(in),
                                     std::istreambuf_iterator<char>());
  }

  std::filesystem::path dir_;
};

TEST_F(WarehouseTest, RollupsMatchFullScanSingleGateStore) {
  const std::string p = path("gate.gpfs");
  {
    store::ResultLog log(p, gate_meta());
    for (std::uint64_t id = 0; id < 120; ++id) log.append(id, gate_payload(id));
  }
  const std::string seg = warehouse::warehouse_path_for(p);
  EXPECT_EQ(seg, path("gate.gpfw"));
  const warehouse::CompactStats st = warehouse::compact_stores({p}, seg);
  EXPECT_EQ(st.rows, 120u);
  EXPECT_EQ(st.fresh_records, 120u);
  EXPECT_TRUE(st.wrote);

  const warehouse::Footer f = warehouse::read_footer(seg);
  EXPECT_EQ(f.rows, 120u);
  // The invariant: footer rollups equal an independently coded full scan.
  const warehouse::Rollups ref = warehouse::compute_rollups(store::load_store(p));
  EXPECT_TRUE(ref == f.rollups);

  // Spot-check against first principles: every class tally sums to rows,
  // nets cover 0..6, syndrome_sum equals total error occurrences.
  std::uint64_t cls_sum = 0;
  for (const std::uint64_t c : f.rollups.gate_classes) cls_sum += c;
  EXPECT_EQ(cls_sum, 120u);
  EXPECT_EQ(f.rollups.nets.size(), 7u);
  std::uint64_t occ = 0;
  for (const std::uint64_t o : f.rollups.model_occurrences) occ += o;
  EXPECT_EQ(f.rollups.syndrome_sum, occ);
}

TEST_F(WarehouseTest, RollupsMatchFullScanOnFourShardMergedStore) {
  std::vector<std::string> shards;
  for (std::uint32_t s = 0; s < 4; ++s) {
    const std::string p = path("g-s" + std::to_string(s) + ".gpfs");
    store::ResultLog log(p, gate_meta(s, 4));
    for (std::uint64_t id = s; id < 120; id += 4)
      log.append(id, gate_payload(id));
    shards.push_back(p);
  }
  const std::string seg = path("g-merged.gpfw");
  const warehouse::CompactStats st = warehouse::compact_stores(shards, seg);
  EXPECT_EQ(st.rows, 120u);
  EXPECT_EQ(st.sources, 4u);

  // Reference: a real merged store, fully rescanned.
  const std::string merged = path("g-merged.gpfs");
  store::merge_store_files(shards, merged);
  const store::LoadedStore loaded = store::load_store(merged);
  const warehouse::Rollups ref = warehouse::compute_rollups(loaded);

  const warehouse::Footer f = warehouse::read_footer(seg);
  EXPECT_TRUE(ref == f.rollups);
  EXPECT_TRUE(f.meta == loaded.meta);
  ASSERT_EQ(f.sources.size(), 4u);
  for (const warehouse::SourceTally& t : f.sources) {
    EXPECT_EQ(t.shard_count, 4u);
    EXPECT_EQ(t.rows, 30u);
    EXPECT_EQ(t.scanned_records, 30u);
  }
}

// Batching changes no byte on disk: the same records appended one per call
// and in batches of mixed sizes give identical .gpfs files, and so
// identical .gpfw segments, for every record kind.
TEST_F(WarehouseTest, BatchedAppendsWriteTheSameStoreAndSegmentBytes) {
  struct Kind {
    const char* name;
    store::CampaignMeta meta;
    std::vector<std::uint8_t> (*payload)(std::uint64_t);
  };
  const Kind kinds[] = {{"gate", gate_meta(), gate_payload},
                        {"perfi", perfi_meta(), perfi_payload},
                        {"rtl", rtl_meta(), rtl_payload}};
  for (const Kind& k : kinds) {
    const std::uint64_t n = k.meta.total;
    const std::string one = path(std::string(k.name) + "-one.gpfs");
    const std::string batched = path(std::string(k.name) + "-batch.gpfs");
    {
      store::ResultLog log(one, k.meta);
      for (std::uint64_t id = 0; id < n; ++id) log.append(id, k.payload(id));
    }
    {
      store::CampaignCheckpoint ckpt(batched, k.meta);
      std::uint64_t id = 0;
      for (const std::uint64_t size : {std::uint64_t{1}, std::uint64_t{7}, n}) {
        store::RecordBatch batch;
        for (std::uint64_t end = std::min(n, id + size); id < end; ++id)
          batch.add(id, k.payload(id));
        ckpt.record(batch);
      }
      ASSERT_EQ(ckpt.done_count(), n) << k.name;
    }
    EXPECT_EQ(file_bytes(one), file_bytes(batched)) << k.name;
    const std::string seg_one = warehouse::warehouse_path_for(one);
    const std::string seg_batched = warehouse::warehouse_path_for(batched);
    warehouse::compact_stores({one}, seg_one);
    warehouse::compact_stores({batched}, seg_batched);
    const auto seg_bytes = file_bytes(seg_one);
    ASSERT_FALSE(seg_bytes.empty()) << k.name;
    EXPECT_EQ(file_bytes(seg_batched), seg_bytes) << k.name;
  }
}

TEST_F(WarehouseTest, RecompactionIsIdempotentByteForByte) {
  const std::string p = path("perfi.gpfs");
  {
    store::ResultLog log(p, perfi_meta());
    for (std::uint64_t id = 0; id < 90; ++id) log.append(id, perfi_payload(id));
  }
  const std::string seg = warehouse::warehouse_path_for(p);
  warehouse::compact_stores({p}, seg);
  const auto first = file_bytes(seg);
  ASSERT_FALSE(first.empty());

  // Unchanged logs: the refresh must not rewrite the file (and if it did,
  // the bytes would be identical anyway).
  const warehouse::CompactStats again = warehouse::compact_stores({p}, seg);
  EXPECT_EQ(again.fresh_records, 0u);
  EXPECT_TRUE(again.incremental);
  EXPECT_FALSE(again.wrote);
  EXPECT_EQ(file_bytes(seg), first);

  // A from-scratch compaction to a different path is also byte-identical.
  const std::string seg2 = path("copy.gpfw");
  warehouse::compact_stores({p}, seg2);
  EXPECT_EQ(file_bytes(seg2), first);
}

TEST_F(WarehouseTest, IncrementalCompactionEqualsOneShotByteForByte) {
  const std::string p = path("grow.gpfs");
  {
    store::ResultLog log(p, perfi_meta());
    for (std::uint64_t id = 0; id < 30; ++id) log.append(id, perfi_payload(id));
  }
  const std::string seg = warehouse::warehouse_path_for(p);
  const warehouse::CompactStats st1 = warehouse::compact_stores({p}, seg);
  EXPECT_EQ(st1.rows, 30u);

  // The campaign resumes: more records arrive, including a re-append of an
  // already-compacted id with a *different* payload (last wins, and the
  // incremental pass must apply the overwrite even though id 5 sits below
  // the watermark).
  {
    store::ResultLog log(p, perfi_meta());
    for (std::uint64_t id = 30; id < 90; ++id) log.append(id, perfi_payload(id));
    log.append(5, perfi_payload(6));
  }
  const warehouse::CompactStats st2 = warehouse::compact_stores({p}, seg);
  EXPECT_TRUE(st2.incremental);
  EXPECT_EQ(st2.fresh_records, 61u);  // only the tail was scanned
  EXPECT_EQ(st2.rows, 90u);

  const std::string oneshot = path("oneshot.gpfw");
  const warehouse::CompactStats st3 = warehouse::compact_stores({p}, oneshot);
  EXPECT_FALSE(st3.incremental);
  EXPECT_EQ(file_bytes(seg), file_bytes(oneshot));

  // And the overwrite is reflected: the rollups match a full scan (which
  // dedups last-wins), not the stale first payload.
  const warehouse::Rollups ref = warehouse::compute_rollups(store::load_store(p));
  EXPECT_TRUE(ref == warehouse::read_footer(seg).rollups);
}

TEST_F(WarehouseTest, TornSegmentFallsBackToFullRebuild) {
  const std::string p = path("t.gpfs");
  {
    store::ResultLog log(p, perfi_meta());
    for (std::uint64_t id = 0; id < 50; ++id) log.append(id, perfi_payload(id));
  }
  const std::string seg = warehouse::warehouse_path_for(p);
  warehouse::compact_stores({p}, seg);
  const auto good = file_bytes(seg);

  // Truncate the segment mid-file: reads must fail loudly, compaction must
  // silently rebuild.
  std::filesystem::resize_file(seg, good.size() / 2);
  EXPECT_THROW(warehouse::read_footer(seg), warehouse::SegmentError);
  EXPECT_THROW(warehouse::read_segment(seg), warehouse::SegmentError);

  const warehouse::CompactStats st = warehouse::compact_stores({p}, seg);
  EXPECT_FALSE(st.incremental);
  EXPECT_EQ(st.rows, 50u);
  EXPECT_EQ(file_bytes(seg), good);
}

TEST_F(WarehouseTest, ShrunkenLogBelowWatermarkTriggersFullRebuild) {
  const std::string p = path("shrink.gpfs");
  {
    store::ResultLog log(p, perfi_meta());
    for (std::uint64_t id = 0; id < 60; ++id) log.append(id, perfi_payload(id));
  }
  const std::string seg = warehouse::warehouse_path_for(p);
  warehouse::compact_stores({p}, seg);

  // Replace the log with a shorter one (same campaign): the recorded
  // watermark now lies beyond EOF, which must degrade to a rescan, not an
  // error or stale data.
  std::filesystem::remove(p);
  {
    store::ResultLog log(p, perfi_meta());
    for (std::uint64_t id = 0; id < 10; ++id) log.append(id, perfi_payload(id));
  }
  const warehouse::CompactStats st = warehouse::compact_stores({p}, seg);
  EXPECT_EQ(st.rows, 10u);
  const warehouse::Rollups ref = warehouse::compute_rollups(store::load_store(p));
  EXPECT_TRUE(ref == warehouse::read_footer(seg).rollups);
}

TEST_F(WarehouseTest, RtlSegmentRoundTripsVariableLengthColumns) {
  const std::string p = path("rtl.gpfs");
  store::LoadedStore expect;
  {
    store::ResultLog log(p, rtl_meta());
    for (std::uint64_t id = 0; id < 40; ++id) {
      const auto payload = rtl_payload(id);
      log.append(id, payload);
      expect.records[id] = payload;
    }
  }
  const std::string seg = warehouse::warehouse_path_for(p);
  warehouse::compact_stores({p}, seg);

  const warehouse::Segment s = warehouse::read_segment(seg);
  ASSERT_EQ(s.records.size(), 40u);
  // Columnar round-trip reproduces every canonical payload byte-for-byte,
  // vectors included.
  for (const auto& [id, payload] : expect.records)
    EXPECT_EQ(s.records.at(id), payload) << "id " << id;

  expect.meta = s.meta;
  const warehouse::Rollups ref = warehouse::compute_rollups(expect);
  EXPECT_TRUE(ref == s.rollups);
  EXPECT_TRUE(ref == warehouse::read_footer(seg).rollups);
  EXPECT_DOUBLE_EQ(s.rollups.per_warp_sum, ref.per_warp_sum);
}

TEST_F(WarehouseTest, RollupsEncodeDecodeRoundTrip) {
  const std::string p = path("rt.gpfs");
  {
    store::ResultLog log(p, gate_meta());
    for (std::uint64_t id = 0; id < 77; ++id) log.append(id, gate_payload(id));
  }
  const warehouse::Rollups r = warehouse::compute_rollups(store::load_store(p));
  const warehouse::Rollups back = warehouse::decode_rollups(warehouse::encode(r));
  EXPECT_TRUE(r == back);
}

TEST_F(WarehouseTest, SyndromeBucketsArePowersOfTwo) {
  EXPECT_EQ(warehouse::syndrome_bucket(0), 0u);
  EXPECT_EQ(warehouse::syndrome_bucket(1), 1u);
  EXPECT_EQ(warehouse::syndrome_bucket(2), 2u);
  EXPECT_EQ(warehouse::syndrome_bucket(3), 2u);
  EXPECT_EQ(warehouse::syndrome_bucket(4), 3u);
  EXPECT_EQ(warehouse::syndrome_bucket_limit(0), 1u);
  EXPECT_EQ(warehouse::syndrome_bucket_limit(2), 4u);
}

TEST_F(WarehouseTest, EmptyStoreCompactsAndQueries) {
  const std::string p = path("empty.gpfs");
  { store::ResultLog log(p, perfi_meta()); }
  const std::string seg = warehouse::warehouse_path_for(p);
  const warehouse::CompactStats st = warehouse::compact_stores({p}, seg);
  EXPECT_EQ(st.rows, 0u);
  const warehouse::Footer f = warehouse::read_footer(seg);
  EXPECT_EQ(f.rows, 0u);
  const std::string out = warehouse::render_metric(
      f, warehouse::Metric::Epr, warehouse::QueryFormat::Json);
  EXPECT_NE(out.find("\"injections\": 0"), std::string::npos);
}

TEST_F(WarehouseTest, QueryJsonSummaryMatchesExportFieldNames) {
  const std::string p = path("q.gpfs");
  {
    store::ResultLog log(p, perfi_meta());
    for (std::uint64_t id = 0; id < 90; ++id) log.append(id, perfi_payload(id));
  }
  const std::string seg = warehouse::warehouse_path_for(p);
  warehouse::compact_stores({p}, seg);
  const warehouse::Footer f = warehouse::read_footer(seg);

  const std::string json = warehouse::render_metric(
      f, warehouse::Metric::Epr, warehouse::QueryFormat::Json);
  // 90 ids uniformly over 7 outcomes: masked gets ceil-share 13, each DUE
  // cause 2..5 gets 13 or 12.
  EXPECT_NE(json.find("\"injections\": 90"), std::string::npos);
  EXPECT_NE(json.find("\"masked\": 13"), std::string::npos);
  EXPECT_NE(json.find("\"sdc\": 13"), std::string::npos);
  EXPECT_NE(json.find("\"due\": 64"), std::string::npos);
  EXPECT_NE(json.find("\"epr_sdc\": "), std::string::npos);
  EXPECT_NE(json.find("\"epr_due\": "), std::string::npos);

  const std::string csv = warehouse::render_metric(
      f, warehouse::Metric::Workers, warehouse::QueryFormat::Csv);
  EXPECT_NE(csv.find("shard_index,shard_count,rows,owned"), std::string::npos);
  EXPECT_NE(csv.find("0,1,90,90,90,"), std::string::npos);

  const std::string table = warehouse::render_metric(
      f, warehouse::Metric::Syndromes, warehouse::QueryFormat::Table);
  EXPECT_NE(table.find("syndrome"), std::string::npos);
}

TEST_F(WarehouseTest, CompactorRejectsMixedCampaigns) {
  const std::string a = path("a.gpfs");
  const std::string b = path("b.gpfs");
  { store::ResultLog log(a, perfi_meta()); }
  { store::ResultLog log(b, gate_meta()); }
  EXPECT_THROW(warehouse::compact_stores({a, b}, path("x.gpfw")),
               std::runtime_error);
  // Duplicate shard slice is also rejected (would double-count rows).
  const std::string c = path("c.gpfs");
  { store::ResultLog log(c, perfi_meta()); }
  EXPECT_THROW(warehouse::compact_stores({a, c}, path("y.gpfw")),
               std::runtime_error);
}

TEST_F(WarehouseTest, LiveCompactorServesFooterWhileLogGrows) {
  // gpfd's usage pattern: one Compactor object, periodic refresh while the
  // log is appended to by the same process, footer() between refreshes.
  const std::string p = path("live.gpfs");
  store::ResultLog log(p, perfi_meta());
  for (std::uint64_t id = 0; id < 20; ++id) log.append(id, perfi_payload(id));

  warehouse::Compactor c({p}, warehouse::warehouse_path_for(p));
  warehouse::CompactStats st = c.refresh();
  EXPECT_EQ(st.rows, 20u);
  EXPECT_EQ(c.footer().rows, 20u);

  for (std::uint64_t id = 20; id < 90; ++id) log.append(id, perfi_payload(id));
  st = c.refresh();
  EXPECT_TRUE(st.incremental);
  EXPECT_EQ(st.fresh_records, 70u);
  const warehouse::Footer f = c.footer();
  EXPECT_EQ(f.rows, 90u);
  const warehouse::Rollups ref = warehouse::compute_rollups(store::load_store(p));
  EXPECT_TRUE(ref == f.rollups);
}

}  // namespace
