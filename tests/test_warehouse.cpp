// Warehouse tests: the rollup-vs-full-scan invariant on single, resumed and
// shard-merged stores, idempotent compaction, compaction of live and torn
// logs, segment validation (torn, old-version and mutated segments, counts
// their bytes cannot hold), and query rendering.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <random>
#include <sstream>

#include "store/checkpoint.hpp"
#include "store/merge.hpp"
#include "store/records.hpp"
#include "store/result_log.hpp"
#include "warehouse/compact.hpp"
#include "warehouse/query.hpp"
#include "warehouse/rollups.hpp"
#include "warehouse/segment.hpp"
#include "mutants.hpp"

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

  static void write_bytes(const std::string& p,
                          const std::vector<std::uint8_t>& bytes) {
    std::ofstream out(p, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
  }

  /// Rewrites a segment's trailing CRC to match its (edited) body, so an
  /// edit reaches the decoders behind the CRC check.
  static void reseal(std::vector<std::uint8_t>& seg) {
    const std::uint32_t crc =
        store::crc32(std::span(seg).first(seg.size() - 4));
    for (int k = 0; k < 4; ++k)
      seg[seg.size() - 4 + k] = static_cast<std::uint8_t>(crc >> (8 * k));
  }

  static void put_u32(std::vector<std::uint8_t>& b, std::size_t at,
                      std::uint32_t v) {
    for (int k = 0; k < 4; ++k) b[at + k] = static_cast<std::uint8_t>(v >> (8 * k));
  }

  /// A compacted segment of `n` records of one kind, as file bytes.
  std::vector<std::uint8_t> segment_of(const std::string& name,
                                       const store::CampaignMeta& meta,
                                       std::vector<std::uint8_t> (*payload)(
                                           std::uint64_t),
                                       std::uint64_t n) const {
    const std::string p = path(name + ".gpfs");
    {
      store::ResultLog log(p, meta);
      for (std::uint64_t id = 0; id < n; ++id) log.append(id, payload(id));
    }
    const std::string seg = warehouse::warehouse_path_for(p);
    warehouse::compact_stores({p}, seg);
    return file_bytes(seg);
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
  const warehouse::Footer wrote = warehouse::compact_stores({p}, seg);
  EXPECT_EQ(wrote.rows, 120u);
  ASSERT_EQ(wrote.sources.size(), 1u);
  EXPECT_EQ(wrote.sources[0].scanned_records, 120u);

  const warehouse::Footer f = warehouse::read_footer(seg);
  EXPECT_EQ(f.rows, 120u);
  EXPECT_TRUE(f.rollups == wrote.rollups);
  EXPECT_TRUE(f.sources == wrote.sources);
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
  const warehouse::Footer wrote = warehouse::compact_stores(shards, seg);
  EXPECT_EQ(wrote.rows, 120u);
  EXPECT_EQ(wrote.sources.size(), 4u);

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

  // Unchanged logs: compacting again rewrites the same bytes.
  warehouse::compact_stores({p}, seg);
  EXPECT_EQ(file_bytes(seg), first);

  // A compaction to a different path is also byte-identical.
  const std::string seg2 = path("copy.gpfw");
  warehouse::compact_stores({p}, seg2);
  EXPECT_EQ(file_bytes(seg2), first);
}

TEST_F(WarehouseTest, ResumedStoreRollupsMatchFullScan) {
  const std::string p = path("grow.gpfs");
  {
    store::ResultLog log(p, perfi_meta());
    for (std::uint64_t id = 0; id < 30; ++id) log.append(id, perfi_payload(id));
  }
  const std::string seg = warehouse::warehouse_path_for(p);
  EXPECT_EQ(warehouse::compact_stores({p}, seg).rows, 30u);

  // The campaign resumes: more records arrive, including a re-append of an
  // already-compacted id with a *different* payload, which wins.
  {
    store::ResultLog log(p, perfi_meta());
    for (std::uint64_t id = 30; id < 90; ++id) log.append(id, perfi_payload(id));
    log.append(5, perfi_payload(6));
  }
  const warehouse::Footer f = warehouse::compact_stores({p}, seg);
  EXPECT_EQ(f.rows, 90u);
  ASSERT_EQ(f.sources.size(), 1u);
  EXPECT_EQ(f.sources[0].scanned_records, 91u);
  const warehouse::Rollups ref = warehouse::compute_rollups(store::load_store(p));
  EXPECT_TRUE(ref == f.rollups);
  EXPECT_TRUE(ref == warehouse::read_footer(seg).rollups);
}

TEST_F(WarehouseTest, TornSegmentFailsToReadAndRecompacts) {
  const std::string p = path("t.gpfs");
  {
    store::ResultLog log(p, perfi_meta());
    for (std::uint64_t id = 0; id < 50; ++id) log.append(id, perfi_payload(id));
  }
  const std::string seg = warehouse::warehouse_path_for(p);
  warehouse::compact_stores({p}, seg);
  const auto good = file_bytes(seg);

  // A torn segment fails to read loudly; compaction rewrites it from the
  // logs without reading it.
  for (const std::size_t keep : {std::size_t{10}, good.size() / 2, good.size() - 1}) {
    std::filesystem::resize_file(seg, keep);
    EXPECT_THROW(warehouse::read_footer(seg), warehouse::SegmentError) << keep;
    EXPECT_EQ(warehouse::compact_stores({p}, seg).rows, 50u);
    EXPECT_EQ(file_bytes(seg), good);
  }
}

// A segment from an older build (version 1, which also held column blocks)
// is refused by version, so it is recompacted rather than misread.
TEST_F(WarehouseTest, OtherSegmentVersionsAreRefused) {
  std::vector<std::uint8_t> seg =
      segment_of("v", perfi_meta(), perfi_payload, 20);
  const std::string p = path("old.gpfw");
  for (const std::uint32_t version : {1u, 3u}) {
    std::vector<std::uint8_t> old = seg;
    put_u32(old, 8, version);
    reseal(old);
    write_bytes(p, old);
    try {
      warehouse::read_footer(p);
      ADD_FAILURE() << "version " << version << " accepted";
    } catch (const warehouse::SegmentError& e) {
      EXPECT_NE(std::string(e.what()).find("unsupported segment version " +
                                           std::to_string(version)),
                std::string::npos)
          << e.what();
      EXPECT_NE(std::string(e.what()).find(p), std::string::npos) << e.what();
    }
  }
}

// gpfd compacts stores it is still appending to: compaction reads a live
// log without disturbing it, and a torn tail (a write in flight) just ends
// the scan — the log is never truncated.
TEST_F(WarehouseTest, CompactionReadsALiveLogAndNeverTruncatesIt) {
  const std::string p = path("live.gpfs");
  const std::string seg = warehouse::warehouse_path_for(p);
  store::ResultLog log(p, perfi_meta());
  for (std::uint64_t id = 0; id < 20; ++id) log.append(id, perfi_payload(id));
  EXPECT_EQ(warehouse::compact_stores({p}, seg).rows, 20u);

  for (std::uint64_t id = 20; id < 90; ++id) log.append(id, perfi_payload(id));
  const warehouse::Footer f = warehouse::compact_stores({p}, seg);
  EXPECT_EQ(f.rows, 90u);
  EXPECT_TRUE(warehouse::compute_rollups(store::load_store(p)) == f.rollups);

  const std::string torn = path("torn.gpfs");
  std::filesystem::copy_file(p, torn);
  {
    std::ofstream out(torn, std::ios::binary | std::ios::app);
    out.write("\x05\0\0\0\0\0\0\0\x09", 9);  // a record frame cut short
  }
  const auto torn_size = std::filesystem::file_size(torn);
  EXPECT_EQ(warehouse::compact_stores({torn}, path("torn.gpfw")).rows, 90u);
  EXPECT_EQ(std::filesystem::file_size(torn), torn_size);
}

TEST_F(WarehouseTest, RtlRollupsMatchFullScan) {
  const std::string p = path("rtl.gpfs");
  {
    store::ResultLog log(p, rtl_meta());
    for (std::uint64_t id = 0; id < 40; ++id) log.append(id, rtl_payload(id));
  }
  const std::string seg = warehouse::warehouse_path_for(p);
  warehouse::compact_stores({p}, seg);

  const warehouse::Footer f = warehouse::read_footer(seg);
  EXPECT_EQ(f.rows, 40u);
  const warehouse::Rollups ref = warehouse::compute_rollups(store::load_store(p));
  EXPECT_TRUE(ref == f.rollups);
  // Exact, not approximate: both sum per-warp ratios in ascending id order.
  EXPECT_EQ(f.rollups.per_warp_sum, ref.per_warp_sum);
  EXPECT_GT(ref.per_warp_sum, 0.0);
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
  EXPECT_EQ(warehouse::compact_stores({p}, seg).rows, 0u);
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
  EXPECT_NE(csv.find("0,1,90,90,90\n"), std::string::npos);

  const std::string table = warehouse::render_metric(
      f, warehouse::Metric::Syndromes, warehouse::QueryFormat::Table);
  EXPECT_NE(table.find("syndrome"), std::string::npos);
}

TEST_F(WarehouseTest, CompactionRejectsMixedCampaigns) {
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

// Counts in a segment size nothing before they are checked against the
// bytes left: a footer whose nets or sources count claims 50 M or 2^32-1
// entries (CRC resealed, so the count is what the decoder sees) is a clean
// SegmentError, not a huge allocation or std::bad_alloc.
TEST_F(WarehouseTest, SegmentCountsTheirBytesCannotHoldAreRefused) {
  const std::vector<std::uint8_t> gate =
      segment_of("g", gate_meta(), gate_payload, 120);
  // magic, version, meta, rows; then the rollups' kind, rows and arrays.
  const std::size_t nets_at =
      8 + 4 + store::ResultLog::kHeaderSize + 8 + 1 + 8 +
      8 * (warehouse::kGateClasses + 2 * errmodel::kNumErrorModels);
  // One source row (24 bytes) and the CRC follow the source count.
  const std::size_t sources_at = gate.size() - 4 - 24 - 4;
  {
    std::vector<std::uint8_t> b(gate.begin() + static_cast<long>(nets_at),
                                gate.begin() + static_cast<long>(nets_at + 4));
    ASSERT_EQ(store::ByteReader(b).u32(), 7u);  // nets 0..6
    std::vector<std::uint8_t> c(gate.begin() + static_cast<long>(sources_at),
                                gate.begin() + static_cast<long>(sources_at + 4));
    ASSERT_EQ(store::ByteReader(c).u32(), 1u);
  }
  const std::string p = path("counts.gpfw");
  const std::vector<std::uint8_t> roll =
      warehouse::encode(warehouse::read_footer(path("g.gpfw")).rollups);
  const std::size_t roll_nets_at =
      nets_at - (8 + 4 + store::ResultLog::kHeaderSize + 8);
  for (const std::uint32_t count : {50000000u, 0xFFFFFFFFu}) {
    for (const std::size_t at : {nets_at, sources_at}) {
      std::vector<std::uint8_t> bad = gate;
      put_u32(bad, at, count);
      reseal(bad);
      write_bytes(p, bad);
      EXPECT_THROW(warehouse::read_footer(p), warehouse::SegmentError)
          << "count " << count << " at " << at;
    }
    // decode_rollups on its own refuses the nets count too.
    std::vector<std::uint8_t> bad = roll;
    put_u32(bad, roll_nets_at, count);
    EXPECT_THROW(warehouse::decode_rollups(bad), std::runtime_error) << count;
  }
}

// A source row's shard slice is checked like a store header's: shard count
// 0 (which `--metric workers` would divide by) or an index outside the
// count is refused.
TEST_F(WarehouseTest, SegmentSourceSlicesAreChecked) {
  const std::vector<std::uint8_t> seg =
      segment_of("s", perfi_meta(), perfi_payload, 20);
  // The one source row (shard_index, shard_count, two u64) precedes the CRC.
  const std::size_t row_at = seg.size() - 4 - 24;
  const std::string p = path("slice.gpfw");
  for (const auto& [index, count] :
       {std::pair{0u, 0u}, std::pair{1u, 1u}, std::pair{0xFFFFFFFFu, 4u}}) {
    std::vector<std::uint8_t> bad = seg;
    put_u32(bad, row_at, index);
    put_u32(bad, row_at + 4, count);
    reseal(bad);
    write_bytes(p, bad);
    EXPECT_THROW(warehouse::read_footer(p), warehouse::SegmentError)
        << index << "/" << count;
  }
}

// Mutation fuzzing of read_footer on segments of each kind, as written and
// with the CRC resealed after the mutation so the decoders behind it see
// every mutant. Each mutant is either a clean SegmentError or a footer that
// every metric renders.
TEST_F(WarehouseTest, MutatedSegmentsReadOrRefuse) {
  struct Kind {
    const char* name;
    store::CampaignMeta meta;
    std::vector<std::uint8_t> (*payload)(std::uint64_t);
  };
  const Kind kinds[] = {{"gate", gate_meta(), gate_payload},
                        {"perfi", perfi_meta(), perfi_payload},
                        {"rtl", rtl_meta(), rtl_payload}};
  const std::string p = path("mutant.gpfw");
  std::mt19937_64 rng(0x6EF3);
  std::size_t fed = 0, refused = 0, resealed_read = 0;
  for (const Kind& k : kinds) {
    const std::vector<std::uint8_t> valid =
        segment_of(k.name, k.meta, k.payload, k.meta.total);
    for (std::vector<std::uint8_t>& m : test::byte_mutants(valid, rng)) {
      for (const bool resealed : {false, true}) {
        if (resealed) {
          if (m.size() < 4) continue;
          reseal(m);
        }
        ++fed;
        write_bytes(p, m);
        try {
          const warehouse::Footer f = warehouse::read_footer(p);
          if (resealed) ++resealed_read;
          for (const auto metric :
               {warehouse::Metric::Epr, warehouse::Metric::Classes,
                warehouse::Metric::Syndromes, warehouse::Metric::Workers})
            for (const auto format :
                 {warehouse::QueryFormat::Json, warehouse::QueryFormat::Csv,
                  warehouse::QueryFormat::Table})
              EXPECT_FALSE(warehouse::render_metric(f, metric, format).empty());
        } catch (const warehouse::SegmentError&) {
          ++refused;
        }
      }
    }
  }
  EXPECT_GT(fed, 3000u);
  EXPECT_GT(refused, fed / 2);
  EXPECT_GT(resealed_read, 100u);
}

}  // namespace
