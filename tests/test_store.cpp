// Store-layer tests: log round-trip, CRC torn-tail recovery, meta
// validation, record codecs, merge semantics, export determinism, and
// mutation fuzzing of the record decoders and the log readers.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <random>
#include <span>
#include <sstream>

#include "common/env.hpp"
#include "common/rng.hpp"
#include "obs/metrics.hpp"
#include "store/bytes.hpp"
#include "store/checkpoint.hpp"
#include "store/export.hpp"
#include "store/merge.hpp"
#include "store/records.hpp"
#include "store/result_log.hpp"
#include "mutants.hpp"

using namespace gpf;

namespace {

class StoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("gpfstore-test-" + std::to_string(::getpid()) + "-" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string path(const std::string& name) const { return (dir_ / name).string(); }

  static store::CampaignMeta gate_meta(std::uint32_t shard_index = 0,
                                       std::uint32_t shard_count = 1) {
    store::CampaignMeta m;
    m.kind = store::CampaignKind::Gate;
    m.target = 0;
    m.engine = 2;
    m.seed = 42;
    m.total = 100;
    m.shard_index = shard_index;
    m.shard_count = shard_count;
    m.param0 = 100;
    m.param1 = 50;
    return m;
  }

  static std::vector<std::uint8_t> gate_payload(std::uint32_t net, bool hang) {
    store::GateRecord r;
    r.net = net;
    r.stuck_high = (net & 1) != 0;
    r.activated = true;
    r.hang = hang;
    r.error_counts[2] = net;
    return store::encode(r);
  }

  static std::vector<std::uint8_t> read_bytes(const std::string& p) {
    std::ifstream f(p, std::ios::binary);
    return {std::istreambuf_iterator<char>(f), std::istreambuf_iterator<char>()};
  }

  std::filesystem::path dir_;
};

/// CRC-32 by its definition, one bit at a time: the reflected polynomial
/// 0xEDB88320, register preset to all ones, result inverted. store::crc32
/// must equal it everywhere.
std::uint32_t crc32_bitwise(std::span<const std::uint8_t> data,
                            std::uint32_t seed = 0) {
  std::uint32_t c = ~seed;
  for (const std::uint8_t b : data) {
    c ^= b;
    for (int k = 0; k < 8; ++k) c = (c >> 1) ^ (0xEDB88320u & (0u - (c & 1u)));
  }
  return ~c;
}

TEST_F(StoreTest, MetaHeaderRoundTrip) {
  store::CampaignMeta m = gate_meta(2, 8);
  m.app = "vectoradd";
  const auto bytes = store::ResultLog::encode_meta(m);
  ASSERT_EQ(bytes.size(), store::ResultLog::kHeaderSize);
  const store::CampaignMeta back = store::ResultLog::decode_meta(bytes);
  EXPECT_TRUE(back == m);
  EXPECT_EQ(back.app, "vectoradd");
}

TEST_F(StoreTest, AppendAndRecover) {
  const std::string p = path("a.gpfs");
  {
    store::ResultLog log(p, gate_meta());
    log.append(3, gate_payload(3, false));
    log.append(7, gate_payload(7, true));
  }
  store::ResultLog log(p, gate_meta());
  ASSERT_EQ(log.recovered().size(), 2u);
  EXPECT_EQ(log.recovered()[0].id, 3u);
  EXPECT_EQ(log.recovered()[1].id, 7u);
  EXPECT_EQ(log.torn_bytes_dropped(), 0u);
  const store::GateRecord r = store::decode_gate(log.recovered()[1].payload);
  EXPECT_EQ(r.net, 7u);
  EXPECT_TRUE(r.hang);
  EXPECT_EQ(r.error_counts[2], 7u);
}

TEST_F(StoreTest, Crc32MatchesBitwiseDefinition) {
  const std::string check = "123456789";
  EXPECT_EQ(store::crc32({reinterpret_cast<const std::uint8_t*>(check.data()),
                          check.size()}),
            0xCBF43926u);
  Rng rng(0xC4C32);
  std::vector<std::uint8_t> buf(4096);
  for (auto& b : buf) b = static_cast<std::uint8_t>(rng.below(256));
  const std::span<const std::uint8_t> all(buf);
  // Every length 0-64 at every alignment 0-7, so each split between the
  // 8-byte steps and the byte tail is taken.
  for (std::size_t off = 0; off < 8; ++off)
    for (std::size_t len = 0; len <= 64; ++len)
      ASSERT_EQ(store::crc32(all.subspan(off, len)),
                crc32_bitwise(all.subspan(off, len)))
          << "offset " << off << " length " << len;
  // Random spans with random seeds; a seed continues an earlier CRC.
  for (int i = 0; i < 200; ++i) {
    const std::size_t off = rng.below(buf.size());
    const std::size_t len = rng.below(buf.size() - off + 1);
    const auto seed = static_cast<std::uint32_t>(rng.below(1ull << 32));
    ASSERT_EQ(store::crc32(all.subspan(off, len), seed),
              crc32_bitwise(all.subspan(off, len), seed))
        << "offset " << off << " length " << len;
    const std::size_t cut = len ? rng.below(len) : 0;
    ASSERT_EQ(store::crc32(all.subspan(off + cut, len - cut),
                           store::crc32(all.subspan(off, cut))),
              store::crc32(all.subspan(off, len)));
  }
}

// A batch is framed exactly as single appends frame its records, and one
// cut anywhere inside it (a kill during the write) leaves its whole records
// before the cut: reopening keeps exactly those and drops the rest.
TEST_F(StoreTest, BatchCutAtEveryByteKeepsWholeRecordsBeforeIt) {
  const std::string p = path("batch.gpfs");
  std::vector<store::Record> recs;
  for (std::uint64_t id = 0; id < 6; ++id)
    recs.push_back({id * 3 + 1, gate_payload(static_cast<std::uint32_t>(id),
                                             id % 2 != 0)});
  recs[4].payload.resize(5);  // records of mixed payload lengths
  recs[5].payload.clear();
  store::RecordBatch batch;
  for (const store::Record& r : recs) batch.add(r.id, r.payload);
  ASSERT_EQ(batch.size(), recs.size());
  std::size_t begin = 0;
  {
    store::ResultLog log(p, gate_meta());
    log.append(100, gate_payload(100, false));  // a record before the batch
    log.append(store::RecordBatch{});           // writes nothing
    begin = std::filesystem::file_size(p);
    log.append(batch);
  }
  const std::vector<std::uint8_t> bytes = read_bytes(p);
  ASSERT_EQ(bytes.size(), begin + batch.bytes().size());
  ASSERT_TRUE(std::equal(batch.bytes().begin(), batch.bytes().end(),
                         bytes.begin() + static_cast<long>(begin)));
  // Record ends inside the file.
  std::vector<std::size_t> ends;
  std::size_t at = begin;
  for (const store::Record& r : recs) {
    at += store::RecordBatch::kFrameBytes + r.payload.size();
    ends.push_back(at);
  }
  const std::string cut_path = path("cut.gpfs");
  for (std::size_t cut = begin; cut <= bytes.size(); ++cut) {
    {
      std::ofstream f(cut_path, std::ios::binary | std::ios::trunc);
      f.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(cut));
    }
    const std::size_t whole = static_cast<std::size_t>(
        std::upper_bound(ends.begin(), ends.end(), cut) - ends.begin());
    const std::size_t kept_end = whole ? ends[whole - 1] : begin;
    store::ResultLog log(cut_path, gate_meta());
    ASSERT_EQ(log.recovered().size(), 1 + whole) << "cut at " << cut;
    EXPECT_EQ(log.torn_bytes_dropped(), cut - kept_end) << "cut at " << cut;
    for (std::size_t i = 0; i < whole; ++i) {
      EXPECT_EQ(log.recovered()[1 + i].id, recs[i].id) << "cut at " << cut;
      EXPECT_EQ(log.recovered()[1 + i].payload, recs[i].payload)
          << "cut at " << cut;
    }
  }
}

// store.appends counts records and store.append_writes the writes, so a
// trace shows records per write; an empty batch is no write.
TEST_F(StoreTest, AppendCountersCountRecordsAndWrites) {
  if (!obs::enabled()) GTEST_SKIP() << "metrics disabled";
  obs::Counter& appends = obs::counter("store.appends");
  obs::Counter& writes = obs::counter("store.append_writes");
  const std::uint64_t a0 = appends.value(), w0 = writes.value();
  store::ResultLog log(path("counters.gpfs"), gate_meta());
  store::RecordBatch batch(5, 5 * store::kGateRecordBytes);
  for (std::uint32_t id = 0; id < 5; ++id)
    batch.add(id, gate_payload(id, false));
  log.append(batch);
  log.append(store::RecordBatch{});
  log.append(9, gate_payload(9, false));
  EXPECT_EQ(appends.value() - a0, 6u);
  EXPECT_EQ(writes.value() - w0, 2u);
}

TEST_F(StoreTest, TornTailIsTruncatedOnOpen) {
  const std::string p = path("torn.gpfs");
  {
    store::ResultLog log(p, gate_meta());
    log.append(1, gate_payload(1, false));
    log.append(2, gate_payload(2, false));
  }
  // Simulate a SIGKILL mid-append: a record prefix plus half a payload.
  {
    std::ofstream f(p, std::ios::binary | std::ios::app);
    const char garbage[] = {9, 0, 0, 0, 0, 0, 0, 0, 40, 0, 0, 0, 1, 2, 3};
    f.write(garbage, sizeof(garbage));
  }
  store::ResultLog log(p, gate_meta());
  EXPECT_EQ(log.recovered().size(), 2u);
  EXPECT_GT(log.torn_bytes_dropped(), 0u);
  // The torn bytes are gone from disk: appending then reopening yields 3
  // clean records.
  log.append(9, gate_payload(9, false));
  store::ResultLog log2(p, gate_meta());
  EXPECT_EQ(log2.recovered().size(), 3u);
  EXPECT_EQ(log2.torn_bytes_dropped(), 0u);
}

TEST_F(StoreTest, StaleRecoveryTmpFromCrashedRecoveryIsIgnored) {
  // A crash *during* a previous torn-tail recovery leaves `<store>.recover.tmp`
  // behind — possibly a partial copy. The original must stay authoritative
  // (rename is atomic, so the original was never modified) and the leftover
  // must be deleted, not renamed over the good data.
  const std::string p = path("crashrec.gpfs");
  {
    store::ResultLog log(p, gate_meta());
    log.append(1, gate_payload(1, false));
    log.append(2, gate_payload(2, true));
  }
  {
    std::ofstream f(p, std::ios::binary | std::ios::app);
    const char garbage[] = {9, 0, 0, 0, 0, 0, 0, 0, 40, 0, 0, 0, 1, 2, 3};
    f.write(garbage, sizeof(garbage));
  }
  // The stale tmp is a truncated copy missing record 2 — exactly what a
  // recovery killed mid-write would leave.
  std::ofstream(p + ".recover.tmp", std::ios::binary) << "partial copy";

  store::ResultLog log(p, gate_meta());
  ASSERT_EQ(log.recovered().size(), 2u);
  EXPECT_EQ(log.recovered()[1].id, 2u);
  EXPECT_GT(log.torn_bytes_dropped(), 0u);
  EXPECT_FALSE(std::filesystem::exists(p + ".recover.tmp"));
}

TEST_F(StoreTest, RecoveryRewritesAtomicallyAndIsIdempotent) {
  const std::string p = path("atomicrec.gpfs");
  {
    store::ResultLog log(p, gate_meta());
    log.append(4, gate_payload(4, false));
  }
  {
    std::ofstream f(p, std::ios::binary | std::ios::app);
    f.write("\x07\x00", 2);  // torn: half a record header
  }
  {
    store::ResultLog log(p, gate_meta());
    EXPECT_EQ(log.recovered().size(), 1u);
    EXPECT_EQ(log.torn_bytes_dropped(), 2u);
    // The temp file the recovery wrote through must be gone after the rename.
    EXPECT_FALSE(std::filesystem::exists(p + ".recover.tmp"));
  }
  // Second open: the tail was truly dropped on disk, nothing left to recover.
  store::ResultLog log(p, gate_meta());
  EXPECT_EQ(log.recovered().size(), 1u);
  EXPECT_EQ(log.torn_bytes_dropped(), 0u);
}

TEST_F(StoreTest, SyncIsDurableBoundaryUnderBothFsyncSettings) {
  const std::string p = path("sync.gpfs");
  for (const int fsync_on : {0, 1}) {
    std::filesystem::remove(p);
    set_fsync_override(fsync_on);
    {
      store::CampaignCheckpoint ckpt(p, gate_meta());
      ckpt.record(1, gate_payload(1, false));
      ckpt.sync();  // must be callable mid-campaign with either setting
      ckpt.record(2, gate_payload(2, false));
      // Destructor syncs too (graceful close is always durable).
    }
    store::CampaignCheckpoint back(p, gate_meta());
    EXPECT_EQ(back.done().size(), 2u) << "fsync=" << fsync_on;
  }
  set_fsync_override(-1);
}

TEST_F(StoreTest, CorruptedRecordCrcStopsScan) {
  const std::string p = path("crc.gpfs");
  {
    store::ResultLog log(p, gate_meta());
    log.append(1, gate_payload(1, false));
    log.append(2, gate_payload(2, false));
  }
  // Flip one payload byte of the *last* record.
  {
    std::fstream f(p, std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(-1, std::ios::end);
    f.put('\xFF');
  }
  store::ResultLog log(p, gate_meta());
  EXPECT_EQ(log.recovered().size(), 1u);
  EXPECT_GT(log.torn_bytes_dropped(), 0u);
}

TEST_F(StoreTest, MismatchedMetaRefusesResume) {
  const std::string p = path("meta.gpfs");
  { store::ResultLog log(p, gate_meta()); }
  store::CampaignMeta other = gate_meta();
  other.seed = 43;
  EXPECT_THROW(store::ResultLog(p, other), std::runtime_error);
  other = gate_meta(1, 4);
  EXPECT_THROW(store::ResultLog(p, other), std::runtime_error);
}

TEST_F(StoreTest, NotAStoreFile) {
  const std::string p = path("junk.gpfs");
  std::ofstream(p) << "this is not a store";
  EXPECT_THROW(store::load_store(p), std::runtime_error);
}

TEST_F(StoreTest, CheckpointSkipAndLimit) {
  const std::string p = path("ckpt.gpfs");
  {
    store::CampaignCheckpoint ckpt(p, gate_meta());
    EXPECT_FALSE(ckpt.is_done(5));
    EXPECT_TRUE(ckpt.record(5, gate_payload(5, false)));
    ckpt.set_record_limit(2);
    EXPECT_FALSE(ckpt.record(6, gate_payload(6, false)));  // 2nd reaches limit
    EXPECT_TRUE(ckpt.should_stop());
    EXPECT_FALSE(ckpt.record(7, gate_payload(7, false)));  // still recorded
  }
  store::CampaignCheckpoint ckpt(p, gate_meta());
  EXPECT_EQ(ckpt.done().size(), 3u);
  EXPECT_TRUE(ckpt.is_done(5));
  EXPECT_TRUE(ckpt.is_done(7));
  EXPECT_FALSE(ckpt.should_stop());
}

// The limit is checked per batch: the batch that crosses it is recorded
// whole, and the checkpoint pauses after it.
TEST_F(StoreTest, RecordLimitPausesAtBatchGranularity) {
  const std::string p = path("limit.gpfs");
  const auto batch_of = [](std::uint32_t lo, std::uint32_t n) {
    store::RecordBatch b(n, n * store::kGateRecordBytes);
    for (std::uint32_t id = lo; id < lo + n; ++id)
      b.add(id, gate_payload(id, false));
    return b;
  };
  {
    store::CampaignCheckpoint ckpt(p, gate_meta());
    ckpt.set_record_limit(3);
    EXPECT_TRUE(ckpt.record(batch_of(0, 2)));
    EXPECT_FALSE(ckpt.should_stop());
    EXPECT_FALSE(ckpt.record(batch_of(2, 4)));  // crosses the limit
    EXPECT_TRUE(ckpt.paused());
    EXPECT_EQ(ckpt.done_count(), 6u);
  }
  store::CampaignCheckpoint ckpt(p, gate_meta());
  EXPECT_EQ(ckpt.done().size(), 6u);
  for (std::uint64_t id = 0; id < 6; ++id) EXPECT_TRUE(ckpt.is_done(id));
}

TEST_F(StoreTest, MergeDisjointShardsAndConflicts) {
  std::vector<store::LoadedStore> shards(2);
  shards[0].meta = gate_meta(0, 2);
  shards[1].meta = gate_meta(1, 2);
  shards[0].records[0] = gate_payload(0, false);
  shards[0].records[2] = gate_payload(2, false);
  shards[1].records[1] = gate_payload(1, true);

  store::MergeStats st;
  const store::LoadedStore merged = store::merge_stores(shards, &st);
  EXPECT_EQ(merged.records.size(), 3u);
  EXPECT_EQ(merged.meta.shard_count, 1u);
  EXPECT_EQ(st.duplicate_identical, 0u);

  // Identical overlap dedupes; differing overlap is a conflict.
  shards[1].records[0] = gate_payload(0, false);
  EXPECT_NO_THROW(store::merge_stores(shards, &st));
  EXPECT_EQ(st.duplicate_identical, 1u);
  shards[1].records[0] = gate_payload(0, true);
  EXPECT_THROW(store::merge_stores(shards, nullptr), std::runtime_error);

  // Different campaign entirely.
  shards[1].meta.seed = 99;
  EXPECT_THROW(store::merge_stores(shards, nullptr), std::runtime_error);
}

TEST_F(StoreTest, RecordCodecsRoundTrip) {
  store::RtlRecord r;
  r.outcome = store::RtlOutcome::SdcMultiple;
  r.corrupted = 12;
  r.per_warp_corrupted = 3.25;
  r.rel_errors = {1e-3, 0.5};
  r.corrupted_idx = {4, 9, 31};
  const store::RtlRecord rb = store::decode_rtl(store::encode(r));
  EXPECT_EQ(rb.outcome, r.outcome);
  EXPECT_EQ(rb.corrupted, r.corrupted);
  EXPECT_EQ(rb.per_warp_corrupted, r.per_warp_corrupted);
  EXPECT_EQ(rb.rel_errors, r.rel_errors);
  EXPECT_EQ(rb.corrupted_idx, r.corrupted_idx);

  store::PerfiRecord p;
  p.outcome = store::PerfiOutcome::DueHang;
  EXPECT_EQ(store::decode_perfi(store::encode(p)).outcome, p.outcome);

  EXPECT_THROW(store::decode_gate(store::encode(p)), std::runtime_error);
}

TEST_F(StoreTest, ScanRecordsIsReadOnly) {
  const std::string p = path("scan.gpfs");
  {
    store::ResultLog log(p, gate_meta());
    log.append(1, gate_payload(1, false));
    log.append(2, gate_payload(2, false));
    log.append(3, gate_payload(3, true));
  }
  const std::vector<store::Record> all = store::scan_records(p);
  ASSERT_EQ(all.size(), 3u);
  EXPECT_EQ(all[0].id, 1u);
  EXPECT_EQ(all[2].payload, gate_payload(3, true));

  // A torn tail ends the scan without touching the file (unlike ResultLog's
  // open-time recovery, which rewrites it).
  {
    std::ofstream out(p, std::ios::binary | std::ios::app);
    out.write("torn!", 5);
  }
  const auto torn_size = std::filesystem::file_size(p);
  EXPECT_EQ(store::scan_records(p).size(), 3u);
  EXPECT_EQ(std::filesystem::file_size(p), torn_size);

  // A file whose header is not a store's is refused.
  const std::string bogus = path("bogus.gpfs");
  {
    std::ofstream out(bogus, std::ios::binary);
    out << std::string(200, 'x');
  }
  EXPECT_THROW(store::scan_records(bogus), std::runtime_error);
}

// A count field sizes a vector only after it is checked against the bytes
// left, so a payload claiming 50 M or 2^32-1 elements is a clean error
// instead of a 400 MB allocation or std::bad_alloc. Outcome bytes outside
// their enum are refused too.
TEST_F(StoreTest, DecodersRefuseCountsTheirBytesCannotHold) {
  store::RtlRecord r;
  r.outcome = store::RtlOutcome::SdcMultiple;
  r.corrupted = 3;
  r.rel_errors = {0.5, 0.25};
  r.corrupted_idx = {7};
  const std::vector<std::uint8_t> valid = store::encode(r);
  // Offsets of the two counts: outcome u8, corrupted u32, per-warp f64.
  const std::size_t rel_at = 1 + 4 + 8;
  const std::size_t idx_at = rel_at + 4 + 8 * r.rel_errors.size();
  for (const std::size_t at : {rel_at, idx_at}) {
    for (const std::uint32_t count : {50000000u, 0xFFFFFFFFu}) {
      std::vector<std::uint8_t> bad = valid;
      for (int k = 0; k < 4; ++k)
        bad[at + k] = static_cast<std::uint8_t>(count >> (8 * k));
      try {
        store::decode_rtl(bad);
        ADD_FAILURE() << "count " << count << " at " << at << " accepted";
      } catch (const std::runtime_error& e) {
        EXPECT_NE(std::string(e.what()).find("rtl record"), std::string::npos)
            << e.what();
      }
    }
  }
  // The 17-byte payload that claims 50 M rel_errors.
  std::vector<std::uint8_t> short_claim(valid.begin(), valid.begin() + 17);
  short_claim[rel_at] = 0x80;
  short_claim[rel_at + 1] = 0xF0;
  short_claim[rel_at + 2] = 0xFA;
  short_claim[rel_at + 3] = 0x02;
  EXPECT_THROW(store::decode_rtl(short_claim), std::runtime_error);

  std::vector<std::uint8_t> rtl_outcome = valid;
  rtl_outcome[0] = 4;
  EXPECT_THROW(store::decode_rtl(rtl_outcome), std::runtime_error);
  EXPECT_THROW(store::decode_perfi(std::vector<std::uint8_t>{7}),
               std::runtime_error);
  EXPECT_EQ(store::decode_perfi(std::vector<std::uint8_t>{6}).outcome,
            store::PerfiOutcome::DueOther);
}

// Mutation fuzzing of the record decoders on valid payloads of each kind:
// every mutant decodes or throws std::runtime_error (a std::bad_alloc or a
// crash fails the test), and a decoded rtl or perfi record re-encodes to
// the mutant's bytes.
TEST_F(StoreTest, MutatedRecordPayloadsDecodeOrRefuse) {
  store::RtlRecord rtl;
  rtl.outcome = store::RtlOutcome::SdcSingle;
  rtl.corrupted = 2;
  rtl.per_warp_corrupted = 0.75;
  rtl.rel_errors = {1e-3, 2.5};
  rtl.corrupted_idx = {1, 9, 40};
  store::PerfiRecord perfi;
  perfi.outcome = store::PerfiOutcome::DueHang;
  std::mt19937_64 rng(0x5EED);
  std::size_t fed = 0, refused = 0;
  const auto feed = [&](const std::vector<std::uint8_t>& valid, auto decode,
                        bool canonical) {
    for (const std::vector<std::uint8_t>& m : test::byte_mutants(valid, rng)) {
      ++fed;
      try {
        const auto rec = decode(m);
        if (canonical) {
          EXPECT_EQ(store::encode(rec), m);
        }
      } catch (const std::runtime_error&) {
        ++refused;
      }
    }
  };
  feed(gate_payload(77, true), store::decode_gate, false);
  feed(store::encode(rtl), store::decode_rtl, true);
  feed(store::encode(perfi), store::decode_perfi, true);
  EXPECT_GT(fed, 300u);
  EXPECT_GT(refused, 100u);
  EXPECT_LT(refused, fed);
}

// Mutation fuzzing of the log readers: for each mutant of a valid log,
// scan_records and ResultLog's open-time torn-tail recovery either both
// refuse it (a bad header) or both read the same records, scan_records
// leaves the file as it was, and recovery leaves exactly those records.
TEST_F(StoreTest, MutatedLogsRecoverOrRefuse) {
  const std::string valid_path = path("valid.gpfs");
  {
    store::ResultLog log(valid_path, gate_meta());
    for (std::uint32_t id = 0; id < 6; ++id)
      log.append(id, gate_payload(id, id % 2 == 0));
  }
  const std::vector<std::uint8_t> valid = read_bytes(valid_path);
  const std::string p = path("mutant.gpfs");
  std::mt19937_64 rng(0x106);
  std::size_t fed = 0, refused = 0, recovered = 0;
  for (const std::vector<std::uint8_t>& m : test::byte_mutants(valid, rng)) {
    ++fed;
    {
      std::ofstream out(p, std::ios::binary | std::ios::trunc);
      out.write(reinterpret_cast<const char*>(m.data()),
                static_cast<std::streamsize>(m.size()));
    }
    std::vector<store::Record> scanned;
    bool scan_refused = false;
    try {
      scanned = store::scan_records(p);
    } catch (const std::runtime_error&) {
      scan_refused = true;
    }
    ASSERT_EQ(read_bytes(p), m) << "scan_records changed mutant " << fed;
    try {
      store::ResultLog log(p);
      ASSERT_FALSE(scan_refused) << "mutant " << fed;
      const std::vector<store::Record>& got = log.recovered();
      ASSERT_EQ(got.size(), scanned.size()) << "mutant " << fed;
      std::size_t bytes = store::ResultLog::kHeaderSize;
      for (std::size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i].id, scanned[i].id);
        EXPECT_EQ(got[i].payload, scanned[i].payload);
        bytes += store::RecordBatch::kFrameBytes + got[i].payload.size();
      }
      if (log.torn_bytes_dropped()) ++recovered;
      EXPECT_EQ(std::filesystem::file_size(p), bytes) << "mutant " << fed;
    } catch (const std::runtime_error&) {
      EXPECT_TRUE(scan_refused) << "mutant " << fed;
      ++refused;
    }
  }
  EXPECT_GT(fed, 400u);
  EXPECT_GT(refused, 50u);
  EXPECT_GT(recovered, 50u);
}

TEST_F(StoreTest, MergeCreatesMissingOutputDirectories) {
  const std::string a = path("in-a.gpfs");
  const std::string b = path("in-b.gpfs");
  {
    store::ResultLog la(a, gate_meta(0, 2));
    la.append(0, gate_payload(0, false));
    store::ResultLog lb(b, gate_meta(1, 2));
    lb.append(1, gate_payload(1, false));
  }
  const std::string out = path("fresh/nested/dir/merged.gpfs");
  const store::MergeStats st = store::merge_store_files({a, b}, out);
  EXPECT_EQ(st.records, 2u);
  const store::LoadedStore merged = store::load_store(out);
  EXPECT_EQ(merged.records.size(), 2u);
  EXPECT_EQ(merged.meta.shard_count, 1u);
}

// `gpfctl run --store DIR` with a DIR that does not exist yet: the store
// creates its parent directories, records, and reopens for a resume.
TEST_F(StoreTest, CheckpointCreatesMissingParentDirectories) {
  const std::string p = path("new/nested/x.gpfs");
  {
    store::CampaignCheckpoint ckpt(p, gate_meta());
    EXPECT_TRUE(ckpt.record(4, gate_payload(4, false)));
    ckpt.sync();
  }
  store::CampaignCheckpoint ckpt(p, gate_meta());
  ASSERT_EQ(ckpt.done().size(), 1u);
  EXPECT_EQ(ckpt.done().at(4), gate_payload(4, false));
}

TEST_F(StoreTest, ExportIsDeterministicAndSorted) {
  const std::string p = path("exp.gpfs");
  {
    store::CampaignCheckpoint ckpt(p, gate_meta());
    // Out-of-order appends: export must come back id-sorted.
    ckpt.record(9, gate_payload(9, false));
    ckpt.record(1, gate_payload(1, true));
    ckpt.record(4, gate_payload(4, false));
  }
  std::ostringstream a, b, csv;
  store::export_store(store::load_store(p), store::ExportFormat::Json, a);
  store::export_store(store::load_store(p), store::ExportFormat::Json, b);
  store::export_store(store::load_store(p), store::ExportFormat::Csv, csv);
  EXPECT_EQ(a.str(), b.str());
  EXPECT_NE(a.str().find("\"id\": 1"), std::string::npos);
  EXPECT_LT(a.str().find("\"id\": 1"), a.str().find("\"id\": 4"));
  EXPECT_LT(a.str().find("\"id\": 4"), a.str().find("\"id\": 9"));
  // CSV: header line then one id-sorted row per record.
  std::istringstream lines(csv.str());
  std::string line;
  std::vector<std::string> first_fields;
  while (std::getline(lines, line))
    first_fields.push_back(line.substr(0, line.find(',')));
  ASSERT_EQ(first_fields.size(), 4u);
  EXPECT_EQ(first_fields[0], "id");
  EXPECT_EQ(first_fields[1], "1");
  EXPECT_EQ(first_fields[2], "4");
  EXPECT_EQ(first_fields[3], "9");
}

}  // namespace
