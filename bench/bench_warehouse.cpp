// Warehouse query-vs-fullscan benchmark: builds a >=100k-record campaign
// store, compacts it into a .gpfw segment, and compares answering the EPR
// summary from the pre-aggregated footer (read_footer) against recomputing
// it with a full log scan (load_store + compute_rollups). Also times
// compaction (median of 5) and asserts the rollup-vs-full-scan equality
// invariant on the benchmark store.
//
// Store appends: the 100k-record store is built kRounds times each way, one
// record per write (ResultLog::append(id, payload)) and one kBatchRecords
// batch per write (RecordBatch), from pre-encoded payloads; records/s comes
// from the fastest round of each, and both builds must give identical
// bytes. crc32 throughput is the fastest of kRounds passes over 16 MiB.
//
// Results land in BENCH_warehouse.json (next to the binary, or in
// GPF_BENCH_JSON_DIR) so the speedup is tracked across PRs.
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <iterator>
#include <string>
#include <vector>

#include "store/records.hpp"
#include "store/result_log.hpp"
#include "warehouse/compact.hpp"
#include "warehouse/query.hpp"
#include "warehouse/rollups.hpp"

using namespace gpf;

namespace {

constexpr std::uint64_t kRows = 100000;
/// Rounds of each store build and of the crc32 pass (min of N).
constexpr int kRounds = 5;
/// Records per write of the batched store build.
constexpr std::uint64_t kBatchRecords = 512;
/// Bytes per crc32 pass.
constexpr std::size_t kCrcBytes = std::size_t{16} << 20;

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// Wall time of the fastest of `rounds` runs of `fn`.
template <typename Fn>
double min_seconds(int rounds, Fn&& fn) {
  double best = 0;
  for (int i = 0; i < rounds; ++i) {
    const double t = fn();
    if (i == 0 || t < best) best = t;
  }
  return best;
}

/// Median wall time of `reps` runs of `fn`.
template <typename Fn>
double median_seconds(int reps, Fn&& fn) {
  std::vector<double> times;
  times.reserve(static_cast<std::size_t>(reps));
  for (int i = 0; i < reps; ++i) {
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    times.push_back(seconds_since(t0));
  }
  std::sort(times.begin(), times.end());
  return times[times.size() / 2];
}

store::CampaignMeta bench_meta(std::uint64_t total) {
  store::CampaignMeta m;
  m.kind = store::CampaignKind::Perfi;
  m.model = 0;
  m.seed = 1234;
  m.total = total;
  m.app = "bench";
  return m;
}

std::vector<std::uint8_t> payload_for(std::uint64_t id) {
  store::PerfiRecord r;
  // Mix of outcomes keeps every rollup array populated (a splitmix-style
  // scramble so neighboring ids land in different buckets).
  std::uint64_t x = id * 0x9E3779B97F4A7C15ull;
  x ^= x >> 31;
  r.outcome = static_cast<store::PerfiOutcome>(x % 7);
  return store::encode(r);
}

}  // namespace

int main() {
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      ("gpf-bench-warehouse-" + std::to_string(::getpid()));
  std::filesystem::create_directories(dir);
  const std::string store_path = (dir / "bench.gpfs").string();
  const std::string seg_path = warehouse::warehouse_path_for(store_path);

  // Store appends, one record per write against one batch per write. Each
  // round builds a fresh store; only the appends are timed (the close's
  // fdatasync is not).
  std::vector<std::vector<std::uint8_t>> payloads;
  payloads.reserve(kRows);
  for (std::uint64_t id = 0; id < kRows; ++id) payloads.push_back(payload_for(id));
  // Every payload is one outcome byte.
  const std::size_t payload_size = payloads.front().size();
  const std::size_t record_bytes = store::RecordBatch::kFrameBytes + payload_size;
  const std::string batched_path = (dir / "batched.gpfs").string();
  const auto build = [&](const std::string& path, bool batched) {
    std::filesystem::remove(path);
    store::ResultLog log(path, bench_meta(kRows));
    const auto t0 = std::chrono::steady_clock::now();
    if (batched) {
      for (std::uint64_t lo = 0; lo < kRows; lo += kBatchRecords) {
        const std::uint64_t hi = std::min(kRows, lo + kBatchRecords);
        store::RecordBatch batch(hi - lo, (hi - lo) * payload_size);
        for (std::uint64_t id = lo; id < hi; ++id) batch.add(id, payloads[id]);
        log.append(batch);
      }
    } else {
      for (std::uint64_t id = 0; id < kRows; ++id) log.append(id, payloads[id]);
    }
    return seconds_since(t0);
  };
  std::cout << "building " << kRows << "-record store, " << kRounds
            << " rounds each way ... " << std::flush;
  const double single_seconds =
      min_seconds(kRounds, [&] { return build(store_path, false); });
  const double batch_seconds =
      min_seconds(kRounds, [&] { return build(batched_path, true); });
  const double single_rate = static_cast<double>(kRows) / single_seconds;
  const double batch_rate = static_cast<double>(kRows) / batch_seconds;
  const double batch_speedup = batch_rate / single_rate;
  std::cout << "done (" << std::filesystem::file_size(store_path)
            << " bytes)\n";
  std::printf("store appends: %.0f records/s one per write, %.0f records/s "
              "%llu per write (%.1fx)\n",
              single_rate, batch_rate,
              static_cast<unsigned long long>(kBatchRecords), batch_speedup);
  {
    std::ifstream a(store_path, std::ios::binary), b(batched_path, std::ios::binary);
    const std::vector<char> ab{std::istreambuf_iterator<char>(a), {}};
    const std::vector<char> bb{std::istreambuf_iterator<char>(b), {}};
    if (ab != bb) {
      std::cerr << "FAIL: the batched store's bytes differ from the "
                   "one-record-per-write store's\n";
      return 1;
    }
  }

  // crc32 throughput.
  std::vector<std::uint8_t> crc_buf(kCrcBytes);
  for (std::size_t i = 0; i < crc_buf.size(); ++i)
    crc_buf[i] = static_cast<std::uint8_t>(i * 0x9E3779B1u >> 24);
  std::uint32_t crc_sink = 0;
  const double crc_seconds = min_seconds(kRounds, [&] {
    const auto t0 = std::chrono::steady_clock::now();
    crc_sink ^= store::crc32(crc_buf);
    return seconds_since(t0);
  });
  const double crc_mb_per_s = static_cast<double>(kCrcBytes) / 1e6 / crc_seconds;
  std::printf("crc32: %.0f MB/s (checksum %08x)\n", crc_mb_per_s, crc_sink);

  // Compaction: one full scan of the log, rollups and the footer write.
  std::uint64_t compacted_rows = 0;
  const double compact_seconds = median_seconds(5, [&] {
    compacted_rows = warehouse::compact_stores({store_path}, seg_path).rows;
  });
  std::cout << "compact: " << compacted_rows << " rows -> "
            << std::filesystem::file_size(seg_path) << " bytes in "
            << compact_seconds << " s\n";

  // The contenders. Both produce the same EPR summary; the full scan decodes
  // every record, the query reads only the footer.
  warehouse::Rollups scan_rollups, query_rollups;
  const double full_scan_seconds = median_seconds(5, [&] {
    scan_rollups = warehouse::compute_rollups(store::load_store(store_path));
  });
  const double query_seconds = median_seconds(25, [&] {
    query_rollups = warehouse::read_footer(seg_path).rollups;
  });

  if (!(scan_rollups == query_rollups)) {
    std::cerr << "FAIL: rollups from the segment footer differ from the full "
                 "log scan\n";
    return 1;
  }
  const double speedup =
      query_seconds > 0 ? full_scan_seconds / query_seconds : 0.0;
  std::printf("full scan: %.6f s   footer query: %.6f s   speedup: %.1fx\n",
              full_scan_seconds, query_seconds, speedup);

  const char* out_dir = std::getenv("GPF_BENCH_JSON_DIR");
  const std::string json_path =
      std::string(out_dir && *out_dir ? out_dir : ".") + "/BENCH_warehouse.json";
  std::ofstream os(json_path);
  if (os) {
    char buf[1536];
    std::snprintf(buf, sizeof(buf),
                  "{\n  \"bench\": \"warehouse\",\n"
                  "  \"config\": {\"rounds\": %d, \"rows\": %llu, "
                  "\"record_bytes\": %zu, \"batch_records\": %llu, "
                  "\"crc_bytes\": %zu},\n"
                  "  \"rows\": %llu,\n"
                  "  \"store_bytes\": %llu,\n  \"segment_bytes\": %llu,\n"
                  "  \"append_records_per_s_single\": %.0f,\n"
                  "  \"append_records_per_s_batch\": %.0f,\n"
                  "  \"append_batch_speedup\": %.2f,\n"
                  "  \"crc32_mb_per_s\": %.0f,\n"
                  "  \"compact_seconds\": %.6f,\n"
                  "  \"full_scan_seconds\": %.6f,\n"
                  "  \"query_seconds\": %.6f,\n  \"speedup\": %.1f\n}\n",
                  kRounds, static_cast<unsigned long long>(kRows),
                  record_bytes, static_cast<unsigned long long>(kBatchRecords),
                  kCrcBytes,
                  static_cast<unsigned long long>(compacted_rows),
                  static_cast<unsigned long long>(
                      std::filesystem::file_size(store_path)),
                  static_cast<unsigned long long>(
                      std::filesystem::file_size(seg_path)),
                  single_rate, batch_rate, batch_speedup, crc_mb_per_s,
                  compact_seconds, full_scan_seconds,
                  query_seconds, speedup);
    os << buf;
    std::cout << "wrote " << json_path << "\n";
  } else {
    std::cerr << "warning: cannot write " << json_path << "\n";
  }

  std::filesystem::remove_all(dir);

  // The acceptance floor is 50x on a quiet machine; fail below 25x so a
  // regression that erodes the whole point of the warehouse (O(ms) queries)
  // turns the bench red without CI-noise flakes.
  if (speedup < 25.0) {
    std::cerr << "FAIL: query speedup " << speedup << "x below the 25x floor\n";
    return 1;
  }
  return 0;
}
