#include "store/result_log.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <stdexcept>
#include <system_error>

#include "common/env.hpp"
#include "obs/metrics.hpp"
#include "store/bytes.hpp"

namespace gpf::store {

namespace {

// fsync the directory containing `path` so a just-renamed file's directory
// entry is itself durable (rename alone only orders data, not the entry).
void fsync_parent_dir(const std::string& path) {
  const auto slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos ? "." : path.substr(0, slash);
  const int fd = ::open(dir.empty() ? "/" : dir.c_str(), O_RDONLY);
  if (fd < 0) return;  // best-effort: some filesystems refuse dir opens
  ::fsync(fd);
  ::close(fd);
}

std::string recovery_tmp_path(const std::string& path) {
  return path + ".recover.tmp";
}

/// Parses consecutive records at the front of `bytes` (which must begin on a
/// record boundary), appending them to `out`. Returns the number of bytes
/// consumed — parsing stops before the first torn record (payload cut short
/// or CRC mismatch), so the remainder is the torn tail.
std::size_t parse_records(std::span<const std::uint8_t> bytes,
                          std::vector<Record>& out) {
  constexpr std::size_t kFrame = RecordBatch::kFrameBytes;
  std::size_t pos = 0;
  while (pos + kFrame <= bytes.size()) {
    ByteReader r(bytes.subspan(pos, kFrame));
    const std::uint64_t id = r.u64();
    const std::uint32_t len = r.u32();
    const std::uint32_t want = r.u32();
    if (pos + kFrame + len > bytes.size()) break;  // torn: payload cut short
    const auto crc_span = bytes.subspan(pos, 8);  // id bytes
    const auto payload = bytes.subspan(pos + kFrame, len);
    if (crc32(payload, crc32(crc_span)) != want) break;  // torn: bad CRC
    out.push_back({id, {payload.begin(), payload.end()}});
    pos += kFrame + len;
  }
  return pos;
}

/// Reads `path` from byte `from` to EOF. Throws when the file cannot be
/// opened or is shorter than `from`.
std::vector<std::uint8_t> read_file_from(const std::string& path,
                                         std::size_t from) {
  std::FILE* in = std::fopen(path.c_str(), "rb");
  if (!in)
    throw std::runtime_error("store: cannot open " + path + ": " +
                             std::strerror(errno));
  std::vector<std::uint8_t> bytes;
  std::array<std::uint8_t, 65536> buf;
  std::size_t skipped = 0;
  while (skipped < from) {
    const std::size_t n =
        std::fread(buf.data(), 1, std::min(buf.size(), from - skipped), in);
    if (n == 0) break;
    skipped += n;
  }
  if (skipped < from) {
    std::fclose(in);
    throw std::runtime_error("store: " + path + " is shorter than offset " +
                             std::to_string(from) +
                             " (log truncated since the watermark was taken)");
  }
  for (std::size_t n; (n = std::fread(buf.data(), 1, buf.size(), in)) > 0;)
    bytes.insert(bytes.end(), buf.begin(), buf.begin() + static_cast<long>(n));
  std::fclose(in);
  return bytes;
}

// Slice-by-8 tables: kCrcTables[k][b] is the CRC register contribution of
// byte b followed by k zero bytes, so eight bytes fold in with eight lookups
// and no serial dependency between them. kCrcTables[0] is the classic
// byte-at-a-time table of the reflected polynomial 0xEDB88320.
using CrcTables = std::array<std::array<std::uint32_t, 256>, 8>;

constexpr CrcTables make_crc_tables() {
  CrcTables t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    t[0][i] = c;
  }
  for (std::size_t k = 1; k < 8; ++k)
    for (std::uint32_t i = 0; i < 256; ++i)
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFFu];
  return t;
}

constexpr CrcTables kCrcTables = make_crc_tables();

std::uint32_t load_le32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) |
         static_cast<std::uint32_t>(p[1]) << 8 |
         static_cast<std::uint32_t>(p[2]) << 16 |
         static_cast<std::uint32_t>(p[3]) << 24;
}

}  // namespace

std::uint32_t crc32(std::span<const std::uint8_t> data, std::uint32_t seed) {
  const CrcTables& t = kCrcTables;
  std::uint32_t c = seed ^ 0xFFFFFFFFu;
  const std::uint8_t* p = data.data();
  std::size_t n = data.size();
  for (; n >= 8; p += 8, n -= 8) {
    const std::uint32_t lo = load_le32(p) ^ c;
    const std::uint32_t hi = load_le32(p + 4);
    c = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^ t[5][(lo >> 16) & 0xFFu] ^
        t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^ t[2][(hi >> 8) & 0xFFu] ^
        t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
  }
  for (; n > 0; ++p, --n) c = t[0][(c ^ *p) & 0xFFu] ^ (c >> 8);
  return c ^ 0xFFFFFFFFu;
}

void RecordBatch::add(std::uint64_t id, std::span<const std::uint8_t> payload) {
  const std::size_t at = bytes_.size();
  ByteWriter w(bytes_);
  w.u64(id);
  w.u32(static_cast<std::uint32_t>(payload.size()));
  w.u32(crc32(payload, crc32(std::span(bytes_).subspan(at, 8))));
  bytes_.insert(bytes_.end(), payload.begin(), payload.end());
  ++records_;
}

const char* campaign_kind_name(CampaignKind k) {
  switch (k) {
    case CampaignKind::Gate: return "gate";
    case CampaignKind::Rtl: return "rtl";
    case CampaignKind::Perfi: return "perfi";
  }
  return "?";
}

bool CampaignMeta::same_campaign(const CampaignMeta& o) const {
  return kind == o.kind && target == o.target && model == o.model &&
         seed == o.seed && total == o.total && param0 == o.param0 &&
         param1 == o.param1 && app == o.app;
}

bool CampaignMeta::operator==(const CampaignMeta& o) const {
  return same_campaign(o) && engine == o.engine && shard_index == o.shard_index &&
         shard_count == o.shard_count;
}

std::vector<std::uint8_t> ResultLog::encode_meta(const CampaignMeta& meta) {
  std::vector<std::uint8_t> out;
  out.reserve(kHeaderSize);
  ByteWriter w(out);
  w.u64(kMagic);
  w.u32(kVersion);
  w.u8(static_cast<std::uint8_t>(meta.kind));
  w.u8(meta.target);
  w.u8(meta.model);
  w.u8(meta.engine);
  w.u64(meta.seed);
  w.u64(meta.total);
  w.u32(meta.shard_index);
  w.u32(meta.shard_count);
  w.u64(meta.param0);
  w.u64(meta.param1);
  w.fixed_str(meta.app, 20);
  w.u32(crc32(out));
  return out;
}

CampaignMeta ResultLog::decode_meta(std::span<const std::uint8_t> header) {
  if (header.size() < kHeaderSize)
    throw std::runtime_error("store: file shorter than header");
  const std::uint32_t want = crc32(header.subspan(0, kHeaderSize - 4));
  ByteReader r(header.subspan(0, kHeaderSize));
  CampaignMeta m;
  if (r.u64() != kMagic) throw std::runtime_error("store: bad magic (not a gpfs file)");
  const std::uint32_t version = r.u32();
  if (version != kVersion)
    throw std::runtime_error("store: unsupported format version " +
                             std::to_string(version));
  m.kind = static_cast<CampaignKind>(r.u8());
  m.target = r.u8();
  m.model = r.u8();
  m.engine = r.u8();
  m.seed = r.u64();
  m.total = r.u64();
  m.shard_index = r.u32();
  m.shard_count = r.u32();
  m.param0 = r.u64();
  m.param1 = r.u64();
  m.app = r.fixed_str(20);
  if (r.u32() != want) throw std::runtime_error("store: header CRC mismatch");
  if (m.shard_count == 0 || m.shard_index >= m.shard_count)
    throw std::runtime_error("store: invalid shard slice in header");
  return m;
}

ResultLog::ResultLog(const std::string& path, const CampaignMeta& meta)
    : path_(path) {
  if (std::FILE* probe = std::fopen(path.c_str(), "rb")) {
    std::fclose(probe);
    open_existing(&meta);
  } else {
    create_new(meta);
  }
}

ResultLog::ResultLog(const std::string& path) : path_(path) {
  open_existing(nullptr);
}

ResultLog::~ResultLog() {
  if (!f_) return;
  try {
    sync();  // graceful close leaves the log durable
  } catch (...) {
  }
  std::fclose(f_);
}

void ResultLog::create_new(const CampaignMeta& meta) {
  if (meta.app.size() > 19)
    throw std::runtime_error("store: app name too long (max 19 chars): " + meta.app);
  meta_ = meta;
  create_parent_dirs(path_);
  f_ = std::fopen(path_.c_str(), "wb");
  if (!f_)
    throw std::runtime_error("store: cannot create " + path_ + ": " +
                             std::strerror(errno));
  const auto header = encode_meta(meta_);
  if (std::fwrite(header.data(), 1, header.size(), f_) != header.size() ||
      std::fflush(f_) != 0)
    throw std::runtime_error("store: short write creating " + path_);
}

void ResultLog::open_existing(const CampaignMeta* expect) {
  // A stale temp file here means a previous recovery crashed before (or
  // during) its rename. The original is authoritative either way — a rename
  // is atomic, so `path_` is always either the untouched original or a
  // complete trimmed copy — and the leftover is just deleted.
  std::remove(recovery_tmp_path(path_).c_str());

  const std::vector<std::uint8_t> bytes = read_file_from(path_, 0);

  meta_ = decode_meta(bytes);
  if (expect && !(*expect == meta_))
    throw std::runtime_error(
        "store: " + path_ +
        " belongs to a different campaign (kind/target/engine/seed/size/shard "
        "mismatch) — refusing to resume into it");

  // Scan records; stop at the first torn one and truncate it away.
  const std::size_t valid_end =
      kHeaderSize +
      parse_records(std::span(bytes).subspan(kHeaderSize), recovered_);
  torn_bytes_ = bytes.size() - valid_end;

  if (torn_bytes_ > 0) {
    // Drop the torn tail atomically: write header + valid records to a temp
    // file, make its data durable, rename it over the original, then fsync
    // the directory. A crash at any point leaves either the original (with
    // its recoverable tail still intact) or the complete trimmed copy —
    // never a partially rewritten log.
    const std::string tmp = recovery_tmp_path(path_);
    std::FILE* out = std::fopen(tmp.c_str(), "wb");
    if (!out) throw std::runtime_error("store: cannot create " + tmp);
    const bool wrote =
        std::fwrite(bytes.data(), 1, valid_end, out) == valid_end &&
        std::fflush(out) == 0 && ::fdatasync(fileno(out)) == 0;
    std::fclose(out);
    if (!wrote) {
      std::remove(tmp.c_str());
      throw std::runtime_error("store: short write recovering " + path_);
    }
    if (std::rename(tmp.c_str(), path_.c_str()) != 0) {
      std::remove(tmp.c_str());
      throw std::runtime_error("store: rename failed recovering " + path_);
    }
    fsync_parent_dir(path_);
    static obs::Counter& recoveries = obs::counter("store.torn_recoveries");
    static obs::Counter& dropped = obs::counter("store.torn_bytes_dropped");
    recoveries.add(1);
    dropped.add(torn_bytes_);
  }
  f_ = std::fopen(path_.c_str(), "ab");
  if (!f_) throw std::runtime_error("store: cannot reopen " + path_);
}

void ResultLog::append(const RecordBatch& batch) {
  if (batch.empty()) return;
  static obs::Counter& appends = obs::counter("store.appends");
  static obs::Counter& writes = obs::counter("store.append_writes");
  static obs::Counter& bytes = obs::counter("store.append_bytes");
  static obs::Histogram& latency = obs::histogram("store.append_us");
  obs::ScopedTimerUs timer(latency);
  const std::span<const std::uint8_t> out = batch.bytes();
  if (std::fwrite(out.data(), 1, out.size(), f_) != out.size() ||
      std::fflush(f_) != 0)
    throw std::runtime_error("store: append failed on " + path_);
  unsynced_bytes_ += out.size();
  appends.add(batch.size());
  writes.add(1);
  bytes.add(out.size());
}

void ResultLog::append(std::uint64_t id, std::span<const std::uint8_t> payload) {
  RecordBatch one(1, payload.size());
  one.add(id, payload);
  append(one);
}

void ResultLog::sync() {
  if (!f_ || unsynced_bytes_ == 0) return;
  if (std::fflush(f_) != 0)
    throw std::runtime_error("store: flush failed on " + path_);
  if (fsync_enabled()) {
    static obs::Counter& syncs = obs::counter("store.fsyncs");
    static obs::Counter& durable = obs::counter("store.durable_bytes");
    static obs::Histogram& latency = obs::histogram("store.fsync_us");
    obs::ScopedTimerUs timer(latency);
    if (::fdatasync(fileno(f_)) != 0)
      throw std::runtime_error("store: fdatasync failed on " + path_ + ": " +
                               std::strerror(errno));
    syncs.add(1);
    durable.add(unsynced_bytes_);
  }
  unsynced_bytes_ = 0;
}

ScannedTail scan_records(const std::string& path, std::size_t from_offset) {
  if (from_offset < ResultLog::kHeaderSize)
    throw std::runtime_error("store: scan offset inside the header");
  ScannedTail out;
  const std::vector<std::uint8_t> bytes = read_file_from(path, from_offset);
  out.end_offset = from_offset + parse_records(bytes, out.records);
  return out;
}

CampaignMeta read_store_meta(const std::string& path) {
  std::FILE* in = std::fopen(path.c_str(), "rb");
  if (!in)
    throw std::runtime_error("store: cannot open " + path + ": " +
                             std::strerror(errno));
  std::array<std::uint8_t, ResultLog::kHeaderSize> header{};
  const std::size_t n = std::fread(header.data(), 1, header.size(), in);
  std::fclose(in);
  if (n != header.size())
    throw std::runtime_error("store: " + path + " is shorter than its header");
  return ResultLog::decode_meta(header);
}

void create_parent_dirs(const std::string& path) {
  const auto slash = path.find_last_of('/');
  if (slash == std::string::npos || slash == 0) return;  // cwd or root
  const std::string dir = path.substr(0, slash);
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec)
    throw std::runtime_error("store: cannot create output directory " + dir +
                             ": " + ec.message());
}

LoadedStore load_store(const std::string& path) {
  ResultLog log(path);
  LoadedStore out;
  out.meta = log.meta();
  out.torn_bytes_dropped = log.torn_bytes_dropped();
  for (const Record& r : log.recovered()) {
    auto [it, inserted] = out.records.try_emplace(r.id, r.payload);
    if (!inserted) {
      it->second = r.payload;  // re-recorded id: last write wins
      ++out.duplicate_records;
    }
  }
  return out;
}

}  // namespace gpf::store
