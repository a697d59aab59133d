#include "warehouse/segment.hpp"

#include <cerrno>
#include <cstdio>
#include <cstring>

#include "obs/metrics.hpp"
#include "store/bytes.hpp"

namespace gpf::warehouse {

namespace {

/// Magic and version in front of the meta.
constexpr std::size_t kHeadBytes = 8 + 4;
/// One source row: shard_index, shard_count, scanned_records, rows.
constexpr std::size_t kSourceBytes = 4 + 4 + 8 + 8;

std::vector<std::uint8_t> encode_segment(const Footer& f) {
  std::vector<std::uint8_t> out;
  store::ByteWriter w(out);
  w.u64(kSegmentMagic);
  w.u32(kSegmentVersion);
  const auto meta = store::ResultLog::encode_meta(f.meta);
  out.insert(out.end(), meta.begin(), meta.end());
  w.u64(f.rows);
  const auto roll = encode(f.rollups);
  out.insert(out.end(), roll.begin(), roll.end());
  w.u32(static_cast<std::uint32_t>(f.sources.size()));
  for (const SourceTally& s : f.sources) {
    w.u32(s.shard_index);
    w.u32(s.shard_count);
    w.u64(s.scanned_records);
    w.u64(s.rows);
  }
  w.u32(store::crc32(out));
  return out;
}

Footer decode_segment(std::span<const std::uint8_t> bytes) {
  if (bytes.size() < kHeadBytes + store::ResultLog::kHeaderSize + 4)
    throw SegmentError("file too short");
  store::ByteReader head(bytes.first(kHeadBytes));
  if (head.u64() != kSegmentMagic)
    throw SegmentError("bad magic (not a gpfw file)");
  const std::uint32_t version = head.u32();
  if (version != kSegmentVersion)
    throw SegmentError("unsupported segment version " +
                       std::to_string(version));
  const std::span<const std::uint8_t> body = bytes.first(bytes.size() - 4);
  if (store::crc32(body) != store::ByteReader(bytes.last(4)).u32())
    throw SegmentError("CRC mismatch");
  Footer f;
  try {
    f.meta = store::ResultLog::decode_meta(
        body.subspan(kHeadBytes, store::ResultLog::kHeaderSize));
    store::ByteReader rd(
        body.subspan(kHeadBytes + store::ResultLog::kHeaderSize));
    f.rows = rd.u64();
    f.rollups = decode_rollups(rd);
    f.sources.resize(rd.count(kSourceBytes, "segment sources"));
    for (SourceTally& s : f.sources) {
      s.shard_index = rd.u32();
      s.shard_count = rd.u32();
      s.scanned_records = rd.u64();
      s.rows = rd.u64();
      if (s.shard_count == 0 || s.shard_index >= s.shard_count)
        throw SegmentError("invalid source shard slice");
    }
    if (!rd.done()) throw SegmentError("trailing bytes");
  } catch (const SegmentError&) {
    throw;
  } catch (const std::exception& e) {
    throw SegmentError(std::string("malformed: ") + e.what());
  }
  if (f.rollups.kind != f.meta.kind || f.rollups.rows != f.rows)
    throw SegmentError("rollups disagree with the campaign meta");
  return f;
}

}  // namespace

void write_footer(const std::string& path, const Footer& f) {
  static obs::Counter& writes = obs::counter("warehouse.segments_written");
  static obs::Counter& bytes_out = obs::counter("warehouse.segment_bytes");
  const std::vector<std::uint8_t> out = encode_segment(f);

  store::create_parent_dirs(path);
  const std::string tmp = path + ".tmp";
  std::FILE* file = std::fopen(tmp.c_str(), "wb");
  if (!file)
    throw std::runtime_error("warehouse: cannot create " + tmp + ": " +
                             std::strerror(errno));
  const bool wrote =
      std::fwrite(out.data(), 1, out.size(), file) == out.size() &&
      std::fflush(file) == 0;
  std::fclose(file);
  if (!wrote) {
    std::remove(tmp.c_str());
    throw std::runtime_error("warehouse: short write to " + tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    throw std::runtime_error("warehouse: rename failed for " + path);
  }
  writes.add(1);
  bytes_out.add(out.size());
}

Footer read_footer(const std::string& path) {
  static obs::Counter& reads = obs::counter("warehouse.footer_reads");
  static obs::Histogram& latency = obs::histogram("warehouse.footer_read_us");
  obs::ScopedTimerUs timer(latency);
  try {
    Footer f = decode_segment(store::read_file(path));
    reads.add(1);
    return f;
  } catch (const std::runtime_error& e) {
    throw SegmentError("warehouse: " + path + ": " + e.what());
  }
}

}  // namespace gpf::warehouse
