#include "warehouse/segment.hpp"

#include <array>
#include <cerrno>
#include <cstdio>
#include <cstring>

#include "obs/metrics.hpp"
#include "store/bytes.hpp"
#include "store/records.hpp"

namespace gpf::warehouse {

namespace {

// Column ids, per record kind. Kept disjoint from the per-model gate count
// columns, which occupy [kGateCountBase, kGateCountBase + kNumErrorModels).
enum : std::uint32_t {
  kColId = 0,        // u64 fault/injection id (all kinds)
  kColNet = 1,       // gate: u32 net
  kColFlags = 2,     // gate: u8 bit0 stuck_high, bit1 activated, bit2 hang
  kColOutcome = 3,   // rtl/perfi: u8 outcome
  kColCorrupted = 4, // rtl: u32 corrupted outputs
  kColPerWarp = 5,   // rtl: f64 per-warp corrupted
  kColRelLen = 6,    // rtl: u32 rel_errors length per row
  kColRelVal = 7,    // rtl: f64 rel_errors values, flattened
  kColIdxLen = 8,    // rtl: u32 corrupted_idx length per row
  kColIdxVal = 9,    // rtl: u32 corrupted_idx values, flattened
  kGateCountBase = 16,
  kColumnIds = kGateCountBase + errmodel::kNumErrorModels,  // ids are below
};

struct ColumnBlock {
  std::uint32_t id = 0;
  std::uint64_t rows = 0;
  std::vector<std::uint8_t> data;
};

void append_block(std::vector<std::uint8_t>& out, const ColumnBlock& b) {
  std::vector<std::uint8_t> head;
  store::ByteWriter w(head);
  w.u32(b.id);
  w.u64(b.rows);
  w.u64(b.data.size());
  const std::uint32_t crc =
      store::crc32(b.data, store::crc32(head));
  out.insert(out.end(), head.begin(), head.end());
  out.insert(out.end(), b.data.begin(), b.data.end());
  store::ByteWriter tail(out);
  tail.u32(crc);
}

/// Splits the records of one kind into typed column blocks.
std::vector<ColumnBlock> build_columns(
    store::CampaignKind kind,
    const std::map<std::uint64_t, std::vector<std::uint8_t>>& records) {
  // Blocks indexed by column id, so each field finds its block directly.
  std::vector<ColumnBlock> cols(kColumnIds);
  for (std::uint32_t id = 0; id < kColumnIds; ++id) cols[id].id = id;
  const auto push = [&cols](std::uint32_t id, auto write_field) {
    ColumnBlock& c = cols[id];
    store::ByteWriter w(c.data);
    write_field(w);
    ++c.rows;
  };

  for (const auto& [id, payload] : records) {
    push(kColId, [id = id](store::ByteWriter& w) { w.u64(id); });
    switch (kind) {
      case store::CampaignKind::Gate: {
        const store::GateRecord r = store::decode_gate(payload);
        push(kColNet, [&r](store::ByteWriter& w) { w.u32(r.net); });
        push(kColFlags, [&r](store::ByteWriter& w) {
          w.u8(static_cast<std::uint8_t>((r.stuck_high ? 1 : 0) |
                                         (r.activated ? 2 : 0) |
                                         (r.hang ? 4 : 0)));
        });
        for (unsigned m = 0; m < errmodel::kNumErrorModels; ++m)
          push(kGateCountBase + m,
               [&r, m](store::ByteWriter& w) { w.u32(r.error_counts[m]); });
        break;
      }
      case store::CampaignKind::Rtl: {
        const store::RtlRecord r = store::decode_rtl(payload);
        push(kColOutcome, [&r](store::ByteWriter& w) {
          w.u8(static_cast<std::uint8_t>(r.outcome));
        });
        push(kColCorrupted, [&r](store::ByteWriter& w) { w.u32(r.corrupted); });
        push(kColPerWarp,
             [&r](store::ByteWriter& w) { w.f64(r.per_warp_corrupted); });
        push(kColRelLen, [&r](store::ByteWriter& w) {
          w.u32(static_cast<std::uint32_t>(r.rel_errors.size()));
        });
        for (const double e : r.rel_errors)
          push(kColRelVal, [e](store::ByteWriter& w) { w.f64(e); });
        push(kColIdxLen, [&r](store::ByteWriter& w) {
          w.u32(static_cast<std::uint32_t>(r.corrupted_idx.size()));
        });
        for (const std::uint32_t i : r.corrupted_idx)
          push(kColIdxVal, [i](store::ByteWriter& w) { w.u32(i); });
        break;
      }
      case store::CampaignKind::Perfi: {
        const store::PerfiRecord r = store::decode_perfi(payload);
        push(kColOutcome, [&r](store::ByteWriter& w) {
          w.u8(static_cast<std::uint8_t>(r.outcome));
        });
        break;
      }
    }
  }

  // Guarantee a stable block order (and presence) even for an empty store:
  // list the kind's full column set, empty blocks included.
  std::vector<std::uint32_t> want{kColId};
  switch (kind) {
    case store::CampaignKind::Gate:
      want.push_back(kColNet);
      want.push_back(kColFlags);
      for (unsigned m = 0; m < errmodel::kNumErrorModels; ++m)
        want.push_back(kGateCountBase + m);
      break;
    case store::CampaignKind::Rtl:
      for (const std::uint32_t c : {kColOutcome, kColCorrupted, kColPerWarp,
                                    kColRelLen, kColRelVal, kColIdxLen,
                                    kColIdxVal})
        want.push_back(c);
      break;
    case store::CampaignKind::Perfi:
      want.push_back(kColOutcome);
      break;
  }
  std::vector<ColumnBlock> ordered;
  ordered.reserve(want.size());
  for (const std::uint32_t id : want) ordered.push_back(std::move(cols[id]));
  return ordered;
}

void encode_footer(std::vector<std::uint8_t>& out,
                   const store::CampaignMeta& meta, const Rollups& rollups,
                   const std::vector<SourceTally>& sources) {
  std::vector<std::uint8_t> body;
  {
    const auto meta_bytes = store::ResultLog::encode_meta(meta);
    body.insert(body.end(), meta_bytes.begin(), meta_bytes.end());
  }
  store::ByteWriter w(body);
  w.u64(rollups.rows);
  const auto roll = encode(rollups);
  body.insert(body.end(), roll.begin(), roll.end());
  store::ByteWriter w2(body);
  w2.u32(static_cast<std::uint32_t>(sources.size()));
  for (const SourceTally& s : sources) {
    w2.u32(s.shard_index);
    w2.u32(s.shard_count);
    w2.u64(s.scanned_records);
    w2.u64(s.watermark);
    w2.u64(s.rows);
  }
  const std::uint32_t crc = store::crc32(body);
  out.insert(out.end(), body.begin(), body.end());
  store::ByteWriter tail(out);
  tail.u32(crc);
}

Footer decode_footer(std::span<const std::uint8_t> block) {
  if (block.size() < 4) throw SegmentError("warehouse: footer too short");
  const std::span<const std::uint8_t> body = block.first(block.size() - 4);
  store::ByteReader crc_rd(block.subspan(block.size() - 4));
  if (store::crc32(body) != crc_rd.u32())
    throw SegmentError("warehouse: footer CRC mismatch");
  Footer f;
  try {
    if (body.size() < store::ResultLog::kHeaderSize)
      throw SegmentError("warehouse: footer shorter than meta");
    f.meta = store::ResultLog::decode_meta(
        body.first(store::ResultLog::kHeaderSize));
    store::ByteReader rd(body.subspan(store::ResultLog::kHeaderSize));
    f.rows = rd.u64();
    f.rollups = decode_rollups(rd);
    f.sources.resize(rd.u32());
    for (SourceTally& s : f.sources) {
      s.shard_index = rd.u32();
      s.shard_count = rd.u32();
      s.scanned_records = rd.u64();
      s.watermark = rd.u64();
      s.rows = rd.u64();
    }
    if (!rd.done()) throw SegmentError("warehouse: trailing footer bytes");
  } catch (const SegmentError&) {
    throw;
  } catch (const std::exception& e) {
    throw SegmentError(std::string("warehouse: malformed footer: ") + e.what());
  }
  return f;
}

std::vector<std::uint8_t> read_whole_file(const std::string& path) {
  std::FILE* in = std::fopen(path.c_str(), "rb");
  if (!in)
    throw SegmentError("warehouse: cannot open " + path + ": " +
                       std::strerror(errno));
  std::vector<std::uint8_t> bytes;
  std::array<std::uint8_t, 65536> buf;
  for (std::size_t n; (n = std::fread(buf.data(), 1, buf.size(), in)) > 0;)
    bytes.insert(bytes.end(), buf.begin(), buf.begin() + static_cast<long>(n));
  std::fclose(in);
  return bytes;
}

}  // namespace

Rollups write_segment(
    const std::string& path, const store::CampaignMeta& meta,
    const std::map<std::uint64_t, std::vector<std::uint8_t>>& records,
    const std::vector<SourceTally>& sources) {
  static obs::Counter& writes = obs::counter("warehouse.segments_written");
  static obs::Counter& bytes_out = obs::counter("warehouse.segment_bytes");
  static obs::Histogram& latency = obs::histogram("warehouse.write_us");
  obs::ScopedTimerUs timer(latency);

  Rollups rollups;
  rollups.kind = meta.kind;
  for (const auto& [id, payload] : records) rollups.add(id, payload);

  std::vector<std::uint8_t> out;
  {  // header
    std::vector<std::uint8_t> head;
    store::ByteWriter w(head);
    w.u64(kSegmentMagic);
    w.u32(kSegmentVersion);
    const auto meta_bytes = store::ResultLog::encode_meta(meta);
    head.insert(head.end(), meta_bytes.begin(), meta_bytes.end());
    const auto columns_for = build_columns(meta.kind, {});  // column count only
    store::ByteWriter w2(head);
    w2.u32(static_cast<std::uint32_t>(columns_for.size()));
    const std::uint32_t crc = store::crc32(head);
    out.insert(out.end(), head.begin(), head.end());
    store::ByteWriter tail(out);
    tail.u32(crc);
  }
  for (const ColumnBlock& b : build_columns(meta.kind, records))
    append_block(out, b);
  const std::uint64_t footer_offset = out.size();
  encode_footer(out, meta, rollups, sources);
  {  // trailer
    store::ByteWriter w(out);
    w.u64(footer_offset);
    w.u64(kSegmentEndMagic);
  }

  store::create_parent_dirs(path);
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (!f)
    throw std::runtime_error("warehouse: cannot create " + tmp + ": " +
                             std::strerror(errno));
  const bool wrote =
      std::fwrite(out.data(), 1, out.size(), f) == out.size() &&
      std::fflush(f) == 0;
  std::fclose(f);
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
  return rollups;
}

Segment read_segment(const std::string& path) {
  static obs::Counter& reads = obs::counter("warehouse.segments_read");
  const std::vector<std::uint8_t> bytes = read_whole_file(path);
  const std::span<const std::uint8_t> all(bytes);

  // Trailer first: it locates the footer and proves the file is complete.
  if (bytes.size() < 16) throw SegmentError("warehouse: file too short");
  store::ByteReader trailer(all.subspan(bytes.size() - 16));
  const std::uint64_t footer_offset = trailer.u64();
  if (trailer.u64() != kSegmentEndMagic)
    throw SegmentError("warehouse: missing end magic (truncated segment?)");
  if (footer_offset >= bytes.size() - 16)
    throw SegmentError("warehouse: footer offset out of range");
  const Footer footer =
      decode_footer(all.subspan(footer_offset, bytes.size() - 16 - footer_offset));

  // Header: magic + version + meta + column count + CRC over all of those.
  const std::size_t head_len = 8 + 4 + store::ResultLog::kHeaderSize + 4 + 4;
  if (footer_offset < head_len)
    throw SegmentError("warehouse: header overlaps footer");
  store::ByteReader head(all.first(head_len));
  if (head.u64() != kSegmentMagic)
    throw SegmentError("warehouse: bad magic (not a gpfw file)");
  const std::uint32_t version = head.u32();
  if (version != kSegmentVersion)
    throw SegmentError("warehouse: unsupported segment version " +
                       std::to_string(version));
  store::CampaignMeta meta;
  try {
    meta = store::ResultLog::decode_meta(
        all.subspan(12, store::ResultLog::kHeaderSize));
  } catch (const std::exception& e) {
    throw SegmentError(std::string("warehouse: malformed header meta: ") +
                       e.what());
  }
  std::uint32_t column_count;
  {
    store::ByteReader rd(all.subspan(12 + store::ResultLog::kHeaderSize, 8));
    column_count = rd.u32();
    const std::uint32_t want = rd.u32();
    if (store::crc32(all.first(head_len - 4)) != want)
      throw SegmentError("warehouse: header CRC mismatch");
  }

  // Column blocks.
  std::map<std::uint32_t, ColumnBlock> cols;
  std::size_t pos = head_len;
  for (std::uint32_t i = 0; i < column_count; ++i) {
    if (pos + 24 > footer_offset)
      throw SegmentError("warehouse: column block overruns footer");
    store::ByteReader rd(all.subspan(pos, 20));
    ColumnBlock b;
    b.id = rd.u32();
    b.rows = rd.u64();
    const std::uint64_t len = rd.u64();
    if (pos + 20 + len + 4 > footer_offset)
      throw SegmentError("warehouse: column data overruns footer");
    const auto data = all.subspan(pos + 20, len);
    store::ByteReader crc_rd(all.subspan(pos + 20 + len, 4));
    if (store::crc32(data, store::crc32(all.subspan(pos, 20))) != crc_rd.u32())
      throw SegmentError("warehouse: column CRC mismatch (id " +
                         std::to_string(b.id) + ")");
    b.data.assign(data.begin(), data.end());
    if (!cols.try_emplace(b.id, std::move(b)).second)
      throw SegmentError("warehouse: duplicate column id");
    pos += 20 + len + 4;
  }
  if (pos != footer_offset)
    throw SegmentError("warehouse: gap between columns and footer");

  // Reconstruct canonical record payloads from the columns.
  const auto need = [&cols](std::uint32_t id) -> const ColumnBlock& {
    const auto it = cols.find(id);
    if (it == cols.end())
      throw SegmentError("warehouse: missing column " + std::to_string(id));
    return it->second;
  };
  Segment seg;
  seg.meta = meta;
  seg.rollups = footer.rollups;
  seg.sources = footer.sources;
  try {
    const ColumnBlock& ids = need(kColId);
    const std::uint64_t rows = ids.rows;
    store::ByteReader id_rd(ids.data);
    switch (meta.kind) {
      case store::CampaignKind::Gate: {
        store::ByteReader net_rd(need(kColNet).data);
        store::ByteReader flag_rd(need(kColFlags).data);
        std::vector<store::ByteReader> count_rd;
        for (unsigned m = 0; m < errmodel::kNumErrorModels; ++m)
          count_rd.emplace_back(need(kGateCountBase + m).data);
        for (std::uint64_t i = 0; i < rows; ++i) {
          store::GateRecord r;
          const std::uint64_t id = id_rd.u64();
          r.net = net_rd.u32();
          const std::uint8_t flags = flag_rd.u8();
          r.stuck_high = (flags & 1) != 0;
          r.activated = (flags & 2) != 0;
          r.hang = (flags & 4) != 0;
          for (unsigned m = 0; m < errmodel::kNumErrorModels; ++m)
            r.error_counts[m] = count_rd[m].u32();
          seg.records.emplace(id, store::encode(r));
        }
        break;
      }
      case store::CampaignKind::Rtl: {
        store::ByteReader out_rd(need(kColOutcome).data);
        store::ByteReader cor_rd(need(kColCorrupted).data);
        store::ByteReader warp_rd(need(kColPerWarp).data);
        store::ByteReader rel_len_rd(need(kColRelLen).data);
        store::ByteReader rel_val_rd(need(kColRelVal).data);
        store::ByteReader idx_len_rd(need(kColIdxLen).data);
        store::ByteReader idx_val_rd(need(kColIdxVal).data);
        for (std::uint64_t i = 0; i < rows; ++i) {
          store::RtlRecord r;
          const std::uint64_t id = id_rd.u64();
          r.outcome = static_cast<store::RtlOutcome>(out_rd.u8());
          r.corrupted = cor_rd.u32();
          r.per_warp_corrupted = warp_rd.f64();
          r.rel_errors.resize(rel_len_rd.u32());
          for (auto& e : r.rel_errors) e = rel_val_rd.f64();
          r.corrupted_idx.resize(idx_len_rd.u32());
          for (auto& x : r.corrupted_idx) x = idx_val_rd.u32();
          seg.records.emplace(id, store::encode(r));
        }
        break;
      }
      case store::CampaignKind::Perfi: {
        store::ByteReader out_rd(need(kColOutcome).data);
        for (std::uint64_t i = 0; i < rows; ++i) {
          store::PerfiRecord r;
          const std::uint64_t id = id_rd.u64();
          r.outcome = static_cast<store::PerfiOutcome>(out_rd.u8());
          seg.records.emplace(id, store::encode(r));
        }
        break;
      }
    }
  } catch (const SegmentError&) {
    throw;
  } catch (const std::exception& e) {
    throw SegmentError(std::string("warehouse: malformed column data: ") +
                       e.what());
  }
  if (seg.records.size() != footer.rows)
    throw SegmentError("warehouse: column rows disagree with footer");
  reads.add(1);
  return seg;
}

Footer read_footer(const std::string& path) {
  static obs::Counter& reads = obs::counter("warehouse.footer_reads");
  static obs::Histogram& latency = obs::histogram("warehouse.footer_read_us");
  obs::ScopedTimerUs timer(latency);

  std::FILE* in = std::fopen(path.c_str(), "rb");
  if (!in)
    throw SegmentError("warehouse: cannot open " + path + ": " +
                       std::strerror(errno));
  if (std::fseek(in, 0, SEEK_END) != 0) {
    std::fclose(in);
    throw SegmentError("warehouse: cannot seek " + path);
  }
  const long size = std::ftell(in);
  if (size < 16) {
    std::fclose(in);
    throw SegmentError("warehouse: file too short");
  }
  std::array<std::uint8_t, 16> trailer_bytes{};
  bool ok = std::fseek(in, size - 16, SEEK_SET) == 0 &&
            std::fread(trailer_bytes.data(), 1, 16, in) == 16;
  if (!ok) {
    std::fclose(in);
    throw SegmentError("warehouse: cannot read trailer of " + path);
  }
  store::ByteReader trailer(trailer_bytes);
  const std::uint64_t footer_offset = trailer.u64();
  if (trailer.u64() != kSegmentEndMagic ||
      footer_offset >= static_cast<std::uint64_t>(size) - 16) {
    std::fclose(in);
    throw SegmentError("warehouse: missing end magic (truncated segment?)");
  }
  std::vector<std::uint8_t> block(static_cast<std::size_t>(size) - 16 -
                                  footer_offset);
  ok = std::fseek(in, static_cast<long>(footer_offset), SEEK_SET) == 0 &&
       std::fread(block.data(), 1, block.size(), in) == block.size();
  std::fclose(in);
  if (!ok) throw SegmentError("warehouse: cannot read footer of " + path);
  Footer f = decode_footer(block);
  reads.add(1);
  return f;
}

}  // namespace gpf::warehouse
