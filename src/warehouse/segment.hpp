// On-disk warehouse segment (.gpfw): the rollups of one campaign store (or
// of a group of shard stores merged into one view). A segment is one
// CRC32-framed block, little-endian via store/bytes.hpp:
//
//   u64 magic "GPFWARE1" | u32 version | 80-byte campaign meta | u64 rows |
//   rollups | u32 source count | per source: u32 shard_index |
//   u32 shard_count | u64 scanned_records | u64 rows |
//   u32 CRC over everything before it
//
// A segment carries no timestamps, paths or offsets, so it is a pure
// function of (meta, deduped record set, per-source tallies): compacting the
// same logs again reproduces identical bytes. Files are written to a temp
// name and renamed into place, so readers never observe a half-written
// segment; read_footer reads and checks the whole (small) file and throws
// SegmentError on any mismatch, which `gpfctl query` answers by recompacting
// from the logs.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "store/result_log.hpp"
#include "warehouse/rollups.hpp"

namespace gpf::warehouse {

constexpr std::uint64_t kSegmentMagic = 0x3145524157465047ULL;  // "GPFWARE1"
/// Version 1 segments, which also held column blocks, fail to read, so
/// `gpfctl query` recompacts them.
constexpr std::uint32_t kSegmentVersion = 2;

/// A segment file that fails validation (bad magic/version/CRC, truncated,
/// malformed rollups).
struct SegmentError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// What compaction read from one source store, keyed by its shard slice.
struct SourceTally {
  std::uint32_t shard_index = 0;
  std::uint32_t shard_count = 1;
  std::uint64_t scanned_records = 0;  ///< raw log records read (pre-dedup)
  std::uint64_t rows = 0;             ///< deduped rows owned by this slice
  bool operator==(const SourceTally&) const = default;
};

/// A segment's contents: everything the serving layer needs.
struct Footer {
  store::CampaignMeta meta;
  std::uint64_t rows = 0;
  Rollups rollups;
  std::vector<SourceTally> sources;  ///< sorted by (shard_count, shard_index)
};

/// Serializes `f` into a segment at `path` atomically (temp + rename),
/// creating missing parent directories.
void write_footer(const std::string& path, const Footer& f);

/// Reads and validates a whole segment. Throws SegmentError naming `path`.
Footer read_footer(const std::string& path);

}  // namespace gpf::warehouse
