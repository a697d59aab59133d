// Compaction: one stateless pass that rolls a campaign's store file(s) — a
// single store or the shard set of a fleet run — into one warehouse segment.
//
// compact_stores scans every source log from its header with
// store::scan_records, which never truncates a torn tail, so it is safe on
// stores gpfd is still appending to. Records are deduped last-wins (as
// load_store does), folded through Rollups::add in ascending id order, and
// the footer is written. Nothing is kept between calls, so compacting the
// same logs twice writes the same bytes.
#pragma once

#include <string>
#include <vector>

#include "warehouse/segment.hpp"

namespace gpf::warehouse {

/// Conventional segment path for a store file: `foo.gpfs` -> `foo.gpfw`
/// (appends ".gpfw" when the store name has no .gpfs suffix).
std::string warehouse_path_for(const std::string& store_path);

/// Compacts `store_paths` into the segment at `out_path` and returns what it
/// wrote. Every path must be a store of the same campaign with a distinct
/// shard slice (throws otherwise). A single store keeps its own meta; a
/// shard group gets the whole id space (shard 0 of 1), its engine kept only
/// when unanimous — the rule merge uses.
Footer compact_stores(const std::vector<std::string>& store_paths,
                      const std::string& out_path);

}  // namespace gpf::warehouse
