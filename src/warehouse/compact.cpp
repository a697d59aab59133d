#include "warehouse/compact.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "obs/metrics.hpp"

namespace gpf::warehouse {

std::string warehouse_path_for(const std::string& store_path) {
  const std::string suffix = ".gpfs";
  if (store_path.size() > suffix.size() &&
      store_path.compare(store_path.size() - suffix.size(), suffix.size(),
                         suffix) == 0)
    return store_path.substr(0, store_path.size() - suffix.size()) + ".gpfw";
  return store_path + ".gpfw";
}

Compactor::Compactor(std::vector<std::string> store_paths,
                     std::string segment_path)
    : paths_(std::move(store_paths)), segment_path_(std::move(segment_path)) {
  if (paths_.empty())
    throw std::runtime_error("warehouse: no source stores to compact");
  metas_.reserve(paths_.size());
  for (const std::string& p : paths_)
    metas_.push_back(store::read_store_meta(p));
  for (std::size_t i = 1; i < metas_.size(); ++i) {
    if (!metas_[i].same_campaign(metas_[0]))
      throw std::runtime_error(
          "warehouse: " + paths_[i] + " and " + paths_[0] +
          " are not shards of the same campaign");
    for (std::size_t j = 0; j < i; ++j)
      if (metas_[i].shard_index == metas_[j].shard_index &&
          metas_[i].shard_count == metas_[j].shard_count)
        throw std::runtime_error("warehouse: " + paths_[i] + " and " +
                                 paths_[j] + " cover the same shard slice");
  }

  // The merged view: a single store keeps its own meta (so a lone shard's
  // segment still says which slice it is); a shard group collapses to the
  // whole id space, engine kept only when unanimous — same rule as merge.
  meta_ = metas_.front();
  if (paths_.size() > 1) {
    meta_.shard_index = 0;
    meta_.shard_count = 1;
    for (const store::CampaignMeta& m : metas_)
      if (m.engine != meta_.engine) meta_.engine = 0xFF;
  }

  tallies_.resize(paths_.size());
  for (std::size_t i = 0; i < paths_.size(); ++i) {
    tallies_[i].shard_index = metas_[i].shard_index;
    tallies_[i].shard_count = metas_[i].shard_count;
  }
}

void Compactor::full_rebuild() {
  records_.clear();
  for (std::size_t i = 0; i < tallies_.size(); ++i) {
    tallies_[i] = SourceTally{metas_[i].shard_index, metas_[i].shard_count,
                              0, 0, 0};
  }
  segment_valid_ = false;
}

CompactStats Compactor::refresh() {
  static obs::Counter& refreshes = obs::counter("warehouse.refreshes");
  static obs::Counter& rebuilds = obs::counter("warehouse.full_rebuilds");
  static obs::Counter& fresh_ctr = obs::counter("warehouse.fresh_records");
  static obs::Histogram& latency = obs::histogram("warehouse.refresh_us");
  obs::ScopedTimerUs timer(latency);

  CompactStats st;
  st.sources = paths_.size();

  if (!seeded_) {
    seeded_ = true;
    // Seed from an existing segment when it is intact and was built from
    // exactly this source set; anything else is a full rebuild.
    try {
      Segment seg = read_segment(segment_path_);
      bool match = seg.meta == meta_ && seg.sources.size() == tallies_.size();
      if (match) {
        std::vector<SourceTally> sorted = tallies_;
        std::sort(sorted.begin(), sorted.end(),
                  [](const SourceTally& a, const SourceTally& b) {
                    return std::pair(a.shard_count, a.shard_index) <
                           std::pair(b.shard_count, b.shard_index);
                  });
        for (std::size_t i = 0; i < sorted.size(); ++i)
          if (seg.sources[i].shard_index != sorted[i].shard_index ||
              seg.sources[i].shard_count != sorted[i].shard_count)
            match = false;
      }
      if (match) {
        records_ = std::move(seg.records);
        for (SourceTally& t : tallies_)
          for (const SourceTally& s : seg.sources)
            if (s.shard_index == t.shard_index &&
                s.shard_count == t.shard_count)
              t = s;
        rollups_ = seg.rollups;
        segment_valid_ = true;
        st.incremental = true;
      }
    } catch (const SegmentError&) {
      // Missing, torn, or foreign segment: start from the logs.
    }
  } else {
    st.incremental = true;
  }

  for (int attempt = 0; attempt < 2; ++attempt) {
    try {
      for (std::size_t i = 0; i < paths_.size(); ++i) {
        SourceTally& t = tallies_[i];
        const std::size_t from =
            std::max<std::size_t>(t.watermark, store::ResultLog::kHeaderSize);
        store::ScannedTail tail = store::scan_records(paths_[i], from);
        for (store::Record& r : tail.records)
          records_[r.id] = std::move(r.payload);  // last wins, as load_store
        st.fresh_records += tail.records.size();
        t.scanned_records += tail.records.size();
        t.watermark = tail.end_offset;
      }
      break;
    } catch (const std::exception&) {
      // A log shrank below our watermark (torn-tail recovery rewrote it) or
      // became unreadable mid-scan: drop everything and rescan from zero.
      if (attempt == 1) throw;
      full_rebuild();
      st = CompactStats{};
      st.sources = paths_.size();
      rebuilds.add(1);
    }
  }

  // Attribute each deduped row to the first source (in path order) whose
  // shard slice owns its id.
  for (SourceTally& t : tallies_) t.rows = 0;
  for (const auto& [id, payload] : records_) {
    for (std::size_t i = 0; i < tallies_.size(); ++i) {
      if (metas_[i].owns(id)) {
        ++tallies_[i].rows;
        break;
      }
    }
  }
  st.rows = records_.size();

  if (st.fresh_records > 0 || !segment_valid_) {
    std::vector<SourceTally> sorted = tallies_;
    std::sort(sorted.begin(), sorted.end(),
              [](const SourceTally& a, const SourceTally& b) {
                return std::pair(a.shard_count, a.shard_index) <
                       std::pair(b.shard_count, b.shard_index);
              });
    rollups_ = write_segment(segment_path_, meta_, records_, sorted);
    segment_valid_ = true;
    st.wrote = true;
  }

  refreshes.add(1);
  fresh_ctr.add(st.fresh_records);
  return st;
}

Footer Compactor::footer() const {
  Footer f;
  f.meta = meta_;
  f.rows = records_.size();
  f.rollups = rollups_;
  f.sources = tallies_;
  std::sort(f.sources.begin(), f.sources.end(),
            [](const SourceTally& a, const SourceTally& b) {
              return std::pair(a.shard_count, a.shard_index) <
                     std::pair(b.shard_count, b.shard_index);
            });
  return f;
}

CompactStats compact_stores(const std::vector<std::string>& store_paths,
                            const std::string& out_path) {
  Compactor c(store_paths, out_path);
  return c.refresh();
}

}  // namespace gpf::warehouse
