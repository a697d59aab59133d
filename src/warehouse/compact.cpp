#include "warehouse/compact.hpp"

#include <algorithm>
#include <map>
#include <stdexcept>
#include <utility>

#include "obs/metrics.hpp"
#include "store/result_log.hpp"

namespace gpf::warehouse {

std::string warehouse_path_for(const std::string& store_path) {
  const std::string suffix = ".gpfs";
  if (store_path.size() > suffix.size() &&
      store_path.compare(store_path.size() - suffix.size(), suffix.size(),
                         suffix) == 0)
    return store_path.substr(0, store_path.size() - suffix.size()) + ".gpfw";
  return store_path + ".gpfw";
}

Footer compact_stores(const std::vector<std::string>& store_paths,
                      const std::string& out_path) {
  static obs::Histogram& latency = obs::histogram("warehouse.compact_us");
  obs::ScopedTimerUs timer(latency);

  if (store_paths.empty())
    throw std::runtime_error("warehouse: no source stores to compact");
  std::vector<store::CampaignMeta> metas;
  metas.reserve(store_paths.size());
  for (const std::string& p : store_paths)
    metas.push_back(store::read_store_meta(p));
  for (std::size_t i = 1; i < metas.size(); ++i) {
    if (!metas[i].same_campaign(metas[0]))
      throw std::runtime_error(
          "warehouse: " + store_paths[i] + " and " + store_paths[0] +
          " are not shards of the same campaign");
    for (std::size_t j = 0; j < i; ++j)
      if (metas[i].shard_index == metas[j].shard_index &&
          metas[i].shard_count == metas[j].shard_count)
        throw std::runtime_error("warehouse: " + store_paths[i] + " and " +
                                 store_paths[j] +
                                 " cover the same shard slice");
  }

  Footer f;
  f.meta = metas.front();
  if (metas.size() > 1) {
    f.meta.shard_index = 0;
    f.meta.shard_count = 1;
    for (const store::CampaignMeta& m : metas)
      if (m.engine != f.meta.engine) f.meta.engine = 0xFF;
  }

  std::map<std::uint64_t, std::vector<std::uint8_t>> records;
  for (std::size_t i = 0; i < store_paths.size(); ++i) {
    std::vector<store::Record> scanned = store::scan_records(store_paths[i]);
    f.sources.push_back(
        {metas[i].shard_index, metas[i].shard_count, scanned.size(), 0});
    for (store::Record& r : scanned)
      records[r.id] = std::move(r.payload);  // last wins, as load_store
  }

  f.rows = records.size();
  f.rollups.kind = f.meta.kind;
  for (const auto& [id, payload] : records) {
    f.rollups.add(id, payload);
    // The row belongs to the first source (in path order) owning its id.
    for (std::size_t i = 0; i < metas.size(); ++i)
      if (metas[i].owns(id)) {
        ++f.sources[i].rows;
        break;
      }
  }
  std::sort(f.sources.begin(), f.sources.end(),
            [](const SourceTally& a, const SourceTally& b) {
              return std::pair(a.shard_count, a.shard_index) <
                     std::pair(b.shard_count, b.shard_index);
            });
  write_footer(out_path, f);
  return f;
}

}  // namespace gpf::warehouse
