#include "store/merge.hpp"

#include <stdexcept>

namespace gpf::store {

LoadedStore merge_stores(const std::vector<LoadedStore>& inputs, MergeStats* stats) {
  if (inputs.empty()) throw std::runtime_error("merge: no input stores");
  MergeStats st;
  st.inputs = inputs.size();

  LoadedStore out;
  out.meta = inputs.front().meta;
  out.meta.shard_index = 0;
  out.meta.shard_count = 1;

  bool engine_unanimous = true;
  for (const LoadedStore& in : inputs) {
    if (!in.meta.same_campaign(out.meta))
      throw std::runtime_error(
          "merge: inputs are not shards of the same campaign "
          "(kind/target/seed/size/params differ)");
    if (in.meta.engine != out.meta.engine) engine_unanimous = false;
    for (const auto& [id, payload] : in.records) {
      if (id >= out.meta.total)
        throw std::runtime_error("merge: record id " + std::to_string(id) +
                                 " outside campaign id space");
      auto [it, inserted] = out.records.try_emplace(id, payload);
      if (!inserted) {
        if (it->second != payload)
          throw std::runtime_error(
              "merge: conflicting results for fault id " + std::to_string(id) +
              " — overlapping shards disagree, refusing to merge");
        ++st.duplicate_identical;
      }
    }
  }
  if (!engine_unanimous) out.meta.engine = 0xFF;
  st.records = out.records.size();
  if (stats) *stats = st;
  return out;
}

MergeStats merge_store_files(const std::vector<std::string>& paths,
                             const std::string& out_path) {
  std::vector<LoadedStore> inputs;
  inputs.reserve(paths.size());
  for (const std::string& p : paths) inputs.push_back(load_store(p));

  MergeStats st;
  const LoadedStore merged = merge_stores(inputs, &st);
  ResultLog out(out_path, merged.meta);
  if (!out.recovered().empty())
    throw std::runtime_error("merge: output store " + out_path +
                             " already contains records");
  for (const auto& [id, payload] : merged.records) out.append(id, payload);
  return st;
}

}  // namespace gpf::store
