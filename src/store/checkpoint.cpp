#include "store/checkpoint.hpp"

namespace gpf::store {

CampaignCheckpoint::CampaignCheckpoint(const std::string& path,
                                       const CampaignMeta& meta)
    : log_(path, meta) {
  for (const Record& r : log_.recovered()) done_[r.id] = r.payload;
}

std::size_t CampaignCheckpoint::done_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return done_.size() + fresh_records_;
}

bool CampaignCheckpoint::record(const RecordBatch& batch) {
  std::lock_guard<std::mutex> lock(mu_);
  log_.append(batch);
  fresh_records_ += batch.size();
  return record_limit_ == 0 || fresh_records_ < record_limit_;
}

bool CampaignCheckpoint::record(std::uint64_t id,
                                std::span<const std::uint8_t> payload) {
  RecordBatch one(1, payload.size());
  one.add(id, payload);
  return record(one);
}

void CampaignCheckpoint::sync() {
  std::lock_guard<std::mutex> lock(mu_);
  log_.sync();
}

bool CampaignCheckpoint::should_stop() const {
  std::lock_guard<std::mutex> lock(mu_);
  return record_limit_ != 0 && fresh_records_ >= record_limit_;
}

}  // namespace gpf::store
