// CampaignCheckpoint: the campaign-facing durability API on top of the
// append-only ResultLog. Drivers ask which fault ids are already classified
// (skip-on-resume), record the results they retire together as one batch
// (thread-safe, one write per batch), and poll a cooperative stop flag that
// implements `gpfctl run --limit` (pause after N fresh records, at batch
// granularity — the deterministic stand-in for a mid-campaign kill).
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "store/result_log.hpp"

namespace gpf::store {

class CampaignCheckpoint {
 public:
  /// Opens (or creates) the store at `path` for campaign `meta`; loads the
  /// already-retired records so drivers can skip them.
  CampaignCheckpoint(const std::string& path, const CampaignMeta& meta);

  const CampaignMeta& meta() const { return log_.meta(); }
  const std::string& path() const { return log_.path(); }

  /// Records present when the store was opened (id -> payload).
  const std::map<std::uint64_t, std::vector<std::uint8_t>>& done() const {
    return done_;
  }
  bool is_done(std::uint64_t id) const { return done_.count(id) != 0; }
  /// Already-retired + newly recorded this run.
  std::size_t done_count() const;

  /// Appends a batch of retired results with one write under one lock
  /// (ResultLog::append): once it returns, every record of the batch
  /// survives a kill of this process. Thread-safe. Returns false once the
  /// record limit has been reached (the whole batch is still recorded;
  /// callers should stop scheduling new work).
  bool record(const RecordBatch& batch);
  /// Appends one retired result: a batch of one.
  bool record(std::uint64_t id, std::span<const std::uint8_t> payload);

  /// Pushes everything recorded so far onto stable storage (see
  /// ResultLog::sync). Thread-safe. Campaign drivers call this at
  /// checkpoint boundaries (unit retire, lease retire, campaign end); the
  /// destructor also syncs, so a graceful exit is always durable.
  void sync();

  /// Stop scheduling new work once `n` fresh records were recorded this run
  /// (0 = no limit). The check runs per batch, so the batch that crosses
  /// the limit is recorded whole. Used to pause a campaign deterministically.
  void set_record_limit(std::size_t n) { record_limit_ = n; }
  bool should_stop() const;
  /// True when the campaign paused on the record limit (vs running to
  /// completion of its shard slice).
  bool paused() const { return should_stop(); }

  std::size_t torn_bytes_dropped() const { return log_.torn_bytes_dropped(); }

 private:
  ResultLog log_;
  std::map<std::uint64_t, std::vector<std::uint8_t>> done_;
  mutable std::mutex mu_;
  std::size_t fresh_records_ = 0;
  std::size_t record_limit_ = 0;
};

}  // namespace gpf::store
