// LeaseDispatcher: the coordinator's authoritative map of who is working on
// which slice of the fault-id space.
//
// The shard's pending ids (owned ids minus anything already in the store)
// are held once, ascending, and cut into units of consecutive ids; a unit
// is a [lo, hi) range over that vector. A unit moves through
//
//          lease                    complete / last id retired
//   Pending -----> Leased(session) ---------------------------> Done
//      ^              |
//      '--------------'  deadline expiry / connection loss
//
// Leases are identified by an opaque session token (one per worker
// connection), carry a steady_clock deadline, and are renewed by every
// Result / Heartbeat / UnitDone from the owning session. An expired or
// released lease returns the unit to Pending with only its still-outstanding
// ids, so a reassigned unit never re-runs work that already landed. Each id
// retires at most once (mark_retired dedups against a retired bitmap), which
// is what keeps the fleet export byte-identical to a single-process run.
// Per id the dispatcher keeps its 8-byte id and one retired bit; id -> unit
// is a binary search.
//
// Not thread-safe: the coordinator drives it from its one loop thread.
#pragma once

#include <chrono>
#include <cstdint>
#include <deque>
#include <map>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "store/result_log.hpp"

namespace gpf::net {

/// The ids of `meta`'s shard slice that `done` (a store's retired records,
/// by id) does not hold, ascending: the id space a dispatcher leases.
std::vector<std::uint64_t> pending_ids(
    const store::CampaignMeta& meta,
    const std::map<std::uint64_t, std::vector<std::uint8_t>>& done);

/// Unit ends for plain `unit_size`-id units over `n` ids (the last unit
/// takes the remainder); unit_size must be > 0.
std::vector<std::size_t> even_unit_ends(std::size_t n, std::size_t unit_size);

class LeaseDispatcher {
 public:
  using Clock = std::chrono::steady_clock;

  /// Leases `ids` (ascending and distinct) in units of consecutive ids:
  /// unit u holds ids[unit_ends[u - 1], unit_ends[u]) (unit 0 starts at 0).
  /// `unit_ends` must ascend strictly and end at ids.size(); throws
  /// std::runtime_error otherwise.
  LeaseDispatcher(std::vector<std::uint64_t> ids,
                  std::span<const std::size_t> unit_ends);

  struct Grant {
    std::uint64_t unit_id = 0;
    std::vector<std::uint64_t> ids;  ///< still-outstanding ids of the unit
  };

  /// Leases the next pending unit to `session` until now + lease_len.
  /// Empty when nothing is pending (all leased or all done).
  std::optional<Grant> lease(std::uint64_t session, Clock::time_point now,
                             Clock::duration lease_len);

  /// Renews `session`'s lease on `unit_id`. False when the session no
  /// longer holds the lease (expired and possibly reassigned) — the worker
  /// must abandon the unit.
  bool renew(std::uint64_t unit_id, std::uint64_t session,
             Clock::time_point now, Clock::duration lease_len);

  /// Records that `id` retired. True when this is the first time (the
  /// caller should append it to the store); false for a duplicate from a
  /// reassigned-then-resurrected lease. A unit whose last id retires
  /// becomes Done immediately, whoever holds its lease.
  bool mark_retired(std::uint64_t id);

  /// Returns every unit leased by `session` to Pending (connection lost).
  void release_session(std::uint64_t session);

  /// Expires all leases whose deadline has passed; returns how many.
  std::size_t expire_stale(Clock::time_point now);

  bool all_done() const { return retired_ == ids_.size(); }
  std::uint64_t retired() const { return retired_; }
  std::uint64_t id_count() const { return ids_.size(); }
  std::size_t pending_units() const { return queue_.size(); }
  std::size_t leased_units() const;
  /// Units currently leased by `session` (the per-worker stats row).
  std::size_t leased_units_for(std::uint64_t session) const;
  /// True while any unit is leased (drain must wait for these).
  bool any_leased() const { return leased_units() != 0; }

 private:
  enum class State : std::uint8_t { Pending, Leased, Done };

  struct Unit {
    std::size_t lo = 0, hi = 0;   ///< the unit's ids are ids_[lo, hi)
    std::size_t outstanding = 0;  ///< of those, not yet retired
    State state = State::Pending;
    std::uint64_t session = 0;
    Clock::time_point deadline{};
  };

  void requeue(std::uint64_t unit_id);

  std::vector<std::uint64_t> ids_;  ///< pending at construction, ascending
  std::vector<bool> retired_bit_;   ///< by index into ids_
  std::vector<Unit> units_;         ///< ascending ranges tiling ids_
  std::deque<std::uint64_t> queue_;  ///< pending unit ids, FIFO
  std::uint64_t retired_ = 0;   ///< ids retired since construction
};

/// Deficit round-robin fair-share picker over weighted keys (campaigns).
///
/// Each pick, every eligible key's deficit grows by its weight and the key
/// with the largest deficit wins (ties to the smaller key, so the order is
/// deterministic); the winner then pays the sum of all eligible weights.
/// Over a full cycle each key is picked in exact proportion to its weight —
/// e.g. weights 3:1 yield picks {A,B,A,A} per cycle — while keys that are
/// temporarily ineligible (no pending units) neither accrue nor lose
/// standing, so a campaign that drains and refills is not owed a burst.
///
/// Not thread-safe; the coordinator serializes access like LeaseDispatcher.
class DrrScheduler {
 public:
  /// Picks one key from the eligible (key, weight) set; `eligible` must be
  /// non-empty and weights must be >= 1.
  std::uint64_t pick(
      const std::vector<std::pair<std::uint64_t, std::uint32_t>>& eligible);

  /// Drops a key's accrued deficit (its campaign left the registry).
  void forget(std::uint64_t key) { deficit_.erase(key); }

 private:
  std::unordered_map<std::uint64_t, std::int64_t> deficit_;
};

}  // namespace gpf::net
