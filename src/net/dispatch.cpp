#include "net/dispatch.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace gpf::net {

std::vector<std::uint64_t> pending_ids(
    const store::CampaignMeta& meta,
    const std::map<std::uint64_t, std::vector<std::uint8_t>>& done) {
  std::vector<std::uint64_t> ids;
  ids.reserve(static_cast<std::size_t>(meta.total / meta.shard_count + 1));
  auto d = done.begin();
  for (std::uint64_t id = meta.shard_index; id < meta.total;
       id += meta.shard_count) {
    while (d != done.end() && d->first < id) ++d;
    if (d == done.end() || d->first != id) ids.push_back(id);
  }
  return ids;
}

std::vector<std::size_t> even_unit_ends(std::size_t n, std::size_t unit_size) {
  if (unit_size == 0) throw std::runtime_error("dispatch: unit_size must be > 0");
  std::vector<std::size_t> ends;
  ends.reserve(n / unit_size + 1);
  for (std::size_t end = unit_size; end < n; end += unit_size) ends.push_back(end);
  if (n != 0) ends.push_back(n);
  return ends;
}

LeaseDispatcher::LeaseDispatcher(std::vector<std::uint64_t> ids,
                                 std::span<const std::size_t> unit_ends)
    : ids_(std::move(ids)), retired_bit_(ids_.size(), false) {
  std::size_t lo = 0;
  for (const std::size_t hi : unit_ends) {
    if (hi <= lo || hi > ids_.size())
      throw std::runtime_error("dispatch: unit ends must ascend within the ids");
    Unit u;
    u.lo = lo;
    u.hi = hi;
    u.outstanding = hi - lo;
    units_.push_back(u);
    lo = hi;
  }
  if (lo != ids_.size())
    throw std::runtime_error("dispatch: unit ends must cover every id");
  for (std::uint64_t u = 0; u < units_.size(); ++u) queue_.push_back(u);
}

std::optional<LeaseDispatcher::Grant> LeaseDispatcher::lease(
    std::uint64_t session, Clock::time_point now, Clock::duration lease_len) {
  if (queue_.empty()) return std::nullopt;
  const std::uint64_t unit_id = queue_.front();
  queue_.pop_front();
  Unit& u = units_[unit_id];
  u.state = State::Leased;
  u.session = session;
  u.deadline = now + lease_len;
  Grant g;
  g.unit_id = unit_id;
  g.ids.reserve(u.outstanding);
  for (std::size_t i = u.lo; i < u.hi; ++i)
    if (!retired_bit_[i]) g.ids.push_back(ids_[i]);
  return g;
}

bool LeaseDispatcher::renew(std::uint64_t unit_id, std::uint64_t session,
                            Clock::time_point now, Clock::duration lease_len) {
  if (unit_id >= units_.size()) return false;
  Unit& u = units_[unit_id];
  // A Done unit acks successfully: the worker's final messages for a unit
  // that auto-completed under it are not a lost lease.
  if (u.state == State::Done) return true;
  if (u.state != State::Leased || u.session != session) return false;
  u.deadline = now + lease_len;
  return true;
}

bool LeaseDispatcher::mark_retired(std::uint64_t id) {
  const auto it = std::lower_bound(ids_.begin(), ids_.end(), id);
  if (it == ids_.end() || *it != id) return false;  // foreign id
  const auto i = static_cast<std::size_t>(it - ids_.begin());
  if (retired_bit_[i]) return false;  // duplicate
  retired_bit_[i] = true;
  ++retired_;
  const auto unit = std::upper_bound(
      units_.begin(), units_.end(), i,
      [](std::size_t index, const Unit& u) { return index < u.hi; });
  Unit& u = *unit;
  if (--u.outstanding == 0 && u.state != State::Done) {
    const State was = u.state;
    u.state = State::Done;
    if (was == State::Pending) {
      const auto unit_id = static_cast<std::uint64_t>(unit - units_.begin());
      const auto q = std::find(queue_.begin(), queue_.end(), unit_id);
      if (q != queue_.end()) queue_.erase(q);
    }
  }
  return true;
}

void LeaseDispatcher::release_session(std::uint64_t session) {
  for (std::uint64_t u = 0; u < units_.size(); ++u) {
    if (units_[u].state == State::Leased && units_[u].session == session)
      requeue(u);
  }
}

std::size_t LeaseDispatcher::expire_stale(Clock::time_point now) {
  std::size_t expired = 0;
  for (std::uint64_t u = 0; u < units_.size(); ++u) {
    if (units_[u].state == State::Leased && units_[u].deadline <= now) {
      requeue(u);
      ++expired;
    }
  }
  return expired;
}

std::size_t LeaseDispatcher::leased_units() const {
  return static_cast<std::size_t>(
      std::count_if(units_.begin(), units_.end(), [](const Unit& u) {
        return u.state == State::Leased;
      }));
}

std::size_t LeaseDispatcher::leased_units_for(std::uint64_t session) const {
  return static_cast<std::size_t>(
      std::count_if(units_.begin(), units_.end(), [session](const Unit& u) {
        return u.state == State::Leased && u.session == session;
      }));
}

std::uint64_t DrrScheduler::pick(
    const std::vector<std::pair<std::uint64_t, std::uint32_t>>& eligible) {
  if (eligible.empty())
    throw std::runtime_error("dispatch: DRR pick from empty eligible set");
  std::int64_t round_cost = 0;
  for (const auto& [key, weight] : eligible) {
    if (weight == 0)
      throw std::runtime_error("dispatch: DRR weight must be >= 1");
    deficit_[key] += weight;
    round_cost += weight;
  }
  std::uint64_t best = eligible.front().first;
  for (const auto& [key, weight] : eligible) {
    if (deficit_[key] > deficit_[best] ||
        (deficit_[key] == deficit_[best] && key < best))
      best = key;
  }
  deficit_[best] -= round_cost;
  return best;
}

void LeaseDispatcher::requeue(std::uint64_t unit_id) {
  Unit& u = units_[unit_id];
  if (u.outstanding == 0) {
    u.state = State::Done;
    return;
  }
  u.state = State::Pending;
  u.session = 0;
  queue_.push_back(unit_id);
}

}  // namespace gpf::net
