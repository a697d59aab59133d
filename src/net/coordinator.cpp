#include "net/coordinator.hpp"

#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <set>
#include <stdexcept>
#include <utility>

#include "gate/batchsim.hpp"
#include "obs/metrics.hpp"

namespace gpf::net {

namespace {

std::set<std::uint64_t> done_ids(const store::CampaignCheckpoint& ckpt) {
  std::set<std::uint64_t> ids;
  for (const auto& [id, payload] : ckpt.done()) ids.insert(id);
  return ids;
}

std::uint64_t ms_between(LeaseDispatcher::Clock::time_point a,
                         LeaseDispatcher::Clock::time_point b) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(b - a).count());
}

/// "…/perfi-mxm-IOC.gpfs" -> "perfi-mxm-IOC": the store filename stem is
/// the canonical campaign name (campaign_flags derives paths the same way,
/// so every submitter and resumer agrees on identity).
std::string campaign_name_from_path(const std::string& path) {
  const std::size_t slash = path.find_last_of('/');
  const std::size_t start = slash == std::string::npos ? 0 : slash + 1;
  const std::size_t dot = path.find_last_of('.');
  const std::size_t end = (dot == std::string::npos || dot <= start)
                              ? path.size()
                              : dot;
  return path.substr(start, end - start);
}

[[noreturn]] void sys_error(const std::string& what) {
  throw std::runtime_error("gpfd: " + what + ": " + std::strerror(errno));
}

void queue_frame(std::vector<std::uint8_t>& out, const Frame& f) {
  const std::vector<std::uint8_t> wire = frame_bytes(f);
  out.insert(out.end(), wire.begin(), wire.end());
  static obs::Counter& frames = obs::counter("net.frames_out");
  static obs::Counter& bytes = obs::counter("net.bytes_out");
  frames.add(1);
  bytes.add(wire.size());
}

}  // namespace

void RateWindow::sample(Clock::time_point now, std::uint64_t retired) {
  if (!primed) {
    primed = true;
    last_progress = now;
    last_retired = retired;
  }
  if (retired > last_retired) {
    // Progress after an idle gap: the old window spans the stall, and a
    // rate averaged across it would understate throughput while an ETA
    // from it would overstate (the "resumed fleet" bug). Start fresh.
    if (!samples.empty() && ms_between(last_progress, now) >= idle_reset_ms)
      samples.clear();
    last_progress = now;
    last_retired = retired;
  }
  if (!samples.empty() && ms_between(samples.back().first, now) < 1000) return;
  samples.emplace_back(now, retired);
  while (samples.size() > 16) samples.pop_front();
}

std::uint64_t RateWindow::rate_milli() const {
  if (samples.size() < 2) return 0;
  const auto& [t0, r0] = samples.front();
  const auto& [t1, r1] = samples.back();
  const std::uint64_t dt_ms = ms_between(t0, t1);
  if (dt_ms == 0 || r1 <= r0) return 0;
  return (r1 - r0) * 1000000ull / dt_ms;
}

std::uint64_t RateWindow::eta_ms(std::uint64_t remaining) const {
  const std::uint64_t rate = rate_milli();
  if (rate == 0 || remaining == 0) return 0;  // unknown / done: render "--"
  return remaining * 1000000ull / rate;
}

// --- CoordinatorCore --------------------------------------------------------

void CoordinatorCore::register_campaign(
    store::CampaignCheckpoint& ckpt,
    std::unique_ptr<store::CampaignCheckpoint> owned, std::uint32_t priority) {
  Campaign c;
  c.cid = next_cid_++;
  c.name = campaign_name_from_path(ckpt.path());
  c.priority = std::max<std::uint32_t>(priority, 1);
  c.ckpt = &ckpt;
  c.owned = std::move(owned);
  c.done_at_open = ckpt.done().size();
  const std::size_t unit_size = unit_size_for(ckpt.meta());
  c.dispatcher = std::make_unique<LeaseDispatcher>(ckpt.meta(), unit_size,
                                                   done_ids(ckpt));
  c.rate.idle_reset_ms = cfg_.idle_reset_ms;
  const std::uint64_t cid = c.cid;
  if (cfg_.verbose)
    std::fprintf(stderr,
                 "[gpfd] campaign '%s' registered (cid %llu, %llu ids, "
                 "unit size %zu, prio %u)\n",
                 c.name.c_str(), static_cast<unsigned long long>(cid),
                 static_cast<unsigned long long>(c.dispatcher->id_count()),
                 unit_size, c.priority);
  if (std::find(store_paths_.begin(), store_paths_.end(), ckpt.path()) ==
      store_paths_.end())
    store_paths_.push_back(ckpt.path());
  campaigns_.emplace(cid, std::move(c));
}

std::size_t CoordinatorCore::unit_size_for(
    const store::CampaignMeta& meta) const {
  if (cfg_.unit_size != 0) return cfg_.unit_size;
  return meta.kind == store::CampaignKind::Gate ? gate::kWidestBatchLanes : 64;
}

void CoordinatorCore::add_campaign(store::CampaignCheckpoint& ckpt,
                                   std::uint32_t priority) {
  const std::string name = campaign_name_from_path(ckpt.path());
  if (find_campaign(name))
    throw std::runtime_error("gpfd: duplicate campaign '" + name + "'");
  if (campaigns_.size() >= cfg_.max_campaigns)
    throw std::runtime_error("gpfd: campaign registry full");
  register_campaign(ckpt, nullptr, priority);
}

const CoordinatorCore::Campaign* CoordinatorCore::find_campaign(
    const std::string& name) const {
  for (const auto& [cid, c] : campaigns_)
    if (c.name == name) return &c;
  return nullptr;
}

CampaignRow CoordinatorCore::campaign_row(const Campaign& c) const {
  CampaignRow row;
  row.name = c.name;
  row.kind = static_cast<std::uint8_t>(c.ckpt->meta().kind);
  row.state = c.removing ? 1 : (c.dispatcher->all_done() ? 2 : 0);
  row.priority = c.priority;
  row.total_ids = c.done_at_open + c.dispatcher->id_count();
  row.retired_ids = c.done_at_open + c.dispatcher->retired();
  row.pending_units = static_cast<std::uint32_t>(c.dispatcher->pending_units());
  row.leased_units = static_cast<std::uint32_t>(c.dispatcher->leased_units());
  return row;
}

void CoordinatorCore::touch_session(std::uint64_t session,
                                    const std::string& name, TimePoint now,
                                    std::uint64_t retired_delta) {
  SessionInfo& info = sessions_[session];
  if (!name.empty()) info.name = name;
  info.retired += retired_delta;
  info.last_active = now;
  info.connected = true;
}

StatsSnapshot CoordinatorCore::snapshot_stats(
    TimePoint now, const std::string& campaign) const {
  StatsSnapshot s;
  const Campaign* scoped = campaign.empty() ? nullptr : find_campaign(campaign);
  // A scoped request for an unknown name reports an empty scope rather than
  // silently falling back to the aggregate.
  const bool scope_miss = !campaign.empty() && scoped == nullptr;
  std::uint64_t remaining = 0;
  for (const auto& [cid, c] : campaigns_) {
    if (scope_miss || (scoped && &c != scoped)) continue;
    s.total_ids += c.done_at_open + c.dispatcher->id_count();
    s.retired_ids += c.done_at_open + c.dispatcher->retired();
    s.done_at_open += c.done_at_open;
    s.pending_units += static_cast<std::uint32_t>(c.dispatcher->pending_units());
    s.leased_units += static_cast<std::uint32_t>(c.dispatcher->leased_units());
    remaining += c.dispatcher->id_count() - c.dispatcher->retired();
    if (!c.removing)
      s.desired_workers += static_cast<std::uint32_t>(
          c.dispatcher->pending_units() + c.dispatcher->leased_units());
  }
  s.elapsed_ms = ms_between(serve_start_, now);
  const RateWindow& window = scoped ? scoped->rate : fleet_rate_;
  s.rate_milli = window.rate_milli();
  s.eta_ms = window.eta_ms(remaining);
  s.draining = draining_ ? 1 : 0;
  if (s.draining) s.desired_workers = 0;
  s.evicted_workers = evicted_workers_;
  s.evicted_retired = evicted_retired_;
  s.campaigns = list_campaigns();
  s.workers.reserve(sessions_.size());
  for (const auto& [session, info] : sessions_) {
    WorkerRow row;
    row.session = session;
    row.name = info.name;
    row.retired = info.retired;
    for (const auto& [cid, c] : campaigns_)
      row.leased_units +=
          static_cast<std::uint32_t>(c.dispatcher->leased_units_for(session));
    row.idle_ms = ms_between(info.last_active, now);
    row.connected = info.connected ? 1 : 0;
    if (info.connected) ++s.connected_workers;
    s.workers.push_back(std::move(row));
  }
  return s;
}

std::vector<CampaignRow> CoordinatorCore::list_campaigns() const {
  std::vector<CampaignRow> rows;
  rows.reserve(campaigns_.size());
  for (const auto& [cid, c] : campaigns_) rows.push_back(campaign_row(c));
  return rows;
}

void CoordinatorCore::start(TimePoint now) {
  serve_start_ = now;
  last_status_ = now;
}

bool CoordinatorCore::finished() const {
  std::size_t pending_appends = 0;
  bool any_leased = false;
  bool all_done = true;
  for (const auto& [cid, c] : campaigns_) {
    pending_appends += c.pending_appends;
    if (c.dispatcher->any_leased()) any_leased = true;
    if (!c.dispatcher->all_done()) all_done = false;
  }
  if (all_done && pending_appends == 0) return true;
  return draining_ && !any_leased && pending_appends == 0;
}

CoordinatorCore::Stats CoordinatorCore::finish() {
  bool all_done = true;
  for (const auto& [cid, c] : campaigns_) {
    c.ckpt->sync();  // everything acknowledged so far becomes durable
    if (!c.dispatcher->all_done()) all_done = false;
  }
  stats_.drained = !all_done;
  return stats_;
}

void CoordinatorCore::tick(TimePoint now) {
  static obs::Counter& expiries = obs::counter("net.lease_expiries");
  static obs::Counter& evictions = obs::counter("net.session_evictions");
  std::uint64_t agg_retired = 0;
  for (auto it = campaigns_.begin(); it != campaigns_.end();) {
    Campaign& c = it->second;
    const std::size_t expired = c.dispatcher->expire_stale(now);
    stats_.expired_leases += expired;
    expiries.add(expired);
    c.rate.sample(now, c.done_at_open + c.dispatcher->retired());
    agg_retired += c.done_at_open + c.dispatcher->retired();
    // Drain-one-campaign finalization: once nothing references the store
    // (no leases to honor, no admitted records still queued), sync it and
    // unregister. The partial store stays on disk, resumable later.
    if (c.removing && !c.dispatcher->any_leased() && c.pending_appends == 0) {
      c.ckpt->sync();
      drr_.forget(it->first);
      if (cfg_.verbose)
        std::fprintf(stderr, "[gpfd] campaign '%s' removed (%llu/%llu retired)\n",
                     c.name.c_str(),
                     static_cast<unsigned long long>(c.done_at_open +
                                                     c.dispatcher->retired()),
                     static_cast<unsigned long long>(c.done_at_open +
                                                     c.dispatcher->id_count()));
      it = campaigns_.erase(it);
    } else {
      ++it;
    }
  }
  fleet_rate_.sample(now, agg_retired);
  for (auto it = sessions_.begin(); it != sessions_.end();) {
    const SessionInfo& info = it->second;
    if (!info.connected &&
        ms_between(info.last_active, now) >= cfg_.session_ttl_ms) {
      ++evicted_workers_;
      evicted_retired_ += info.retired;
      ++stats_.evicted_sessions;
      evictions.add(1);
      it = sessions_.erase(it);
    } else {
      ++it;
    }
  }
  if (cfg_.status_interval_ms > 0 &&
      ms_between(last_status_, now) >= cfg_.status_interval_ms) {
    last_status_ = now;
    const StatsSnapshot s = snapshot_stats(now, "");
    char eta[32];
    if (s.eta_ms == 0)
      std::snprintf(eta, sizeof(eta), "--");
    else
      std::snprintf(eta, sizeof(eta), "%llus",
                    static_cast<unsigned long long>(s.eta_ms / 1000));
    std::fprintf(stderr,
                 "[gpfd] progress %llu/%llu (%.1f%%) rate %.1f/s eta %s "
                 "campaigns %zu workers %u units %u pending / %u leased%s\n",
                 static_cast<unsigned long long>(s.retired_ids),
                 static_cast<unsigned long long>(s.total_ids),
                 s.total_ids ? 100.0 * static_cast<double>(s.retired_ids) /
                                   static_cast<double>(s.total_ids)
                             : 100.0,
                 static_cast<double>(s.rate_milli) / 1000.0, eta,
                 s.campaigns.size(), s.connected_workers, s.pending_units,
                 s.leased_units, s.draining ? " [draining]" : "");
  }
}

std::uint64_t CoordinatorCore::on_connect() {
  const std::uint64_t session = next_session_++;
  live_.emplace(session, Session{});
  ++stats_.sessions;
  if (cfg_.verbose)
    std::fprintf(stderr, "[gpfd] session %llu connected\n",
                 static_cast<unsigned long long>(session));
  return session;
}

void CoordinatorCore::on_close(std::uint64_t session) {
  const auto it = live_.find(session);
  if (it == live_.end()) return;
  static obs::Counter& releases = obs::counter("net.lease_releases");
  // Admitted records are already retired in their dispatchers: they MUST
  // reach the store (only the reply frames die with the socket), or the
  // final export would silently miss acknowledged-as-done work.
  write_appends(it->second, nullptr);
  for (auto& [cid, c] : campaigns_) {
    releases.add(c.dispatcher->leased_units_for(session));
    c.dispatcher->release_session(session);
  }
  if (auto s = sessions_.find(session); s != sessions_.end())
    s->second.connected = false;
  if (cfg_.verbose)
    std::fprintf(stderr, "[gpfd] session %llu disconnected\n",
                 static_cast<unsigned long long>(session));
  live_.erase(it);
}

void CoordinatorCore::write_appends(Session& s,
                                    std::vector<std::uint8_t>* out) {
  while (!s.appends.empty()) {
    PendingAppend pa = std::move(s.appends.front());
    s.appends.pop_front();
    if (const auto it = campaigns_.find(pa.cid); it != campaigns_.end()) {
      it->second.ckpt->record(pa.fresh);  // one write for the whole message
      it->second.pending_appends -= pa.fresh.size();
    }
    s.outstanding_records -= pa.fresh.size();
    if (out) queue_frame(*out, pa.reply);
  }
}

void CoordinatorCore::flush_appends(std::uint64_t session,
                                    std::vector<std::uint8_t>& out) {
  const auto it = live_.find(session);
  if (it != live_.end() && !it->second.appends.empty())
    write_appends(it->second, &out);
}

Frame CoordinatorCore::on_lease_request(std::uint64_t session,
                                        const Session& s, TimePoint now) {
  static obs::Counter& grants = obs::counter("net.lease_grants");
  const auto lease_len = std::chrono::milliseconds(cfg_.lease_ms);
  touch_session(session, s.peer_name, now, 0);
  std::vector<std::pair<std::uint64_t, std::uint32_t>> eligible;
  if (!draining_) {
    for (const auto& [cid, c] : campaigns_) {
      if (c.removing || c.dispatcher->pending_units() == 0) continue;
      if (!s.campaign_filter.empty() && c.name != s.campaign_filter) continue;
      eligible.emplace_back(cid, c.priority);
    }
  }
  if (!eligible.empty()) {
    const std::uint64_t cid = drr_.pick(eligible);
    Campaign& c = campaigns_.at(cid);
    const auto grant = c.dispatcher->lease(session, now, lease_len);
    grants.add(1);
    LeaseGrant g;
    g.campaign_id = cid;
    g.campaign = c.name;
    g.meta = c.ckpt->meta();
    g.unit_id = grant->unit_id;
    g.ids = std::move(grant->ids);
    if (cfg_.verbose)
      std::fprintf(stderr, "[gpfd] '%s' unit %llu (%zu ids) -> session %llu\n",
                   c.name.c_str(), static_cast<unsigned long long>(g.unit_id),
                   g.ids.size(), static_cast<unsigned long long>(session));
    return encode(g);
  }
  NoWork nw;
  if (draining_) {
    nw.drained = true;
  } else if (!s.campaign_filter.empty()) {
    const Campaign* c = find_campaign(s.campaign_filter);
    nw.drained = !c || c->removing || c->dispatcher->all_done();
  } else {
    nw.drained = true;  // vacuous on an empty registry
    for (const auto& [cid, c] : campaigns_) {
      if (!c.removing && !c.dispatcher->all_done()) {
        nw.drained = false;  // leased units may yet expire back to pending
        break;
      }
    }
  }
  return encode(nw);
}

void CoordinatorCore::on_result(std::uint64_t session, Session& s,
                                const ResultMsg& msg, TimePoint now,
                                std::vector<std::uint8_t>& out) {
  static obs::Counter& busy = obs::counter("net.busy_rejections");
  const auto lease_len = std::chrono::milliseconds(cfg_.lease_ms);
  const auto it = campaigns_.find(msg.campaign_id);
  // Admission control: refuse the whole message (worker resends it
  // verbatim) rather than queue unboundedly. One oversized Result on an
  // empty queue is always admitted, so progress can't wedge.
  if (it != campaigns_.end() && s.outstanding_records != 0 &&
      s.outstanding_records >= cfg_.max_outstanding_appends) {
    it->second.dispatcher->renew(msg.unit_id, session, now, lease_len);
    ++stats_.busy_rejections;
    busy.add(1);
    Busy b;
    b.retry_after_ms = cfg_.busy_retry_ms;
    queue_frame(out, encode(b));
    return;
  }
  Ack ack;
  ack.drain = draining_;
  PendingAppend pa;
  pa.cid = msg.campaign_id;
  if (it == campaigns_.end()) {
    ack.lost_lease = true;  // campaign finished removal; abandon the unit
  } else {
    Campaign& c = it->second;
    ack.lost_lease = !c.dispatcher->renew(msg.unit_id, session, now, lease_len);
    // Results are kept even from a lost lease: the work is done and
    // id-dedup makes acceptance harmless (and saves the re-run when the
    // reassigned copy hasn't started that id yet).
    std::size_t payload_bytes = 0;
    for (const store::Record& rec : msg.records)
      payload_bytes += rec.payload.size();
    pa.fresh = store::RecordBatch(msg.records.size(), payload_bytes);
    for (const store::Record& rec : msg.records) {
      if (c.dispatcher->mark_retired(rec.id)) {
        pa.fresh.add(rec.id, rec.payload);
        ++stats_.appended;
      } else {
        ++stats_.duplicates;
      }
    }
  }
  touch_session(session, s.peer_name, now, pa.fresh.size());
  if (pa.fresh.empty()) {
    // Nothing to append: the ack owes no durability, reply now.
    queue_frame(out, encode(ack));
    return;
  }
  it->second.pending_appends += pa.fresh.size();
  s.outstanding_records += pa.fresh.size();
  pa.reply = encode(ack);
  s.appends.push_back(std::move(pa));
}

Frame CoordinatorCore::on_submit(const SubmitCampaign& msg) {
  static obs::Counter& submits = obs::counter("net.campaign_submits");
  OpResult res;
  if (msg.name.empty() || msg.name.find('/') != std::string::npos) {
    res.message = "invalid campaign name '" + msg.name + "'";
    return encode(res);
  }
  if (const Campaign* existing = find_campaign(msg.name)) {
    if (existing->ckpt->meta() == msg.meta && !existing->removing) {
      res.ok = true;  // idempotent resubmission
      res.message = "already registered";
    } else {
      res.message = "campaign '" + msg.name + "' already exists";
    }
    return encode(res);
  }
  if (cfg_.store_dir.empty()) {
    res.message = "coordinator has no store dir; submission disabled";
    return encode(res);
  }
  if (campaigns_.size() >= cfg_.max_campaigns) {
    res.message = "campaign registry full (" +
                  std::to_string(cfg_.max_campaigns) + ")";
    return encode(res);
  }
  try {
    const std::string path = cfg_.store_dir + "/" + msg.name + ".gpfs";
    auto owned = std::make_unique<store::CampaignCheckpoint>(path, msg.meta);
    store::CampaignCheckpoint& ref = *owned;
    register_campaign(ref, std::move(owned), msg.priority);
    ++stats_.campaigns_submitted;
    submits.add(1);
    res.ok = true;
    res.message = "registered";
  } catch (const std::exception& e) {
    res.message = e.what();
  }
  return encode(res);
}

Frame CoordinatorCore::on_remove(const RemoveCampaign& msg) {
  static obs::Counter& removes = obs::counter("net.campaign_removes");
  OpResult res;
  res.message = "no such campaign '" + msg.name + "'";
  for (auto& [cid, c] : campaigns_) {
    if (c.name != msg.name) continue;
    if (!c.removing) {
      c.removing = true;
      ++stats_.campaigns_removed;
      removes.add(1);
    }
    res.ok = true;
    res.message = "removing";
  }
  return encode(res);
}

void CoordinatorCore::on_frame(std::uint64_t session, const Frame& f,
                               TimePoint now, std::vector<std::uint8_t>& out) {
  static obs::Counter& heartbeats = obs::counter("net.heartbeats");
  static obs::Counter& stats_reqs = obs::counter("net.stats_requests");
  const auto live = live_.find(session);
  if (live == live_.end())
    throw std::runtime_error("unknown session " + std::to_string(session));
  Session& s = live->second;
  const auto lease_len = std::chrono::milliseconds(cfg_.lease_ms);

  switch (static_cast<MsgType>(f.type)) {
    case MsgType::Hello: {
      const Hello hello = decode_hello(f);
      if (hello.version != kProtocolVersion)
        throw std::runtime_error("protocol version mismatch: peer speaks v" +
                                 std::to_string(hello.version));
      s.peer_name = hello.worker_name;
      s.campaign_filter = hello.campaign;
      HelloAck ack;
      ack.lease_ms = cfg_.lease_ms;
      queue_frame(out, encode(ack));
      break;
    }
    case MsgType::LeaseRequest:
      (void)decode_lease_request(f);  // the Hello's campaign is authoritative
      queue_frame(out, on_lease_request(session, s, now));
      break;
    case MsgType::Result:
      on_result(session, s, decode_result(f), now, out);
      break;
    case MsgType::Heartbeat: {
      const Heartbeat hb = decode_heartbeat(f);
      Ack ack;
      ack.drain = draining_;
      const auto it = campaigns_.find(hb.campaign_id);
      ack.lost_lease = it == campaigns_.end() ||
                       !it->second.dispatcher->renew(hb.unit_id, session, now,
                                                     lease_len);
      touch_session(session, s.peer_name, now, 0);
      heartbeats.add(1);
      queue_frame(out, encode(ack));
      break;
    }
    case MsgType::UnitDone: {
      const UnitDone done = decode_unit_done(f);
      Ack ack;
      ack.drain = draining_;
      // Write this session's admitted records first so the unit's last
      // Result batch is in the store before the sync below.
      write_appends(s, &out);
      const auto it = campaigns_.find(done.campaign_id);
      ack.lost_lease = it == campaigns_.end() ||
                       !it->second.dispatcher->renew(done.unit_id, session,
                                                     now, lease_len);
      touch_session(session, s.peer_name, now, 0);
      // Lease-retire boundary: the unit's records become durable before
      // the worker is told its work is accepted (see GPF_FSYNC).
      if (it != campaigns_.end()) it->second.ckpt->sync();
      if (cfg_.verbose)
        std::fprintf(stderr, "[gpfd] unit %llu done (session %llu)\n",
                     static_cast<unsigned long long>(done.unit_id),
                     static_cast<unsigned long long>(session));
      queue_frame(out, encode(ack));
      break;
    }
    case MsgType::StatsRequest: {
      const std::string campaign = decode_stats_request(f);
      stats_reqs.add(1);
      queue_frame(out, encode(snapshot_stats(now, campaign)));
      break;
    }
    case MsgType::SubmitCampaign:
      queue_frame(out, on_submit(decode_submit_campaign(f)));
      break;
    case MsgType::RemoveCampaign:
      queue_frame(out, on_remove(decode_remove_campaign(f)));
      break;
    case MsgType::ListCampaigns: {
      CampaignList list;
      list.campaigns = list_campaigns();
      queue_frame(out, encode(list));
      break;
    }
    default:
      throw std::runtime_error("unexpected message type " +
                               std::to_string(f.type));
  }
}

// --- Coordinator (the epoll shell) -------------------------------------------

Coordinator::Coordinator(const CoordinatorConfig& cfg)
    : core_(cfg), verbose_(cfg.verbose),
      listener_(listen_tcp(cfg.host, cfg.port)) {
  port_ = local_port(listener_);
  set_nonblocking(listener_, true);
  epoll_fd_ = ::epoll_create1(0);
  if (epoll_fd_ < 0) sys_error("epoll_create1");
  watch(listener_.fd());
}

Coordinator::Coordinator(store::CampaignCheckpoint& ckpt,
                         const CoordinatorConfig& cfg)
    : Coordinator(cfg) {
  add_campaign(ckpt);
}

Coordinator::~Coordinator() {
  conns_.clear();
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
}

void Coordinator::watch(int fd) {
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = fd;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) != 0)
    sys_error("epoll_ctl add");
}

std::uint16_t Coordinator::serve_http(const std::string& addr,
                                      HttpHandler handler) {
  const auto [host, port] = parse_addr(addr);
  http_listener_ = listen_tcp(host, port);
  set_nonblocking(http_listener_, true);
  watch(http_listener_.fd());
  http_handler_ = std::move(handler);
  return local_port(http_listener_);
}

void Coordinator::accept_ready(const Socket& listener, bool http) {
  while (true) {
    const int fd = ::accept(listener.fd(), nullptr, nullptr);
    if (fd < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      if (errno == EINTR || errno == ECONNABORTED) continue;
      sys_error("accept");
    }
    auto conn = std::make_unique<Conn>();
    conn->sock = Socket(fd);
    conn->http = http;
    set_nonblocking(conn->sock, true);
    watch(fd);
    conn->events = EPOLLIN;
    if (http)
      conn->deadline = Clock::now() + std::chrono::milliseconds(kHttpRequestMs);
    else
      conn->session = core_.on_connect();
    conns_.emplace(fd, std::move(conn));
    conn_count_.store(conns_.size(), std::memory_order_relaxed);
  }
}

void Coordinator::close_conn(int fd) {
  const auto it = conns_.find(fd);
  if (it == conns_.end()) return;
  if (!it->second->http) core_.on_close(it->second->session);
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
  conns_.erase(it);
  conn_count_.store(conns_.size(), std::memory_order_relaxed);
}

void Coordinator::flush_writes(Conn& conn) {
  while (conn.woff < conn.wbuf.size()) {
    const ssize_t n = ::send(conn.sock.fd(), conn.wbuf.data() + conn.woff,
                             conn.wbuf.size() - conn.woff, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      conn.dead = true;
      return;
    }
    conn.woff += static_cast<std::size_t>(n);
  }
  if (conn.woff == conn.wbuf.size()) {
    conn.wbuf.clear();
    conn.woff = 0;
    if (conn.answered) {  // an HTTP connection closes once its response is out
      conn.dead = true;
      return;
    }
  }
  update_interest(conn);
}

void Coordinator::update_interest(Conn& conn) {
  const std::uint32_t want = (conn.answered ? 0u : std::uint32_t{EPOLLIN}) |
                             (conn.wbuf.empty() ? 0u : std::uint32_t{EPOLLOUT});
  if (want == conn.events) return;
  conn.events = want;
  epoll_event ev{};
  ev.events = want;
  ev.data.fd = conn.sock.fd();
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn.sock.fd(), &ev);
}

bool Coordinator::read_into(Conn& conn, std::size_t cap) {
  std::uint8_t tmp[65536];
  while (conn.rbuf.size() < cap) {
    const ssize_t n = ::recv(conn.sock.fd(), tmp,
                             std::min(sizeof(tmp), cap - conn.rbuf.size()), 0);
    if (n > 0) {
      conn.rbuf.insert(conn.rbuf.end(), tmp, tmp + n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    return n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK);
  }
  return true;
}

void Coordinator::handle_readable(Conn& conn) {
  if (!read_into(conn, SIZE_MAX)) conn.dead = true;
  try {
    Frame f;
    while (extract_frame(conn.rbuf, conn.roff, f))
      core_.on_frame(conn.session, f, Clock::now(), conn.wbuf);
  } catch (const std::exception& e) {
    if (verbose_)
      std::fprintf(stderr, "[gpfd] session %llu error: %s\n",
                   static_cast<unsigned long long>(conn.session), e.what());
    conn.dead = true;
  }
  if (conn.roff == conn.rbuf.size()) {
    conn.rbuf.clear();
    conn.roff = 0;
  } else if (conn.roff > 65536) {
    conn.rbuf.erase(conn.rbuf.begin(),
                    conn.rbuf.begin() + static_cast<std::ptrdiff_t>(conn.roff));
    conn.roff = 0;
  }
}

void Coordinator::read_http(Conn& conn) {
  // A peer that stopped sending is answered on what it sent.
  const bool open = read_into(conn, kMaxHttpHeadBytes);
  const std::string head(conn.rbuf.begin(), conn.rbuf.end());
  if (open && head.size() < kMaxHttpHeadBytes &&
      head.find("\r\n\r\n") == std::string::npos)
    return;  // the head is not complete yet
  const std::string wire =
      serialize_http_response(answer_http(head, http_handler_));
  conn.wbuf.assign(wire.begin(), wire.end());
  conn.answered = true;
  flush_writes(conn);
}

void Coordinator::pump(int timeout_ms) {
  epoll_event evs[64];
  const int n = ::epoll_wait(epoll_fd_, evs, 64, timeout_ms);
  if (n < 0) {
    if (errno == EINTR) return;
    sys_error("epoll_wait");
  }
  if (drain_.load(std::memory_order_relaxed)) core_.drain();
  for (int i = 0; i < n; ++i) {
    const int fd = evs[i].data.fd;
    if (fd == listener_.fd()) {
      accept_ready(listener_, /*http=*/false);
      continue;
    }
    if (fd == http_listener_.fd()) {
      accept_ready(http_listener_, /*http=*/true);
      continue;
    }
    const auto it = conns_.find(fd);
    if (it == conns_.end()) continue;
    Conn& conn = *it->second;
    if (evs[i].events & (EPOLLHUP | EPOLLERR)) conn.dead = true;
    if (!conn.dead && (evs[i].events & EPOLLIN)) {
      if (conn.http)
        read_http(conn);
      else
        handle_readable(conn);
    }
    if (!conn.dead && (evs[i].events & EPOLLOUT)) flush_writes(conn);
  }
  // Write admitted records and flush owed replies, close HTTP connections
  // past their deadline, then reap dead connections (their admitted records
  // are written by the core's on_close).
  const auto now = Clock::now();
  std::vector<int> dead;
  for (auto& [fd, conn] : conns_) {
    if (conn->http && now >= conn->deadline) conn->dead = true;
    if (!conn->dead && !conn->http) {
      core_.flush_appends(conn->session, conn->wbuf);
      flush_writes(*conn);
    }
    if (conn->dead) dead.push_back(fd);
  }
  for (const int fd : dead) close_conn(fd);
}

Coordinator::Stats Coordinator::serve() {
  core_.start(Clock::now());
  while (true) {
    if (drain_.load(std::memory_order_relaxed)) core_.drain();
    if (core_.finished()) break;
    pump(/*timeout_ms=*/50);
    core_.tick(Clock::now());
  }
  // Linger briefly so connected workers' final LeaseRequests get a
  // NoWork{drained} reply and they exit cleanly, instead of burning their
  // reconnect budget against a coordinator that just finished. HTTP
  // connections are still served meanwhile but do not extend it.
  const auto grace_deadline = Clock::now() + std::chrono::milliseconds(2000);
  const auto any_worker_conns = [this] {
    return std::any_of(conns_.begin(), conns_.end(),
                       [](const auto& kv) { return !kv.second->http; });
  };
  while (any_worker_conns() && Clock::now() < grace_deadline)
    pump(/*timeout_ms=*/50);
  std::vector<int> fds;
  fds.reserve(conns_.size());
  for (const auto& [fd, conn] : conns_) fds.push_back(fd);
  for (const int fd : fds) close_conn(fd);
  listener_.close();
  http_listener_.close();
  return core_.finish();
}

}  // namespace gpf::net
