#include "net/coordinator.hpp"

#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <set>
#include <stdexcept>

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

Coordinator::Coordinator(const CoordinatorConfig& cfg)
    : cfg_(cfg), listener_(listen_tcp(cfg.host, cfg.port)) {
  port_ = local_port(listener_);
  set_nonblocking(listener_, true);
  epoll_fd_ = ::epoll_create1(0);
  if (epoll_fd_ < 0) sys_error("epoll_create1");
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = listener_.fd();
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listener_.fd(), &ev) != 0)
    sys_error("epoll_ctl add listener");
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

std::uint64_t Coordinator::register_campaign_locked(
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
  campaigns_.emplace(cid, std::move(c));
  return cid;
}

std::size_t Coordinator::unit_size_for(const store::CampaignMeta& meta) const {
  if (cfg_.unit_size != 0) return cfg_.unit_size;
  return meta.kind == store::CampaignKind::Gate ? gate::kWidestBatchLanes : 64;
}

void Coordinator::add_campaign(store::CampaignCheckpoint& ckpt,
                               std::uint32_t priority) {
  std::lock_guard<std::mutex> lock(mu_);
  const std::string name = campaign_name_from_path(ckpt.path());
  if (find_campaign_locked(name))
    throw std::runtime_error("gpfd: duplicate campaign '" + name + "'");
  if (campaigns_.size() >= cfg_.max_campaigns)
    throw std::runtime_error("gpfd: campaign registry full");
  register_campaign_locked(ckpt, nullptr, priority);
}

Coordinator::Campaign* Coordinator::find_campaign_locked(
    const std::string& name) {
  for (auto& [cid, c] : campaigns_)
    if (c.name == name) return &c;
  return nullptr;
}

CampaignRow Coordinator::campaign_row_locked(const Campaign& c) const {
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

void Coordinator::touch_session(std::uint64_t session, const std::string& name,
                                LeaseDispatcher::Clock::time_point now,
                                std::uint64_t retired_delta) {
  SessionInfo& info = sessions_[session];
  if (!name.empty()) info.name = name;
  info.retired += retired_delta;
  info.last_active = now;
  info.connected = true;
}

StatsSnapshot Coordinator::snapshot_stats_locked(
    LeaseDispatcher::Clock::time_point now, const std::string& campaign) {
  StatsSnapshot s;
  const Campaign* scoped =
      campaign.empty() ? nullptr : find_campaign_locked(campaign);
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
  s.draining = drain_.load(std::memory_order_relaxed) ? 1 : 0;
  if (s.draining) s.desired_workers = 0;
  s.evicted_workers = evicted_workers_;
  s.evicted_retired = evicted_retired_;
  s.campaigns.reserve(campaigns_.size());
  for (const auto& [cid, c] : campaigns_)
    s.campaigns.push_back(campaign_row_locked(c));
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

StatsSnapshot Coordinator::snapshot_stats(const std::string& campaign) {
  const auto now = LeaseDispatcher::Clock::now();
  std::lock_guard<std::mutex> lock(mu_);
  return snapshot_stats_locked(now, campaign);
}

std::vector<CampaignRow> Coordinator::list_campaigns() {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<CampaignRow> rows;
  rows.reserve(campaigns_.size());
  for (const auto& [cid, c] : campaigns_) rows.push_back(campaign_row_locked(c));
  return rows;
}

std::vector<std::string> Coordinator::store_paths() {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> paths;
  paths.reserve(campaigns_.size());
  for (const auto& [cid, c] : campaigns_) paths.push_back(c.ckpt->path());
  return paths;
}

std::size_t Coordinator::session_rows() {
  std::lock_guard<std::mutex> lock(mu_);
  return sessions_.size();
}

bool Coordinator::stop_serving() {
  std::lock_guard<std::mutex> lock(mu_);
  std::size_t pending_appends = 0;
  bool any_leased = false;
  bool all_done = true;
  for (const auto& [cid, c] : campaigns_) {
    pending_appends += c.pending_appends;
    if (c.dispatcher->any_leased()) any_leased = true;
    if (!c.dispatcher->all_done()) all_done = false;
  }
  if (all_done && pending_appends == 0) return true;
  return drain_.load(std::memory_order_relaxed) && !any_leased &&
         pending_appends == 0;
}

void Coordinator::tick(LeaseDispatcher::Clock::time_point now) {
  static obs::Counter& expiries = obs::counter("net.lease_expiries");
  static obs::Counter& evictions = obs::counter("net.session_evictions");
  std::lock_guard<std::mutex> lock(mu_);
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
    const StatsSnapshot s = snapshot_stats_locked(now, "");
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

void Coordinator::accept_ready() {
  while (true) {
    const int fd = ::accept(listener_.fd(), nullptr, nullptr);
    if (fd < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      if (errno == EINTR || errno == ECONNABORTED) continue;
      sys_error("accept");
    }
    auto conn = std::make_unique<Conn>();
    conn->sock = Socket(fd);
    conn->session = next_session_++;
    set_nonblocking(conn->sock, true);
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = fd;
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) != 0)
      sys_error("epoll_ctl add conn");
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++stats_.sessions;
    }
    if (cfg_.verbose)
      std::fprintf(stderr, "[gpfd] session %llu connected\n",
                   static_cast<unsigned long long>(conn->session));
    conns_.emplace(fd, std::move(conn));
    conn_count_.store(conns_.size(), std::memory_order_relaxed);
  }
}

void Coordinator::close_conn(int fd) {
  const auto it = conns_.find(fd);
  if (it == conns_.end()) return;
  Conn& conn = *it->second;
  static obs::Counter& releases = obs::counter("net.lease_releases");
  {
    std::lock_guard<std::mutex> lock(mu_);
    // Admitted records are already retired in their dispatchers: they MUST
    // reach the store (only the reply frames die with the socket), or the
    // final export would silently miss acknowledged-as-done work.
    drain_appends_locked(conn, /*queue_replies=*/false);
    for (auto& [cid, c] : campaigns_) {
      releases.add(c.dispatcher->leased_units_for(conn.session));
      c.dispatcher->release_session(conn.session);
    }
    if (auto s = sessions_.find(conn.session); s != sessions_.end())
      s->second.connected = false;
  }
  if (cfg_.verbose)
    std::fprintf(stderr, "[gpfd] session %llu disconnected\n",
                 static_cast<unsigned long long>(conn.session));
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
  conns_.erase(it);
  conn_count_.store(conns_.size(), std::memory_order_relaxed);
}

void Coordinator::queue_frame(Conn& conn, const Frame& f) {
  const std::vector<std::uint8_t> wire = frame_bytes(f);
  conn.wbuf.insert(conn.wbuf.end(), wire.begin(), wire.end());
  static obs::Counter& frames = obs::counter("net.frames_out");
  static obs::Counter& bytes = obs::counter("net.bytes_out");
  frames.add(1);
  bytes.add(wire.size());
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
  }
  update_write_interest(conn);
}

void Coordinator::update_write_interest(Conn& conn) {
  const bool want = !conn.wbuf.empty();
  if (want == conn.want_write) return;
  conn.want_write = want;
  epoll_event ev{};
  ev.events = EPOLLIN | (want ? EPOLLOUT : 0u);
  ev.data.fd = conn.sock.fd();
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn.sock.fd(), &ev);
}

void Coordinator::drain_appends_locked(Conn& conn, bool queue_replies) {
  while (!conn.appends.empty()) {
    PendingAppend pa = std::move(conn.appends.front());
    conn.appends.pop_front();
    if (const auto it = campaigns_.find(pa.cid); it != campaigns_.end()) {
      it->second.ckpt->record(pa.fresh);  // one write for the whole message
      it->second.pending_appends -= pa.fresh.size();
    }
    conn.outstanding_records -= pa.fresh.size();
    if (queue_replies) queue_frame(conn, pa.reply);
  }
}

void Coordinator::process_appends(Conn& conn) {
  if (conn.appends.empty()) return;
  std::lock_guard<std::mutex> lock(mu_);
  drain_appends_locked(conn, /*queue_replies=*/true);
}

void Coordinator::handle_readable(Conn& conn) {
  std::uint8_t tmp[65536];
  while (true) {
    const ssize_t n = ::recv(conn.sock.fd(), tmp, sizeof(tmp), 0);
    if (n > 0) {
      conn.rbuf.insert(conn.rbuf.end(), tmp, tmp + n);
      continue;
    }
    if (n == 0) {
      conn.dead = true;
      break;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    conn.dead = true;
    break;
  }
  try {
    Frame f;
    while (extract_frame(conn.rbuf, conn.roff, f)) handle_message(conn, f);
  } catch (const std::exception& e) {
    if (cfg_.verbose)
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

Frame Coordinator::on_lease_request(Conn& conn,
                                    LeaseDispatcher::Clock::time_point now) {
  static obs::Counter& grants = obs::counter("net.lease_grants");
  const auto lease_len = std::chrono::milliseconds(cfg_.lease_ms);
  const bool drain = drain_.load(std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(mu_);
  conn.is_worker = true;
  touch_session(conn.session, conn.peer_name, now, 0);
  std::vector<std::pair<std::uint64_t, std::uint32_t>> eligible;
  if (!drain) {
    for (const auto& [cid, c] : campaigns_) {
      if (c.removing || c.dispatcher->pending_units() == 0) continue;
      if (!conn.campaign_filter.empty() && c.name != conn.campaign_filter)
        continue;
      eligible.emplace_back(cid, c.priority);
    }
  }
  if (!eligible.empty()) {
    const std::uint64_t cid = drr_.pick(eligible);
    Campaign& c = campaigns_.at(cid);
    const auto grant = c.dispatcher->lease(conn.session, now, lease_len);
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
                   g.ids.size(), static_cast<unsigned long long>(conn.session));
    return encode(g);
  }
  NoWork nw;
  if (drain) {
    nw.drained = true;
  } else if (!conn.campaign_filter.empty()) {
    const Campaign* c = find_campaign_locked(conn.campaign_filter);
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

Frame Coordinator::on_submit(const SubmitCampaign& msg) {
  static obs::Counter& submits = obs::counter("net.campaign_submits");
  OpResult res;
  std::lock_guard<std::mutex> lock(mu_);
  if (msg.name.empty() || msg.name.find('/') != std::string::npos) {
    res.message = "invalid campaign name '" + msg.name + "'";
    return encode(res);
  }
  if (Campaign* existing = find_campaign_locked(msg.name)) {
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
    register_campaign_locked(ref, std::move(owned), msg.priority);
    ++stats_.campaigns_submitted;
    submits.add(1);
    res.ok = true;
    res.message = "registered";
  } catch (const std::exception& e) {
    res.message = e.what();
  }
  return encode(res);
}

Frame Coordinator::on_remove(const RemoveCampaign& msg) {
  static obs::Counter& removes = obs::counter("net.campaign_removes");
  OpResult res;
  std::lock_guard<std::mutex> lock(mu_);
  Campaign* c = find_campaign_locked(msg.name);
  if (!c) {
    res.message = "no such campaign '" + msg.name + "'";
    return encode(res);
  }
  if (!c->removing) {
    c->removing = true;
    ++stats_.campaigns_removed;
    removes.add(1);
  }
  res.ok = true;
  res.message = "removing";
  return encode(res);
}

void Coordinator::handle_message(Conn& conn, const Frame& f) {
  static obs::Counter& heartbeats = obs::counter("net.heartbeats");
  static obs::Counter& stats_reqs = obs::counter("net.stats_requests");
  static obs::Counter& busy = obs::counter("net.busy_rejections");
  const auto now = LeaseDispatcher::Clock::now();
  const auto lease_len = std::chrono::milliseconds(cfg_.lease_ms);
  const bool drain = drain_.load(std::memory_order_relaxed);

  switch (static_cast<MsgType>(f.type)) {
    case MsgType::Hello: {
      const Hello hello = decode_hello(f);
      if (hello.version != kProtocolVersion)
        throw std::runtime_error("protocol version mismatch: peer speaks v" +
                                 std::to_string(hello.version));
      conn.peer_name = hello.worker_name;
      conn.campaign_filter = hello.campaign;
      HelloAck ack;
      ack.lease_ms = cfg_.lease_ms;
      queue_frame(conn, encode(ack));
      break;
    }
    case MsgType::LeaseRequest: {
      (void)decode_lease_request(f);  // conn.campaign_filter is authoritative
      queue_frame(conn, on_lease_request(conn, now));
      break;
    }
    case MsgType::Result: {
      ResultMsg msg = decode_result(f);
      std::lock_guard<std::mutex> lock(mu_);
      conn.is_worker = true;
      const auto it = campaigns_.find(msg.campaign_id);
      // Admission control: refuse the whole message (worker resends it
      // verbatim) rather than queue unboundedly. One oversized Result on
      // an empty queue is always admitted, so progress can't wedge.
      if (it != campaigns_.end() && conn.outstanding_records != 0 &&
          conn.outstanding_records >= cfg_.max_outstanding_appends) {
        it->second.dispatcher->renew(msg.unit_id, conn.session, now, lease_len);
        ++stats_.busy_rejections;
        busy.add(1);
        Busy b;
        b.retry_after_ms = cfg_.busy_retry_ms;
        queue_frame(conn, encode(b));
        break;
      }
      Ack ack;
      ack.drain = drain;
      PendingAppend pa;
      pa.cid = msg.campaign_id;
      if (it == campaigns_.end()) {
        ack.lost_lease = true;  // campaign finished removal; abandon the unit
      } else {
        Campaign& c = it->second;
        ack.lost_lease =
            !c.dispatcher->renew(msg.unit_id, conn.session, now, lease_len);
        // Results are kept even from a lost lease: the work is done and
        // id-dedup makes acceptance harmless (and saves the re-run when
        // the reassigned copy hasn't started that id yet).
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
      touch_session(conn.session, conn.peer_name, now, pa.fresh.size());
      if (pa.fresh.empty()) {
        // Nothing to append: the ack owes no durability, reply now.
        queue_frame(conn, encode(ack));
      } else {
        it->second.pending_appends += pa.fresh.size();
        conn.outstanding_records += pa.fresh.size();
        pa.reply = encode(ack);
        conn.appends.push_back(std::move(pa));
      }
      break;
    }
    case MsgType::Heartbeat: {
      const Heartbeat hb = decode_heartbeat(f);
      Ack ack;
      ack.drain = drain;
      {
        std::lock_guard<std::mutex> lock(mu_);
        conn.is_worker = true;
        const auto it = campaigns_.find(hb.campaign_id);
        ack.lost_lease =
            it == campaigns_.end() ||
            !it->second.dispatcher->renew(hb.unit_id, conn.session, now,
                                          lease_len);
        touch_session(conn.session, conn.peer_name, now, 0);
      }
      heartbeats.add(1);
      queue_frame(conn, encode(ack));
      break;
    }
    case MsgType::UnitDone: {
      const UnitDone done = decode_unit_done(f);
      Ack ack;
      ack.drain = drain;
      {
        std::lock_guard<std::mutex> lock(mu_);
        conn.is_worker = true;
        // Flush this connection's admitted records first so the unit's
        // last Result batch is in the store before the sync below.
        drain_appends_locked(conn, /*queue_replies=*/true);
        const auto it = campaigns_.find(done.campaign_id);
        ack.lost_lease =
            it == campaigns_.end() ||
            !it->second.dispatcher->renew(done.unit_id, conn.session, now,
                                          lease_len);
        touch_session(conn.session, conn.peer_name, now, 0);
        // Lease-retire boundary: the unit's records become durable before
        // the worker is told its work is accepted (see GPF_FSYNC).
        if (it != campaigns_.end()) it->second.ckpt->sync();
        if (cfg_.verbose)
          std::fprintf(stderr, "[gpfd] unit %llu done (session %llu)\n",
                       static_cast<unsigned long long>(done.unit_id),
                       static_cast<unsigned long long>(conn.session));
      }
      queue_frame(conn, encode(ack));
      break;
    }
    case MsgType::StatsRequest: {
      const std::string campaign = decode_stats_request(f);
      stats_reqs.add(1);
      StatsSnapshot s;
      {
        std::lock_guard<std::mutex> lock(mu_);
        s = snapshot_stats_locked(now, campaign);
      }
      queue_frame(conn, encode(s));
      break;
    }
    case MsgType::SubmitCampaign:
      queue_frame(conn, on_submit(decode_submit_campaign(f)));
      break;
    case MsgType::RemoveCampaign:
      queue_frame(conn, on_remove(decode_remove_campaign(f)));
      break;
    case MsgType::ListCampaigns: {
      CampaignList list;
      {
        std::lock_guard<std::mutex> lock(mu_);
        list.campaigns.reserve(campaigns_.size());
        for (const auto& [cid, c] : campaigns_)
          list.campaigns.push_back(campaign_row_locked(c));
      }
      queue_frame(conn, encode(list));
      break;
    }
    default:
      throw std::runtime_error("unexpected message type " +
                               std::to_string(f.type));
  }
}

Coordinator::Stats Coordinator::serve() {
  serve_start_ = LeaseDispatcher::Clock::now();
  last_status_ = serve_start_;

  const auto pump = [this](int timeout_ms) {
    epoll_event evs[64];
    const int n = ::epoll_wait(epoll_fd_, evs, 64, timeout_ms);
    if (n < 0) {
      if (errno == EINTR) return;
      sys_error("epoll_wait");
    }
    for (int i = 0; i < n; ++i) {
      const int fd = evs[i].data.fd;
      if (fd == listener_.fd()) {
        accept_ready();
        continue;
      }
      const auto it = conns_.find(fd);
      if (it == conns_.end()) continue;
      Conn& conn = *it->second;
      if (evs[i].events & (EPOLLHUP | EPOLLERR)) conn.dead = true;
      if (!conn.dead && (evs[i].events & EPOLLIN)) handle_readable(conn);
      if (!conn.dead && (evs[i].events & EPOLLOUT)) flush_writes(conn);
    }
    // Write admitted records and flush owed replies, then reap dead
    // connections (their admitted records are written by close_conn).
    std::vector<int> dead;
    for (auto& [fd, conn] : conns_) {
      if (!conn->dead) {
        process_appends(*conn);
        flush_writes(*conn);
      }
      if (conn->dead) dead.push_back(fd);
    }
    for (const int fd : dead) close_conn(fd);
  };

  while (!stop_serving()) {
    pump(/*timeout_ms=*/50);
    tick(LeaseDispatcher::Clock::now());
  }
  // Linger briefly so connected workers' final LeaseRequests get a
  // NoWork{drained} reply and they exit cleanly, instead of burning their
  // reconnect budget against a coordinator that just finished.
  const auto grace_deadline =
      LeaseDispatcher::Clock::now() + std::chrono::milliseconds(2000);
  while (!conns_.empty() && LeaseDispatcher::Clock::now() < grace_deadline)
    pump(/*timeout_ms=*/50);
  std::vector<int> fds;
  fds.reserve(conns_.size());
  for (const auto& [fd, conn] : conns_) fds.push_back(fd);
  for (const int fd : fds) close_conn(fd);
  listener_.close();

  std::lock_guard<std::mutex> lock(mu_);
  bool all_done = true;
  for (const auto& [cid, c] : campaigns_) {
    c.ckpt->sync();  // everything acknowledged so far becomes durable
    if (!c.dispatcher->all_done()) all_done = false;
  }
  stats_.drained = !all_done;
  return stats_;
}

}  // namespace gpf::net
