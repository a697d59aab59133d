// Campaign coordinator: many named fault-injection campaigns served to a
// fleet of workers over TCP, in two parts.
//
// CoordinatorCore is the protocol. It holds one registry entry per
// campaign, each with its own CampaignCheckpoint (the authoritative store)
// and LeaseDispatcher (the authoritative map of who is working on which
// slice of that campaign's id space), the worker sessions, the stats and
// the rate windows. Lease grants are shared across campaigns by
// deficit-round-robin fair share over the campaigns' integer priorities, so
// a priority-3 campaign retires ids ~3x as fast as a priority-1 one under
// the same fleet. The core does no I/O of its own: it never touches a
// socket, reads a clock or starts a thread. The caller hands it whole
// frames with the current time and it appends the reply frames to a buffer
// the caller owns, so a test can drive it through any schedule on a virtual
// clock.
//
// Coordinator is the shell: one epoll loop over non-blocking sockets, each
// connection with a read buffer (frame reassembly via extract_frame) and a
// write buffer (flushed opportunistically, EPOLLOUT only while non-empty).
// It also serves gpfd's HTTP endpoints from the same loop (serve_http), so
// gpfd runs on one thread: a `gpfctl top` poll or a curl costs two buffers,
// not a thread, and a slow client stalls nobody.
//
// Backpressure: a Result's records are admitted into a bounded
// per-session append queue (acknowledged only after they reach the store,
// preserving the ack-means-durable-by-sync contract); a Result that would
// overflow the queue is refused with Busy{retry_after_ms} and the worker
// resends. Admitted records are never dropped — they are already retired in
// the dispatcher, so the close path appends them before the session state
// is torn down.
//
// Campaigns come and go while the fleet runs: SubmitCampaign opens a new
// store under cfg.store_dir and starts granting from it on the next pick;
// RemoveCampaign stops new grants and finalizes (sync + unregister) once
// outstanding leases and queued appends hit zero, leaving the partial store
// on disk. serve() returns when every registered campaign's owned ids have
// retired, or — after request_drain() — when no leases remain outstanding.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "net/dispatch.hpp"
#include "net/framing.hpp"
#include "net/http.hpp"
#include "net/protocol.hpp"
#include "store/checkpoint.hpp"

namespace gpf::net {

struct CoordinatorConfig {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;     ///< 0 = kernel-assigned (read back via port())
  /// Fault ids per work unit. 0 (the default) sizes units by campaign
  /// kind (see CoordinatorCore::unit_size_for); any other value pins every
  /// campaign to it.
  std::size_t unit_size = 0;
  std::uint32_t lease_ms = 10000;
  bool verbose = false;       ///< per-event log lines on stderr
  std::uint32_t status_interval_ms = 5000;  ///< progress log period (0 = off)
  /// Directory where SubmitCampaign creates stores (<dir>/<name>.gpfs).
  /// Empty disables remote submission (OpResult error).
  std::string store_dir;
  /// Disconnected session rows older than this are folded into the
  /// snapshot's evicted_* aggregates (bounds sessions_ under churn).
  std::uint32_t session_ttl_ms = 60000;
  /// A rate window whose campaign made no progress for this long restarts
  /// at the next retirement, so an ETA never averages across an idle gap.
  std::uint32_t idle_reset_ms = 5000;
  /// Result admission bound: a session may have at most this many records
  /// queued for append; beyond it, Results get Busy{busy_retry_ms}.
  std::size_t max_outstanding_appends = 4096;
  std::uint32_t busy_retry_ms = 50;
  std::size_t max_campaigns = 64;
};

/// Trailing-window throughput/ETA estimator (~1 sample/s, window of 16)
/// with idle-gap reset: when progress resumes after >= idle_reset_ms of
/// none, the window restarts so the rate reflects the active period only.
/// Pure function of the time points passed in, so tests drive it with a
/// synthetic clock.
struct RateWindow {
  using Clock = LeaseDispatcher::Clock;

  std::uint32_t idle_reset_ms = 5000;

  void sample(Clock::time_point now, std::uint64_t retired);
  /// Recent throughput in ids/s x1000; 0 = unknown (no progress in window).
  std::uint64_t rate_milli() const;
  /// ETA for `remaining` ids at the window rate; 0 = unknown.
  std::uint64_t eta_ms(std::uint64_t remaining) const;

  std::deque<std::pair<Clock::time_point, std::uint64_t>> samples;
  Clock::time_point last_progress{};
  std::uint64_t last_retired = 0;
  bool primed = false;  ///< last_progress/last_retired hold real values
};

/// The coordinator's protocol state machine (see the file comment). Not
/// thread-safe and needs no lock: the shell drives it from its loop thread.
class CoordinatorCore {
 public:
  using TimePoint = LeaseDispatcher::Clock::time_point;

  struct Stats {
    std::uint64_t appended = 0;      ///< fresh records written this serve()
    std::uint64_t duplicates = 0;    ///< results dropped by id-dedup
    std::uint64_t sessions = 0;      ///< connections accepted
    std::uint64_t expired_leases = 0;
    std::uint64_t busy_rejections = 0;   ///< Results refused with Busy
    std::uint64_t campaigns_submitted = 0;
    std::uint64_t campaigns_removed = 0;
    std::uint64_t evicted_sessions = 0;  ///< rows TTL-folded into aggregates
    bool drained = false;            ///< stopped via drain, not completion
  };

  explicit CoordinatorCore(const CoordinatorConfig& cfg) : cfg_(cfg) {}

  /// Registers a caller-owned store as a campaign. The campaign name is the
  /// store's filename stem (e.g. "perfi-mxm-IOC" from ".../perfi-mxm-IOC.gpfs"),
  /// which is what workers pin to and what exports key on.
  void add_campaign(store::CampaignCheckpoint& ckpt, std::uint32_t priority = 1);

  /// Fault ids per work unit for a campaign with this meta: cfg.unit_size
  /// when pinned, else gate::kWidestBatchLanes for gate campaigns (a unit
  /// then fills whole batches at any worker's dispatched lane width) and
  /// 64 for perfi and rtl ones (milliseconds per injection keep such a
  /// unit short). Every registration path sizes its units here.
  std::size_t unit_size_for(const store::CampaignMeta& meta) const;

  /// Serving starts: elapsed time and the progress log count from `now`.
  void start(TimePoint now);

  /// A connection was accepted; returns its session id.
  std::uint64_t on_connect();
  /// Handles one whole frame from `session` at `now`, appending any reply
  /// frames to `out`. A Result's Ack waits in the session's append queue
  /// until flush_appends. Throws on a protocol error (bad version, malformed
  /// or unexpected message): the caller must close the session.
  void on_frame(std::uint64_t session, const Frame& f, TimePoint now,
                std::vector<std::uint8_t>& out);
  /// Writes the session's admitted records to their stores, one write per
  /// Result, and appends the Acks they owed to `out`.
  void flush_appends(std::uint64_t session, std::vector<std::uint8_t>& out);
  /// The connection is gone: its admitted records are still written (their
  /// Acks die with it), its leases return to pending, and its stats row
  /// goes stale.
  void on_close(std::uint64_t session);

  /// Periodic work at `now`: lease expiry, rate sampling, removal
  /// finalization, session TTL eviction and the progress log line.
  void tick(TimePoint now);

  /// Stop granting leases; see finished().
  void drain() { draining_ = true; }
  /// True when serving may stop: every campaign's ids are retired and
  /// written, or a drain was asked for and no lease or queued record is
  /// left.
  bool finished() const;
  /// Syncs every registered store and returns the serve totals.
  Stats finish();

  /// Live progress view, as served to `gpfctl top`. With a campaign name,
  /// id/unit/rate figures are scoped to that campaign; otherwise they
  /// aggregate the whole registry.
  StatsSnapshot snapshot_stats(TimePoint now,
                               const std::string& campaign = "") const;
  /// Registry view, as served to `gpfctl campaigns`.
  std::vector<CampaignRow> list_campaigns() const;
  /// Every store path ever registered, removed campaigns included, in
  /// registration order.
  const std::vector<std::string>& store_paths() const { return store_paths_; }

 private:
  struct Campaign {
    std::uint64_t cid = 0;
    std::string name;
    std::uint32_t priority = 1;
    store::CampaignCheckpoint* ckpt = nullptr;  ///< owned_ or caller-owned
    std::unique_ptr<store::CampaignCheckpoint> owned;
    std::unique_ptr<LeaseDispatcher> dispatcher;
    std::uint64_t done_at_open = 0;
    std::size_t pending_appends = 0;  ///< records admitted but not yet written
    bool removing = false;
    RateWindow rate;
  };

  /// Records admitted from one Result, with the reply owed once they land.
  struct PendingAppend {
    std::uint64_t cid = 0;
    /// The message's records already retired in the dispatcher, framed for
    /// one append.
    store::RecordBatch fresh;
    Frame reply;
  };

  /// One live connection's protocol state.
  struct Session {
    std::string peer_name;
    std::string campaign_filter;  ///< from Hello; "" = any campaign
    std::deque<PendingAppend> appends;
    std::size_t outstanding_records = 0;
  };

  /// A session row as seen by stats: rows survive disconnects so the live
  /// table shows a SIGKILLed worker go stale instead of vanishing, then
  /// fold into evicted_* aggregates after session_ttl_ms.
  struct SessionInfo {
    std::string name;
    std::uint64_t retired = 0;
    TimePoint last_active{};
    bool connected = false;
  };

  void register_campaign(store::CampaignCheckpoint& ckpt,
                         std::unique_ptr<store::CampaignCheckpoint> owned,
                         std::uint32_t priority);
  const Campaign* find_campaign(const std::string& name) const;
  CampaignRow campaign_row(const Campaign& c) const;

  void write_appends(Session& s, std::vector<std::uint8_t>* out);
  Frame on_lease_request(std::uint64_t session, const Session& s,
                         TimePoint now);
  void on_result(std::uint64_t session, Session& s, const ResultMsg& msg,
                 TimePoint now, std::vector<std::uint8_t>& out);
  Frame on_submit(const SubmitCampaign& msg);
  Frame on_remove(const RemoveCampaign& msg);
  void touch_session(std::uint64_t session, const std::string& name,
                     TimePoint now, std::uint64_t retired_delta);

  CoordinatorConfig cfg_;
  std::map<std::uint64_t, Campaign> campaigns_;  ///< cid -> campaign
  std::uint64_t next_cid_ = 1;
  std::vector<std::string> store_paths_;
  DrrScheduler drr_;
  Stats stats_;
  bool draining_ = false;
  std::unordered_map<std::uint64_t, Session> live_;  ///< by session id
  std::uint64_t next_session_ = 1;
  std::map<std::uint64_t, SessionInfo> sessions_;  ///< stats rows
  std::uint64_t evicted_workers_ = 0;
  std::uint64_t evicted_retired_ = 0;
  RateWindow fleet_rate_;  ///< aggregate across campaigns
  TimePoint serve_start_{};
  TimePoint last_status_{};
};

class Coordinator {
 public:
  using Stats = CoordinatorCore::Stats;

  /// Binds the listener immediately (port() is valid before serve()).
  /// Campaigns are attached afterwards via add_campaign / SubmitCampaign.
  explicit Coordinator(const CoordinatorConfig& cfg);
  /// Single-campaign convenience: construct + add_campaign(ckpt).
  Coordinator(store::CampaignCheckpoint& ckpt, const CoordinatorConfig& cfg);
  ~Coordinator();

  /// See CoordinatorCore::add_campaign. Call before serve().
  void add_campaign(store::CampaignCheckpoint& ckpt, std::uint32_t priority = 1) {
    core_.add_campaign(ckpt, priority);
  }
  std::size_t unit_size_for(const store::CampaignMeta& meta) const {
    return core_.unit_size_for(meta);
  }

  std::uint16_t port() const { return port_; }

  /// Binds a second listener on "host:port" (port 0 = kernel-assigned) and
  /// serves HTTP from it in the same loop: `handler` runs on the loop
  /// thread. Returns the bound port. Call before serve().
  std::uint16_t serve_http(const std::string& addr, HttpHandler handler);

  /// Asks serve() to stop granting leases and return once outstanding
  /// leases finish or expire. Async-safe (atomic store): callable from a
  /// signal handler.
  void request_drain() { drain_.store(true, std::memory_order_relaxed); }

  /// Blocking event loop; returns when every campaign's owned ids are
  /// retired or a requested drain has no leases left outstanding.
  Stats serve();

  // Views of the core. Not thread-safe: call them from the HTTP handler
  // (the loop thread) or after serve() returns.
  StatsSnapshot snapshot_stats(const std::string& campaign = "") const {
    return core_.snapshot_stats(LeaseDispatcher::Clock::now(), campaign);
  }
  std::vector<CampaignRow> list_campaigns() const { return core_.list_campaigns(); }
  std::vector<std::string> store_paths() const { return core_.store_paths(); }

  /// Live connection count, protocol and HTTP (thread-safe); the churn
  /// regression test asserts this returns to baseline after N
  /// connect/disconnect cycles.
  std::size_t connection_count() const {
    return conn_count_.load(std::memory_order_relaxed);
  }

 private:
  using Clock = LeaseDispatcher::Clock;

  struct Conn {
    Socket sock;
    bool http = false;
    std::uint64_t session = 0;  ///< core session (protocol connections)
    Clock::time_point deadline{};  ///< HTTP: closed at this time
    bool answered = false;      ///< HTTP: response queued, reading stopped
    bool dead = false;
    std::vector<std::uint8_t> rbuf;
    std::size_t roff = 0;
    std::vector<std::uint8_t> wbuf;
    std::size_t woff = 0;
    std::uint32_t events = 0;  ///< epoll interest currently registered
  };

  void watch(int fd);
  void accept_ready(const Socket& listener, bool http);
  void close_conn(int fd);
  void pump(int timeout_ms);
  /// Reads what the socket holds into conn.rbuf, up to `cap` bytes in all;
  /// false once the peer has closed or the read failed.
  bool read_into(Conn& conn, std::size_t cap);
  void handle_readable(Conn& conn);
  void read_http(Conn& conn);
  void flush_writes(Conn& conn);
  void update_interest(Conn& conn);

  CoordinatorCore core_;
  bool verbose_ = false;
  Socket listener_;
  std::uint16_t port_ = 0;
  Socket http_listener_;
  HttpHandler http_handler_;
  int epoll_fd_ = -1;

  std::unordered_map<int, std::unique_ptr<Conn>> conns_;  ///< by fd
  std::atomic<std::size_t> conn_count_{0};

  std::atomic<bool> drain_{false};
};

}  // namespace gpf::net
