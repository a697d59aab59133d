// Campaign coordinator: a single-threaded epoll event loop serving many
// named fault-injection campaigns to a fleet of workers over TCP.
//
// One registry entry per campaign, each with its own CampaignCheckpoint
// (the authoritative store) and LeaseDispatcher (the authoritative map of
// who is working on which slice of that campaign's id space). Lease grants
// are shared across campaigns by deficit-round-robin fair share over the
// campaigns' integer priorities, so a priority-3 campaign retires ids ~3x
// as fast as a priority-1 one under the same fleet.
//
// All sockets are non-blocking and multiplexed by one epoll loop: each
// connection owns a read buffer (frame reassembly via extract_frame) and a
// write buffer (flushed opportunistically, EPOLLOUT only while non-empty).
// No per-connection threads exist anywhere — a `gpfctl top` poll costs two
// buffers, not a thread — and the loop doubles as the lease reaper, session
// TTL evictor, and campaign finalizer.
//
// Backpressure: a Result's records are admitted into a bounded
// per-connection append queue (acknowledged only after they reach the
// store, preserving the ack-means-durable-by-sync contract); a Result that
// would overflow the queue is refused with Busy{retry_after_ms} and the
// worker resends. Admitted records are never dropped — they are already
// retired in the dispatcher, so the close path appends them before the
// connection state is torn down.
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
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "net/dispatch.hpp"
#include "net/framing.hpp"
#include "net/protocol.hpp"
#include "store/checkpoint.hpp"

namespace gpf::net {

struct CoordinatorConfig {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;     ///< 0 = kernel-assigned (read back via port())
  /// Fault ids per work unit. 0 (the default) sizes units by campaign
  /// kind (see Coordinator::unit_size_for); any other value pins every
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
  /// Result admission bound: a connection may have at most this many
  /// records queued for append; beyond it, Results get Busy{busy_retry_ms}.
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

class Coordinator {
 public:
  /// Binds the listener immediately (port() is valid before serve()).
  /// Campaigns are attached afterwards via add_campaign / SubmitCampaign.
  explicit Coordinator(const CoordinatorConfig& cfg);
  /// Single-campaign convenience: construct + add_campaign(ckpt).
  Coordinator(store::CampaignCheckpoint& ckpt, const CoordinatorConfig& cfg);
  ~Coordinator();

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

  std::uint16_t port() const { return port_; }

  /// Asks serve() to stop granting leases and return once outstanding
  /// leases finish or expire. Async-safe (atomic store): callable from a
  /// signal handler.
  void request_drain() { drain_.store(true, std::memory_order_relaxed); }

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

  /// Blocking event loop; returns when every campaign's owned ids are
  /// retired or a requested drain has no leases left outstanding.
  Stats serve();

  /// Live progress view, as served to `gpfctl top` (thread-safe). With a
  /// campaign name, id/unit/rate figures are scoped to that campaign;
  /// otherwise they aggregate the whole registry.
  StatsSnapshot snapshot_stats(const std::string& campaign = "");

  /// Registry view (thread-safe), as served to `gpfctl campaigns`.
  std::vector<CampaignRow> list_campaigns();

  /// Store paths of all live campaigns (thread-safe) — gpfd polls this to
  /// keep its per-campaign compactors in step with remote submissions.
  std::vector<std::string> store_paths();

  /// Live connection-state count (thread-safe); the churn regression test
  /// asserts this returns to baseline after N connect/disconnect cycles.
  std::size_t connection_count() const {
    return conn_count_.load(std::memory_order_relaxed);
  }
  /// Session stat rows currently held (thread-safe); bounded by TTL
  /// eviction even under reconnect churn.
  std::size_t session_rows();

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
    std::vector<store::Record> fresh;  ///< already retired in the dispatcher
    Frame reply;
  };

  struct Conn {
    Socket sock;
    std::uint64_t session = 0;
    std::string peer_name;
    std::string campaign_filter;  ///< from Hello; "" = any campaign
    bool is_worker = false;  ///< leased/resulted at least once (stats rows)
    bool dead = false;
    std::vector<std::uint8_t> rbuf;
    std::size_t roff = 0;
    std::vector<std::uint8_t> wbuf;
    std::size_t woff = 0;
    bool want_write = false;  ///< EPOLLOUT currently registered
    std::deque<PendingAppend> appends;
    std::size_t outstanding_records = 0;
  };

  /// A session row as seen by stats: rows survive disconnects so the live
  /// table shows a SIGKILLed worker go stale instead of vanishing, then
  /// fold into evicted_* aggregates after session_ttl_ms.
  struct SessionInfo {
    std::string name;
    std::uint64_t retired = 0;
    LeaseDispatcher::Clock::time_point last_active{};
    bool connected = false;
  };

  std::uint64_t register_campaign_locked(store::CampaignCheckpoint& ckpt,
                                         std::unique_ptr<store::CampaignCheckpoint> owned,
                                         std::uint32_t priority);
  Campaign* find_campaign_locked(const std::string& name);
  CampaignRow campaign_row_locked(const Campaign& c) const;

  void accept_ready();
  void close_conn(int fd);
  void handle_readable(Conn& conn);
  void handle_message(Conn& conn, const Frame& f);
  void queue_frame(Conn& conn, const Frame& f);
  void flush_writes(Conn& conn);
  void update_write_interest(Conn& conn);
  void process_appends(Conn& conn);
  void drain_appends_locked(Conn& conn, bool queue_replies);
  void tick(LeaseDispatcher::Clock::time_point now);
  bool stop_serving();

  Frame on_lease_request(Conn& conn, LeaseDispatcher::Clock::time_point now);
  Frame on_submit(const SubmitCampaign& msg);
  Frame on_remove(const RemoveCampaign& msg);

  void touch_session(std::uint64_t session, const std::string& name,
                     LeaseDispatcher::Clock::time_point now,
                     std::uint64_t retired_delta);
  StatsSnapshot snapshot_stats_locked(LeaseDispatcher::Clock::time_point now,
                                      const std::string& campaign);

  CoordinatorConfig cfg_;
  Socket listener_;
  std::uint16_t port_ = 0;
  int epoll_fd_ = -1;

  std::mutex mu_;  ///< guards campaigns_, sessions_, stats_, rate windows
  std::map<std::uint64_t, Campaign> campaigns_;  ///< cid -> campaign
  std::uint64_t next_cid_ = 1;
  DrrScheduler drr_;
  Stats stats_;
  std::map<std::uint64_t, SessionInfo> sessions_;
  std::uint64_t evicted_workers_ = 0;
  std::uint64_t evicted_retired_ = 0;
  RateWindow fleet_rate_;  ///< aggregate across campaigns
  LeaseDispatcher::Clock::time_point serve_start_{};
  LeaseDispatcher::Clock::time_point last_status_{};
  LeaseDispatcher::Clock::time_point last_tick_{};

  std::unordered_map<int, std::unique_ptr<Conn>> conns_;  ///< by fd
  std::uint64_t next_session_ = 1;
  std::atomic<std::size_t> conn_count_{0};

  std::atomic<bool> drain_{false};
};

}  // namespace gpf::net
