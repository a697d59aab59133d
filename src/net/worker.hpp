// Fleet worker: leases work units from a coordinator, evaluates their fault
// ids through a campaign-specific work function, and streams the results
// back.
//
// The compute runs in a background thread feeding a queue; the connection
// thread drains the queue into Result messages and falls back to Heartbeat
// when the queue is empty, so the lease is renewed at a steady cadence even
// while a single slow injection is in flight. A lost lease (the Ack says the
// unit was reassigned) aborts the compute via its stop callback; a lost
// connection triggers exponential-backoff reconnection, giving up after a
// bounded run of consecutive failures (a finished coordinator simply goes
// away — workers must not spin forever).
//
// Since protocol v3 a worker serves whatever campaign each LeaseGrant names
// (work functions are built lazily, one per campaign, and cached for the
// process lifetime), or pins itself to a single named campaign via
// WorkerConfig::campaign. A Busy reply to a Result is handled by resending
// the same message after the coordinator's retry-after delay.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "net/protocol.hpp"
#include "store/result_log.hpp"

namespace gpf::net {

struct WorkerConfig {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
  std::string name = "worker";
  std::string campaign;             ///< pin to one campaign ("" = serve any)
  std::uint32_t backoff_ms = 500;   ///< initial reconnect backoff (doubles, capped at 64x)
  int max_connect_failures = 8;     ///< consecutive failures before giving up
  std::size_t batch_records = 16;   ///< max records per Result message
  bool verbose = false;
};

/// Floor on the heartbeat cadence. lease_ms / 3 keeps two renewal chances
/// per lease, but a tiny lease (tests use 50-200 ms) must not degenerate
/// into a heartbeat flood — past the floor, staying leased is the lease
/// duration's own problem, not the network's.
constexpr std::uint32_t kMinHeartbeatMs = 100;

/// Heartbeat period for a given lease duration: lease_ms / 3, clamped to
/// kMinHeartbeatMs.
inline std::uint32_t heartbeat_interval_ms(std::uint32_t lease_ms) {
  return std::max(lease_ms / 3, kMinHeartbeatMs);
}

/// Emits one retired result: (fault id, encoded record payload).
using EmitBytes =
    std::function<void(std::uint64_t, std::vector<std::uint8_t>)>;

/// Evaluates a batch of fault ids, emitting each result as it retires and
/// polling `stop` between ids (true = lease lost, abandon the rest).
using UnitFn = std::function<void(std::span<const std::uint64_t>,
                                  const EmitBytes&,
                                  const std::function<bool()>&)>;

/// Builds a campaign's work function from the meta carried by its first
/// LeaseGrant. Called once per distinct campaign; expensive per-campaign
/// setup (golden runs, fault lists) belongs inside.
using UnitFnFactory = std::function<UnitFn(const store::CampaignMeta&)>;

struct WorkerStats {
  std::uint64_t retired = 0;      ///< records submitted and acknowledged
  std::uint64_t units = 0;        ///< units completed by this worker
  std::uint64_t lost_leases = 0;  ///< units abandoned after reassignment
  std::uint64_t reconnects = 0;   ///< successful connects after the first
  std::uint64_t busy_retries = 0; ///< Results resent after a Busy reply
  std::uint64_t campaigns = 0;    ///< distinct campaigns served
  bool drained = false;           ///< exited on NoWork{drained}
  bool gave_up = false;           ///< exited on max_connect_failures
};

/// Runs the worker loop until the coordinator reports its work drained or
/// the connection is lost for good. Throws only on non-network fatal errors
/// (a campaign whose meta changes identity mid-fleet or cannot be built, a
/// work function that throws).
WorkerStats run_worker(const WorkerConfig& cfg, const UnitFnFactory& make_fn);

/// Observer client: one Hello + StatsRequest round-trip against a running
/// coordinator ("" = aggregate snapshot, else scoped to that campaign).
/// Throws on connection or protocol errors. Backs `gpfctl top`.
StatsSnapshot fetch_stats(const std::string& host, std::uint16_t port,
                          const std::string& campaign = "");

/// Registry client ops, backing `gpfctl submit` / `gpfctl campaigns`.
/// Each is one Hello + request round-trip; throws on connection errors,
/// returns the coordinator's verdict on semantic ones.
std::vector<CampaignRow> fetch_campaigns(const std::string& host,
                                         std::uint16_t port);
OpResult submit_campaign(const std::string& host, std::uint16_t port,
                         const std::string& name,
                         const store::CampaignMeta& meta,
                         std::uint32_t priority = 1);
OpResult remove_campaign(const std::string& host, std::uint16_t port,
                         const std::string& name);

}  // namespace gpf::net
