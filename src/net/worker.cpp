#include "net/worker.hpp"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <exception>
#include <iterator>
#include <map>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <utility>

#include "net/framing.hpp"
#include "net/protocol.hpp"
#include "obs/metrics.hpp"

namespace gpf::net {

namespace {

/// Non-network failure (bad campaign, work function threw): must abort the
/// worker instead of entering the reconnect loop.
struct FatalWorkerError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// Receives the coordinator's reply; any silence or EOF here is a lost
/// connection (the protocol is strict request/response).
Frame recv_reply(const Socket& sock) {
  Frame f;
  if (recv_frame(sock, f) != RecvStatus::Ok)
    throw std::runtime_error("net: coordinator connection lost");
  return f;
}

/// Sends one Result, resending after each Busy reply (coordinator
/// backpressure: the message was refused whole, so a verbatim resend is
/// exactly once from the store's point of view).
Ack send_result(const Socket& sock, const ResultMsg& msg, WorkerStats& stats) {
  static obs::Counter& busy_retries = obs::counter("net.worker_busy_retries");
  while (true) {
    send_frame(sock, encode(msg));
    const Frame f = recv_reply(sock);
    if (static_cast<MsgType>(f.type) == MsgType::Busy) {
      const Busy b = decode_busy(f);
      ++stats.busy_retries;
      busy_retries.add(1);
      std::this_thread::sleep_for(std::chrono::milliseconds(b.retry_after_ms));
      continue;
    }
    return decode_ack(f);
  }
}

struct UnitOutcome {
  bool lost = false;
  bool drain = false;
};

/// Works one leased unit: compute thread fills the queue, this thread
/// streams Result / Heartbeat messages. Throws on connection loss (caller
/// reconnects) or a compute error (fatal).
UnitOutcome work_unit(const Socket& sock, const LeaseGrant& grant,
                      const UnitFn& fn, std::uint32_t lease_ms,
                      WorkerStats& stats) {
  const auto heartbeat_every =
      std::chrono::milliseconds(heartbeat_interval_ms(lease_ms));

  std::mutex mu;
  std::condition_variable cv;
  std::deque<store::Record> queue;
  bool compute_done = false;
  std::exception_ptr compute_err;
  std::atomic<bool> abort{false};

  std::thread compute([&] {
    try {
      fn(grant.ids,
         [&](std::uint64_t id, std::vector<std::uint8_t> payload) {
           std::lock_guard<std::mutex> lock(mu);
           queue.push_back(store::Record{id, std::move(payload)});
           cv.notify_all();
         },
         [&] { return abort.load(std::memory_order_relaxed); });
    } catch (...) {
      compute_err = std::current_exception();
    }
    std::lock_guard<std::mutex> lock(mu);
    compute_done = true;
    cv.notify_all();
  });

  UnitOutcome out;
  try {
    while (true) {
      std::vector<store::Record> batch;
      bool finished = false;
      {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait_for(lock, heartbeat_every,
                    [&] { return !queue.empty() || compute_done; });
        // Everything queued goes in one Result: a unit bounds it, and the
        // coordinator admits one oversized Result on an empty append queue.
        batch.assign(std::make_move_iterator(queue.begin()),
                     std::make_move_iterator(queue.end()));
        queue.clear();
        finished = compute_done && batch.empty();
      }

      Ack ack;
      if (!batch.empty()) {
        ResultMsg msg;
        msg.campaign_id = grant.campaign_id;
        msg.unit_id = grant.unit_id;
        msg.records = std::move(batch);
        const std::size_t n = msg.records.size();
        ack = send_result(sock, msg, stats);
        stats.retired += n;
      } else if (finished) {
        if (compute_err) break;  // rethrown after the join below
        UnitDone done;
        done.campaign_id = grant.campaign_id;
        done.unit_id = grant.unit_id;
        send_frame(sock, encode(done));
        ack = decode_ack(recv_reply(sock));
        if (!ack.lost_lease) ++stats.units;
      } else {
        Heartbeat hb;
        hb.campaign_id = grant.campaign_id;
        hb.unit_id = grant.unit_id;
        static obs::Histogram& rtt = obs::histogram("net.heartbeat_rtt_us");
        obs::ScopedTimerUs timer(rtt);
        send_frame(sock, encode(hb));
        ack = decode_ack(recv_reply(sock));
      }

      if (ack.drain) out.drain = true;
      if (ack.lost_lease) {
        out.lost = true;
        ++stats.lost_leases;
        break;
      }
      if (finished) break;
    }
  } catch (...) {
    abort.store(true, std::memory_order_relaxed);
    compute.join();
    throw;
  }
  abort.store(true, std::memory_order_relaxed);
  compute.join();
  if (compute_err) {
    try {
      std::rethrow_exception(compute_err);
    } catch (const std::exception& e) {
      throw FatalWorkerError(std::string("work function failed: ") + e.what());
    }
  }
  return out;
}

Socket handshake(const std::string& host, std::uint16_t port,
                 const std::string& name, const std::string& campaign,
                 std::uint32_t* lease_ms_out) {
  Socket sock = connect_tcp(host, port);
  // Replies are immediate in this protocol; a full lease duration of
  // silence means the coordinator is wedged or gone.
  set_recv_timeout(sock, 30000);
  Hello hello;
  hello.worker_name = name;
  hello.campaign = campaign;
  send_frame(sock, encode(hello));
  const HelloAck ack = decode_hello_ack(recv_reply(sock));
  if (lease_ms_out) *lease_ms_out = std::max<std::uint32_t>(ack.lease_ms, 1);
  return sock;
}

}  // namespace

WorkerStats run_worker(const WorkerConfig& cfg, const UnitFnFactory& make_fn) {
  WorkerStats stats;
  // One work function per campaign, built from the first LeaseGrant that
  // names it and cached for the process lifetime; the cached meta pins the
  // campaign's identity (a name reused for a different campaign mid-fleet
  // is a fatal config error, not something to silently recompute).
  std::map<std::string, UnitFn> fns;
  std::map<std::string, store::CampaignMeta> metas;

  std::uint32_t backoff = std::max<std::uint32_t>(cfg.backoff_ms, 1);
  const std::uint32_t backoff_cap = backoff * 64;
  int failures = 0;
  bool connected_before = false;

  while (true) {
    Socket sock;
    std::uint32_t lease_ms = 0;
    try {
      sock = handshake(cfg.host, cfg.port, cfg.name, cfg.campaign, &lease_ms);
      set_recv_timeout(sock, static_cast<int>(std::max<std::uint32_t>(
                                 lease_ms, 30000)));
    } catch (const FatalWorkerError&) {
      throw;
    } catch (const std::exception& e) {
      ++failures;
      if (cfg.verbose)
        std::fprintf(stderr, "[%s] connect failed (%d/%d): %s\n",
                     cfg.name.c_str(), failures, cfg.max_connect_failures,
                     e.what());
      if (failures >= cfg.max_connect_failures) {
        stats.gave_up = true;
        return stats;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(backoff));
      backoff = std::min(backoff * 2, backoff_cap);
      continue;
    }
    if (connected_before) {
      ++stats.reconnects;
      static obs::Counter& reconnects = obs::counter("net.reconnects");
      reconnects.add(1);
    }
    connected_before = true;
    failures = 0;
    backoff = std::max<std::uint32_t>(cfg.backoff_ms, 1);

    try {
      while (true) {
        LeaseRequest req;
        req.campaign = cfg.campaign;
        send_frame(sock, encode(req));
        const Frame f = recv_reply(sock);
        if (static_cast<MsgType>(f.type) == MsgType::NoWork) {
          const NoWork nw = decode_no_work(f);
          if (nw.drained) {
            stats.drained = true;
            return stats;
          }
          // Everything is leased to other workers right now; idle briefly.
          std::this_thread::sleep_for(
              std::chrono::milliseconds(std::max<std::uint32_t>(lease_ms / 4, 10)));
          continue;
        }
        const LeaseGrant grant = decode_lease_grant(f);
        if (const auto it = metas.find(grant.campaign); it != metas.end()) {
          if (!(it->second == grant.meta))
            throw FatalWorkerError("worker: campaign '" + grant.campaign +
                                   "' changed identity mid-fleet");
        } else {
          // A campaign this process cannot build (unknown engine byte or
          // workload, a fault-id space from other code) fails the same way
          // on every lease: stop with the reason, do not reconnect.
          UnitFn fn;
          try {
            fn = make_fn(grant.meta);
          } catch (const std::exception& e) {
            throw FatalWorkerError("worker: cannot serve campaign '" +
                                   grant.campaign + "': " + e.what());
          }
          metas.emplace(grant.campaign, grant.meta);
          fns.emplace(grant.campaign, std::move(fn));
          ++stats.campaigns;
          if (cfg.verbose)
            std::fprintf(stderr, "[%s] serving campaign '%s'\n",
                         cfg.name.c_str(), grant.campaign.c_str());
        }
        if (cfg.verbose)
          std::fprintf(stderr, "[%s] leased '%s' unit %llu (%zu ids)\n",
                       cfg.name.c_str(), grant.campaign.c_str(),
                       static_cast<unsigned long long>(grant.unit_id),
                       grant.ids.size());
        const UnitOutcome out =
            work_unit(sock, grant, fns.at(grant.campaign), lease_ms, stats);
        if (out.drain) {
          stats.drained = true;
          return stats;
        }
        (void)out.lost;  // lease lost: just request the next unit
      }
    } catch (const FatalWorkerError&) {
      throw;
    } catch (const std::runtime_error& e) {
      // Connection-level failure: drop the socket and reconnect with
      // backoff. The coordinator reclaims our leases on EOF.
      if (cfg.verbose)
        std::fprintf(stderr, "[%s] session lost: %s\n", cfg.name.c_str(),
                     e.what());
    }
  }
}

StatsSnapshot fetch_stats(const std::string& host, std::uint16_t port,
                          const std::string& campaign) {
  // Observers report no worker_name, keeping them out of the worker table.
  Socket sock = handshake(host, port, "", "", nullptr);
  set_recv_timeout(sock, 10000);
  send_frame(sock, encode_stats_request(campaign));
  return decode_stats_snapshot(recv_reply(sock));
}

std::vector<CampaignRow> fetch_campaigns(const std::string& host,
                                         std::uint16_t port) {
  Socket sock = handshake(host, port, "", "", nullptr);
  set_recv_timeout(sock, 10000);
  send_frame(sock, encode_list_campaigns());
  return decode_campaign_list(recv_reply(sock)).campaigns;
}

OpResult submit_campaign(const std::string& host, std::uint16_t port,
                         const std::string& name,
                         const store::CampaignMeta& meta,
                         std::uint32_t priority) {
  Socket sock = handshake(host, port, "", "", nullptr);
  set_recv_timeout(sock, 10000);
  SubmitCampaign msg;
  msg.name = name;
  msg.priority = priority;
  msg.meta = meta;
  send_frame(sock, encode(msg));
  return decode_op_result(recv_reply(sock));
}

OpResult remove_campaign(const std::string& host, std::uint16_t port,
                         const std::string& name) {
  Socket sock = handshake(host, port, "", "", nullptr);
  set_recv_timeout(sock, 10000);
  RemoveCampaign msg;
  msg.name = name;
  send_frame(sock, encode(msg));
  return decode_op_result(recv_reply(sock));
}

}  // namespace gpf::net
