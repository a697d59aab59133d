// Tests for CoordinatorCore, the coordinator's socket-free protocol core, on
// a virtual clock: session TTL accounting, mutation fuzzing of every
// coordinator-bound message (and of HTTP request heads), and a bounded
// exhaustive schedule explorer. The explorer runs two scripted workers over
// two campaigns through every schedule within a preemption and event bound,
// in the manner of a stateless model checker: each schedule is replayed from
// fresh stores, and the stores, grants and acks are checked after every
// step.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <deque>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <random>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "common/env.hpp"
#include "net/coordinator.hpp"
#include "net/framing.hpp"
#include "net/http.hpp"
#include "net/protocol.hpp"
#include "perfi/campaign.hpp"
#include "store/checkpoint.hpp"
#include "store/result_log.hpp"
#include "workloads/workload.hpp"

namespace gpf::net {
namespace {

using namespace std::chrono_literals;
using TimePoint = CoordinatorCore::TimePoint;
const TimePoint kT0 = TimePoint{} + std::chrono::hours(1);

/// Stores in these tests are throwaway: no fdatasync.
struct NoFsync {
  NoFsync() { set_fsync_override(0); }
  ~NoFsync() { set_fsync_override(-1); }
};

std::string fresh_dir(const std::string& tag) {
  const std::string dir = testing::TempDir() + "gpf_core_" + tag + "_" +
                          std::to_string(::getpid());
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

store::CampaignMeta perfi_meta(std::uint64_t total, std::uint64_t seed) {
  const workloads::Workload* w = workloads::find("vectoradd");
  EXPECT_NE(w, nullptr);
  return perfi::epr_campaign_meta(*w, errmodel::ErrorModel::IOC, total, seed);
}

std::vector<Frame> frames_of(const std::vector<std::uint8_t>& bytes) {
  std::vector<Frame> out;
  std::size_t off = 0;
  Frame f;
  while (extract_frame(bytes, off, f)) out.push_back(f);
  EXPECT_EQ(off, bytes.size());
  return out;
}

/// One request with exactly one immediate reply.
Frame exchange(CoordinatorCore& core, std::uint64_t session, const Frame& f,
               TimePoint now) {
  std::vector<std::uint8_t> out;
  core.on_frame(session, f, now, out);
  std::vector<Frame> replies = frames_of(out);
  EXPECT_EQ(replies.size(), 1u);
  return replies.empty() ? Frame{} : replies.front();
}

/// The record payload every scripted worker computes for (campaign, id): a
/// pure function, so any store can be checked against it.
std::vector<std::uint8_t> oracle(const std::string& campaign, std::uint64_t id) {
  return {static_cast<std::uint8_t>(campaign.back()),
          static_cast<std::uint8_t>(id), 0xA5};
}

// --- session TTL -------------------------------------------------------------

// Disconnected session rows are TTL-evicted but their retired counts stay in
// the snapshot aggregates, so the row table stays bounded under reconnect
// churn without stats going silently wrong. On the virtual clock the TTL
// boundary is exact and the test needs no sleeps.
TEST(CoordinatorCore, SessionRowsTtlEvictIntoAggregates) {
  NoFsync nofsync;
  const std::string dir = fresh_dir("ttl");
  store::CampaignCheckpoint ckpt(dir + "/ttl.gpfs", perfi_meta(64, 19));
  CoordinatorConfig cfg;
  cfg.lease_ms = 5000;
  cfg.unit_size = 4;
  cfg.status_interval_ms = 0;
  cfg.session_ttl_ms = 150;
  CoordinatorCore core(cfg);
  core.add_campaign(ckpt);
  core.start(kT0);

  // A scripted worker: lease one unit, retire all 4 ids, vanish.
  const std::uint64_t s = core.on_connect();
  Hello hello;
  hello.worker_name = "shortlived";
  EXPECT_EQ(decode_hello_ack(exchange(core, s, encode(hello), kT0)).lease_ms,
            5000u);
  const LeaseGrant g =
      decode_lease_grant(exchange(core, s, encode(LeaseRequest{}), kT0));
  ASSERT_EQ(g.ids.size(), 4u);
  ResultMsg r;
  r.campaign_id = g.campaign_id;
  r.unit_id = g.unit_id;
  for (const std::uint64_t id : g.ids) r.records.push_back({id, {0x5A}});
  std::vector<std::uint8_t> out;
  core.on_frame(s, encode(r), kT0, out);
  EXPECT_TRUE(out.empty());  // the Ack waits for the append
  core.flush_appends(s, out);
  ASSERT_EQ(frames_of(out).size(), 1u);
  EXPECT_FALSE(decode_ack(frames_of(out).front()).lost_lease);
  EXPECT_FALSE(decode_ack(exchange(core, s, encode(UnitDone{g.campaign_id,
                                                            g.unit_id}),
                                   kT0))
                   .lost_lease);
  core.on_close(s);

  // The row stays (connected=false) until it is session_ttl_ms old...
  core.tick(kT0 + 149ms);
  StatsSnapshot snap = core.snapshot_stats(kT0 + 149ms);
  ASSERT_EQ(snap.workers.size(), 1u);
  EXPECT_EQ(snap.workers[0].name, "shortlived");
  EXPECT_FALSE(snap.workers[0].connected);
  EXPECT_EQ(snap.workers[0].retired, 4u);
  EXPECT_EQ(snap.evicted_workers, 0u);
  // ...then folds into the evicted aggregates.
  core.tick(kT0 + 150ms);
  snap = core.snapshot_stats(kT0 + 150ms);
  EXPECT_TRUE(snap.workers.empty());
  EXPECT_EQ(snap.evicted_workers, 1u);
  EXPECT_EQ(snap.evicted_retired, 4u);
  EXPECT_EQ(snap.retired_ids, 4u);  // progress accounting is unaffected

  const CoordinatorCore::Stats st = core.finish();
  EXPECT_EQ(st.evicted_sessions, 1u);
  EXPECT_EQ(st.appended, 4u);
  std::filesystem::remove_all(dir);
}

// --- mutation fuzzing --------------------------------------------------------

/// Frames as (type, payload) bytes, so a mutation can hit the type too.
std::vector<std::uint8_t> to_bytes(const Frame& f) {
  std::vector<std::uint8_t> b = {static_cast<std::uint8_t>(f.type),
                                 static_cast<std::uint8_t>(f.type >> 8)};
  b.insert(b.end(), f.payload.begin(), f.payload.end());
  return b;
}

Frame from_bytes(const std::vector<std::uint8_t>& b) {
  Frame f;
  f.type = static_cast<std::uint16_t>(b[0] | (b[1] << 8));
  f.payload.assign(b.begin() + 2, b.end());
  return f;
}

/// Mutants of one valid frame: bit flips, truncations of the payload at
/// every length up to 64 bytes, appended bytes, and each 4-byte window
/// (every count or length field among them) set to 0xFFFFFFFF.
std::vector<Frame> mutants(const Frame& seed, std::mt19937_64& rng) {
  const std::vector<std::uint8_t> base = to_bytes(seed);
  std::vector<Frame> out;
  for (int i = 0; i < 48; ++i) {
    std::vector<std::uint8_t> b = base;
    const int flips = 1 + static_cast<int>(rng() % 3);
    for (int k = 0; k < flips; ++k) {
      const std::size_t bit = rng() % (b.size() * 8);
      b[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    }
    out.push_back(from_bytes(b));
  }
  for (std::size_t len = 0; len < std::min<std::size_t>(seed.payload.size(), 64);
       ++len) {
    Frame f = seed;
    f.payload.resize(len);
    out.push_back(f);
  }
  for (int extra = 1; extra <= 8; ++extra) {
    Frame f = seed;
    for (int k = 0; k < extra; ++k)
      f.payload.push_back(static_cast<std::uint8_t>(rng()));
    out.push_back(f);
  }
  for (std::size_t at = 0; at + 4 <= seed.payload.size(); ++at) {
    Frame f = seed;
    std::fill(f.payload.begin() + static_cast<std::ptrdiff_t>(at),
              f.payload.begin() + static_cast<std::ptrdiff_t>(at + 4), 0xFF);
    out.push_back(f);
  }
  return out;
}

// Every coordinator-bound message type, and unknown types, mutated and fed
// to the core on a session of its own: each mutant is either handled or
// throws, which closes only that session. An observer session stays usable
// throughout, and afterwards a scripted worker still finishes its campaign
// with the oracle's records.
TEST(CoordinatorCore, MutatedFramesCloseOnlyTheirSession) {
  NoFsync nofsync;
  const std::string dir = fresh_dir("fuzz");
  store::CampaignCheckpoint sink(dir + "/fz-sink.gpfs", perfi_meta(40, 5));
  CoordinatorConfig cfg;
  cfg.unit_size = 4;
  cfg.status_interval_ms = 0;
  cfg.store_dir = dir;
  CoordinatorCore core(cfg);
  core.add_campaign(sink);
  core.start(kT0);

  Hello hello;
  hello.worker_name = "fz";
  Hello pinned = hello;
  pinned.campaign = "fz-sink";
  ResultMsg result;
  result.campaign_id = 1;
  result.records = {{0, {1, 2, 3}}, {1, {4}}};
  SubmitCampaign submit;
  submit.name = "fz-sub";
  submit.priority = 2;
  submit.meta = perfi_meta(8, 6);
  const std::vector<Frame> seeds = {
      encode(hello),
      encode(pinned),
      encode(LeaseRequest{"fz-sink"}),
      encode(result),
      encode(Heartbeat{1, 0}),
      encode(UnitDone{1, 0}),
      encode_stats_request("fz-sink"),
      encode(submit),
      encode(RemoveCampaign{"fz-sub"}),
      encode_list_campaigns(),
      Frame{0, {}},
      Frame{static_cast<std::uint16_t>(MsgType::HelloAck), {1, 0, 0, 0}},
      Frame{18, {0xFF, 0xFF, 0xFF, 0xFF}},
      Frame{0xFFFF, {}},
  };

  const std::uint64_t observer = core.on_connect();
  std::mt19937_64 rng(0xC0FFEE);
  std::size_t fed = 0, refused = 0;
  TimePoint now = kT0;
  for (const Frame& seed : seeds) {
    for (const Frame& m : mutants(seed, rng)) {
      now += 1ms;
      const std::uint64_t s = core.on_connect();
      std::vector<std::uint8_t> out;
      if (static_cast<MsgType>(seed.type) != MsgType::Hello)
        core.on_frame(s, encode(hello), now, out);
      try {
        core.on_frame(s, m, now, out);
        core.flush_appends(s, out);
      } catch (const std::runtime_error&) {
        ++refused;
      }
      frames_of(out);  // whatever was answered is well framed
      core.on_close(s);
      core.tick(now);
      ++fed;
      const StatsSnapshot st =
          decode_stats_snapshot(exchange(core, observer, encode_stats_request(), now));
      ASSERT_GE(st.campaigns.size(), 1u);
    }
  }
  EXPECT_GT(fed, 1000u);
  EXPECT_GT(refused, 100u);
  EXPECT_LT(refused, fed);

  // A campaign registered after the storm is served normally.
  store::CampaignCheckpoint work(dir + "/fz-work.gpfs", perfi_meta(6, 7));
  core.add_campaign(work);
  const std::uint64_t w = core.on_connect();
  Hello worker;
  worker.worker_name = "after";
  worker.campaign = "fz-work";
  decode_hello_ack(exchange(core, w, encode(worker), now));
  for (int units = 0;; ++units) {
    ASSERT_LT(units, 8);
    const Frame reply = exchange(core, w, encode(LeaseRequest{}), now);
    if (static_cast<MsgType>(reply.type) == MsgType::NoWork) {
      EXPECT_TRUE(decode_no_work(reply).drained);
      break;
    }
    const LeaseGrant g = decode_lease_grant(reply);
    ResultMsg r;
    r.campaign_id = g.campaign_id;
    r.unit_id = g.unit_id;
    for (const std::uint64_t id : g.ids) r.records.push_back({id, oracle("w", id)});
    std::vector<std::uint8_t> out;
    core.on_frame(w, encode(r), now, out);
    core.flush_appends(w, out);
    EXPECT_FALSE(decode_ack(frames_of(out).at(0)).lost_lease);
    EXPECT_FALSE(decode_ack(exchange(core, w, encode(UnitDone{g.campaign_id,
                                                              g.unit_id}),
                                     now))
                     .lost_lease);
  }
  core.on_close(w);
  core.on_close(observer);
  core.finish();
  const store::LoadedStore done = store::load_store(dir + "/fz-work.gpfs");
  ASSERT_EQ(done.records.size(), 6u);
  EXPECT_EQ(done.duplicate_records, 0u);
  for (const auto& [id, payload] : done.records)
    EXPECT_EQ(payload, oracle("w", id)) << id;
  EXPECT_EQ(store::load_store(dir + "/fz-sink.gpfs").duplicate_records, 0u);
  std::filesystem::remove_all(dir);
}

// The same kind of loop over HTTP request heads: parse_http_request either
// refuses a mutant or returns a request whose path starts with '/', and
// answer_http always answers with one of the statuses gpfd serves.
TEST(CoordinatorCore, MutatedHttpHeadsParseOrRefuse) {
  const std::vector<std::string> seeds = {
      "GET /v1/query?metric=epr&format=json&campaign=a%2Fb HTTP/1.1\r\n"
      "Host: x\r\n\r\n",
      "GET /v1/stats HTTP/1.1\r\n\r\n",
      "POST /v1/campaigns?x=%zz&&=y+z HTTP/1.0\r\nContent-Length: 0\r\n\r\n",
  };
  const HttpHandler handler = [](const HttpRequest& req) -> HttpResponse {
    if (req.path == "/v1/stats") throw std::runtime_error("boom");
    return {req.params.empty() ? 404 : 200, "text/plain", req.target};
  };
  std::mt19937_64 rng(0xBEEF);
  std::size_t parsed = 0, fed = 0;
  for (const std::string& seed : seeds) {
    Frame as_frame{0, std::vector<std::uint8_t>(seed.begin(), seed.end())};
    for (const Frame& m : mutants(as_frame, rng)) {
      const std::string head(m.payload.begin(), m.payload.end());
      HttpRequest req;
      if (parse_http_request(head, req)) {
        ++parsed;
        ASSERT_FALSE(req.method.empty()) << head;
        ASSERT_EQ(req.path.rfind('/', 0), 0u) << head;
      }
      const int status = answer_http(head, handler).status;
      EXPECT_TRUE(status == 200 || status == 400 || status == 404 ||
                  status == 405 || status == 500)
          << status;
      ++fed;
    }
  }
  EXPECT_GT(parsed, 0u);
  EXPECT_LT(parsed, fed);
}

// --- bounded schedule explorer -------------------------------------------------

/// One scheduling decision. Deliver, Flush, Crash and Dup name a worker;
/// Expire, Submit, Remove and Drain act on the coordinator.
struct Choice {
  char act = 'D';  ///< D deliver, F flush, E expire, C crash, R resend a
                   ///< duplicate, S submit, M remove, N drain
  int worker = -1;
  int cost = 0;    ///< preemptions it spends
  std::string str() const {
    return worker < 0 ? std::string(1, act)
                      : std::string(1, act) + std::to_string(worker);
  }
};

/// A preemption is a step that moves another worker while the last one
/// could still move, or that reads a worker's next message while its
/// admitted appends wait for the loop's flush. Events are the injected
/// choices (E, C, R, S, M, N).
struct Bounds {
  int preemptions = 0;
  int events = 0;
};

/// One execution: two scripted workers, campaigns xa (3 ids) and xb (2 ids),
/// unit size 2 and room for one queued record per session, so a pipelined
/// Result can be refused with Busy. Submit adds xc (2 ids); Remove retires
/// xb. Every check failure lands in `failures`.
class World {
 public:
  static constexpr int kWorkers = 2;
  static constexpr std::uint32_t kLeaseMs = 1000;

  World(const std::string& dir, Bounds bounds) : dir_(dir), bounds_(bounds) {
    for (const char* f : {"/xa.gpfs", "/xb.gpfs", "/xc.gpfs"})
      std::filesystem::remove(dir + f);
    totals_ = {{"xa", 3}, {"xb", 2}, {"xc", 2}};
    xa_ = std::make_unique<store::CampaignCheckpoint>(dir + "/xa.gpfs",
                                                      perfi_meta(3, 1));
    xb_ = std::make_unique<store::CampaignCheckpoint>(dir + "/xb.gpfs",
                                                      perfi_meta(2, 2));
    CoordinatorConfig cfg;
    cfg.unit_size = 2;
    cfg.max_outstanding_appends = 1;
    cfg.lease_ms = kLeaseMs;
    cfg.status_interval_ms = 0;
    cfg.store_dir = dir;
    core_ = std::make_unique<CoordinatorCore>(cfg);
    core_->add_campaign(*xa_);
    core_->add_campaign(*xb_);
    core_->start(now());
    scanned_ = {{"xa", store::ResultLog::kHeaderSize},
                {"xb", store::ResultLog::kHeaderSize}};
    for (int w = 0; w < kWorkers; ++w) connect(w);
  }

  std::vector<Choice> enabled() const {
    std::vector<Choice> out;
    const auto can_flush = [this](int w) { return !workers_[w].deferred.empty(); };
    const auto can_deliver = [this](int w) { return !workers_[w].outbox.empty(); };
    const bool cur_busy = can_flush(cur_) || can_deliver(cur_);
    for (int i = 0; i < kWorkers; ++i) {
      const int w = (cur_ + i) % kWorkers;
      const int sw = (w != cur_ && cur_busy) ? 1 : 0;
      if (can_flush(w)) out.push_back({'F', w, sw});
      // Reading on while the session's appends wait for the loop's flush
      // is what lets a pipelined Result meet Busy.
      if (can_deliver(w)) out.push_back({'D', w, sw + (can_flush(w) ? 1 : 0)});
    }
    out.erase(std::remove_if(out.begin(), out.end(),
                             [this](const Choice& c) {
                               return preemptions_ + c.cost > bounds_.preemptions;
                             }),
              out.end());
    if (events_ < bounds_.events) {
      bool leased = false;
      for (const CampaignRow& row : core_->list_campaigns())
        leased = leased || row.leased_units > 0;
      if (leased) out.push_back({'E', -1, 0});
      for (int w = 0; w < kWorkers; ++w) {
        const Worker& wk = workers_[w];
        if (wk.exited) continue;
        if (wk.unit || !wk.deferred.empty()) out.push_back({'C', w, 0});
        if (wk.unit && wk.last_result) out.push_back({'R', w, 0});
      }
      if (!submitted_) out.push_back({'S', -1, 0});
      if (!removed_) out.push_back({'M', -1, 0});
      if (!drained_) out.push_back({'N', -1, 0});
    }
    return out;
  }

  bool all_exited() const {
    return std::all_of(std::begin(workers_), std::end(workers_),
                       [](const Worker& w) { return w.exited; });
  }

  void apply(const Choice& c) {
    ++step_;
    preemptions_ += c.cost;
    bool progress = true;
    switch (c.act) {
      case 'D': {
        cur_ = c.worker;
        progress = deliver(c.worker);
        break;
      }
      case 'F': {
        cur_ = c.worker;
        std::vector<std::uint8_t> out;
        core_->flush_appends(workers_[c.worker].session, out);
        for (const Frame& f : frames_of(out)) deferred_reply(c.worker, f);
        break;
      }
      case 'E':
        ++events_;
        expiry_offset_ += std::chrono::milliseconds(kLeaseMs + 1);
        break;
      case 'C':
        ++events_;
        close(c.worker);
        connect(c.worker);
        break;
      case 'R': {
        ++events_;
        Worker& wk = workers_[c.worker];
        Msg dup = *wk.last_result;
        dup.dup = true;
        wk.outbox.push_back(dup);
        break;
      }
      case 'S':
      case 'M': {
        ++events_;
        const std::uint64_t admin = core_->on_connect();
        Frame req;
        if (c.act == 'S') {
          submitted_ = true;
          scanned_["xc"] = store::ResultLog::kHeaderSize;
          SubmitCampaign msg;
          msg.name = "xc";
          msg.meta = perfi_meta(2, 3);
          req = encode(msg);
        } else {
          removed_ = true;
          req = encode(RemoveCampaign{"xb"});
        }
        std::vector<std::uint8_t> out;
        core_->on_frame(admin, req, now(), out);
        const OpResult res = decode_op_result(frames_of(out).at(0));
        if (!res.ok) fail(std::string("registry op refused: ") + res.message);
        core_->on_close(admin);
        break;
      }
      case 'N':
        ++events_;
        drained_ = true;
        core_->drain();
        break;
    }
    core_->tick(now());
    if (progress) ++progress_;
    for (int w = 0; w < kWorkers; ++w) {
      Worker& wk = workers_[w];
      if (wk.waiting && wk.wait_mark != progress_) {
        wk.waiting = false;
        wk.outbox.push_back({encode(LeaseRequest{}), 'L', 0, "", {}, false});
      }
    }
    scan_stores();
  }

  /// Checks once every worker has exited: serve() would return, a removal
  /// has finished, and every completed store holds exactly the oracle's
  /// records.
  void finish() {
    core_->tick(now());
    if (!core_->finished()) fail("workers gone but the core is not finished");
    for (const CampaignRow& row : core_->list_campaigns())
      if (removed_ && row.name == "xb") fail("removal of xb never finished");
    scan_stores();
    std::uint64_t stored_total = 0;
    for (const auto& [name, offset] : scanned_) {
      const std::set<std::uint64_t>& ids = stored_[name];
      stored_total += ids.size();
      const bool complete = ids.size() == totals_.at(name);
      const bool may_be_partial = drained_ || (removed_ && name == "xb");
      if (!complete && !may_be_partial)
        fail("campaign " + name + " ended with " + std::to_string(ids.size()) +
             " of " + std::to_string(totals_.at(name)) + " records");
    }
    stats_ = core_->finish();
    if (stats_.appended != stored_total)
      fail("appended " + std::to_string(stats_.appended) + " but stored " +
           std::to_string(stored_total));
  }

  const std::vector<std::string>& failures() const { return failures_; }
  const CoordinatorCore::Stats& stats() const { return stats_; }
  std::size_t appended_on_close() const { return appended_on_close_; }
  std::size_t steps() const { return step_; }

 private:
  /// A message a worker sent; kind H hello, L lease request, R result,
  /// U unit done.
  struct Msg {
    Frame frame;
    char kind = 'L';
    std::uint64_t cid = 0;
    std::string campaign;
    std::vector<std::uint64_t> ids;
    bool dup = false;
    std::vector<std::uint64_t> fresh = {};  ///< ids this Result retired
  };

  struct Worker {
    std::uint64_t session = 0;
    bool exited = false;
    std::deque<Msg> outbox;    ///< sent, not yet read by the core
    std::deque<Msg> deferred;  ///< admitted Results waiting for their Ack
    std::optional<LeaseGrant> unit;
    int results_open = 0;      ///< Results of the unit not yet acked
    bool unit_lost = false;
    bool drain_seen = false;
    bool waiting = false;      ///< got NoWork{drained=false}
    std::uint64_t wait_mark = 0;
    std::optional<Msg> last_result;
  };

  TimePoint now() const {
    return kT0 + std::chrono::milliseconds(step_) + expiry_offset_;
  }

  void fail(const std::string& what) {
    failures_.push_back("step " + std::to_string(step_) + ": " + what);
  }

  void connect(int w) {
    Worker& wk = workers_[w];
    wk = Worker{};
    wk.session = core_->on_connect();
    Hello hello;
    hello.worker_name = "w" + std::to_string(w);
    wk.outbox.push_back({encode(hello), 'H', 0, "", {}, false});
  }

  void close(int w) {
    Worker& wk = workers_[w];
    const std::size_t before = stored_count();
    core_->on_close(wk.session);
    scan_stores();
    appended_on_close_ += stored_count() - before;
    // The close path writes the admitted records whose Acks die with it.
    for (const Msg& m : wk.deferred) expect_stored(m, "closed session's");
    wk.deferred.clear();
  }

  void exit_worker(int w) {
    close(w);
    workers_[w].exited = true;
    workers_[w].outbox.clear();
  }

  bool registered(const std::string& campaign) const {
    for (const CampaignRow& row : core_->list_campaigns())
      if (row.name == campaign) return true;
    return false;
  }

  /// Delivers the worker's next message; false when the step changed
  /// nothing but the worker's own wait (a LeaseRequest answered NoWork).
  bool deliver(int w) {
    Worker& wk = workers_[w];
    Msg m = std::move(wk.outbox.front());
    wk.outbox.pop_front();
    m.fresh.clear();
    if (m.kind == 'R' && registered(m.campaign))
      for (const std::uint64_t id : m.ids)
        if (!claimed_[m.campaign].count(id)) m.fresh.push_back(id);
    std::vector<std::uint8_t> out;
    core_->on_frame(wk.session, m.frame, now(), out);
    std::vector<Frame> replies = frames_of(out);
    if (m.kind == 'R') {
      if (!m.dup) wk.last_result = m;
      if (replies.empty()) {  // admitted; the Ack waits for the append
        claim(m);
        wk.deferred.push_back(std::move(m));
        return true;
      }
      if (static_cast<MsgType>(replies[0].type) != MsgType::Busy) {
        claim(m);
        if (!m.fresh.empty())
          fail("Result acked before its " + std::to_string(m.fresh.size()) +
               " fresh records were appended");
      }
      react(w, m, replies[0]);
      return true;
    }
    // A UnitDone writes the session's queued records first: their Acks
    // come out ahead of its own.
    for (std::size_t i = 0; i + 1 < replies.size(); ++i)
      deferred_reply(w, replies[i]);
    if (replies.empty()) {
      fail("no reply to a " + std::string(1, m.kind) + " message");
      return true;
    }
    const bool nowork =
        static_cast<MsgType>(replies.back().type) == MsgType::NoWork;
    react(w, m, replies.back());
    return !(nowork && workers_[w].waiting);
  }

  void claim(const Msg& m) {
    for (const std::uint64_t id : m.fresh) claimed_[m.campaign].insert(id);
  }

  void expect_stored(const Msg& m, const char* whose) {
    for (const std::uint64_t id : m.fresh)
      if (!stored_[m.campaign].count(id))
        fail(std::string(whose) + " admitted record " + m.campaign + "/" +
             std::to_string(id) + " is not in the store");
  }

  void deferred_reply(int w, const Frame& f) {
    Worker& wk = workers_[w];
    if (wk.deferred.empty()) {
      fail("an Ack nobody was waiting for");
      return;
    }
    const Msg m = std::move(wk.deferred.front());
    wk.deferred.pop_front();
    scan_stores();
    expect_stored(m, "acked");
    react(w, m, f);
  }

  /// The scripted worker's reaction to the reply to `m`.
  void react(int w, const Msg& m, const Frame& f) {
    Worker& wk = workers_[w];
    const MsgType t = static_cast<MsgType>(f.type);
    switch (m.kind) {
      case 'H':
        decode_hello_ack(f);
        wk.outbox.push_back({encode(LeaseRequest{}), 'L', 0, "", {}, false});
        return;
      case 'L':
        if (t == MsgType::NoWork) {
          if (decode_no_work(f).drained) {
            exit_worker(w);
          } else {
            wk.waiting = true;
            wk.wait_mark = progress_;
          }
          return;
        }
        start_unit(w, decode_lease_grant(f));
        return;
      case 'R': {
        if (t == MsgType::Busy) {
          decode_busy(f);
          if (!m.dup) wk.outbox.push_back(m);  // resend it verbatim
          return;
        }
        const Ack ack = decode_ack(f);
        if (m.dup || !wk.unit || m.cid != wk.unit->campaign_id) return;
        wk.drain_seen = wk.drain_seen || ack.drain;
        wk.unit_lost = wk.unit_lost || ack.lost_lease;
        if (--wk.results_open > 0) return;
        if (wk.unit_lost) {
          next_unit(w);
        } else {
          wk.outbox.push_back({encode(UnitDone{wk.unit->campaign_id,
                                               wk.unit->unit_id}),
                               'U', m.cid, m.campaign, {}, false});
        }
        return;
      }
      case 'U': {
        const Ack ack = decode_ack(f);
        store::CampaignCheckpoint* ckpt = m.campaign == "xa"   ? xa_.get()
                                          : m.campaign == "xb" ? xb_.get()
                                                               : nullptr;
        if (!ack.lost_lease && ckpt && ckpt->unsynced_bytes() != 0)
          fail("UnitDone acked before " + m.campaign + " was synced");
        wk.drain_seen = wk.drain_seen || ack.drain;
        next_unit(w);
        return;
      }
    }
  }

  void start_unit(int w, const LeaseGrant& g) {
    Worker& wk = workers_[w];
    for (const std::uint64_t id : g.ids)
      if (claimed_[g.campaign].count(id))
        fail("grant names retired id " + g.campaign + "/" + std::to_string(id));
    wk.unit = g;
    wk.unit_lost = false;
    wk.results_open = static_cast<int>(g.ids.size());
    for (const std::uint64_t id : g.ids) {  // pipelined, one id per Result
      ResultMsg r;
      r.campaign_id = g.campaign_id;
      r.unit_id = g.unit_id;
      r.records.push_back({id, oracle(g.campaign, id)});
      wk.outbox.push_back({encode(r), 'R', g.campaign_id, g.campaign, {id}, false});
    }
  }

  void next_unit(int w) {
    Worker& wk = workers_[w];
    wk.unit.reset();
    wk.last_result.reset();
    if (wk.drain_seen)
      exit_worker(w);
    else
      wk.outbox.push_back({encode(LeaseRequest{}), 'L', 0, "", {}, false});
  }

  std::size_t stored_count() const {
    std::size_t n = 0;
    for (const auto& [name, ids] : stored_) n += ids.size();
    return n;
  }

  /// Reads what each store gained since the last scan: every id once, with
  /// the oracle's payload, and only ids some admitted Result retired.
  void scan_stores() {
    for (auto& [name, offset] : scanned_) {
      const store::ScannedTail tail =
          store::scan_records(dir_ + "/" + name + ".gpfs", offset);
      offset = tail.end_offset;
      for (const store::Record& r : tail.records) {
        const std::string where = name + "/" + std::to_string(r.id);
        if (!stored_[name].insert(r.id).second) fail(where + " stored twice");
        if (r.payload != oracle(name, r.id)) fail(where + " has a wrong payload");
        if (!claimed_[name].count(r.id)) fail(where + " stored but never admitted");
      }
    }
  }

  std::string dir_;
  Bounds bounds_;
  std::map<std::string, std::uint64_t> totals_;
  std::unique_ptr<store::CampaignCheckpoint> xa_, xb_;
  std::unique_ptr<CoordinatorCore> core_;
  Worker workers_[kWorkers];
  int cur_ = 0;
  int preemptions_ = 0;
  int events_ = 0;
  std::size_t step_ = 0;
  std::uint64_t progress_ = 0;
  std::chrono::milliseconds expiry_offset_{0};
  bool submitted_ = false, removed_ = false, drained_ = false;
  std::map<std::string, std::set<std::uint64_t>> claimed_;
  std::map<std::string, std::set<std::uint64_t>> stored_;
  std::map<std::string, std::size_t> scanned_;  ///< store -> next offset
  CoordinatorCore::Stats stats_;
  std::size_t appended_on_close_ = 0;
  std::vector<std::string> failures_;
};

/// What one execution did: the schedule as a replayable line, and for each
/// step the index chosen among how many enabled choices.
struct Execution {
  std::string schedule;
  std::vector<std::pair<std::size_t, std::size_t>> picks;
  std::vector<std::string> failures;
  CoordinatorCore::Stats stats;
  std::size_t appended_on_close = 0;
};

constexpr std::size_t kMaxSteps = 300;

/// Runs one schedule: the given choice indices first (or, with `script`,
/// the named choices), then the first enabled choice at every later step,
/// until every worker has exited.
Execution execute(const std::string& dir, Bounds bounds,
                  const std::vector<std::size_t>& prefix,
                  const std::vector<std::string>& script = {}) {
  World world(dir, bounds);
  Execution ex;
  for (std::size_t step = 0; !world.all_exited(); ++step) {
    const std::vector<Choice> choices = world.enabled();
    if (choices.empty()) {
      ex.failures.push_back("stuck: no worker or event can move");
      break;
    }
    if (step == kMaxSteps) {
      ex.failures.push_back("no end after " + std::to_string(kMaxSteps) + " steps");
      break;
    }
    std::size_t pick = 0;
    if (step < prefix.size()) {
      pick = prefix[step];
    } else if (step < script.size()) {
      pick = choices.size();
      for (std::size_t i = 0; i < choices.size(); ++i)
        if (choices[i].str() == script[step]) pick = i;
      if (pick == choices.size()) {
        ex.failures.push_back("step " + std::to_string(step) + ": '" +
                              script[step] + "' is not enabled");
        break;
      }
    }
    ex.picks.emplace_back(pick, choices.size());
    ex.schedule += (step ? " " : "") + choices[pick].str();
    world.apply(choices[pick]);
    if (!world.failures().empty()) break;
  }
  if (world.failures().empty() && ex.failures.empty()) world.finish();
  ex.failures.insert(ex.failures.end(), world.failures().begin(),
                     world.failures().end());
  ex.stats = world.stats();
  ex.appended_on_close = world.appended_on_close();
  return ex;
}

/// Replays one schedule line, e.g. "D0 D0 D0 D0 F0": the named choices,
/// then the default choice to the end.
Execution replay(const std::string& dir, Bounds bounds, const std::string& line) {
  std::istringstream is(line);
  std::vector<std::string> script;
  for (std::string tok; is >> tok;) script.push_back(tok);
  return execute(dir, bounds, {}, script);
}

std::string report(const Execution& ex) {
  std::string out = "replay: \"" + ex.schedule + "\"";
  for (const std::string& f : ex.failures) out += "\n  " + f;
  return out;
}

// Every schedule of the two-worker, two-campaign setting within two
// preemptions and one injected event (expiry, crash and reconnect,
// duplicate resend, submit, remove or drain), explored depth-first. After
// every step: each stored id appears once with the oracle's payload, no
// grant names a retired id, no Result is acked before its fresh records
// are appended, and no UnitDone is acked before the store is synced. At the
// end: drain and removal have finished and every completed store equals the
// oracle.
TEST(CoordinatorCore, EveryScheduleWithinTheBoundKeepsTheInvariants) {
  NoFsync nofsync;
  const std::string dir = fresh_dir("explore");
  const Bounds bounds{/*preemptions=*/2, /*events=*/1};
  const auto t0 = std::chrono::steady_clock::now();
  std::size_t explored = 0, busy = 0, expired = 0, dups = 0;
  std::vector<std::size_t> prefix;
  while (true) {
    const Execution ex = execute(dir, bounds, prefix);
    ++explored;
    ASSERT_TRUE(ex.failures.empty()) << report(ex);
    busy += ex.stats.busy_rejections != 0;
    expired += ex.stats.expired_leases != 0;
    dups += ex.stats.duplicates != 0;
    // Backtrack: the deepest step with an untried choice left.
    std::size_t d = ex.picks.size();
    while (d > 0 && ex.picks[d - 1].first + 1 >= ex.picks[d - 1].second) --d;
    if (d == 0) break;
    prefix.clear();
    for (std::size_t i = 0; i + 1 < d; ++i) prefix.push_back(ex.picks[i].first);
    prefix.push_back(ex.picks[d - 1].first + 1);
  }
  const double secs = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
  std::printf("[explore] %zu schedules in %.1f s (%zu with Busy, %zu with a "
              "lease expiry, %zu with duplicates)\n",
              explored, secs, busy, expired, dups);
  RecordProperty("schedules", static_cast<int>(explored));
  EXPECT_GT(explored, 1000u);
  EXPECT_GT(busy, 0u);
  EXPECT_GT(expired, 0u);
  EXPECT_GT(dups, 0u);
  std::filesystem::remove_all(dir);
}

// Three schedules kept as fixed cases.
TEST(CoordinatorCore, NamedSchedules) {
  NoFsync nofsync;
  const std::string dir = fresh_dir("named");
  const Bounds bounds{2, 1};

  // Busy then resend: w0 reads its second pipelined Result before the loop
  // flushes the first, is refused, and resends it once the queue drains.
  Execution ex = replay(dir, bounds, "D0 D0 D0 D0 F0 D0 F0");
  EXPECT_TRUE(ex.failures.empty()) << report(ex);
  EXPECT_EQ(ex.stats.busy_rejections, 1u);
  EXPECT_EQ(ex.stats.appended, 5u);

  // Expiry then a late Result: w0's lease on xa {0, 1} expires after id 0
  // landed. w1 finishes xb {0, 1} and xa {2} (fair share and the pending
  // queue put them first), is then granted only xa's id 1 and retires it,
  // and w0's late Result for id 1 is acked as a lost lease and dropped as a
  // duplicate.
  ex = replay(dir, bounds,
              "D0 D0 D0 F0 E D1 D1 D1 F1 D1 F1 D1 D1 D1 F1 D1 D1 D1 F1 D0");
  EXPECT_TRUE(ex.failures.empty()) << report(ex);
  EXPECT_EQ(ex.stats.expired_leases, 1u);
  EXPECT_EQ(ex.stats.duplicates, 1u) << report(ex);
  EXPECT_EQ(ex.stats.appended, 5u);

  // A crash with appends still queued: w0's first Result is admitted, then
  // its connection dies before the loop flushes; the close path appends it.
  ex = replay(dir, bounds, "D0 D0 D0 C0");
  EXPECT_TRUE(ex.failures.empty()) << report(ex);
  EXPECT_EQ(ex.appended_on_close, 1u);
  EXPECT_EQ(ex.stats.appended, 5u);
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace gpf::net
