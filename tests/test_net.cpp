// Tests for the distributed campaign service (src/net) over real sockets:
// frame/codec round-trips (protocol v3, incl. the registry messages), CRC
// and forged-count rejection, the lease state machine, deficit-round-robin
// fair share, the rate/ETA window, per-kind work-unit sizing, backpressure
// (Busy) on both sides of the wire, connection churn, HTTP served from the
// coordinator's loop (slow clients included), and in-process fleet e2e runs
// — single- and multi-campaign — whose stores must match single-process
// runs byte for byte. test_net_core drives the socket-free CoordinatorCore.
#include <gtest/gtest.h>

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/env.hpp"
#include "errmodel/models.hpp"
#include "gate/batchsim.hpp"
#include "gate/collapse.hpp"
#include "gate/jit.hpp"
#include "net/coordinator.hpp"
#include "net/dispatch.hpp"
#include "net/framing.hpp"
#include "net/http.hpp"
#include "net/protocol.hpp"
#include "net/service.hpp"
#include "net/worker.hpp"
#include "perfi/campaign.hpp"
#include "report/gate_experiments.hpp"
#include "rtl/campaign.hpp"
#include "store/bytes.hpp"
#include "store/checkpoint.hpp"
#include "store/export.hpp"
#include "store/result_log.hpp"
#include "workloads/workload.hpp"

namespace gpf::net {
namespace {

std::string temp_store_path(const char* tag) {
  static std::atomic<int> counter{0};
  return testing::TempDir() + "gpf_net_" + tag + "_" +
         std::to_string(::getpid()) + "_" +
         std::to_string(counter.fetch_add(1)) + ".gpfs";
}

store::CampaignMeta perfi_meta(std::uint64_t total, std::uint64_t seed,
                               errmodel::ErrorModel model =
                                   errmodel::ErrorModel::IOC) {
  const workloads::Workload* w = workloads::find("vectoradd");
  EXPECT_NE(w, nullptr);
  return perfi::epr_campaign_meta(*w, model, total, seed);
}

// --- framing ---------------------------------------------------------------

TEST(NetFraming, RoundTripOverSocketPair) {
  auto [a, b] = socket_pair();
  Frame out;
  out.type = 0x1234;
  out.payload = {0xDE, 0xAD, 0xBE, 0xEF, 0x00, 0x7F};
  send_frame(a, out);

  Frame in;
  ASSERT_EQ(recv_frame(b, in), RecvStatus::Ok);
  EXPECT_EQ(in.type, out.type);
  EXPECT_EQ(in.payload, out.payload);
}

TEST(NetFraming, EmptyPayloadAndEof) {
  auto [a, b] = socket_pair();
  send_frame(a, Frame{7, {}});
  Frame in;
  ASSERT_EQ(recv_frame(b, in), RecvStatus::Ok);
  EXPECT_EQ(in.type, 7);
  EXPECT_TRUE(in.payload.empty());

  a.close();
  EXPECT_EQ(recv_frame(b, in), RecvStatus::Eof);
}

TEST(NetFraming, TimeoutBetweenFrames) {
  auto [a, b] = socket_pair();
  set_recv_timeout(b, 50);
  Frame in;
  EXPECT_EQ(recv_frame(b, in), RecvStatus::Timeout);
  // The stream is still usable after an idle timeout.
  send_frame(a, Frame{1, {0x42}});
  ASSERT_EQ(recv_frame(b, in), RecvStatus::Ok);
  EXPECT_EQ(in.payload, std::vector<std::uint8_t>{0x42});
}

TEST(NetFraming, CorruptedFrameRejected) {
  auto [a, b] = socket_pair();
  // Hand-build a frame and flip one payload bit after the CRC was computed.
  Frame f{9, {1, 2, 3, 4}};
  std::vector<std::uint8_t> wire;
  {
    // Reproduce send_frame's layout: len | type | payload | crc.
    store::ByteWriter w(wire);
    w.u32(2 + 4);
    const std::size_t body = wire.size();
    w.u8(9);
    w.u8(0);
    wire.insert(wire.end(), f.payload.begin(), f.payload.end());
    w.u32(store::crc32(std::span(wire).subspan(body)));
  }
  wire[6] ^= 0x01;  // corrupt a payload byte, CRC now stale
  ASSERT_EQ(::send(a.fd(), wire.data(), wire.size(), 0),
            static_cast<ssize_t>(wire.size()));
  Frame in;
  EXPECT_THROW(recv_frame(b, in), std::runtime_error);
}

TEST(NetFraming, OversizedLengthRejected) {
  auto [a, b] = socket_pair();
  std::vector<std::uint8_t> wire;
  store::ByteWriter w(wire);
  w.u32(kMaxFrameBytes + 1);
  ASSERT_EQ(::send(a.fd(), wire.data(), wire.size(), 0),
            static_cast<ssize_t>(wire.size()));
  Frame in;
  EXPECT_THROW(recv_frame(b, in), std::runtime_error);
}

TEST(NetFraming, ExtractFrameReassemblesSplitInput) {
  // The epoll loop's incremental decoder: bytes arrive in arbitrary chunks
  // and frames pop out exactly at their boundaries.
  Frame f1{3, {0x10, 0x20}};
  Frame f2{4, {0x30}};
  const std::vector<std::uint8_t> w1 = frame_bytes(f1);
  const std::vector<std::uint8_t> w2 = frame_bytes(f2);

  std::vector<std::uint8_t> buf;
  std::size_t off = 0;
  Frame out;
  // Feed the first frame one byte short: no frame yet.
  buf.insert(buf.end(), w1.begin(), w1.end() - 1);
  EXPECT_FALSE(extract_frame(buf, off, out));
  EXPECT_EQ(off, 0u);
  // Complete it and append the second whole frame: both extract in order.
  buf.push_back(w1.back());
  buf.insert(buf.end(), w2.begin(), w2.end());
  ASSERT_TRUE(extract_frame(buf, off, out));
  EXPECT_EQ(out.type, 3);
  EXPECT_EQ(out.payload, f1.payload);
  ASSERT_TRUE(extract_frame(buf, off, out));
  EXPECT_EQ(out.type, 4);
  EXPECT_EQ(out.payload, f2.payload);
  EXPECT_FALSE(extract_frame(buf, off, out));
  EXPECT_EQ(off, buf.size());
}

TEST(NetFraming, ExtractFrameRejectsCorruption) {
  std::vector<std::uint8_t> wire = frame_bytes(Frame{9, {1, 2, 3, 4}});
  wire[6] ^= 0x01;
  std::size_t off = 0;
  Frame out;
  EXPECT_THROW(extract_frame(wire, off, out), std::runtime_error);
}

TEST(NetFraming, ParseAddr) {
  const auto [host, port] = parse_addr("10.1.2.3:9777");
  EXPECT_EQ(host, "10.1.2.3");
  EXPECT_EQ(port, 9777);
  EXPECT_THROW(parse_addr("nohost"), std::runtime_error);
  EXPECT_THROW(parse_addr("h:"), std::runtime_error);
  EXPECT_THROW(parse_addr("h:99999"), std::runtime_error);
}

// --- protocol codecs -------------------------------------------------------

TEST(NetProtocol, HelloRoundTrip) {
  Hello m;
  m.worker_name = "worker-42";
  m.campaign = "perfi-vectoradd-IOC";
  const Hello d = decode_hello(encode(m));
  EXPECT_EQ(d.version, kProtocolVersion);
  EXPECT_EQ(d.worker_name, "worker-42");
  EXPECT_EQ(d.campaign, "perfi-vectoradd-IOC");
  EXPECT_TRUE(decode_hello(encode(Hello{})).campaign.empty());
}

TEST(NetProtocol, HelloAckAndLeaseRequestRoundTrip) {
  HelloAck m;
  m.lease_ms = 2500;
  EXPECT_EQ(decode_hello_ack(encode(m)).lease_ms, 2500u);

  LeaseRequest r;
  r.campaign = "gate-decoder";
  EXPECT_EQ(decode_lease_request(encode(r)).campaign, "gate-decoder");
  EXPECT_TRUE(decode_lease_request(encode(LeaseRequest{})).campaign.empty());
}

TEST(NetProtocol, LeaseGrantResultRoundTrip) {
  LeaseGrant g;
  g.campaign_id = 6;
  g.campaign = "perfi-vectoradd-IOC";
  g.meta = perfi_meta(1234, 99);
  g.meta.shard_index = 1;
  g.meta.shard_count = 3;
  g.unit_id = 17;
  g.ids = {3, 5, 8, 13, 21};
  const LeaseGrant dg = decode_lease_grant(encode(g));
  EXPECT_EQ(dg.campaign_id, 6u);
  EXPECT_EQ(dg.campaign, "perfi-vectoradd-IOC");
  EXPECT_TRUE(dg.meta == g.meta);
  EXPECT_EQ(dg.unit_id, 17u);
  EXPECT_EQ(dg.ids, g.ids);

  ResultMsg r;
  r.campaign_id = 6;
  r.unit_id = 17;
  r.records.push_back({3, {0x01}});
  r.records.push_back({5, {0x02, 0x03}});
  r.records.push_back({8, {}});
  const ResultMsg dr = decode_result(encode(r));
  EXPECT_EQ(dr.campaign_id, 6u);
  EXPECT_EQ(dr.unit_id, 17u);
  ASSERT_EQ(dr.records.size(), 3u);
  EXPECT_EQ(dr.records[1].id, 5u);
  EXPECT_EQ(dr.records[1].payload, (std::vector<std::uint8_t>{0x02, 0x03}));
  EXPECT_TRUE(dr.records[2].payload.empty());
}

TEST(NetProtocol, SmallMessagesRoundTrip) {
  EXPECT_FALSE(decode_no_work(encode(NoWork{false})).drained);
  EXPECT_TRUE(decode_no_work(encode(NoWork{true})).drained);
  const Heartbeat hb = decode_heartbeat(encode(Heartbeat{5, 7}));
  EXPECT_EQ(hb.campaign_id, 5u);
  EXPECT_EQ(hb.unit_id, 7u);
  const UnitDone ud = decode_unit_done(encode(UnitDone{5, 9}));
  EXPECT_EQ(ud.campaign_id, 5u);
  EXPECT_EQ(ud.unit_id, 9u);
  const Ack a = decode_ack(encode(Ack{true, false}));
  EXPECT_TRUE(a.drain);
  EXPECT_FALSE(a.lost_lease);
  EXPECT_EQ(decode_busy(encode(Busy{350})).retry_after_ms, 350u);
}

TEST(NetProtocol, RegistryMessagesRoundTrip) {
  SubmitCampaign s;
  s.name = "perfi-extra";
  s.priority = 4;
  s.meta = perfi_meta(500, 12);
  const SubmitCampaign ds = decode_submit_campaign(encode(s));
  EXPECT_EQ(ds.name, "perfi-extra");
  EXPECT_EQ(ds.priority, 4u);
  EXPECT_TRUE(ds.meta == s.meta);

  EXPECT_EQ(decode_remove_campaign(encode(RemoveCampaign{"gate-wsc"})).name,
            "gate-wsc");

  const OpResult r = decode_op_result(encode(OpResult{true, "registered"}));
  EXPECT_TRUE(r.ok);
  EXPECT_EQ(r.message, "registered");

  CampaignList list;
  CampaignRow row;
  row.name = "rtl-tmxm-0-site1";
  row.kind = static_cast<std::uint8_t>(store::CampaignKind::Rtl);
  row.state = 1;
  row.priority = 3;
  row.total_ids = 4000;
  row.retired_ids = 1500;
  row.pending_units = 9;
  row.leased_units = 2;
  list.campaigns.push_back(row);
  list.campaigns.push_back({});
  const CampaignList dl = decode_campaign_list(encode(list));
  ASSERT_EQ(dl.campaigns.size(), 2u);
  EXPECT_EQ(dl.campaigns[0].name, "rtl-tmxm-0-site1");
  EXPECT_EQ(dl.campaigns[0].kind,
            static_cast<std::uint8_t>(store::CampaignKind::Rtl));
  EXPECT_EQ(dl.campaigns[0].state, 1);
  EXPECT_EQ(dl.campaigns[0].priority, 3u);
  EXPECT_EQ(dl.campaigns[0].total_ids, 4000u);
  EXPECT_EQ(dl.campaigns[0].retired_ids, 1500u);
  EXPECT_EQ(dl.campaigns[0].pending_units, 9u);
  EXPECT_EQ(dl.campaigns[0].leased_units, 2u);

  EXPECT_EQ(static_cast<MsgType>(encode_list_campaigns().type),
            MsgType::ListCampaigns);
  EXPECT_EQ(decode_stats_request(encode_stats_request("gate-fetch")),
            "gate-fetch");
  EXPECT_TRUE(decode_stats_request(encode_stats_request()).empty());
}

TEST(NetProtocol, TypeMismatchRejected) {
  EXPECT_THROW(decode_ack(encode(Heartbeat{1, 1})), std::runtime_error);
  EXPECT_THROW(decode_lease_grant(encode(NoWork{})), std::runtime_error);
  EXPECT_THROW(decode_busy(encode(Ack{})), std::runtime_error);
}

// A forged element count is refused before it sizes an allocation: a
// 20-byte Result payload claiming 50 M records used to reserve about
// 1.6 GB, and a count of 2^32-1 threw std::bad_alloc. Each decoder must
// throw a runtime_error naming the message instead.
TEST(NetProtocol, ForgedCountsThrowRuntimeErrorNotBadAlloc) {
  const auto expect_refused = [](const std::function<void()>& decode,
                                 const char* name) {
    try {
      decode();
      ADD_FAILURE() << name << ": forged count decoded";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find(name), std::string::npos)
          << e.what();
    } catch (const std::exception& e) {
      ADD_FAILURE() << name << ": " << e.what();
    }
  };
  for (const std::uint32_t count : {50000000u, 0xFFFFFFFFu}) {
    SCOPED_TRACE(count);
    Frame result{static_cast<std::uint16_t>(MsgType::Result), {}};
    {
      store::ByteWriter w(result.payload);
      w.u64(1);  // campaign_id
      w.u64(2);  // unit_id
      w.u32(count);
    }
    expect_refused([&] { decode_result(result); }, "Result");

    Frame list{static_cast<std::uint16_t>(MsgType::CampaignList), {}};
    {
      store::ByteWriter w(list.payload);
      w.u32(count);
      w.u64(0);
    }
    expect_refused([&] { decode_campaign_list(list); }, "CampaignList");

    // A StatsSnapshot forging its campaign count, then one forging its
    // worker count after an honest empty campaign list.
    for (const bool forge_workers : {false, true}) {
      Frame snap = encode(StatsSnapshot{});
      const std::size_t counts_at = snap.payload.size() - 8;
      store::ByteWriter w(snap.payload);
      w.u64(0);  // room the count could never fill
      const std::size_t at = counts_at + (forge_workers ? 4 : 0);
      for (int b = 0; b < 4; ++b)
        snap.payload[at + static_cast<std::size_t>(b)] =
            static_cast<std::uint8_t>(count >> (8 * b));
      expect_refused([&] { decode_stats_snapshot(snap); }, "StatsSnapshot");
    }
  }
}

TEST(NetProtocol, StatsSnapshotRoundTrip) {
  StatsSnapshot s;
  s.total_ids = 5000;
  s.retired_ids = 1234;
  s.done_at_open = 200;
  s.pending_units = 17;
  s.leased_units = 3;
  s.elapsed_ms = 98765;
  s.rate_milli = 4321;  // 4.321 results/s
  s.eta_ms = 55000;
  s.draining = 1;
  s.connected_workers = 4;
  s.desired_workers = 11;
  s.evicted_workers = 6;
  s.evicted_retired = 4321;
  CampaignRow c;
  c.name = "gate-decoder";
  c.kind = static_cast<std::uint8_t>(store::CampaignKind::Gate);
  c.priority = 2;
  c.total_ids = 5000;
  c.retired_ids = 1234;
  s.campaigns.push_back(c);
  s.workers.push_back({/*session=*/7, "w0", /*retired=*/600, 2, 150, 1});
  s.workers.push_back({/*session=*/9, "w1", /*retired=*/434, 1, 12000, 0});

  const StatsSnapshot d = decode_stats_snapshot(encode(s));
  EXPECT_EQ(d.total_ids, 5000u);
  EXPECT_EQ(d.retired_ids, 1234u);
  EXPECT_EQ(d.done_at_open, 200u);
  EXPECT_EQ(d.pending_units, 17u);
  EXPECT_EQ(d.leased_units, 3u);
  EXPECT_EQ(d.elapsed_ms, 98765u);
  EXPECT_EQ(d.rate_milli, 4321u);
  EXPECT_EQ(d.eta_ms, 55000u);
  EXPECT_EQ(d.draining, 1);
  EXPECT_EQ(d.connected_workers, 4u);
  EXPECT_EQ(d.desired_workers, 11u);
  EXPECT_EQ(d.evicted_workers, 6u);
  EXPECT_EQ(d.evicted_retired, 4321u);
  ASSERT_EQ(d.campaigns.size(), 1u);
  EXPECT_EQ(d.campaigns[0].name, "gate-decoder");
  EXPECT_EQ(d.campaigns[0].priority, 2u);
  ASSERT_EQ(d.workers.size(), 2u);
  EXPECT_EQ(d.workers[0].session, 7u);
  EXPECT_EQ(d.workers[0].name, "w0");
  EXPECT_EQ(d.workers[0].retired, 600u);
  EXPECT_EQ(d.workers[0].leased_units, 2u);
  EXPECT_EQ(d.workers[0].idle_ms, 150u);
  EXPECT_EQ(d.workers[0].connected, 1);
  EXPECT_EQ(d.workers[1].name, "w1");
  EXPECT_EQ(d.workers[1].connected, 0);

  EXPECT_EQ(static_cast<MsgType>(encode_stats_request().type),
            MsgType::StatsRequest);
  EXPECT_THROW(decode_stats_snapshot(encode(Heartbeat{1, 1})),
               std::runtime_error);
}

// --- lease dispatcher ------------------------------------------------------

using Clock = LeaseDispatcher::Clock;
constexpr auto kLease = std::chrono::milliseconds(100);

/// A dispatcher over `meta`'s owned ids minus `retired`, cut into plain
/// `unit_size`-id units (how the coordinator cuts a perfi campaign).
LeaseDispatcher plain_dispatcher(const store::CampaignMeta& meta,
                                 std::size_t unit_size,
                                 const std::set<std::uint64_t>& retired = {}) {
  std::map<std::uint64_t, std::vector<std::uint8_t>> done;
  for (const std::uint64_t id : retired) done[id];
  std::vector<std::uint64_t> ids = pending_ids(meta, done);
  const std::vector<std::size_t> ends = even_unit_ends(ids.size(), unit_size);
  return LeaseDispatcher(std::move(ids), ends);
}

TEST(NetDispatch, PartitionsPendingIds) {
  store::CampaignMeta meta = perfi_meta(10, 1);
  LeaseDispatcher d = plain_dispatcher(meta, 4, /*retired=*/{2, 3});
  EXPECT_EQ(d.id_count(), 8u);  // 10 ids minus 2 already retired
  EXPECT_EQ(d.pending_units(), 2u);

  const auto now = Clock::now();
  auto g1 = d.lease(1, now, kLease);
  ASSERT_TRUE(g1);
  EXPECT_EQ(g1->ids, (std::vector<std::uint64_t>{0, 1, 4, 5}));
  auto g2 = d.lease(1, now, kLease);
  ASSERT_TRUE(g2);
  EXPECT_EQ(g2->ids, (std::vector<std::uint64_t>{6, 7, 8, 9}));
  EXPECT_FALSE(d.lease(1, now, kLease));  // nothing left to grant
}

TEST(NetDispatch, ShardSliceOnly) {
  store::CampaignMeta meta = perfi_meta(10, 1);
  meta.shard_index = 1;
  meta.shard_count = 3;  // owns 1, 4, 7
  LeaseDispatcher d = plain_dispatcher(meta, 64);
  EXPECT_EQ(d.id_count(), 3u);
  auto g = d.lease(1, Clock::now(), kLease);
  ASSERT_TRUE(g);
  EXPECT_EQ(g->ids, (std::vector<std::uint64_t>{1, 4, 7}));
}

TEST(NetDispatch, ExpiredLeaseIsReassignedWithOutstandingIdsOnly) {
  LeaseDispatcher d = plain_dispatcher(perfi_meta(4, 1), 4);
  const auto t0 = Clock::now();
  auto g = d.lease(/*session=*/1, t0, kLease);
  ASSERT_TRUE(g);

  // Session 1 retires half the unit, then dies (no renewal).
  EXPECT_TRUE(d.mark_retired(0));
  EXPECT_TRUE(d.mark_retired(1));
  EXPECT_EQ(d.expire_stale(t0 + kLease / 2), 0u);  // not yet
  EXPECT_EQ(d.expire_stale(t0 + kLease * 2), 1u);

  // The unit is pending again, holding only the unretired ids.
  auto g2 = d.lease(/*session=*/2, t0 + kLease * 2, kLease);
  ASSERT_TRUE(g2);
  EXPECT_EQ(g2->unit_id, g->unit_id);
  EXPECT_EQ(g2->ids, (std::vector<std::uint64_t>{2, 3}));

  // Session 1 no longer holds the lease; session 2 does.
  EXPECT_FALSE(d.renew(g->unit_id, 1, t0 + kLease * 2, kLease));
  EXPECT_TRUE(d.renew(g->unit_id, 2, t0 + kLease * 2, kLease));
}

TEST(NetDispatch, RenewalPreventsExpiry) {
  LeaseDispatcher d = plain_dispatcher(perfi_meta(4, 1), 4);
  const auto t0 = Clock::now();
  auto g = d.lease(1, t0, kLease);
  ASSERT_TRUE(g);
  EXPECT_TRUE(d.renew(g->unit_id, 1, t0 + kLease / 2, kLease));
  EXPECT_EQ(d.expire_stale(t0 + kLease), 0u);  // deadline moved
  EXPECT_EQ(d.expire_stale(t0 + kLease / 2 + kLease), 1u);
}

TEST(NetDispatch, UnitCompletesWhenLastIdRetires) {
  LeaseDispatcher d = plain_dispatcher(perfi_meta(3, 1), 4);
  auto g = d.lease(1, Clock::now(), kLease);
  ASSERT_TRUE(g);
  EXPECT_FALSE(d.all_done());
  EXPECT_TRUE(d.mark_retired(0));
  EXPECT_TRUE(d.mark_retired(1));
  EXPECT_TRUE(d.mark_retired(2));
  EXPECT_TRUE(d.all_done());
  // Duplicate results (reassignment overlap) are rejected.
  EXPECT_FALSE(d.mark_retired(1));
  // The worker's post-completion messages still ack cleanly.
  EXPECT_TRUE(d.renew(g->unit_id, 1, Clock::now(), kLease));
}

TEST(NetDispatch, ReleaseSessionRequeuesItsUnits) {
  LeaseDispatcher d = plain_dispatcher(perfi_meta(8, 1), 4);
  const auto now = Clock::now();
  ASSERT_TRUE(d.lease(1, now, kLease));
  ASSERT_TRUE(d.lease(1, now, kLease));
  EXPECT_EQ(d.leased_units(), 2u);
  d.release_session(1);
  EXPECT_EQ(d.leased_units(), 0u);
  EXPECT_EQ(d.pending_units(), 2u);
}

// A unit is a range over the sorted pending ids: the ends must ascend
// strictly and cover every id, an id absent from the vector (between two
// pending ids or past the last) is foreign, and a requeued unit carries only
// its unretired ids.
TEST(NetDispatch, RangeUnitsTileThePendingIds) {
  const std::vector<std::uint64_t> ids = {1, 4, 5, 9};
  const std::vector<std::vector<std::size_t>> bad = {
      {2}, {0, 4}, {3, 3, 4}, {2, 5}, {}};
  for (const auto& ends : bad)
    EXPECT_THROW(LeaseDispatcher(ids, ends), std::runtime_error);
  EXPECT_TRUE(LeaseDispatcher({}, {}).all_done());

  LeaseDispatcher d(ids, std::vector<std::size_t>{1, 4});
  EXPECT_EQ(d.pending_units(), 2u);
  EXPECT_FALSE(d.mark_retired(2));   // between pending ids
  EXPECT_FALSE(d.mark_retired(10));  // past the last
  EXPECT_TRUE(d.mark_retired(1));    // unit 0 completes while still pending
  EXPECT_EQ(d.pending_units(), 1u);
  auto g = d.lease(1, Clock::now(), kLease);
  ASSERT_TRUE(g);
  EXPECT_EQ(g->unit_id, 1u);
  EXPECT_EQ(g->ids, (std::vector<std::uint64_t>{4, 5, 9}));
  EXPECT_TRUE(d.mark_retired(5));
  d.release_session(1);
  g = d.lease(2, Clock::now(), kLease);
  ASSERT_TRUE(g);
  EXPECT_EQ(g->ids, (std::vector<std::uint64_t>{4, 9}));
  EXPECT_EQ(d.retired(), 2u);
}

// --- deficit-round-robin fair share ----------------------------------------

TEST(NetDispatch, DrrSharesGrantsInPriorityProportion) {
  DrrScheduler s;
  const std::vector<std::pair<std::uint64_t, std::uint32_t>> eligible = {
      {1, 3}, {2, 1}};
  std::map<std::uint64_t, int> picks;
  for (int i = 0; i < 40; ++i) ++picks[s.pick(eligible)];
  EXPECT_EQ(picks[1], 30);  // exactly 3:1 over any whole number of rounds
  EXPECT_EQ(picks[2], 10);
}

TEST(NetDispatch, DrrAdaptsWhenEligibilityChanges) {
  DrrScheduler s;
  // Key 2 alone: always picked, no starvation debt accumulates against it.
  EXPECT_EQ(s.pick({{2, 1}}), 2u);
  EXPECT_EQ(s.pick({{2, 1}}), 2u);
  // A higher-priority campaign appears: it earns its share immediately.
  std::map<std::uint64_t, int> picks;
  for (int i = 0; i < 12; ++i) ++picks[s.pick({{1, 2}, {2, 1}})];
  EXPECT_EQ(picks[1], 8);
  EXPECT_EQ(picks[2], 4);
  // After forget(), a re-registered key starts from a clean deficit.
  s.forget(1);
  EXPECT_EQ(s.pick({{1, 1}, {2, 1}}), 1u);  // tie -> smaller key
}

TEST(NetDispatch, DrrRejectsDegenerateInput) {
  DrrScheduler s;
  EXPECT_THROW(s.pick({}), std::runtime_error);
  EXPECT_THROW(s.pick({{1, 0}}), std::runtime_error);
}

// --- worker-side cadences --------------------------------------------------

TEST(NetWorker, HeartbeatIntervalClampedToFloor) {
  // lease/3 for normal leases, but a tiny test lease must not become a
  // heartbeat flood (the old max(lease/3, 1ms) bug).
  EXPECT_EQ(heartbeat_interval_ms(10000), 3333u);
  EXPECT_EQ(heartbeat_interval_ms(9000), 3000u);
  EXPECT_EQ(heartbeat_interval_ms(300), kMinHeartbeatMs);
  EXPECT_EQ(heartbeat_interval_ms(50), kMinHeartbeatMs);
  EXPECT_EQ(heartbeat_interval_ms(0), kMinHeartbeatMs);
}

// --- rate / ETA window -----------------------------------------------------

constexpr auto kSec = std::chrono::seconds(1);

TEST(NetCoordinator, RateWindowUnknownWithoutProgress) {
  RateWindow rw;
  const auto t0 = Clock::now();
  rw.sample(t0, 100);
  EXPECT_EQ(rw.rate_milli(), 0u);
  EXPECT_EQ(rw.eta_ms(50), 0u);  // unknown, not "0s"
  rw.sample(t0 + kSec, 100);
  rw.sample(t0 + 2 * kSec, 100);
  EXPECT_EQ(rw.rate_milli(), 0u);
  EXPECT_EQ(rw.eta_ms(50), 0u);
}

TEST(NetCoordinator, RateWindowMeasuresSteadyThroughput) {
  RateWindow rw;
  const auto t0 = Clock::now();
  for (int i = 0; i <= 5; ++i)
    rw.sample(t0 + i * kSec, 100 + 10 * static_cast<std::uint64_t>(i));
  EXPECT_EQ(rw.rate_milli(), 10000u);  // 10 ids/s
  EXPECT_EQ(rw.eta_ms(100), 10000u);   // 100 ids at 10/s = 10s
  EXPECT_EQ(rw.eta_ms(0), 0u);         // done: unknown/none, render "--"
}

TEST(NetCoordinator, RateWindowRestartsAfterIdleGap) {
  RateWindow rw;
  rw.idle_reset_ms = 5000;
  const auto t0 = Clock::now();
  // Progress at 10 ids/s for 4 seconds...
  for (int i = 0; i <= 3; ++i)
    rw.sample(t0 + i * kSec, 10 * static_cast<std::uint64_t>(i));
  // ...then a 7-second stall (fleet gone), sampled throughout...
  for (int i = 4; i <= 9; ++i) rw.sample(t0 + i * kSec, 30);
  // ...then progress resumes at 10 ids/s.
  rw.sample(t0 + 10 * kSec, 40);
  rw.sample(t0 + 11 * kSec, 50);
  rw.sample(t0 + 12 * kSec, 60);
  // The window restarted at resumption: the rate reflects the active
  // period, not an average diluted across the stall (which would report
  // 5/s here and double every ETA).
  EXPECT_EQ(rw.rate_milli(), 10000u);
}

// --- work-unit sizing ------------------------------------------------------

/// The first LeaseGrant a worker pinned to `campaign` receives (the probe
/// disconnects right after, which returns the unit to pending).
LeaseGrant first_grant(std::uint16_t port, const std::string& campaign) {
  Socket c = connect_tcp("127.0.0.1", port);
  Hello hello;
  hello.worker_name = "probe";
  hello.campaign = campaign;
  send_frame(c, encode(hello));
  Frame reply;
  EXPECT_EQ(recv_frame(c, reply), RecvStatus::Ok);
  send_frame(c, encode(LeaseRequest{}));
  EXPECT_EQ(recv_frame(c, reply), RecvStatus::Ok);
  return decode_lease_grant(reply);
}

store::CampaignMeta gate_meta(gate::UnitKind unit, std::size_t faults) {
  return report::gate_campaign_meta(unit, faults, /*max_issues=*/30,
                                    /*seed=*/5, EngineKind::Batch);
}

store::CampaignMeta rtl_meta(std::size_t injections) {
  return rtl::tmxm_campaign_meta(workloads::TileType::Max, rtl::Site::FuLane,
                                 injections, /*seed=*/3);
}

/// The collapse representative GateUnitRunner simulates for each id of a
/// gate campaign, as a fault node (each id its own when collapsing is off).
std::vector<std::uint32_t> representative_nodes(const store::CampaignMeta& meta) {
  const gate::FaultCollapse& col =
      gate::unit_collapse(report::gate_campaign_unit(meta));
  std::vector<std::uint32_t> nodes;
  for (const gate::StuckFault& f : report::gate_campaign_faults(meta))
    nodes.push_back(gate::FaultCollapse::node(
        collapse_enabled() ? col.representative(f) : f));
  return nodes;
}

/// Ids in the first default lease unit of an unsharded gate campaign: the
/// longest prefix of its ids with at most kWidestBatchLanes distinct
/// representatives.
std::size_t first_gate_unit(const store::CampaignMeta& meta) {
  const std::vector<std::uint32_t> nodes = representative_nodes(meta);
  std::set<std::uint32_t> reps;
  for (std::size_t id = 0; id < nodes.size(); ++id) {
    if (!reps.count(nodes[id]) && reps.size() == gate::kWidestBatchLanes)
      return id;
    reps.insert(nodes[id]);
  }
  return nodes.size();
}

// Work units are sized per campaign. By default a gate unit holds up to the
// widest lane word of collapse representatives (703 ids of the 1200-fault
// decoder list with collapsing on, the whole campaign when it has fewer) and
// perfi and rtl units stay at 64 ids; a campaign submitted over the wire is
// sized by its own kind, not by the registry it joins; a nonzero unit_size
// pins every kind to that many ids.
TEST(NetCoordinator, UnitSizeFollowsCampaignKindUnlessPinned) {
  const store::CampaignMeta decoder = gate_meta(gate::UnitKind::Decoder, 1200);
  const std::size_t gate_unit = first_gate_unit(decoder);
  EXPECT_EQ(gate_unit, collapse_enabled() ? 703u : gate::kWidestBatchLanes);
  struct Case {
    std::size_t unit_size;
    std::vector<store::CampaignMeta> registered;
    std::vector<std::size_t> want;  // first-grant ids per registered one
    std::optional<store::CampaignMeta> submitted;
    std::size_t want_submitted = 0;
  };
  const Case cases[] = {
      {0,
       {decoder, gate_meta(gate::UnitKind::Fetch, 100), perfi_meta(200, 5),
        rtl_meta(100)},
       {gate_unit, 100, 64, 64},
       std::nullopt},
      {0, {perfi_meta(200, 5)}, {64}, decoder, gate_unit},
      {0, {decoder}, {gate_unit}, perfi_meta(200, 6), 64},
      {8,
       {decoder, perfi_meta(200, 5), rtl_meta(100)},
       {8, 8, 8}, gate_meta(gate::UnitKind::WSC, 100), 8},
  };
  for (std::size_t ci = 0; ci < std::size(cases); ++ci) {
    const Case& c = cases[ci];
    SCOPED_TRACE("case " + std::to_string(ci));
    const std::string dir = testing::TempDir() + "gpf_net_sizing_" +
                            std::to_string(::getpid()) + "_" +
                            std::to_string(ci);
    std::filesystem::create_directories(dir);
    {
      std::vector<std::unique_ptr<store::CampaignCheckpoint>> ckpts;
      CoordinatorConfig ccfg;
      ccfg.unit_size = c.unit_size;
      ccfg.status_interval_ms = 0;
      ccfg.store_dir = dir;
      Coordinator coord(ccfg);
      for (std::size_t i = 0; i < c.registered.size(); ++i) {
        ckpts.push_back(std::make_unique<store::CampaignCheckpoint>(
            dir + "/c" + std::to_string(i) + ".gpfs", c.registered[i]));
        coord.add_campaign(*ckpts.back());
      }
      struct Serving {
        Coordinator& coord;
        std::thread thread;
        ~Serving() {
          coord.request_drain();
          thread.join();
        }
      } serving{coord, std::thread([&coord] { coord.serve(); })};

      for (std::size_t i = 0; i < c.registered.size(); ++i) {
        std::string name = "c";
        name += std::to_string(i);
        EXPECT_EQ(first_grant(coord.port(), name).ids.size(), c.want[i])
            << "campaign " << i;
      }
      if (c.submitted) {
        const OpResult r = submit_campaign("127.0.0.1", coord.port(),
                                           "submitted", *c.submitted);
        EXPECT_TRUE(r.ok) << r.message;
        EXPECT_EQ(first_grant(coord.port(), "submitted").ids.size(),
                  c.want_submitted);
      }
    }
    std::filesystem::remove_all(dir);
  }
}

// The gate lease-unit rule over three id spaces: the three units' full
// lists, a 600-fault sample, and shard 1 of 3. Leasing a fresh registration
// to exhaustion (no results) grants every owned id exactly once, each unit
// is an ascending run of the owned ids that continues where the previous one
// ended, and each unit holds at most kWidestBatchLanes distinct collapse
// representatives, every unit but the last exactly that many.
TEST(NetCoordinator, GateUnitsHoldOneBatchOfRepresentatives) {
  const std::size_t kReps = gate::kWidestBatchLanes;
  const auto meta_of = [](gate::UnitKind unit, std::size_t faults,
                          std::uint32_t shard_index, std::uint32_t shard_count) {
    return report::gate_campaign_meta(unit, faults, /*max_issues=*/30,
                                      /*seed=*/5, EngineKind::Batch,
                                      shard_index, shard_count);
  };
  const std::pair<const char*, store::CampaignMeta> cases[] = {
      {"decoder full", meta_of(gate::UnitKind::Decoder, 0, 0, 1)},
      {"fetch full", meta_of(gate::UnitKind::Fetch, 0, 0, 1)},
      {"wsc full", meta_of(gate::UnitKind::WSC, 0, 0, 1)},
      {"wsc 600", meta_of(gate::UnitKind::WSC, 600, 0, 1)},
      {"wsc shard 1/3", meta_of(gate::UnitKind::WSC, 0, 1, 3)},
  };
  for (const auto& [label, meta] : cases) {
    SCOPED_TRACE(label);
    const std::string path = temp_store_path("gate_units");
    std::vector<std::vector<std::uint64_t>> grants;
    {
      store::CampaignCheckpoint ckpt(path, meta);
      CoordinatorConfig cfg;
      cfg.status_interval_ms = 0;
      CoordinatorCore core(cfg);
      core.add_campaign(ckpt);
      const auto t0 = Clock::now();
      core.start(t0);
      const std::uint64_t s = core.on_connect();
      std::vector<std::uint8_t> out;
      Hello hello;
      hello.worker_name = "probe";
      core.on_frame(s, encode(hello), t0, out);
      while (true) {
        out.clear();
        core.on_frame(s, encode(LeaseRequest{}), t0, out);
        std::size_t off = 0;
        Frame reply;
        ASSERT_TRUE(extract_frame(out, off, reply));
        if (static_cast<MsgType>(reply.type) == MsgType::NoWork) break;
        grants.push_back(decode_lease_grant(reply).ids);
      }
      core.on_close(s);
    }
    std::remove(path.c_str());

    std::vector<std::uint64_t> owned;
    for (std::uint64_t id = 0; id < meta.total; ++id)
      if (meta.owns(id)) owned.push_back(id);
    std::vector<std::uint64_t> leased;
    for (const auto& g : grants) leased.insert(leased.end(), g.begin(), g.end());
    EXPECT_EQ(leased, owned);  // each owned id once, units in ascending runs

    const std::vector<std::uint32_t> nodes = representative_nodes(meta);
    ASSERT_FALSE(grants.empty());
    for (std::size_t u = 0; u < grants.size(); ++u) {
      std::set<std::uint32_t> reps;
      for (const std::uint64_t id : grants[u]) reps.insert(nodes.at(id));
      if (u + 1 < grants.size()) {
        EXPECT_EQ(reps.size(), kReps) << "unit " << u;
      } else {
        EXPECT_LE(reps.size(), kReps) << "last unit";
      }
    }
    if (collapse_enabled() && meta.param0 == 0) {  // a full list collapses
      EXPECT_GT(grants.front().size(), kReps);
    }
  }
}

// --- end-to-end ------------------------------------------------------------

/// Runs a coordinator over checkpoints plus `n_workers` in-process workers;
/// returns when every campaign completes. `unit_size` 0 keeps the default
/// per-kind unit sizing.
void run_fleet(const std::vector<store::CampaignCheckpoint*>& ckpts,
               int n_workers, std::uint32_t lease_ms, std::size_t unit_size) {
  CoordinatorConfig ccfg;
  ccfg.port = 0;  // ephemeral
  ccfg.lease_ms = lease_ms;
  ccfg.unit_size = unit_size;
  ccfg.status_interval_ms = 0;
  Coordinator coord(ccfg);
  for (store::CampaignCheckpoint* ckpt : ckpts) coord.add_campaign(*ckpt);

  std::thread serve([&] { coord.serve(); });
  std::vector<std::thread> workers;
  std::vector<WorkerStats> stats(static_cast<std::size_t>(n_workers));
  for (int i = 0; i < n_workers; ++i) {
    workers.emplace_back([&, i] {
      WorkerConfig wcfg;
      wcfg.port = coord.port();
      wcfg.name = "w";
      wcfg.name += std::to_string(i);
      wcfg.backoff_ms = 20;
      stats[static_cast<std::size_t>(i)] = run_worker(wcfg, make_unit_fn);
    });
  }
  for (auto& w : workers) w.join();
  serve.join();
  for (const WorkerStats& s : stats) {
    EXPECT_TRUE(s.drained);
    EXPECT_FALSE(s.gave_up);
  }
}

std::string export_json(const std::string& path) {
  std::ostringstream os;
  store::export_store(store::load_store(path), store::ExportFormat::Json, os);
  return os.str();
}

/// Single-process reference store of a gate or perfi campaign (what
/// `gpfctl run` writes).
void run_solo(const store::CampaignMeta& meta, const std::string& path) {
  store::CampaignCheckpoint ckpt(path, meta);
  if (meta.kind == store::CampaignKind::Gate)
    report::run_unit_campaign_store(
        report::collect_profiling_traces(meta.param1), ckpt);
  else
    perfi::run_epr_cell_store(*workloads::find(meta.app), ckpt);
}

// Every store a two-worker fleet writes exports the same bytes as its
// single-process reference: a perfi campaign split into 4-id units, and a
// default-config registry (units sized by kind) serving a gate campaign of
// more than one default unit (1200 decoder faults: two units of at most 512
// representatives) next to a small perfi campaign.
TEST(NetE2E, FleetExportMatchesSingleProcessByteForByte) {
  struct Case {
    const char* name;
    std::vector<store::CampaignMeta> metas;
    std::size_t unit_size;
  };
  const store::CampaignMeta decoder = report::gate_campaign_meta(
      gate::UnitKind::Decoder, /*faults_per_unit=*/1200, /*max_issues=*/30,
      /*seed=*/5, EngineKind::Batch);
  {
    std::vector<std::uint64_t> ids(decoder.total);
    std::iota(ids.begin(), ids.end(), std::uint64_t{0});
    ASSERT_GT(report::gate_unit_ends(decoder, ids, gate::kWidestBatchLanes).size(),
              1u);
  }
  const Case cases[] = {
      {"perfi@4", {perfi_meta(40, 2026)}, 4},
      {"by-kind", {decoder, perfi_meta(24, 2028)}, 0},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    std::vector<std::string> solo_paths, fleet_paths;
    std::vector<std::unique_ptr<store::CampaignCheckpoint>> ckpts;
    std::vector<store::CampaignCheckpoint*> fleet;
    for (const store::CampaignMeta& m : c.metas) {
      solo_paths.push_back(temp_store_path("solo"));
      run_solo(m, solo_paths.back());
      fleet_paths.push_back(temp_store_path("fleet"));
      ckpts.push_back(
          std::make_unique<store::CampaignCheckpoint>(fleet_paths.back(), m));
      fleet.push_back(ckpts.back().get());
    }
    // Fleet: coordinator + two workers over real TCP (loopback).
    run_fleet(fleet, /*n_workers=*/2, /*lease_ms=*/5000, c.unit_size);
    ckpts.clear();

    for (std::size_t i = 0; i < c.metas.size(); ++i) {
      const store::LoadedStore loaded = store::load_store(fleet_paths[i]);
      EXPECT_EQ(loaded.records.size(), c.metas[i].total);
      EXPECT_EQ(loaded.duplicate_records, 0u);
      EXPECT_EQ(export_json(solo_paths[i]), export_json(fleet_paths[i]));
      std::remove(solo_paths[i].c_str());
      std::remove(fleet_paths[i].c_str());
    }
  }
}

// Engine knobs cannot leak into fleet results: a two-worker fleet running
// the optimized engine (JIT'd when the container has a compiler) must export
// the same bytes as a single-process run on the interpreter with the JIT
// off, and hold the same records as the brute oracle's store (whose export
// names a different engine, so only the records are compared there).
TEST(NetE2E, GateFleetJitExportMatchesInterpreterSingleProcess) {
  constexpr std::size_t kMaxIssues = 30;
  const auto meta_for = [](EngineKind engine) {
    return report::gate_campaign_meta(gate::UnitKind::Decoder,
                                      /*faults_per_unit=*/48, kMaxIssues,
                                      /*seed=*/5, engine);
  };
  const store::CampaignMeta meta = meta_for(EngineKind::Batch);
  const auto& traces = report::collect_profiling_traces(kMaxIssues);
  struct EngineGuard {
    ~EngineGuard() {
      set_jit_override(-1);
      set_jit_cache_dir_override("");
      gate::jit_reset_for_tests();
    }
  } guard;

  set_jit_override(0);
  const std::string solo_path = temp_store_path("gate_solo");
  {
    store::CampaignCheckpoint ckpt(solo_path, meta);
    report::run_unit_campaign_store(traces, ckpt);
  }
  const std::string brute_path = temp_store_path("gate_brute");
  {
    store::CampaignCheckpoint ckpt(brute_path, meta_for(EngineKind::Brute));
    report::run_unit_campaign_store(traces, ckpt);
  }

  set_jit_override(gate::jit_compiler_available() ? 1 : 0);
  set_jit_cache_dir_override(testing::TempDir() + "gpf-jit-fleet");
  gate::jit_reset_for_tests();
  const std::string fleet_path = temp_store_path("gate_fleet");
  {
    store::CampaignCheckpoint ckpt(fleet_path, meta);
    run_fleet({&ckpt}, /*n_workers=*/2, /*lease_ms=*/5000, /*unit_size=*/8);
  }

  EXPECT_EQ(export_json(solo_path), export_json(fleet_path));
  EXPECT_EQ(store::load_store(brute_path).records,
            store::load_store(fleet_path).records);
  std::remove(solo_path.c_str());
  std::remove(brute_path.c_str());
  std::remove(fleet_path.c_str());
  std::filesystem::remove_all(testing::TempDir() + "gpf-jit-fleet");
}

TEST(NetE2E, FleetResumesPartialStore) {
  const store::CampaignMeta meta = perfi_meta(30, 7);
  const workloads::Workload* w = workloads::find("vectoradd");
  ASSERT_NE(w, nullptr);

  const std::string solo_path = temp_store_path("solo_r");
  {
    store::CampaignCheckpoint ckpt(solo_path, meta);
    perfi::run_epr_cell_store(*w, ckpt);
  }

  // Fleet store starts with a partial single-process run (pause at 10).
  const std::string fleet_path = temp_store_path("fleet_r");
  {
    store::CampaignCheckpoint ckpt(fleet_path, meta);
    ckpt.set_record_limit(10);
    perfi::run_epr_cell_store(*w, ckpt);
    EXPECT_EQ(ckpt.done_count(), 10u);
  }
  {
    store::CampaignCheckpoint ckpt(fleet_path, meta);
    run_fleet({&ckpt}, /*n_workers=*/2, /*lease_ms=*/5000, /*unit_size=*/4);
  }

  EXPECT_EQ(export_json(solo_path), export_json(fleet_path));
  std::remove(solo_path.c_str());
  std::remove(fleet_path.c_str());
}

// The tentpole e2e: one coordinator serving mixed-kind campaigns to eight
// workers under fair share, with a fourth campaign submitted and a ballast
// campaign removed while the fleet runs. Every completed campaign's store
// must export byte-identically to its single-process reference.
TEST(NetE2E, MultiCampaignFleetWithMidRunSubmitAndRemove) {
  constexpr std::size_t kMaxIssues = 20;
  const store::CampaignMeta meta_a = perfi_meta(40, 2027);
  const store::CampaignMeta meta_b =
      perfi_meta(32, 3, errmodel::ErrorModel::IRA);
  const store::CampaignMeta meta_gate = report::gate_campaign_meta(
      gate::UnitKind::Decoder, /*faults_per_unit=*/24, kMaxIssues, /*seed=*/5,
      EngineKind::Batch);
  const store::CampaignMeta meta_ballast = perfi_meta(2500, 9);
  const store::CampaignMeta meta_extra = perfi_meta(24, 77);

  // Single-process references for the campaigns that must complete.
  std::map<std::string, std::string> ref;  // name -> export json
  const auto solo = [&](const char* tag, const store::CampaignMeta& m) {
    const std::string p = temp_store_path(tag);
    run_solo(m, p);
    ref[tag] = export_json(p);
    std::remove(p.c_str());
  };
  solo("mc_a", meta_a);
  solo("mc_b", meta_b);
  solo("mc_extra", meta_extra);
  solo("mc_gate", meta_gate);

  const std::string submit_dir =
      testing::TempDir() + "gpf_net_submit_" + std::to_string(::getpid());
  std::filesystem::create_directories(submit_dir);
  const std::string path_a = submit_dir + "/mc-a.gpfs";
  const std::string path_b = submit_dir + "/mc-b.gpfs";
  const std::string path_gate = submit_dir + "/mc-gate.gpfs";
  const std::string path_ballast = submit_dir + "/mc-ballast.gpfs";
  const std::string path_extra = submit_dir + "/mc-extra.gpfs";

  store::CampaignCheckpoint ckpt_a(path_a, meta_a);
  store::CampaignCheckpoint ckpt_b(path_b, meta_b);
  store::CampaignCheckpoint ckpt_gate(path_gate, meta_gate);
  store::CampaignCheckpoint ckpt_ballast(path_ballast, meta_ballast);

  CoordinatorConfig ccfg;
  ccfg.port = 0;
  ccfg.lease_ms = 5000;
  ccfg.unit_size = 4;
  ccfg.status_interval_ms = 0;
  ccfg.store_dir = submit_dir;
  Coordinator coord(ccfg);
  coord.add_campaign(ckpt_a, /*priority=*/2);
  coord.add_campaign(ckpt_b);
  coord.add_campaign(ckpt_gate);
  coord.add_campaign(ckpt_ballast);

  Coordinator::Stats cs;
  std::thread serve([&] { cs = coord.serve(); });
  std::vector<std::thread> workers;
  std::vector<WorkerStats> wstats(8);
  for (int i = 0; i < 8; ++i) {
    workers.emplace_back([&, i] {
      WorkerConfig wcfg;
      wcfg.port = coord.port();
      wcfg.name = "mw" + std::to_string(i);
      wcfg.backoff_ms = 20;
      wstats[static_cast<std::size_t>(i)] = run_worker(wcfg, make_unit_fn);
    });
  }

  // Once the fleet is visibly rolling, grow and shrink the registry.
  for (int tries = 0; tries < 1000; ++tries) {
    if (fetch_stats("127.0.0.1", coord.port()).retired_ids > 20) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  const OpResult sub =
      submit_campaign("127.0.0.1", coord.port(), "mc-extra", meta_extra,
                      /*priority=*/3);
  EXPECT_TRUE(sub.ok) << sub.message;
  // Submitting the same campaign again is idempotent, a conflicting meta
  // under the same name is not.
  EXPECT_TRUE(
      submit_campaign("127.0.0.1", coord.port(), "mc-extra", meta_extra).ok);
  EXPECT_FALSE(
      submit_campaign("127.0.0.1", coord.port(), "mc-extra", meta_a).ok);
  const std::vector<CampaignRow> live =
      fetch_campaigns("127.0.0.1", coord.port());
  EXPECT_EQ(live.size(), 5u);
  bool saw_extra = false;
  for (const CampaignRow& c : live)
    if (c.name == "mc-extra") {
      saw_extra = true;
      EXPECT_EQ(c.priority, 3u);
    }
  EXPECT_TRUE(saw_extra);

  const OpResult rem = remove_campaign("127.0.0.1", coord.port(), "mc-ballast");
  EXPECT_TRUE(rem.ok) << rem.message;
  EXPECT_FALSE(remove_campaign("127.0.0.1", coord.port(), "nope").ok);

  for (auto& w : workers) w.join();
  serve.join();
  for (const WorkerStats& s : wstats) {
    EXPECT_TRUE(s.drained);
    EXPECT_FALSE(s.gave_up);
  }
  EXPECT_EQ(cs.campaigns_submitted, 1u);
  EXPECT_EQ(cs.campaigns_removed, 1u);

  // Completed campaigns: byte-identical to their single-process references.
  EXPECT_EQ(export_json(path_a), ref["mc_a"]);
  EXPECT_EQ(export_json(path_b), ref["mc_b"]);
  EXPECT_EQ(export_json(path_gate), ref["mc_gate"]);
  EXPECT_EQ(export_json(path_extra), ref["mc_extra"]);
  // The removed ballast: partial but well-formed, resumable later.
  const store::LoadedStore ballast = store::load_store(path_ballast);
  EXPECT_LT(ballast.records.size(), 2500u);
  EXPECT_EQ(ballast.duplicate_records, 0u);
  EXPECT_TRUE(ballast.meta == meta_ballast);

  std::filesystem::remove_all(submit_dir);
}

TEST(NetE2E, DrainStopsGrantingAndExitsCleanly) {
  const store::CampaignMeta meta = perfi_meta(20000, 11);
  const std::string path = temp_store_path("drain");
  store::CampaignCheckpoint ckpt(path, meta);

  CoordinatorConfig ccfg;
  ccfg.port = 0;
  ccfg.lease_ms = 5000;
  ccfg.unit_size = 8;
  ccfg.status_interval_ms = 0;
  Coordinator coord(ckpt, ccfg);
  std::thread serve([&] { coord.serve(); });

  WorkerStats ws;
  std::thread worker([&] {
    WorkerConfig wcfg;
    wcfg.port = coord.port();
    wcfg.backoff_ms = 20;
    ws = run_worker(wcfg, make_unit_fn);
  });

  // Let some work land, then drain mid-campaign.
  while (ckpt.done_count() < 16)
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  coord.request_drain();
  worker.join();
  serve.join();

  EXPECT_TRUE(ws.drained);
  const std::size_t done = store::load_store(path).records.size();
  EXPECT_GE(done, 16u);
  EXPECT_LT(done, 20000u);  // genuinely stopped early
  std::remove(path.c_str());
}

TEST(NetE2E, StatsObserverSeesLiveProgress) {
  // `gpfctl top` against an in-process coordinator: poll fetch_stats() while
  // a worker chews through the campaign and check the observer sees real
  // progress without ever appearing in the worker table itself.
  const store::CampaignMeta meta = perfi_meta(5000, 13);
  const std::string path = temp_store_path("stats");
  store::CampaignCheckpoint ckpt(path, meta);

  CoordinatorConfig ccfg;
  ccfg.port = 0;
  ccfg.lease_ms = 5000;
  ccfg.unit_size = 4;
  ccfg.status_interval_ms = 0;  // keep test output quiet
  Coordinator coord(ckpt, ccfg);
  std::thread serve([&] { coord.serve(); });

  WorkerStats ws;
  std::thread worker([&] {
    WorkerConfig wcfg;
    wcfg.port = coord.port();
    wcfg.name = "statsworker";
    wcfg.backoff_ms = 20;
    ws = run_worker(wcfg, make_unit_fn);
  });

  // Poll until the fleet has visibly retired work.
  StatsSnapshot seen;
  for (int tries = 0; tries < 500; ++tries) {
    seen = fetch_stats("127.0.0.1", coord.port());
    if (seen.retired_ids > 0 && !seen.workers.empty()) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ(seen.total_ids, 5000u);
  EXPECT_GT(seen.retired_ids, 0u);
  EXPECT_EQ(seen.done_at_open, 0u);
  ASSERT_EQ(seen.campaigns.size(), 1u);
  EXPECT_EQ(seen.campaigns[0].kind,
            static_cast<std::uint8_t>(store::CampaignKind::Perfi));
  EXPECT_EQ(seen.campaigns[0].total_ids, 5000u);
  EXPECT_EQ(seen.connected_workers, 1u);
  EXPECT_GT(seen.desired_workers, 0u);
  ASSERT_EQ(seen.workers.size(), 1u);  // the observer itself is not listed
  EXPECT_EQ(seen.workers[0].name, "statsworker");
  EXPECT_GT(seen.workers[0].retired, 0u);
  EXPECT_TRUE(seen.workers[0].connected);

  // A campaign-scoped request for an unknown name reports an empty scope
  // rather than the aggregate.
  const StatsSnapshot scoped =
      fetch_stats("127.0.0.1", coord.port(), "no-such-campaign");
  EXPECT_EQ(scoped.total_ids, 0u);

  coord.request_drain();
  worker.join();
  serve.join();

  // After the fleet drains the coordinator is gone; in-process we can still
  // ask it directly for the final view.
  const StatsSnapshot fin = coord.snapshot_stats();
  EXPECT_EQ(fin.retired_ids, store::load_store(path).records.size());
  EXPECT_TRUE(fin.draining);
  std::remove(path.c_str());
}

// The thread-per-connection leak regression: ~500 sequential
// connect/disconnect cycles against a serving coordinator must leave no
// per-connection state behind (the epoll loop retires each connection as
// the peer hangs up — there is no thread handle to leak anymore).
TEST(NetE2E, ConnectionChurnLeavesNoResidue) {
  const store::CampaignMeta meta = perfi_meta(100000, 17);
  const std::string path = temp_store_path("churn");
  store::CampaignCheckpoint ckpt(path, meta);

  CoordinatorConfig ccfg;
  ccfg.port = 0;
  ccfg.status_interval_ms = 0;
  Coordinator coord(ckpt, ccfg);
  Coordinator::Stats cs;
  std::thread serve([&] { cs = coord.serve(); });

  for (int i = 0; i < 500; ++i) {
    Socket c = connect_tcp("127.0.0.1", coord.port());
    Hello hello;
    hello.worker_name = "churn";
    send_frame(c, encode(hello));
    Frame reply;
    ASSERT_EQ(recv_frame(c, reply), RecvStatus::Ok);
    EXPECT_EQ(decode_hello_ack(reply).lease_ms, ccfg.lease_ms);
    c.close();
  }

  // The loop reaps hangups as it notices them; poll briefly for the count
  // to return to the zero baseline.
  for (int tries = 0; tries < 500 && coord.connection_count() != 0; ++tries)
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_EQ(coord.connection_count(), 0u);
  const StatsSnapshot seen = fetch_stats("127.0.0.1", coord.port());
  EXPECT_TRUE(seen.workers.empty());  // observers never become stat rows
  EXPECT_EQ(seen.connected_workers, 0u);

  coord.request_drain();
  serve.join();
  EXPECT_EQ(cs.sessions, 501u);  // the 500 churned + the fetch_stats observer
  std::remove(path.c_str());
}

// Backpressure, coordinator side: a client that pipelines Results past the
// admission bound gets an explicit Busy (the refused message is not
// appended), and a verbatim resend after the appends drain is accepted.
TEST(NetE2E, PipelinedResultsPastBoundGetBusy) {
  const store::CampaignMeta meta = perfi_meta(8, 23);
  const std::string path = temp_store_path("busy");
  store::CampaignCheckpoint ckpt(path, meta);

  CoordinatorConfig ccfg;
  ccfg.port = 0;
  ccfg.lease_ms = 5000;
  ccfg.unit_size = 8;
  ccfg.status_interval_ms = 0;
  ccfg.max_outstanding_appends = 2;
  ccfg.busy_retry_ms = 7;
  Coordinator coord(ckpt, ccfg);
  Coordinator::Stats cs;
  std::thread serve([&] { cs = coord.serve(); });

  Socket c = connect_tcp("127.0.0.1", coord.port());
  Hello hello;
  hello.worker_name = "pipeliner";
  send_frame(c, encode(hello));
  Frame reply;
  ASSERT_EQ(recv_frame(c, reply), RecvStatus::Ok);
  send_frame(c, encode(LeaseRequest{}));
  ASSERT_EQ(recv_frame(c, reply), RecvStatus::Ok);
  const LeaseGrant g = decode_lease_grant(reply);
  ASSERT_EQ(g.ids.size(), 8u);

  ResultMsg first;
  first.campaign_id = g.campaign_id;
  first.unit_id = g.unit_id;
  for (int i = 0; i < 4; ++i) first.records.push_back({g.ids[i], {0x11}});
  ResultMsg second;
  second.campaign_id = g.campaign_id;
  second.unit_id = g.unit_id;
  for (int i = 4; i < 8; ++i) second.records.push_back({g.ids[i], {0x22}});

  // One ::send carrying both frames guarantees they land in a single read
  // batch: the first is admitted (an empty queue always accepts one
  // message), the second trips the bound. The coordinator answers the Busy
  // immediately but defers the first Ack until its records hit the store,
  // so the Busy arrives first.
  std::vector<std::uint8_t> wire = frame_bytes(encode(first));
  const std::vector<std::uint8_t> w2 = frame_bytes(encode(second));
  wire.insert(wire.end(), w2.begin(), w2.end());
  ASSERT_EQ(::send(c.fd(), wire.data(), wire.size(), 0),
            static_cast<ssize_t>(wire.size()));

  ASSERT_EQ(recv_frame(c, reply), RecvStatus::Ok);
  EXPECT_EQ(decode_busy(reply).retry_after_ms, 7u);
  ASSERT_EQ(recv_frame(c, reply), RecvStatus::Ok);
  EXPECT_FALSE(decode_ack(reply).lost_lease);

  // Resend the refused message verbatim: the queue has drained, so it is
  // admitted and acknowledged.
  send_frame(c, encode(second));
  ASSERT_EQ(recv_frame(c, reply), RecvStatus::Ok);
  EXPECT_FALSE(decode_ack(reply).lost_lease);
  send_frame(c, encode(UnitDone{g.campaign_id, g.unit_id}));
  ASSERT_EQ(recv_frame(c, reply), RecvStatus::Ok);
  c.close();

  serve.join();  // all 8 ids retired -> campaign complete
  EXPECT_EQ(cs.busy_rejections, 1u);
  EXPECT_EQ(cs.appended, 8u);
  EXPECT_EQ(cs.duplicates, 0u);
  EXPECT_EQ(store::load_store(path).records.size(), 8u);
  std::remove(path.c_str());
}

// Backpressure, worker side: a scripted coordinator answers the first
// Result with Busy; run_worker must resend the same message after the
// retry delay and carry on to a clean drain.
TEST(NetE2E, WorkerResendsResultAfterBusy) {
  Socket listener = listen_tcp("127.0.0.1", 0);
  const std::uint16_t port = local_port(listener);

  std::thread script([&] {
    Socket c(::accept(listener.fd(), nullptr, nullptr));
    ResultMsg refused;
    bool sent_busy = false;
    bool awaiting_resend = false;
    Frame f;
    while (recv_frame(c, f) == RecvStatus::Ok) {
      switch (static_cast<MsgType>(f.type)) {
        case MsgType::Hello: {
          HelloAck ack;
          ack.lease_ms = 10000;
          send_frame(c, encode(ack));
          break;
        }
        case MsgType::LeaseRequest: {
          if (sent_busy) {  // unit finished: wind the worker down
            send_frame(c, encode(NoWork{true}));
            break;
          }
          LeaseGrant g;
          g.campaign_id = 1;
          g.campaign = "scripted";
          g.meta = perfi_meta(4, 1);
          g.unit_id = 0;
          g.ids = {0, 1, 2, 3};
          send_frame(c, encode(g));
          break;
        }
        case MsgType::Result: {
          const ResultMsg r = decode_result(f);
          if (!sent_busy) {  // refuse the worker's very first batch
            refused = r;
            sent_busy = true;
            awaiting_resend = true;
            send_frame(c, encode(Busy{5}));
            break;
          }
          if (awaiting_resend) {
            // The message right after a Busy must be the refused one
            // verbatim, not a re-batched or partial one.
            awaiting_resend = false;
            EXPECT_EQ(r.campaign_id, refused.campaign_id);
            EXPECT_EQ(r.unit_id, refused.unit_id);
            ASSERT_EQ(r.records.size(), refused.records.size());
            for (std::size_t i = 0; i < r.records.size(); ++i) {
              EXPECT_EQ(r.records[i].id, refused.records[i].id);
              EXPECT_EQ(r.records[i].payload, refused.records[i].payload);
            }
          }
          send_frame(c, encode(Ack{}));
          break;
        }
        case MsgType::Heartbeat:
        case MsgType::UnitDone:
          send_frame(c, encode(Ack{}));
          break;
        default:
          ADD_FAILURE() << "unexpected message type " << f.type;
          return;
      }
    }
  });

  WorkerConfig cfg;
  cfg.port = port;
  cfg.name = "busyworker";
  cfg.backoff_ms = 20;
  cfg.max_connect_failures = 3;
  const WorkerStats st =
      run_worker(cfg, [](const store::CampaignMeta&) -> UnitFn {
        return [](std::span<const std::uint64_t> ids, const EmitBytes& emit,
                  const std::function<bool()>&) {
          for (const std::uint64_t id : ids)
            emit(id, {static_cast<std::uint8_t>(id)});
        };
      });
  script.join();
  EXPECT_TRUE(st.drained);
  EXPECT_EQ(st.busy_retries, 1u);
  EXPECT_EQ(st.retired, 4u);
  EXPECT_EQ(st.units, 1u);
  EXPECT_EQ(st.campaigns, 1u);
}

// A worker pinned to one campaign only ever receives that campaign's
// leases, and drains as soon as its campaign (not the fleet) finishes.
TEST(NetE2E, CampaignPinnedWorkerServesOnlyItsCampaign) {
  const store::CampaignMeta meta_mine = perfi_meta(24, 31);
  const store::CampaignMeta meta_other = perfi_meta(4000, 37);
  const std::string path_mine = temp_store_path("pin_mine");
  const std::string path_other = temp_store_path("pin_other");
  store::CampaignCheckpoint ckpt_mine(path_mine, meta_mine);
  store::CampaignCheckpoint ckpt_other(path_other, meta_other);

  CoordinatorConfig ccfg;
  ccfg.port = 0;
  ccfg.lease_ms = 5000;
  ccfg.unit_size = 4;
  ccfg.status_interval_ms = 0;
  Coordinator coord(ccfg);
  coord.add_campaign(ckpt_mine);
  coord.add_campaign(ckpt_other);
  std::thread serve([&] { coord.serve(); });

  const std::string mine_name =
      std::filesystem::path(path_mine).stem().string();
  WorkerStats ws;
  std::thread worker([&] {
    WorkerConfig wcfg;
    wcfg.port = coord.port();
    wcfg.name = "pinned";
    wcfg.campaign = mine_name;
    wcfg.backoff_ms = 20;
    ws = run_worker(wcfg, make_unit_fn);
  });
  worker.join();

  // The pinned worker exits once its campaign completes; the other
  // campaign is untouched beyond whatever it never leased.
  EXPECT_TRUE(ws.drained);
  EXPECT_EQ(ws.campaigns, 1u);
  EXPECT_EQ(ws.retired, 24u);
  EXPECT_EQ(ckpt_mine.done_count(), 24u);
  EXPECT_EQ(ckpt_other.done_count(), 0u);

  coord.request_drain();
  serve.join();
  std::remove(path_mine.c_str());
  std::remove(path_other.c_str());
}

// --- http ------------------------------------------------------------------

TEST(NetHttp, ParseRequestLineAndQueryParams) {
  HttpRequest req;
  ASSERT_TRUE(parse_http_request(
      "GET /v1/query?metric=epr&format=json HTTP/1.1\r\nHost: x\r\n\r\n", req));
  EXPECT_EQ(req.method, "GET");
  EXPECT_EQ(req.path, "/v1/query");
  EXPECT_EQ(req.params.at("metric"), "epr");
  EXPECT_EQ(req.params.at("format"), "json");

  ASSERT_TRUE(parse_http_request("GET /v1/stats HTTP/1.1\r\n\r\n", req));
  EXPECT_EQ(req.path, "/v1/stats");
  EXPECT_TRUE(req.params.empty());

  // Percent-decoding, '+' as space, and a valueless key.
  ASSERT_TRUE(parse_http_request(
      "GET /p?unit=max%2Ffu&q=a+b&flag HTTP/1.1\r\n\r\n", req));
  EXPECT_EQ(req.params.at("unit"), "max/fu");
  EXPECT_EQ(req.params.at("q"), "a b");
  EXPECT_EQ(req.params.at("flag"), "");
}

TEST(NetHttp, ParseRejectsMalformedRequests) {
  HttpRequest req;
  EXPECT_FALSE(parse_http_request("", req));
  EXPECT_FALSE(parse_http_request("GET\r\n\r\n", req));
  EXPECT_FALSE(parse_http_request("GET /x\r\n\r\n", req));          // no version
  EXPECT_FALSE(parse_http_request("GET /x SMTP/1.0\r\n\r\n", req)); // not HTTP
  EXPECT_FALSE(parse_http_request("GET x HTTP/1.1\r\n\r\n", req));  // no slash
}

TEST(NetHttp, SerializeResponseCarriesStatusAndLength) {
  const std::string wire =
      serialize_http_response({404, "application/json", "{\"error\": \"x\"}"});
  EXPECT_EQ(wire.find("HTTP/1.1 404 Not Found\r\n"), 0u);
  EXPECT_NE(wire.find("Content-Length: 14\r\n"), std::string::npos);
  EXPECT_NE(wire.find("Connection: close\r\n"), std::string::npos);
  EXPECT_NE(wire.find("\r\n\r\n{\"error\": \"x\"}"), std::string::npos);
}

/// Sends one raw request to an HTTP port and reads to EOF.
std::string http_roundtrip(std::uint16_t port, const std::string& request) {
  Socket c = connect_tcp("127.0.0.1", port);
  std::size_t off = 0;
  while (off < request.size()) {
    const ssize_t n = ::send(c.fd(), request.data() + off,
                             request.size() - off, 0);
    if (n <= 0) {
      ADD_FAILURE() << "send failed";
      return "";
    }
    off += static_cast<std::size_t>(n);
  }
  std::string reply;
  char buf[1024];
  for (ssize_t n; (n = ::recv(c.fd(), buf, sizeof(buf), 0)) > 0;)
    reply.append(buf, static_cast<std::size_t>(n));
  return reply;
}

TEST(NetHttp, ServerRoutesDispatchesAndReportsErrors) {
  // The coordinator serves HTTP from its own loop; one idle campaign keeps
  // serve() running until the drain below.
  const std::string path = temp_store_path("http");
  store::CampaignCheckpoint ckpt(path, perfi_meta(8, 41));
  CoordinatorConfig ccfg;
  ccfg.status_interval_ms = 0;
  Coordinator coord(ckpt, ccfg);
  const std::uint16_t port = coord.serve_http(
      "127.0.0.1:0", [](const HttpRequest& req) -> HttpResponse {
        if (req.path == "/boom") throw std::runtime_error("handler exploded");
        if (req.path == "/echo")
          return {200, "text/plain", "metric=" + req.params.at("metric")};
        return {404, "application/json", "{}"};
      });
  std::thread serve([&] { coord.serve(); });

  const std::string ok = http_roundtrip(
      port, "GET /echo?metric=epr HTTP/1.1\r\nHost: t\r\n\r\n");
  EXPECT_EQ(ok.find("HTTP/1.1 200 OK\r\n"), 0u);
  EXPECT_NE(ok.find("metric=epr"), std::string::npos);

  const std::string miss = http_roundtrip(port, "GET /nope HTTP/1.1\r\n\r\n");
  EXPECT_EQ(miss.find("HTTP/1.1 404"), 0u);

  const std::string post = http_roundtrip(port, "POST /echo HTTP/1.1\r\n\r\n");
  EXPECT_EQ(post.find("HTTP/1.1 405"), 0u);

  const std::string bad = http_roundtrip(port, "garbage\r\n\r\n");
  EXPECT_EQ(bad.find("HTTP/1.1 400"), 0u);

  // Handler exceptions surface as 500 with the reason in the JSON body, and
  // the server keeps serving afterwards.
  const std::string boom = http_roundtrip(port, "GET /boom HTTP/1.1\r\n\r\n");
  EXPECT_EQ(boom.find("HTTP/1.1 500"), 0u);
  EXPECT_NE(boom.find("handler exploded"), std::string::npos);
  const std::string again =
      http_roundtrip(port, "GET /echo?metric=x HTTP/1.1\r\n\r\n");
  EXPECT_NE(again.find("metric=x"), std::string::npos);

  coord.request_drain();
  serve.join();
  std::remove(path.c_str());
}

// One slow HTTP client used to stall gpfd: its HTTP server answered one
// connection at a time with a 2 s timeout on each recv and joined that
// thread at exit, so a client dripping bytes held every other request and
// gpfd's exit. Served from the coordinator's loop, a silent client and a
// dripping one hold nothing up: a normal GET is answered at once, both slow
// clients are closed at the request deadline, a worker finishes its
// campaign meanwhile, and serve() returns within its usual linger.
TEST(NetHttp, SlowClientsStallNeitherRequestsNorServe) {
  using namespace std::chrono_literals;
  constexpr std::uint64_t kIds = 16;
  const std::string path = temp_store_path("http_slow");
  store::CampaignCheckpoint ckpt(path, perfi_meta(kIds, 43));
  CoordinatorConfig ccfg;
  ccfg.lease_ms = 5000;
  ccfg.unit_size = 4;
  ccfg.status_interval_ms = 0;
  Coordinator coord(ckpt, ccfg);
  const std::uint16_t http_port = coord.serve_http(
      "127.0.0.1:0", [&coord](const HttpRequest&) -> HttpResponse {
        return {200, "application/json", stats_json(coord.snapshot_stats())};
      });
  Clock::time_point served_at;
  std::thread serve([&] {
    coord.serve();
    served_at = Clock::now();
  });

  /// Waits for the server to close `c`; returns when it saw EOF.
  const auto closed_at = [](const Socket& c, bool drip) {
    char b;
    for (int i = 0; i < 100; ++i) {
      if (drip) ::send(c.fd(), "G", 1, MSG_NOSIGNAL);
      pollfd p{c.fd(), POLLIN, 0};
      if (::poll(&p, 1, 100) == 1 && ::recv(c.fd(), &b, 1, 0) <= 0) break;
    }
    return Clock::now();
  };
  const auto t_connect = Clock::now();
  Socket silent = connect_tcp("127.0.0.1", http_port);
  Socket dripper = connect_tcp("127.0.0.1", http_port);
  Clock::time_point silent_closed, drip_closed;
  std::thread slow([&] {
    drip_closed = closed_at(dripper, /*drip=*/true);
    silent_closed = closed_at(silent, /*drip=*/false);
  });

  std::this_thread::sleep_for(100ms);
  const auto t_get = Clock::now();
  const std::string reply =
      http_roundtrip(http_port, "GET /v1/stats HTTP/1.1\r\n\r\n");
  EXPECT_LT(Clock::now() - t_get, 1s);
  EXPECT_EQ(reply.find("HTTP/1.1 200 OK\r\n"), 0u);
  EXPECT_NE(reply.find("\"total_ids\": 16"), std::string::npos) << reply;

  // The worker takes about 4 s, well past the slow clients' deadline.
  WorkerConfig wcfg;
  wcfg.port = coord.port();
  wcfg.name = "steady";
  wcfg.backoff_ms = 20;
  const WorkerStats ws =
      run_worker(wcfg, [](const store::CampaignMeta&) -> UnitFn {
        return [](std::span<const std::uint64_t> ids, const EmitBytes& emit,
                  const std::function<bool()>&) {
          for (const std::uint64_t id : ids) {
            std::this_thread::sleep_for(250ms);
            emit(id, {static_cast<std::uint8_t>(id)});
          }
        };
      });
  const auto worker_done = Clock::now();
  serve.join();
  slow.join();

  EXPECT_TRUE(ws.drained);
  EXPECT_EQ(ws.retired, kIds);
  EXPECT_EQ(ckpt.done_count(), kIds);
  EXPECT_LT(served_at - worker_done, 2s);  // the linger, not the slow clients
  // Both slow clients were closed at the 2 s request deadline, while the
  // worker was still busy.
  for (const auto& t : {drip_closed, silent_closed}) {
    EXPECT_GE(t - t_connect, 1900ms);
    EXPECT_LT(t - t_connect, 3000ms);
    EXPECT_LT(t, worker_done);
  }
  std::remove(path.c_str());
}

TEST(NetHttp, StatsJsonCarriesProgressCampaignsAndWorkers) {
  StatsSnapshot st;
  st.total_ids = 40;
  st.retired_ids = 25;
  st.pending_units = 3;
  st.leased_units = 1;
  st.draining = true;
  st.connected_workers = 2;
  st.desired_workers = 4;
  st.evicted_workers = 1;
  st.evicted_retired = 9;
  CampaignRow c;
  c.name = "perfi-vectoradd-IOC";
  c.kind = static_cast<std::uint8_t>(store::CampaignKind::Perfi);
  c.state = 1;
  c.priority = 2;
  c.total_ids = 40;
  c.retired_ids = 25;
  st.campaigns.push_back(c);
  WorkerRow w;
  w.session = 9;
  w.name = "w\"quoted\"";
  w.retired = 25;
  w.connected = true;
  st.workers.push_back(w);

  const std::string json = stats_json(st);
  EXPECT_NE(json.find("\"total_ids\": 40"), std::string::npos);
  EXPECT_NE(json.find("\"retired_ids\": 25"), std::string::npos);
  EXPECT_NE(json.find("\"draining\": true"), std::string::npos);
  EXPECT_NE(json.find("\"connected_workers\": 2"), std::string::npos);
  EXPECT_NE(json.find("\"desired_workers\": 4"), std::string::npos);
  EXPECT_NE(json.find("\"evicted_workers\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"kind\": \"perfi\""), std::string::npos);
  EXPECT_NE(json.find("\"state\": \"removing\""), std::string::npos);
  EXPECT_NE(json.find("\"name\": \"w\\\"quoted\\\"\""), std::string::npos);

  const std::string reg = campaigns_json(st.campaigns);
  EXPECT_NE(reg.find("\"campaigns\""), std::string::npos);
  EXPECT_NE(reg.find("\"name\": \"perfi-vectoradd-IOC\""), std::string::npos);
  EXPECT_NE(reg.find("\"priority\": 2"), std::string::npos);
}

// A campaign the worker cannot build — here a gate header whose engine
// byte names no engine — fails the same way on every lease, so the worker
// must stop with the reason instead of reconnecting and re-leasing it.
TEST(NetE2E, WorkerStopsOnCampaignItCannotBuild) {
  store::CampaignMeta meta = report::gate_campaign_meta(
      gate::UnitKind::Decoder, /*faults_per_unit=*/16, /*max_issues=*/30,
      /*seed=*/5, EngineKind::Batch);
  meta.engine = 7;
  const std::string path = temp_store_path("bad_engine");
  store::CampaignCheckpoint ckpt(path, meta);

  CoordinatorConfig ccfg;
  ccfg.port = 0;
  ccfg.lease_ms = 5000;
  ccfg.unit_size = 8;
  ccfg.status_interval_ms = 0;
  Coordinator coord(ckpt, ccfg);
  std::thread serve([&] { coord.serve(); });

  int builds = 0;
  WorkerConfig wcfg;
  wcfg.port = coord.port();
  wcfg.backoff_ms = 20;
  try {
    run_worker(wcfg, [&](const store::CampaignMeta& m) {
      ++builds;
      return make_unit_fn(m);
    });
    ADD_FAILURE() << "worker served a campaign with engine byte 7";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("engine byte 7"), std::string::npos)
        << e.what();
  }
  EXPECT_EQ(builds, 1);

  coord.request_drain();  // the lost lease is reclaimed on disconnect
  serve.join();
  EXPECT_EQ(ckpt.done_count(), 0u);
  std::remove(path.c_str());
}

// A gate header whose unit byte names no unit: make_unit_fn refuses it
// (it used to dereference a null netlist), so a worker leased the campaign
// stops with "cannot serve campaign" instead of dying.
TEST(NetE2E, WorkerStopsOnGateCampaignWithUnknownUnit) {
  store::CampaignMeta meta = report::gate_campaign_meta(
      gate::UnitKind::Decoder, /*faults_per_unit=*/16, /*max_issues=*/30,
      /*seed=*/5, EngineKind::Batch);
  for (const std::uint8_t bad : {std::uint8_t{3}, std::uint8_t{255}}) {
    meta.target = bad;
    EXPECT_THROW(make_unit_fn(meta), std::runtime_error) << static_cast<int>(bad);
  }
  meta.target = 3;
  const std::string path = temp_store_path("bad_unit");
  store::CampaignCheckpoint ckpt(path, meta);

  CoordinatorConfig ccfg;
  ccfg.port = 0;
  ccfg.lease_ms = 5000;
  ccfg.unit_size = 8;
  ccfg.status_interval_ms = 0;
  Coordinator coord(ckpt, ccfg);
  std::thread serve([&] { coord.serve(); });

  WorkerConfig wcfg;
  wcfg.port = coord.port();
  wcfg.backoff_ms = 20;
  try {
    run_worker(wcfg, make_unit_fn);
    ADD_FAILURE() << "worker served a gate campaign with unit byte 3";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("cannot serve campaign"), std::string::npos) << what;
    EXPECT_NE(what.find("unit byte 3"), std::string::npos) << what;
  }

  coord.request_drain();
  serve.join();
  EXPECT_EQ(ckpt.done_count(), 0u);
  std::remove(path.c_str());
}

TEST(NetE2E, WorkerGivesUpWhenNoCoordinator) {
  WorkerConfig cfg;
  cfg.port = 1;  // nothing listens on port 1
  cfg.backoff_ms = 1;
  cfg.max_connect_failures = 3;
  const WorkerStats st = run_worker(
      cfg, [](const store::CampaignMeta&) -> UnitFn {
        ADD_FAILURE() << "factory must not run without a handshake";
        return {};
      });
  EXPECT_TRUE(st.gave_up);
  EXPECT_FALSE(st.drained);
  EXPECT_EQ(st.retired, 0u);
}

}  // namespace
}  // namespace gpf::net
