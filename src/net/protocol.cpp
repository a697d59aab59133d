#include "net/protocol.hpp"

#include <stdexcept>

#include "store/bytes.hpp"

namespace gpf::net {

const char* msg_type_name(MsgType t) {
  switch (t) {
    case MsgType::Hello: return "Hello";
    case MsgType::HelloAck: return "HelloAck";
    case MsgType::LeaseRequest: return "LeaseRequest";
    case MsgType::LeaseGrant: return "LeaseGrant";
    case MsgType::NoWork: return "NoWork";
    case MsgType::Result: return "Result";
    case MsgType::Heartbeat: return "Heartbeat";
    case MsgType::UnitDone: return "UnitDone";
    case MsgType::Ack: return "Ack";
    case MsgType::StatsRequest: return "StatsRequest";
    case MsgType::StatsSnapshot: return "StatsSnapshot";
    case MsgType::SubmitCampaign: return "SubmitCampaign";
    case MsgType::RemoveCampaign: return "RemoveCampaign";
    case MsgType::ListCampaigns: return "ListCampaigns";
    case MsgType::CampaignList: return "CampaignList";
    case MsgType::OpResult: return "OpResult";
    case MsgType::Busy: return "Busy";
  }
  return "?";
}

namespace {

Frame make_frame(MsgType t) {
  Frame f;
  f.type = static_cast<std::uint16_t>(t);
  return f;
}

store::ByteReader check(const Frame& f, MsgType want) {
  if (f.type != static_cast<std::uint16_t>(want))
    throw std::runtime_error(
        std::string("net: expected ") + msg_type_name(want) + ", got " +
        msg_type_name(static_cast<MsgType>(f.type)) + " (type " +
        std::to_string(f.type) + ")");
  return store::ByteReader(f.payload);
}

void expect_done(store::ByteReader& r, MsgType t) {
  if (!r.done())
    throw std::runtime_error(std::string("net: trailing bytes in ") +
                             msg_type_name(t) + " payload");
}

// Length-prefixed string: u32 len + bytes. Campaign and worker names are
// short; anything beyond the frame limit fails in fixed_str's bounds check.
void put_str(store::ByteWriter& w, const std::string& s) {
  w.u32(static_cast<std::uint32_t>(s.size()));
  w.fixed_str(s, s.size());
}

std::string get_str(store::ByteReader& r) { return r.fixed_str(r.u32()); }

/// Reads a u32 element count and refuses one that the rest of the payload
/// cannot hold at `min_bytes` (an element's smallest encoding) each, so a
/// forged count never sizes an allocation.
std::uint32_t get_count(store::ByteReader& r, std::size_t min_bytes,
                        MsgType t) {
  const std::uint32_t n = r.u32();
  if (n > r.remaining() / min_bytes)
    throw std::runtime_error(std::string("net: ") + msg_type_name(t) +
                             " count " + std::to_string(n) +
                             " overruns its payload");
  return n;
}

constexpr std::size_t kMinRecordBytes = 8 + 4;  // id, payload length
constexpr std::size_t kMinCampaignRowBytes = 4 + 1 + 1 + 4 + 8 + 8 + 4 + 4;
constexpr std::size_t kMinWorkerRowBytes = 8 + 4 + 8 + 4 + 8 + 1;

void put_meta(Frame& f, const store::CampaignMeta& meta) {
  const std::vector<std::uint8_t> header = store::ResultLog::encode_meta(meta);
  f.payload.insert(f.payload.end(), header.begin(), header.end());
}

store::CampaignMeta get_meta(store::ByteReader& r) {
  if (r.remaining() < store::ResultLog::kHeaderSize)
    throw std::runtime_error("net: truncated campaign meta header");
  std::vector<std::uint8_t> header(store::ResultLog::kHeaderSize);
  for (std::uint8_t& b : header) b = r.u8();
  return store::ResultLog::decode_meta(header);
}

void put_campaign_row(store::ByteWriter& w, const CampaignRow& row) {
  put_str(w, row.name);
  w.u8(row.kind);
  w.u8(row.state);
  w.u32(row.priority);
  w.u64(row.total_ids);
  w.u64(row.retired_ids);
  w.u32(row.pending_units);
  w.u32(row.leased_units);
}

CampaignRow get_campaign_row(store::ByteReader& r) {
  CampaignRow row;
  row.name = get_str(r);
  row.kind = r.u8();
  row.state = r.u8();
  row.priority = r.u32();
  row.total_ids = r.u64();
  row.retired_ids = r.u64();
  row.pending_units = r.u32();
  row.leased_units = r.u32();
  return row;
}

}  // namespace

Frame encode(const Hello& m) {
  Frame f = make_frame(MsgType::Hello);
  store::ByteWriter w(f.payload);
  w.u32(m.version);
  put_str(w, m.worker_name);
  put_str(w, m.campaign);
  return f;
}

Hello decode_hello(const Frame& f) {
  store::ByteReader r = check(f, MsgType::Hello);
  Hello m;
  m.version = r.u32();
  m.worker_name = get_str(r);
  m.campaign = get_str(r);
  expect_done(r, MsgType::Hello);
  return m;
}

Frame encode(const HelloAck& m) {
  Frame f = make_frame(MsgType::HelloAck);
  store::ByteWriter w(f.payload);
  w.u32(m.lease_ms);
  return f;
}

HelloAck decode_hello_ack(const Frame& f) {
  store::ByteReader r = check(f, MsgType::HelloAck);
  HelloAck m;
  m.lease_ms = r.u32();
  expect_done(r, MsgType::HelloAck);
  return m;
}

Frame encode(const LeaseRequest& m) {
  Frame f = make_frame(MsgType::LeaseRequest);
  store::ByteWriter w(f.payload);
  put_str(w, m.campaign);
  return f;
}

LeaseRequest decode_lease_request(const Frame& f) {
  store::ByteReader r = check(f, MsgType::LeaseRequest);
  LeaseRequest m;
  m.campaign = get_str(r);
  expect_done(r, MsgType::LeaseRequest);
  return m;
}

Frame encode(const LeaseGrant& m) {
  Frame f = make_frame(MsgType::LeaseGrant);
  {
    store::ByteWriter w(f.payload);
    w.u64(m.campaign_id);
    put_str(w, m.campaign);
  }
  put_meta(f, m.meta);
  store::ByteWriter w(f.payload);
  w.u64(m.unit_id);
  w.u32(static_cast<std::uint32_t>(m.ids.size()));
  for (const std::uint64_t id : m.ids) w.u64(id);
  return f;
}

LeaseGrant decode_lease_grant(const Frame& f) {
  store::ByteReader r = check(f, MsgType::LeaseGrant);
  LeaseGrant m;
  m.campaign_id = r.u64();
  m.campaign = get_str(r);
  m.meta = get_meta(r);
  m.unit_id = r.u64();
  const std::uint32_t n = r.u32();
  if (r.remaining() != std::size_t{n} * 8)
    throw std::runtime_error("net: LeaseGrant id count mismatch");
  m.ids.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) m.ids.push_back(r.u64());
  return m;
}

Frame encode(const NoWork& m) {
  Frame f = make_frame(MsgType::NoWork);
  store::ByteWriter w(f.payload);
  w.u8(m.drained ? 1 : 0);
  return f;
}

NoWork decode_no_work(const Frame& f) {
  store::ByteReader r = check(f, MsgType::NoWork);
  NoWork m;
  m.drained = r.u8() != 0;
  expect_done(r, MsgType::NoWork);
  return m;
}

Frame encode(const ResultMsg& m) {
  Frame f = make_frame(MsgType::Result);
  store::ByteWriter w(f.payload);
  w.u64(m.campaign_id);
  w.u64(m.unit_id);
  w.u32(static_cast<std::uint32_t>(m.records.size()));
  for (const store::Record& rec : m.records) {
    w.u64(rec.id);
    w.u32(static_cast<std::uint32_t>(rec.payload.size()));
    f.payload.insert(f.payload.end(), rec.payload.begin(), rec.payload.end());
  }
  return f;
}

ResultMsg decode_result(const Frame& f) {
  store::ByteReader r = check(f, MsgType::Result);
  ResultMsg m;
  m.campaign_id = r.u64();
  m.unit_id = r.u64();
  const std::uint32_t n = get_count(r, kMinRecordBytes, MsgType::Result);
  m.records.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    store::Record rec;
    rec.id = r.u64();
    const std::uint32_t len = r.u32();
    if (r.remaining() < len)
      throw std::runtime_error("net: Result record overruns payload");
    rec.payload.resize(len);
    for (std::uint32_t b = 0; b < len; ++b) rec.payload[b] = r.u8();
    m.records.push_back(std::move(rec));
  }
  expect_done(r, MsgType::Result);
  return m;
}

Frame encode(const Heartbeat& m) {
  Frame f = make_frame(MsgType::Heartbeat);
  store::ByteWriter w(f.payload);
  w.u64(m.campaign_id);
  w.u64(m.unit_id);
  return f;
}

Heartbeat decode_heartbeat(const Frame& f) {
  store::ByteReader r = check(f, MsgType::Heartbeat);
  Heartbeat m;
  m.campaign_id = r.u64();
  m.unit_id = r.u64();
  expect_done(r, MsgType::Heartbeat);
  return m;
}

Frame encode(const UnitDone& m) {
  Frame f = make_frame(MsgType::UnitDone);
  store::ByteWriter w(f.payload);
  w.u64(m.campaign_id);
  w.u64(m.unit_id);
  return f;
}

UnitDone decode_unit_done(const Frame& f) {
  store::ByteReader r = check(f, MsgType::UnitDone);
  UnitDone m;
  m.campaign_id = r.u64();
  m.unit_id = r.u64();
  expect_done(r, MsgType::UnitDone);
  return m;
}

Frame encode(const Ack& m) {
  Frame f = make_frame(MsgType::Ack);
  store::ByteWriter w(f.payload);
  w.u8(m.drain ? 1 : 0);
  w.u8(m.lost_lease ? 1 : 0);
  return f;
}

Ack decode_ack(const Frame& f) {
  store::ByteReader r = check(f, MsgType::Ack);
  Ack m;
  m.drain = r.u8() != 0;
  m.lost_lease = r.u8() != 0;
  expect_done(r, MsgType::Ack);
  return m;
}

Frame encode(const Busy& m) {
  Frame f = make_frame(MsgType::Busy);
  store::ByteWriter w(f.payload);
  w.u32(m.retry_after_ms);
  return f;
}

Busy decode_busy(const Frame& f) {
  store::ByteReader r = check(f, MsgType::Busy);
  Busy m;
  m.retry_after_ms = r.u32();
  expect_done(r, MsgType::Busy);
  return m;
}

Frame encode(const SubmitCampaign& m) {
  Frame f = make_frame(MsgType::SubmitCampaign);
  {
    store::ByteWriter w(f.payload);
    put_str(w, m.name);
    w.u32(m.priority);
  }
  put_meta(f, m.meta);
  return f;
}

SubmitCampaign decode_submit_campaign(const Frame& f) {
  store::ByteReader r = check(f, MsgType::SubmitCampaign);
  SubmitCampaign m;
  m.name = get_str(r);
  m.priority = r.u32();
  m.meta = get_meta(r);
  expect_done(r, MsgType::SubmitCampaign);
  return m;
}

Frame encode(const RemoveCampaign& m) {
  Frame f = make_frame(MsgType::RemoveCampaign);
  store::ByteWriter w(f.payload);
  put_str(w, m.name);
  return f;
}

RemoveCampaign decode_remove_campaign(const Frame& f) {
  store::ByteReader r = check(f, MsgType::RemoveCampaign);
  RemoveCampaign m;
  m.name = get_str(r);
  expect_done(r, MsgType::RemoveCampaign);
  return m;
}

Frame encode(const OpResult& m) {
  Frame f = make_frame(MsgType::OpResult);
  store::ByteWriter w(f.payload);
  w.u8(m.ok ? 1 : 0);
  put_str(w, m.message);
  return f;
}

OpResult decode_op_result(const Frame& f) {
  store::ByteReader r = check(f, MsgType::OpResult);
  OpResult m;
  m.ok = r.u8() != 0;
  m.message = get_str(r);
  expect_done(r, MsgType::OpResult);
  return m;
}

Frame encode_list_campaigns() { return make_frame(MsgType::ListCampaigns); }

Frame encode(const CampaignList& m) {
  Frame f = make_frame(MsgType::CampaignList);
  store::ByteWriter w(f.payload);
  w.u32(static_cast<std::uint32_t>(m.campaigns.size()));
  for (const CampaignRow& row : m.campaigns) put_campaign_row(w, row);
  return f;
}

CampaignList decode_campaign_list(const Frame& f) {
  store::ByteReader r = check(f, MsgType::CampaignList);
  CampaignList m;
  const std::uint32_t n =
      get_count(r, kMinCampaignRowBytes, MsgType::CampaignList);
  m.campaigns.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i)
    m.campaigns.push_back(get_campaign_row(r));
  expect_done(r, MsgType::CampaignList);
  return m;
}

Frame encode_stats_request(const std::string& campaign) {
  Frame f = make_frame(MsgType::StatsRequest);
  store::ByteWriter w(f.payload);
  put_str(w, campaign);
  return f;
}

std::string decode_stats_request(const Frame& f) {
  store::ByteReader r = check(f, MsgType::StatsRequest);
  const std::string campaign = get_str(r);
  expect_done(r, MsgType::StatsRequest);
  return campaign;
}

Frame encode(const StatsSnapshot& m) {
  Frame f = make_frame(MsgType::StatsSnapshot);
  store::ByteWriter w(f.payload);
  w.u64(m.total_ids);
  w.u64(m.retired_ids);
  w.u64(m.done_at_open);
  w.u32(m.pending_units);
  w.u32(m.leased_units);
  w.u64(m.elapsed_ms);
  w.u64(m.rate_milli);
  w.u64(m.eta_ms);
  w.u8(m.draining);
  w.u32(m.connected_workers);
  w.u32(m.desired_workers);
  w.u64(m.evicted_workers);
  w.u64(m.evicted_retired);
  w.u32(static_cast<std::uint32_t>(m.campaigns.size()));
  for (const CampaignRow& row : m.campaigns) put_campaign_row(w, row);
  w.u32(static_cast<std::uint32_t>(m.workers.size()));
  for (const WorkerRow& row : m.workers) {
    w.u64(row.session);
    put_str(w, row.name);
    w.u64(row.retired);
    w.u32(row.leased_units);
    w.u64(row.idle_ms);
    w.u8(row.connected);
  }
  return f;
}

StatsSnapshot decode_stats_snapshot(const Frame& f) {
  store::ByteReader r = check(f, MsgType::StatsSnapshot);
  StatsSnapshot m;
  m.total_ids = r.u64();
  m.retired_ids = r.u64();
  m.done_at_open = r.u64();
  m.pending_units = r.u32();
  m.leased_units = r.u32();
  m.elapsed_ms = r.u64();
  m.rate_milli = r.u64();
  m.eta_ms = r.u64();
  m.draining = r.u8();
  m.connected_workers = r.u32();
  m.desired_workers = r.u32();
  m.evicted_workers = r.u64();
  m.evicted_retired = r.u64();
  const std::uint32_t nc =
      get_count(r, kMinCampaignRowBytes, MsgType::StatsSnapshot);
  m.campaigns.reserve(nc);
  for (std::uint32_t i = 0; i < nc; ++i)
    m.campaigns.push_back(get_campaign_row(r));
  const std::uint32_t nw =
      get_count(r, kMinWorkerRowBytes, MsgType::StatsSnapshot);
  m.workers.reserve(nw);
  for (std::uint32_t i = 0; i < nw; ++i) {
    WorkerRow row;
    row.session = r.u64();
    row.name = get_str(r);
    row.retired = r.u64();
    row.leased_units = r.u32();
    row.idle_ms = r.u64();
    row.connected = r.u8();
    m.workers.push_back(std::move(row));
  }
  expect_done(r, MsgType::StatsSnapshot);
  return m;
}

}  // namespace gpf::net
