#include "store/records.hpp"

#include <stdexcept>

#include "store/bytes.hpp"

namespace gpf::store {

const char* GateRecord::class_name() const {
  if (any_error()) return "sw-error";
  if (hang) return "hw-hang";
  return activated ? "hw-masked" : "uncontrollable";
}

std::vector<std::uint8_t> encode(const GateRecord& r) {
  std::vector<std::uint8_t> out;
  out.reserve(kGateRecordBytes);
  ByteWriter w(out);
  w.u32(r.net);
  w.u8(r.stuck_high ? 1 : 0);
  w.u8(r.activated ? 1 : 0);
  w.u8(r.hang ? 1 : 0);
  for (const std::uint32_t c : r.error_counts) w.u32(c);
  return out;
}

GateRecord decode_gate(std::span<const std::uint8_t> payload) {
  ByteReader rd(payload);
  GateRecord r;
  r.net = rd.u32();
  r.stuck_high = rd.u8() != 0;
  r.activated = rd.u8() != 0;
  r.hang = rd.u8() != 0;
  for (auto& c : r.error_counts) c = rd.u32();
  if (!rd.done()) throw std::runtime_error("gate record: trailing bytes");
  return r;
}

const char* rtl_outcome_name(RtlOutcome o) {
  switch (o) {
    case RtlOutcome::Masked: return "Masked";
    case RtlOutcome::SdcSingle: return "SDC-single";
    case RtlOutcome::SdcMultiple: return "SDC-multiple";
    case RtlOutcome::Due: return "DUE";
  }
  return "?";
}

std::vector<std::uint8_t> encode(const RtlRecord& r) {
  std::vector<std::uint8_t> out;
  out.reserve(13 + 8 * r.rel_errors.size() + 4 * r.corrupted_idx.size());
  ByteWriter w(out);
  w.u8(static_cast<std::uint8_t>(r.outcome));
  w.u32(r.corrupted);
  w.f64(r.per_warp_corrupted);
  w.u32(static_cast<std::uint32_t>(r.rel_errors.size()));
  for (const double e : r.rel_errors) w.f64(e);
  w.u32(static_cast<std::uint32_t>(r.corrupted_idx.size()));
  for (const std::uint32_t i : r.corrupted_idx) w.u32(i);
  return out;
}

RtlRecord decode_rtl(std::span<const std::uint8_t> payload) {
  ByteReader rd(payload);
  RtlRecord r;
  const std::uint8_t outcome = rd.u8();
  if (outcome > static_cast<std::uint8_t>(RtlOutcome::Due))
    throw std::runtime_error("rtl record: unknown outcome " +
                             std::to_string(outcome));
  r.outcome = static_cast<RtlOutcome>(outcome);
  r.corrupted = rd.u32();
  r.per_warp_corrupted = rd.f64();
  r.rel_errors.resize(rd.count(8, "rtl record rel_errors"));
  for (auto& e : r.rel_errors) e = rd.f64();
  r.corrupted_idx.resize(rd.count(4, "rtl record corrupted_idx"));
  for (auto& i : r.corrupted_idx) i = rd.u32();
  if (!rd.done()) throw std::runtime_error("rtl record: trailing bytes");
  return r;
}

const char* perfi_outcome_name(PerfiOutcome o) {
  switch (o) {
    case PerfiOutcome::Masked: return "Masked";
    case PerfiOutcome::Sdc: return "SDC";
    case PerfiOutcome::DueIllegalAddress: return "DUE-illegal-address";
    case PerfiOutcome::DueInvalidRegister: return "DUE-invalid-register";
    case PerfiOutcome::DueInvalidOpcode: return "DUE-invalid-opcode";
    case PerfiOutcome::DueHang: return "DUE-hang";
    case PerfiOutcome::DueOther: return "DUE-other";
  }
  return "?";
}

std::vector<std::uint8_t> encode(const PerfiRecord& r) {
  std::vector<std::uint8_t> out;
  ByteWriter w(out);
  w.u8(static_cast<std::uint8_t>(r.outcome));
  return out;
}

PerfiRecord decode_perfi(std::span<const std::uint8_t> payload) {
  ByteReader rd(payload);
  PerfiRecord r;
  const std::uint8_t outcome = rd.u8();
  if (outcome > static_cast<std::uint8_t>(PerfiOutcome::DueOther))
    throw std::runtime_error("perfi record: unknown outcome " +
                             std::to_string(outcome));
  r.outcome = static_cast<PerfiOutcome>(outcome);
  if (!rd.done()) throw std::runtime_error("perfi record: trailing bytes");
  return r;
}

}  // namespace gpf::store
