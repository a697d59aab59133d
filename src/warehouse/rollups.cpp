#include "warehouse/rollups.hpp"

#include <algorithm>
#include <map>
#include <stdexcept>

#include "store/bytes.hpp"

namespace gpf::warehouse {

const char* gate_class_name(std::size_t cls) {
  switch (cls) {
    case 0: return "uncontrollable";
    case 1: return "hw-masked";
    case 2: return "hw-hang";
    case 3: return "sw-error";
  }
  return "?";
}

std::size_t syndrome_bucket(std::uint64_t magnitude) {
  std::size_t b = 0;
  while (magnitude && b + 1 < kSyndromeBuckets) {
    magnitude >>= 1;
    ++b;
  }
  return b;
}

std::uint64_t syndrome_bucket_limit(std::size_t b) {
  return b + 1 >= kSyndromeBuckets ? ~0ull : 1ull << b;
}

namespace {

/// Encoded bytes of one NetTally: the net and both class-count arrays.
constexpr std::size_t kNetTallyBytes = 4 + 2 * 4 * kGateClasses;

/// Class index of a gate record, matching store export's GateSummary order.
std::size_t gate_class_of(const store::GateRecord& r) {
  if (r.any_error()) return 3;
  if (r.hang) return 2;
  return r.activated ? 1 : 0;
}

/// Sorted-insert lookup of the tally row for `net`.
NetTally& net_tally(std::vector<NetTally>& nets, std::uint32_t net) {
  const auto it = std::lower_bound(
      nets.begin(), nets.end(), net,
      [](const NetTally& t, std::uint32_t n) { return t.net < n; });
  if (it != nets.end() && it->net == net) return *it;
  return *nets.insert(it, NetTally{net, {}, {}});
}

}  // namespace

void Rollups::add(std::uint64_t /*id*/, std::span<const std::uint8_t> payload) {
  ++rows;
  switch (kind) {
    case store::CampaignKind::Gate: {
      const store::GateRecord r = store::decode_gate(payload);
      const std::size_t cls = gate_class_of(r);
      ++gate_classes[cls];
      std::uint64_t magnitude = 0;
      for (unsigned m = 0; m < errmodel::kNumErrorModels; ++m) {
        if (r.error_counts[m]) {
          ++model_faults[m];
          model_occurrences[m] += r.error_counts[m];
        }
        magnitude += r.error_counts[m];
      }
      NetTally& t = net_tally(nets, r.net);
      ++(r.stuck_high ? t.sa1 : t.sa0)[cls];
      ++syndrome[syndrome_bucket(magnitude)];
      syndrome_sum += magnitude;
      break;
    }
    case store::CampaignKind::Rtl: {
      const store::RtlRecord r = store::decode_rtl(payload);
      ++rtl_outcomes[static_cast<std::size_t>(r.outcome)];
      corrupted_total += r.corrupted;
      per_warp_sum += r.per_warp_corrupted;
      ++syndrome[syndrome_bucket(r.corrupted)];
      syndrome_sum += r.corrupted;
      break;
    }
    case store::CampaignKind::Perfi: {
      const store::PerfiRecord r = store::decode_perfi(payload);
      ++perfi_outcomes[static_cast<std::size_t>(r.outcome)];
      break;
    }
  }
}

Rollups compute_rollups(const store::LoadedStore& s) {
  Rollups out;
  out.kind = s.meta.kind;
  out.rows = s.records.size();
  switch (s.meta.kind) {
    case store::CampaignKind::Gate: {
      // Accumulate per-net tallies in a map first, then emit sorted — a
      // deliberately different construction from Rollups::add's sorted
      // vector insert.
      std::map<std::uint32_t, NetTally> nets;
      for (const auto& [id, payload] : s.records) {
        const store::GateRecord r = store::decode_gate(payload);
        std::size_t cls;
        if (r.any_error())
          cls = 3;
        else if (r.hang)
          cls = 2;
        else if (r.activated)
          cls = 1;
        else
          cls = 0;
        ++out.gate_classes[cls];
        std::uint64_t magnitude = 0;
        for (unsigned m = 0; m < errmodel::kNumErrorModels; ++m) {
          magnitude += r.error_counts[m];
          if (!r.error_counts[m]) continue;
          ++out.model_faults[m];
          out.model_occurrences[m] += r.error_counts[m];
        }
        auto [it, inserted] = nets.try_emplace(r.net, NetTally{r.net, {}, {}});
        auto& side = r.stuck_high ? it->second.sa1 : it->second.sa0;
        ++side[cls];
        ++out.syndrome[syndrome_bucket(magnitude)];
        out.syndrome_sum += magnitude;
      }
      out.nets.reserve(nets.size());
      for (const auto& [net, tally] : nets) out.nets.push_back(tally);
      break;
    }
    case store::CampaignKind::Rtl: {
      for (const auto& [id, payload] : s.records) {
        const store::RtlRecord r = store::decode_rtl(payload);
        ++out.rtl_outcomes[static_cast<std::size_t>(r.outcome)];
        out.corrupted_total += r.corrupted;
        out.per_warp_sum += r.per_warp_corrupted;
        ++out.syndrome[syndrome_bucket(r.corrupted)];
        out.syndrome_sum += r.corrupted;
      }
      break;
    }
    case store::CampaignKind::Perfi: {
      for (const auto& [id, payload] : s.records) {
        const store::PerfiRecord r = store::decode_perfi(payload);
        ++out.perfi_outcomes[static_cast<std::size_t>(r.outcome)];
      }
      break;
    }
  }
  return out;
}

std::vector<std::uint8_t> encode(const Rollups& r) {
  std::vector<std::uint8_t> out;
  store::ByteWriter w(out);
  w.u8(static_cast<std::uint8_t>(r.kind));
  w.u64(r.rows);
  for (const std::uint64_t c : r.gate_classes) w.u64(c);
  for (const std::uint64_t c : r.model_faults) w.u64(c);
  for (const std::uint64_t c : r.model_occurrences) w.u64(c);
  w.u32(static_cast<std::uint32_t>(r.nets.size()));
  for (const NetTally& t : r.nets) {
    w.u32(t.net);
    for (const std::uint32_t c : t.sa0) w.u32(c);
    for (const std::uint32_t c : t.sa1) w.u32(c);
  }
  for (const std::uint64_t c : r.rtl_outcomes) w.u64(c);
  w.u64(r.corrupted_total);
  w.f64(r.per_warp_sum);
  for (const std::uint64_t c : r.perfi_outcomes) w.u64(c);
  for (const std::uint64_t c : r.syndrome) w.u64(c);
  w.u64(r.syndrome_sum);
  return out;
}

Rollups decode_rollups(std::span<const std::uint8_t> bytes) {
  store::ByteReader rd(bytes);
  Rollups r = decode_rollups(rd);
  if (!rd.done()) throw std::runtime_error("warehouse: trailing rollup bytes");
  return r;
}

Rollups decode_rollups(store::ByteReader& rd) {
  Rollups r;
  r.kind = static_cast<store::CampaignKind>(rd.u8());
  r.rows = rd.u64();
  for (auto& c : r.gate_classes) c = rd.u64();
  for (auto& c : r.model_faults) c = rd.u64();
  for (auto& c : r.model_occurrences) c = rd.u64();
  r.nets.resize(rd.count(kNetTallyBytes, "warehouse rollups nets"));
  for (NetTally& t : r.nets) {
    t.net = rd.u32();
    for (auto& c : t.sa0) c = rd.u32();
    for (auto& c : t.sa1) c = rd.u32();
  }
  for (auto& c : r.rtl_outcomes) c = rd.u64();
  r.corrupted_total = rd.u64();
  r.per_warp_sum = rd.f64();
  for (auto& c : r.perfi_outcomes) c = rd.u64();
  for (auto& c : r.syndrome) c = rd.u64();
  r.syndrome_sum = rd.u64();
  return r;
}

}  // namespace gpf::warehouse
