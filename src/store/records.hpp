// Per-campaign record codecs: the typed payloads stored in a campaign log.
// The store layer deliberately does not depend on the gate/rtl/perfi
// libraries — campaign drivers convert their native result structs to these
// plain records, and export/status re-derive summaries from them alone.
// Payloads can come from a worker or a damaged file, so every decode_*
// throws std::runtime_error on a payload that is cut short, has trailing
// bytes, names an unknown outcome or carries a count its bytes cannot hold.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "errmodel/models.hpp"

namespace gpf::store {

// ---------------------------------------------------------------------------
// Gate campaign (one stuck-at fault fully replayed over all traces)
// ---------------------------------------------------------------------------

struct GateRecord {
  std::uint32_t net = 0;
  bool stuck_high = false;
  bool activated = false;
  bool hang = false;
  std::array<std::uint32_t, errmodel::kNumErrorModels> error_counts{};

  bool any_error() const {
    for (auto c : error_counts)
      if (c) return true;
    return false;
  }
  /// Same classification rule as gate::FaultCharacterization::cls(), and the
  /// same names as gate::fault_class_name (asserted in test_gate_experiments).
  const char* class_name() const;
};

/// Every gate record's payload size: net, three flag bytes, the counts.
inline constexpr std::size_t kGateRecordBytes =
    7 + 4 * errmodel::kNumErrorModels;

std::vector<std::uint8_t> encode(const GateRecord& r);
GateRecord decode_gate(std::span<const std::uint8_t> payload);

// ---------------------------------------------------------------------------
// RTL t-MxM campaign (one injection)
// ---------------------------------------------------------------------------

/// Mirrors rtl::Outcome.
enum class RtlOutcome : std::uint8_t { Masked = 0, SdcSingle, SdcMultiple, Due };
const char* rtl_outcome_name(RtlOutcome o);

struct RtlRecord {
  RtlOutcome outcome = RtlOutcome::Masked;
  std::uint32_t corrupted = 0;
  double per_warp_corrupted = 0.0;
  std::vector<double> rel_errors;
  std::vector<std::uint32_t> corrupted_idx;
};

std::vector<std::uint8_t> encode(const RtlRecord& r);
RtlRecord decode_rtl(std::span<const std::uint8_t> payload);

// ---------------------------------------------------------------------------
// PERfi EPR campaign (one instruction-level injection into one app)
// ---------------------------------------------------------------------------

/// Outcome plus DUE cause, folded into one stored enum so the store does not
/// depend on arch::TrapKind numeric values.
enum class PerfiOutcome : std::uint8_t {
  Masked = 0,
  Sdc,
  DueIllegalAddress,
  DueInvalidRegister,
  DueInvalidOpcode,
  DueHang,
  DueOther,
};
const char* perfi_outcome_name(PerfiOutcome o);
inline bool perfi_is_due(PerfiOutcome o) {
  return o >= PerfiOutcome::DueIllegalAddress;
}

struct PerfiRecord {
  PerfiOutcome outcome = PerfiOutcome::Masked;
};

std::vector<std::uint8_t> encode(const PerfiRecord& r);
PerfiRecord decode_perfi(std::span<const std::uint8_t> payload);

}  // namespace gpf::store
