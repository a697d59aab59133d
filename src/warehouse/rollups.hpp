// Pre-aggregated campaign rollups: the footer of a warehouse segment.
//
// A Rollups value holds every aggregate the query layer serves — per-model
// EPR with confidence counts, per-net stuck-at-0/1 classification tallies,
// syndrome (error-pattern magnitude) histograms, and the per-outcome/class
// totals — so `gpfctl query` and gpfd's /v1/query answer without touching
// raw records. Two independent construction paths exist on purpose:
//
//  * Rollups::add(): the builder compaction folds records through one by
//    one (in ascending id order, which makes the floating-point sums
//    bit-deterministic);
//  * compute_rollups(): a separately written full-log-scan reference.
//
// The repo's acceptance invariant is that both paths agree exactly on every
// store (single, resumed, shard-merged) — asserted by test_warehouse and
// checkable in the field with `gpfctl query --verify`.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "store/bytes.hpp"
#include "store/records.hpp"
#include "store/result_log.hpp"

namespace gpf::warehouse {

/// Gate fault classes, in the same order as store export's GateSummary:
/// 0 uncontrollable, 1 hw-masked, 2 hw-hang, 3 sw-error.
constexpr std::size_t kGateClasses = 4;
const char* gate_class_name(std::size_t cls);

/// Power-of-two syndrome-magnitude buckets: bucket 0 counts zero-magnitude
/// records, bucket b counts magnitudes in [2^(b-1), 2^b).
constexpr std::size_t kSyndromeBuckets = 32;
std::size_t syndrome_bucket(std::uint64_t magnitude);
/// Upper bound (exclusive) of bucket b.
std::uint64_t syndrome_bucket_limit(std::size_t b);

/// Per-net stuck-at classification tallies (gate campaigns): how many
/// retired faults on this net fell into each class, split by stuck value.
struct NetTally {
  std::uint32_t net = 0;
  std::array<std::uint32_t, kGateClasses> sa0{};  ///< stuck-at-0 class counts
  std::array<std::uint32_t, kGateClasses> sa1{};  ///< stuck-at-1 class counts
  bool operator==(const NetTally&) const = default;
};

struct Rollups {
  store::CampaignKind kind = store::CampaignKind::Gate;
  std::uint64_t rows = 0;  ///< deduplicated records aggregated

  // --- gate ---------------------------------------------------------------
  std::array<std::uint64_t, kGateClasses> gate_classes{};
  /// Per error model: faults with >=1 occurrence (the confidence count
  /// backing the model's FAPR) and total occurrences.
  std::array<std::uint64_t, errmodel::kNumErrorModels> model_faults{};
  std::array<std::uint64_t, errmodel::kNumErrorModels> model_occurrences{};
  std::vector<NetTally> nets;  ///< sorted by net, ascending

  // --- rtl ----------------------------------------------------------------
  std::array<std::uint64_t, 4> rtl_outcomes{};  ///< store::RtlOutcome order
  std::uint64_t corrupted_total = 0;
  double per_warp_sum = 0.0;  ///< summed in ascending id order (see header)

  // --- perfi --------------------------------------------------------------
  std::array<std::uint64_t, 7> perfi_outcomes{};  ///< store::PerfiOutcome order

  // --- syndrome histogram (gate: total error occurrences per fault;
  //     rtl: corrupted outputs per injection; perfi: unused) ---------------
  std::array<std::uint64_t, kSyndromeBuckets> syndrome{};
  std::uint64_t syndrome_sum = 0;

  /// Folds one record in. Callers must feed records in ascending id order
  /// for bit-deterministic floating-point sums (compaction iterates its
  /// id-sorted map, so this holds by construction).
  void add(std::uint64_t id, std::span<const std::uint8_t> payload);

  /// Exact equality, doubles included — both construction paths sum in id
  /// order, so agreeing runs agree bit-for-bit.
  bool operator==(const Rollups&) const = default;

  // Derived ratios served by the query layer.
  double ratio(std::uint64_t k) const {
    return rows ? static_cast<double>(k) / static_cast<double>(rows) : 0.0;
  }
  std::uint64_t perfi_due() const {
    std::uint64_t n = 0;
    for (std::size_t o = 2; o < perfi_outcomes.size(); ++o)
      n += perfi_outcomes[o];
    return n;
  }
};

/// Full-scan reference: recomputes every aggregate from the raw records of a
/// loaded store. Written independently of Rollups::add so the equality
/// asserted between the two is a real cross-check, not a tautology.
Rollups compute_rollups(const store::LoadedStore& s);

/// Deterministic little-endian serialization (segment footer payload).
std::vector<std::uint8_t> encode(const Rollups& r);
Rollups decode_rollups(std::span<const std::uint8_t> bytes);
/// In-place decode for callers embedding rollups in a larger stream (the
/// segment footer); leaves the reader positioned after the rollup bytes.
Rollups decode_rollups(store::ByteReader& rd);

}  // namespace gpf::warehouse
