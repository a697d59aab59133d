// Shared drivers for the gate-level experiment benches (Tables 3-5, Fig. 10):
// profiling-trace collection over the 14 micro-workloads and the per-unit
// stuck-at campaigns.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "common/env.hpp"
#include "gate/replay.hpp"
#include "gate/trace.hpp"
#include "store/checkpoint.hpp"
#include "store/records.hpp"

namespace gpf::report {

/// Run all 14 profiling workloads under the unit profiler (fault-free) and
/// harvest per-unit stimulus traces. `max_issues` caps issues per workload.
/// The runs are deterministic, so they happen once per process per
/// `max_issues`: every call returns the same shared, immutable traces, which
/// live until the process exits. Thread-safe; concurrent first callers wait
/// for one profiling run.
const std::vector<gate::UnitTraces>& collect_profiling_traces(
    std::size_t max_issues);

struct GateCampaigns {
  std::array<gate::UnitCampaignResult, 3> units;  // Decoder, Fetch, WSC order
  std::size_t total_dynamic_instructions = 0;
};

/// Run the stuck-at campaigns for the three units over the given traces
/// (run_unit_campaign per unit). `faults_per_unit` of 0 evaluates the full
/// collapsed fault list. Faults (or lane-width batches, for the batch
/// engine) are spread across a thread pool sized by GPF_THREADS; the engine
/// defaults to the GPF_ENGINE knob.
GateCampaigns run_gate_campaigns(const std::vector<gate::UnitTraces>& traces,
                                 std::size_t faults_per_unit, std::uint64_t seed,
                                 EngineKind engine = campaign_engine());

/// One unit's stuck-at campaign in memory: GateUnitRunner over every fault
/// id [0, meta.total), with result.faults[id] the result of id, inside a
/// "unit <name>" trace span. Parameters (sampled list, seed, engine) come
/// from `meta`, as for run_unit_campaign_store; faults are spread across
/// `pool` when given.
gate::UnitCampaignResult run_unit_campaign(
    const std::vector<gate::UnitTraces>& traces, const store::CampaignMeta& meta,
    ThreadPool* pool = nullptr);

/// Store header for one unit's stuck-at campaign. `faults_per_unit` of 0
/// evaluates the full collapsed list; `total` is resolved against the unit
/// netlist so every shard/resume agrees on the fault-id space.
store::CampaignMeta gate_campaign_meta(gate::UnitKind unit,
                                       std::size_t faults_per_unit,
                                       std::size_t max_issues, std::uint64_t seed,
                                       EngineKind engine,
                                       std::uint32_t shard_index = 0,
                                       std::uint32_t shard_count = 1);

/// The engine a gate campaign with this header runs. The engine byte comes
/// from a .gpfs header or a LeaseGrant, so it is checked, not cast: Brute
/// runs the oracle, Batch and 0xFF (what a merge of mixed-engine shards
/// writes) run the batch engine, and any other byte — including 1, the
/// removed event engine — throws std::runtime_error naming the byte.
EngineKind gate_campaign_engine(const store::CampaignMeta& meta);

/// The unit a gate campaign with this header targets. The target byte comes
/// from a .gpfs header or a LeaseGrant, so it is checked, not cast: any byte
/// but 0 (decoder), 1 (fetch) or 2 (WSC) throws std::runtime_error naming
/// the byte. Every gate entry point that reads a header decodes the unit
/// through this.
gate::UnitKind gate_campaign_unit(const store::CampaignMeta& meta);

/// Durable variant of run_unit_campaign: the faults of each retired batch
/// are appended to `ckpt` with one write as the batch completes (a
/// lane-width batch of the batch engine, one fault of the brute engine),
/// faults already in the store are restored instead
/// of re-simulated (resume), and only fault ids owned by the checkpoint's
/// shard slice are evaluated. Campaign parameters (sampled list, seed,
/// engine) come from the checkpoint's meta. The returned result holds this
/// shard's faults in id order; when ckpt.paused() the tail is unevaluated.
gate::UnitCampaignResult run_unit_campaign_store(
    const std::vector<gate::UnitTraces>& traces, store::CampaignCheckpoint& ckpt,
    ThreadPool* pool = nullptr);

/// Conversions between the gate library's per-fault result and the stored
/// record (shared by the checkpointed driver and the fleet worker).
store::GateRecord to_gate_record(const gate::FaultCharacterization& fc);
void apply_gate_record(const store::GateRecord& r,
                       gate::FaultCharacterization& fc);

/// Number of equivalence-class representatives actually simulated for a gate
/// campaign's fault-id space: the unique structural-collapse representatives
/// of the sampled fault list (= meta.total when GPF_COLLAPSE is off). Reads
/// the shared unit netlist but needs no traces, so status tooling can call
/// it.
std::size_t gate_campaign_representatives(const store::CampaignMeta& meta);

/// The fault list a gate campaign's ids index: fault id i is element i of
/// the unit's sampled list (meta.param0 faults, or the full list, drawn with
/// meta.seed). Throws std::runtime_error when the header names no unit or
/// when meta.total is not that list's size; the list is bounded by the
/// netlist, never by a header field.
std::vector<gate::StuckFault> gate_campaign_faults(
    const store::CampaignMeta& meta);

/// Lease units over a gate campaign's `ids` (ascending campaign fault ids):
/// the end index in `ids` of each unit, in order. Walking the ids, a unit
/// closes just before the id that would bring in a (max_reps + 1)-th
/// distinct collapse representative, so each unit holds at most max_reps
/// representatives and every unit but the last exactly that many: a unit
/// of max_reps = gate::kWidestBatchLanes fills whole batches at any lane
/// width once GateUnitRunner collapses it. With GPF_COLLAPSE off every id
/// is its own representative and units are max_reps ids. The class map is
/// the one GateUnitRunner uses (gate_campaign_faults, gate::unit_collapse);
/// throws like gate_campaign_faults.
std::vector<std::size_t> gate_unit_ends(const store::CampaignMeta& meta,
                                        std::span<const std::uint64_t> ids,
                                        std::size_t max_reps);

/// Work-unit adapter for lease-based dispatch: resolves a gate campaign's
/// fault-id space once (netlist, sampled fault list, golden traces), then
/// evaluates arbitrary id subsets on demand. Because fault id -> StuckFault
/// is a pure function of the campaign meta, any process evaluating id i
/// produces the identical record — the fleet's byte-identical-export
/// invariant. With GPF_COLLAPSE on, each run() groups its ids by structural
/// equivalence class, simulates one representative per class, and expands
/// the record onto every member id — the emitted records are bit-identical
/// to an uncollapsed run, so the invariant survives collapsing. Each
/// construction records its duration in the gate.runner_setup_us histogram.
class GateUnitRunner {
 public:
  using Emit =
      std::function<void(std::uint64_t, const gate::FaultCharacterization&)>;
  /// One retired batch: results[i] is the result of ids[i].
  using EmitBatch =
      std::function<void(std::span<const std::uint64_t> ids,
                         std::span<const gate::FaultCharacterization> results)>;

  GateUnitRunner(const std::vector<gate::UnitTraces>& traces,
                 const store::CampaignMeta& meta);

  const std::vector<gate::StuckFault>& faults() const { return faults_; }
  std::size_t full_fault_list_size() const { return full_fault_list_size_; }
  /// Equivalence-class representatives across the whole campaign fault list
  /// (= faults().size() when collapsing is off).
  bool collapsed() const { return collapse_; }
  std::size_t representative_count() const { return rep_count_; }

  /// Evaluates `ids` (campaign fault ids, each < meta.total), invoking
  /// emit(id, result) as each fault retires. Runs gate::replay_faults: one
  /// engine per lane-width batch (batch engine) or one fault at a time
  /// (brute); with a pool these are spread across it and emit must be
  /// thread-safe. `stop`, when set, is polled between batches for
  /// cooperative cancellation (already-started batches still emit).
  void run(std::span<const std::uint64_t> ids, const Emit& emit,
           ThreadPool* pool = nullptr,
           const std::function<bool()>& stop = {}) const;

  /// run(), reporting each retired batch once: emit(ids, results) gets the
  /// ids of the batch's jobs (collapsed members included) and their
  /// results. run() is this with a per-id loop; the store driver uses it
  /// to append each batch with one write.
  void run_batches(std::span<const std::uint64_t> ids, const EmitBatch& emit,
                   ThreadPool* pool = nullptr,
                   const std::function<bool()>& stop = {}) const;

 private:
  /// Construction start, declared first so the gate.runner_setup_us sample
  /// covers every member initializer (the unit netlist build included).
  std::chrono::steady_clock::time_point setup_start_ =
      std::chrono::steady_clock::now();
  const std::vector<gate::UnitTraces>& traces_;
  EngineKind engine_;
  gate::UnitReplayer replayer_;
  std::vector<gate::StuckFault> faults_;
  std::vector<gate::UnitReplayer::GoldenTrace> goldens_;
  gate::WordDiffTable words_;  ///< single-bit word diffs of goldens_
  std::size_t full_fault_list_size_ = 0;
  bool collapse_ = false;
  std::vector<gate::StuckFault> rep_of_id_;  ///< class rep per campaign id
  std::size_t rep_count_ = 0;
  gate::ActivationSummary act_{0};  ///< golden activation bits (collapse only)
};

}  // namespace gpf::report
