// Gate-level fault-injection campaign (step 2+3 of the methodology): replay
// the profiled stimulus traces on a unit netlist with one stuck-at fault at a
// time, compare the unit outputs against the fault-free run, and classify
// every divergence into the paper's instruction-level error models.
//
// Two engines, one answer: run_fault() is the oracle — the scalar Simulator
// resimulating the whole netlist per (fault, cycle) — and run_fault_batch()
// is the production bit-parallel engine (gate/batchsim.hpp), which must
// produce exactly the oracle's characterization for every fault.
// replay_faults() is the one fault loop over both that every campaign
// driver runs.
#pragma once

#include <array>
#include <bit>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "common/env.hpp"
#include "common/threadpool.hpp"
#include "errmodel/models.hpp"
#include "gate/laneword.hpp"
#include "gate/sim.hpp"
#include "gate/trace.hpp"
#include "gate/units.hpp"

namespace gpf::gate {

class BatchSim;

using gpf::EngineKind;

/// Table 4 fault classes.
enum class FaultClass : std::uint8_t { Uncontrollable, Masked, Hang, SwError };
const char* fault_class_name(FaultClass c);

struct FaultCharacterization {
  StuckFault fault;
  bool activated = false;
  bool hang = false;
  /// Issue cycles on which each error model was produced ("times an error
  /// was produced" column of Table 5).
  std::array<std::uint32_t, errmodel::kNumErrorModels> error_counts{};

  bool any_error() const {
    for (auto c : error_counts)
      if (c) return true;
    return false;
  }
  FaultClass cls() const {
    if (any_error()) return FaultClass::SwError;
    if (hang) return FaultClass::Hang;
    return activated ? FaultClass::Masked : FaultClass::Uncontrollable;
  }
  /// Number of distinct error models this single fault produced (the paper
  /// reports single faults producing multiple error types).
  unsigned distinct_models() const {
    unsigned n = 0;
    for (auto c : error_counts)
      if (c) ++n;
    return n;
  }
};

struct UnitCampaignResult {
  UnitKind unit = UnitKind::Decoder;
  std::size_t full_fault_list_size = 0;  ///< collapsed stuck-at list of the unit
  std::vector<FaultCharacterization> faults;  ///< evaluated (possibly sampled)

  std::size_t count_class(FaultClass c) const;
  /// Faults (of the evaluated set) producing error model m.
  std::size_t faults_with_model(errmodel::ErrorModel m) const;
  std::uint64_t occurrences_of_model(errmodel::ErrorModel m) const;
};

/// Classify the difference between a golden and a faulty instruction word
/// (shared by decoder-output, fetch instruction-bus, and WSC dispatch-buffer
/// classification). Adds to `counts`; returns true if any model was added.
bool classify_word_diff(std::uint64_t golden_word, std::uint64_t faulty_word,
                        std::uint32_t regs_per_thread,
                        std::array<std::uint32_t, errmodel::kNumErrorModels>& counts,
                        bool& hang);

/// The classification of every single-bit flip of the instruction words a
/// unit's traces issue: entry b of key (golden word, regs_per_thread) is
/// what classify_word_diff(golden, golden ^ (1 << b), regs) adds. A diverged
/// lane's word usually differs from golden in one bit, so the batch
/// classifier adds a lane's entry instead of decoding its word. Built once
/// per campaign from the goldens' issue cycles (UnitReplayer::
/// word_diff_table) and read-only afterwards, so replay threads share it
/// without locking.
class WordDiffTable {
 public:
  /// An entry packs a 2-bit count per error model (model m at bits 2m and
  /// 2m + 1). kPerLane marks a flip an entry cannot express (a count above
  /// 3 or a hang); such lanes take the per-lane decode.
  static constexpr std::uint32_t kPerLane = 1u << 31;
  static_assert(2 * errmodel::kNumErrorModels < 31,
                "counts fit below kPerLane");

  /// The 64 entries of (word, regs) in bit order, or nullptr when the key
  /// is not in the table.
  const std::uint32_t* find(std::uint64_t word, std::uint32_t regs) const;
  std::size_t keys() const { return keys_.size(); }

  /// Adds entry `e` (not kPerLane) to `counts`.
  static void add(
      std::uint32_t e,
      std::array<std::uint32_t, errmodel::kNumErrorModels>& counts) {
    for (; e; e &= e - 1) {
      const int b = std::countr_zero(e);
      counts[static_cast<unsigned>(b / 2)] += std::uint32_t{1} << (b % 2);
    }
  }

 private:
  friend class UnitReplayer;
  std::vector<std::pair<std::uint64_t, std::uint32_t>> keys_;  ///< sorted
  std::vector<std::uint32_t> entries_;  ///< 64 per key, in key order
};

/// Replays one unit's traces for a set of faults. Thread-safe across faults.
class UnitReplayer {
 public:
  /// Replays on the process-wide netlist of `kind` (unit_netlist()).
  explicit UnitReplayer(UnitKind kind);
  ~UnitReplayer();

  UnitKind kind() const { return kind_; }
  const Netlist& netlist() const { return *nl_; }

  /// Per-trace golden precomputation: every net's fault-free value on every
  /// cycle, bit-packed, plus per-net activation windows shared by every
  /// fault on that net.
  struct GoldenTrace {
    static constexpr std::uint32_t kNoCycle = 0xffffffffu;
    /// First/last cycle a net carries each value (kNoCycle when it never
    /// does). A stuck-at-v fault activates exactly on the cycles where the
    /// golden value is !v, so replays read their activation window straight
    /// from this table instead of rescanning the trace per fault.
    struct Window {
      std::uint32_t first0 = kNoCycle, last0 = 0;
      std::uint32_t first1 = kNoCycle, last1 = 0;
      friend bool operator==(const Window&, const Window&) = default;
    };
    std::size_t cycles = 0;     ///< rows (decoder: patterns)
    std::size_t row_words = 0;  ///< words per row: ceil(num_nets / 64)
    /// One row per cycle, row_words words each: bit n % 64 of word
    /// [cycle * row_words + n / 64] is net n's value on that cycle.
    std::vector<std::uint64_t> bits;
    std::vector<Window> windows;  ///< [net]

    GoldenRow row(std::size_t cycle) const {
      return {bits.data() + cycle * row_words};
    }
  };
  /// The production golden pass: every trace of `traces` in one run of the
  /// full gate-program stream over 64-pattern words (one pattern per bit,
  /// GateProgram::eval<std::uint64_t>). Sequential units put trace k in
  /// lane k and step to the longest trace; the combinational decoder packs
  /// (trace, pattern) pairs 64 to a word. More than 64 traces or patterns
  /// take further passes. Result [i] belongs to traces[i] and equals
  /// golden_oracle(traces[i]) bit for bit.
  std::vector<GoldenTrace> compute_goldens(
      std::span<const UnitTraces> traces) const;
  /// The golden oracle: steps the scalar Simulator through one trace, cycle
  /// by cycle, and derives the windows from a scalar scan. Tests and
  /// bench_gate_batch check compute_goldens against it; campaign code never
  /// calls it.
  GoldenTrace golden_oracle(const UnitTraces& t) const;

  /// The single-bit word-diff table of `traces` (goldens[i] computed from
  /// traces[i]): one key per distinct (golden instruction word, regs) on an
  /// issue cycle of the fetch unit's instr_out or the WSC's dispatch bus.
  /// Empty for the decoder, whose classifier reassembles words from fields.
  WordDiffTable word_diff_table(std::span<const UnitTraces> traces,
                                std::span<const GoldenTrace> goldens) const;

  /// The oracle: evaluate one fault against one trace by resimulating the
  /// full netlist per (fault, cycle) with the scalar Simulator, accumulating
  /// into `out`. Both engines stop replaying a fault once it is flagged as a
  /// hang (a hung unit makes no further progress, so later trace cycles are
  /// unreachable); a fault already hung by an earlier trace is skipped
  /// outright.
  void run_fault(const StuckFault& f, const UnitTraces& t, const GoldenTrace& g,
                 FaultCharacterization& out) const;

  /// Evaluate up to sim.width() faults simultaneously with the bit-parallel
  /// (PPSFP) engine `sim`: lane k of every net word carries the value under
  /// faults[k], and out[k] receives exactly the characterization run_fault
  /// would produce. Hung lanes are retired early and stop paying
  /// classification cost. Replaying the same fault batch against many
  /// traces through one engine lets it keep its per-batch execution plan
  /// (force ops, patched stream, fanout-cone program) across traces —
  /// begin() detects the unchanged fault set and skips the rebuild — which
  /// is how replay_faults() drives it. `words`, when given, classifies
  /// single-bit instruction-word diffs by lookup; its absent keys and a
  /// null table fall back to the per-lane decode, with identical results.
  void run_fault_batch(BatchSim& sim, std::span<const StuckFault> faults,
                       const UnitTraces& t, const GoldenTrace& g,
                       std::span<FaultCharacterization> out,
                       const WordDiffTable* words = nullptr) const;

 private:
  std::size_t num_cycles(const UnitTraces& t) const;
  template <class Sim>
  void drive_inputs(Sim& sim, const UnitTraces& t, std::size_t cycle) const;
  bool cycle_is_issue(const UnitTraces& t, std::size_t cycle) const;
  using BusReader = std::function<std::uint64_t(const PortBus&)>;
  void compare_outputs(const UnitTraces& t, std::size_t cycle,
                       GoldenRow golden_vals, const BusReader& faulty,
                       FaultCharacterization& out) const;
  /// Bit-parallel counterpart of compare_outputs for run_fault_batch: the
  /// engine supplies per-output-bus diff masks word-wide (they scale with
  /// the SIMD width), simple bus diffs map one-to-one onto error-model
  /// increments, and only instruction-word diffs — plus the decoder's
  /// field-crossing verdict — pay a scalar per-lane decode, except
  /// single-bit word diffs found in `words`. Produces exactly
  /// compare_outputs' result for every lane of `diff`; lanes it hangs are
  /// retired in `sim` and cleared from `live`.
  struct ClassifyScratch;
  void classify_batch(BatchSim& sim, const UnitTraces& t, std::size_t cycle,
                      GoldenRow golden_vals, const LaneMask& diff,
                      LaneMask& live, std::span<FaultCharacterization> out,
                      const WordDiffTable* words,
                      ClassifyScratch& scratch) const;

  std::uint64_t golden_bus(GoldenRow vals, const PortBus& bus) const;

  UnitKind kind_;
  std::shared_ptr<const Netlist> nl_;
  // Cached port handles.
  struct Ports;
  std::unique_ptr<Ports> ports_;
};

/// The fault loop behind every campaign driver (run_unit_campaign and
/// report::GateUnitRunner): replays `faults` against every trace, with
/// goldens[i] precomputed from traces[i] and `words` (may be null) the
/// word-diff table built from both, filling out[k], whose .fault must be
/// faults[k]. The batch engine runs batch-major: the faults are cut into
/// batch_lane_width() batches, and each batch replays every trace through
/// one engine, so its per-batch plan is built once (gate.cone_builds counts
/// one per batch). The brute oracle runs one fault at a time. With a pool,
/// batches (or single faults) are spread across it. `stop`, when set, is
/// polled before each one starts; `done(lo, len)`, when set, runs on the
/// thread that just finished faults [lo, lo + len).
void replay_faults(
    const UnitReplayer& replayer, EngineKind engine,
    std::span<const StuckFault> faults, std::span<const UnitTraces> traces,
    std::span<const UnitReplayer::GoldenTrace> goldens,
    const WordDiffTable* words, std::span<FaultCharacterization> out,
    ThreadPool* pool = nullptr,
    const std::function<bool()>& stop = {},
    const std::function<void(std::size_t, std::size_t)>& done = {});

/// The campaign's (possibly sampled) fault list: the full stuck-at list of
/// `nl` when `max_faults` is 0 or not smaller, else a seeded partial shuffle
/// taking `max_faults` entries — in either case sorted by topological index
/// so consecutive lane-width batches have tight, overlapping fanout cones.
/// Deterministic in (netlist, unit, max_faults, seed) — shards and resumed
/// runs regenerate the identical list, so a fault's list index is its
/// durable campaign id in the result store.
std::vector<StuckFault> sampled_fault_list(const Netlist& nl, UnitKind unit,
                                           std::size_t max_faults,
                                           std::uint64_t seed);

/// Per-net activation summary over a set of golden traces: whether each net
/// ever carries a 0 (activates s-a-1) or a 1 (activates s-a-0). Used to
/// recompute the member-specific `activated` bit when a collapsed class
/// representative's record is expanded onto its members.
struct ActivationSummary {
  explicit ActivationSummary(std::size_t num_nets)
      : ever0(num_nets, 0), ever1(num_nets, 0) {}
  /// Reads the trace's windows: O(nets), independent of its length.
  void add(const UnitReplayer::GoldenTrace& g);
  bool activated(const StuckFault& f) const {
    const auto i = static_cast<std::size_t>(f.net);
    return (f.stuck_high ? ever0[i] : ever1[i]) != 0;
  }
  std::vector<std::uint8_t> ever0, ever1;
};

/// Expand a simulated class representative's characterization onto a class
/// member: error counts and hang are observation-equivalent across the class
/// (that is what equivalence means), while `activated` is the member's own
/// site property — a hang implies activation (divergence requires it), and
/// otherwise the member's full golden scan reduces to the summary bits.
/// Produces bit-identical records to an uncollapsed run of the member.
FaultCharacterization expand_collapsed(const FaultCharacterization& rep,
                                       const StuckFault& member,
                                       const ActivationSummary& act);

/// Full campaign over (sampled) faults x traces. The engine defaults to the
/// GPF_ENGINE environment knob (batch unless overridden); with the batch
/// engine, batch_lane_width()-fault batches are distributed across the pool
/// exactly like single faults are for the brute oracle. Chunking by lane
/// width never changes record content — exports are byte-identical at any
/// width because each fault's characterization is independent of which batch
/// carried it.
UnitCampaignResult run_unit_campaign(UnitKind unit, std::span<const UnitTraces> traces,
                                     std::size_t max_faults, std::uint64_t seed,
                                     ThreadPool* pool = nullptr,
                                     EngineKind engine = campaign_engine());

}  // namespace gpf::gate
