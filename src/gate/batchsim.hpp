// N-way bit-parallel stuck-at fault simulation (PPSFP), the production gate
// engine; the scalar Simulator (sim.hpp) is the oracle it must match lane
// for lane. Every net carries an
// N-bit SIMD word whose lane k is the net's value under fault k, so one
// levelized pass over the netlist advances N fault machines at once using
// plain bitwise ops. Stuck-at overlays are per-lane force masks: a forced
// gate output takes its force from a force op placed in the batch's own copy
// of the stream, and a forced source net (input, constant, DFF output) takes
// it from the code that writes that net — an input when its value changes, a
// constant once per begin(), a DFF output in the store of a latching enable
// group — so nothing re-forces a source net on a cycle that did not write it
// (batchsim_impl.hpp). DFF clocking mirrors Simulator::clock() with a
// word-wide enable mux, one enable read per group of DFFs sharing an enable
// net, skipping a group no live lane enables. Lanes outside lane_mask() —
// the unfilled lanes of a ragged final batch and retired lanes — hold
// unspecified values, and every lane read that reports a mask (diffs, bus
// values, activation) leaves them out.
//
// The engine is templated over LaneWord<N> (laneword.hpp) and built three
// times: N = 64 (scalar uint64_t baseline), N = 256 (AVX2 ymm) and N = 512
// (AVX-512 zmm), each in its own translation unit compiled with the matching
// -m flags. Callers never name a width: make_batch_sim() runtime-dispatches
// to the widest path the CPU supports (cpuid) unless GPF_LANES pins one, and
// every mask crossing the BatchSim interface is a width-agnostic LaneMask. Record synthesis is per-fault, so campaign
// stores and exports are byte-identical at any width.
//
// Fanout-cone pruning (GPF_CONE, default on): a batch's N faults can only
// perturb nets in the union fanout cone of their sites, so eval_cone() word-
// evaluates just the in-cone gates and refreshes the "frontier" — out-of-cone
// nets read by in-cone gates/DFFs plus the observed outputs — by broadcasting
// the golden snapshot of the cycle. clock() and state_diff_lanes() restrict
// themselves to the cone once it is live, which is
// exact: an out-of-cone net equals the golden machine in every lane by
// construction. The replay loop opts in per batch via cone_active().
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "gate/laneword.hpp"
#include "gate/netlist.hpp"
#include "gate/sim.hpp"

namespace gpf::gate {

/// Width-agnostic interface of the batch engine. One instance simulates up
/// to width() faults per begin(); all lane masks are LaneMask so callers are
/// independent of the dispatched SIMD path.
class BatchSim {
 public:
  virtual ~BatchSim() = default;

  /// Lanes per batch: 64 (scalar), 256 (AVX2) or 512 (AVX-512).
  virtual std::size_t width() const = 0;
  /// Human-readable SIMD path for logs: "scalar64" | "avx2x256" | "avx512x512".
  virtual const char* path_name() const = 0;

  /// Install up to width() faults (lane k carries faults[k]) and reset state.
  virtual void begin(std::span<const StuckFault> faults) = 0;
  virtual std::size_t num_lanes() const = 0;
  /// Mask with one bit set per installed lane that is not retired.
  virtual LaneMask lane_mask() const = 0;

  /// Nets the caller will read through diff_observed()/bus_value() for
  /// classification. Must be set before begin() for cone pruning to keep
  /// them refreshed; survives across begin() calls.
  virtual void set_observed(std::span<const Net> nets) = 0;
  /// True when eval_cone() should be used for the current batch (GPF_CONE on
  /// and at least one fault installed).
  virtual bool cone_active() const = 0;

  /// Broadcast a full golden net-value snapshot into every lane (sequential
  /// replays start at the first activating cycle, like Simulator::load_values);
  /// forced source nets take their force again.
  /// Every golden argument below is one packed row of the cycle's golden
  /// trace (UnitReplayer::GoldenTrace::row).
  virtual void load_broadcast(GoldenRow vals) = 0;
  /// Drive every input net to its value in `golden`, broadcast to all lanes.
  /// Only inputs whose value differs from the one last written (by this
  /// call, load_broadcast() or begin()'s zero) are rewritten, and a
  /// rewritten forced input takes its force. A replay passes the cycle's
  /// golden row: its input nets hold exactly what the trace drives. Bits of
  /// other nets are not read.
  virtual void set_inputs(GoldenRow golden) = 0;
  /// Settle combinational logic. Source nets already carry their forces;
  /// forced gate outputs take theirs from the batch's force ops.
  virtual void eval() = 0;
  /// Cone-pruned eval: word-evaluate only gates in the union fanout cone of
  /// the batch's fault sites; frontier nets take this cycle's golden value.
  virtual void eval_cone(GoldenRow golden) = 0;
  /// Latch DFFs from current values (call after eval()/eval_cone()).
  virtual void clock() = 0;

  /// Value of net `n` in one lane. Exact for output-bus nets, DFF pins and
  /// nets declared via set_observed(); the optimized engine may rename or
  /// skip other interior nets, so probe sets must be declared up front.
  /// Unspecified for a lane outside lane_mask().
  virtual bool value(Net n, unsigned lane) const = 0;
  /// Bus value seen by one lane.
  virtual std::uint64_t bus_value(const PortBus& bus, unsigned lane) const = 0;
  /// Bus values for every lane of `lanes` at once: out[k] (indexed by lane)
  /// receives the lane's value, and the returned mask holds the lanes whose
  /// value differs from `golden_value` (the golden snapshot's bus value).
  /// Each lane's word is built as golden ^ per-lane diff, so bus nets that
  /// match the golden broadcast — almost all of them, for a single stuck-at —
  /// cost one word XOR shared by the whole batch and no per-lane work. This
  /// is what keeps wide-batch classification from degenerating into
  /// width-invariant per-lane bit gathering.
  virtual LaneMask bus_values(const PortBus& bus, GoldenRow golden,
                              const LaneMask& lanes, std::uint64_t golden_value,
                              std::span<std::uint64_t> out) const = 0;

  /// Lanes whose value on any of `nets` differs from the golden snapshot.
  virtual LaneMask diff_lanes(std::span<const Net> nets,
                              GoldenRow golden) const = 0;
  /// diff_lanes over the set_observed() nets — cone-restricted when live
  /// (out-of-cone observed nets carry the golden value by construction).
  virtual LaneMask diff_observed(GoldenRow golden) const = 0;
  /// Lanes whose DFF state differs from the golden snapshot (used for the
  /// all-quiet early exit of sequential replays).
  virtual LaneMask state_diff_lanes(GoldenRow golden) const = 0;

  /// Lanes whose fault the golden row activates: the fault site's golden
  /// value differs from its stuck value. One word-wide pass over the batch's
  /// force masks; unfilled and retired lanes are never in it.
  virtual LaneMask activated_lanes(GoldenRow golden) const = 0;

  /// Retire a lane: it leaves lane_mask(), and with it every mask the reads
  /// above report. Nothing else changes — the lane keeps its fault and goes
  /// on computing, so its values are unspecified from here on. Used to stop
  /// classifying hung faults early.
  virtual void retire_lane(unsigned lane) = 0;

  /// Gates word-evaluated per cycle by eval_cone() for the current batch
  /// (builds the cone if needed). Benches report the in-cone fraction as
  /// cone_gate_count() / total_gate_count().
  virtual std::size_t cone_gate_count() = 0;
  virtual std::size_t total_gate_count() const = 0;
};

/// The widest lane word any build dispatches (AVX-512). Every supported
/// width divides it, so a run of this many faults fills whole batches at
/// 64, 256 and 512 lanes alike.
inline constexpr std::size_t kWidestBatchLanes = LaneMask::kMaxLanes;

/// True when this build compiled the width AND this CPU can execute it
/// (64 is always supported; 256 needs AVX2, 512 needs AVX-512F).
bool batch_width_supported(std::size_t lanes);

/// The dispatched lane width every batch campaign partitions by:
/// set_batch_lanes_override > GPF_LANES > widest CPU-supported.
std::size_t batch_lane_width();

/// SIMD-path name for a lane width ("scalar64" | "avx2x256" | "avx512x512").
const char* batch_simd_path(std::size_t lanes);

/// Process-wide width pin for tests/benches (0 = clear, defer to env/CPU
/// dispatch). Throws std::invalid_argument if the width is unsupported.
void set_batch_lanes_override(std::size_t lanes);

/// Engine at the dispatched width (also publishes the gate.batch.lanes gauge).
std::unique_ptr<BatchSim> make_batch_sim(const Netlist& nl);
/// Engine at an explicit width; throws std::invalid_argument if unsupported.
std::unique_ptr<BatchSim> make_batch_sim(const Netlist& nl, std::size_t lanes);

}  // namespace gpf::gate
