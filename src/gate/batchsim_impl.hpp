// Template implementation of the PPSFP batch engine over LaneWord<N>. This
// header is included ONLY by the per-width translation units
// (batchsim{64,256,512}.cpp), each compiled with the matching target flags —
// never by general code. That containment is what makes per-TU -mavx2 /
// -mavx512f safe: wide vector code exists solely in TUs guarded by the
// runtime cpuid dispatch in batchsim.cpp, so a pre-AVX2 machine never
// executes (or even links in statically-chosen copies of) ymm/zmm code.
//
// The engine runs the optimized gate program (gate/gateprog.hpp) in one of
// two modes:
//
//   full    GPF_FUSE=0: the 1:1 instruction stream, direct-threaded
//           (computed goto), stuck-at forces applied as sparse fixups
//           between instructions instead of per store.
//   fused   GPF_FUSE=1 (default): the folded/fused/DCE'd/vreg-renamed
//           stream, optionally JIT-compiled to native code (GPF_JIT).
//
// Exactness of the fused mode under arbitrary fault sites, per batch:
//   - a forced net the stream writes (own index or vreg slot) gets a fixup
//     right after the writing instruction — exact because the stream is
//     levelized (all consumers run later);
//   - a forced interior of a fused superop re-expands that superop to its
//     original slots for the batch (patch), materializing the site;
//   - a forced net whose constant value folding consumed re-expands every
//     folded op (patch), restoring the original data flow;
//   - a forced dead net needs nothing: no live net depends on it, so every
//     classification read (observed buses, DFF state) is untouched — the
//     same Benign/Latent outcome the unoptimized engine computes.
//   - an observed net the fused stream doesn't keep value-exact pins the
//     instance to the full stream (only exotic tests observe non-bus nets).
// JIT full evaluation is used for a batch when its fanout cone would not
// prune enough to beat native straight-line code; patched batches always
// interpret.
#pragma once

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "common/env.hpp"
#include "gate/batchsim.hpp"
#include "gate/compiled.hpp"
#include "gate/gateprog.hpp"
#include "gate/jit.hpp"
#include "obs/metrics.hpp"

namespace gpf::gate {

template <unsigned N>
class BatchFaultSimT final : public BatchSim {
 public:
  using W = LaneWord<N>;
  static constexpr std::size_t kLanes = N;
  // Below this in-cone fraction the interpreted cone program beats JIT'd
  // full evaluation; above it, native straight-line code wins.
  static constexpr double kJitConeThreshold = 0.35;
  // The interpreter keeps its cone longer than the JIT (its per-op cost is
  // higher, so skipped ops are worth more), but once the union cone covers
  // most of the netlist the per-cycle frontier refresh and cone-restricted
  // bookkeeping cost more than the out-of-cone ops they avoid.
  static constexpr double kInterpConeThreshold = 0.55;

  explicit BatchFaultSimT(const Netlist& nl)
      : nl_(nl),
        cn_(nl.compiled()),
        gp_(nl.program()),
        mode_(gpf::fuse_enabled() ? Mode::Fused : Mode::Full),
        base_(mode_ == Mode::Fused ? &gp_.fused : &gp_.full),
        num_nets_(nl.num_nets()),
        val_(gp_.storage_size, W::zero()),
        force0_(num_nets_, W::zero()),
        force1_(num_nets_, W::zero()),
        forced_flag_(num_nets_, 0),
        dff_next_(nl.dffs().size(), W::zero()),
        cone_enabled_(gpf::cone_enabled()) {
    if (!nl.finalized()) throw std::logic_error("netlist not finalized");
    jit_ = jit_module(gp_, *base_, N);
    // Latch-order partition: only a DFF whose out net feeds another DFF's
    // D/EN pin needs the two-phase (compute-all-then-store) latch; the rest
    // can compute and store in one pass, saving a word load+store per DFF
    // per clock. Reading any dff out during phase A still sees the
    // pre-clock value, because direct stores touch only nets no DFF reads.
    dff_deferred_flag_.assign(cn_.dff_out.size(), 0);
    {
      std::vector<std::uint8_t> is_pin(num_nets_, 0);
      for (std::size_t i = 0; i < cn_.dff_out.size(); ++i) {
        if (cn_.dff_d[i] != kNoNet)
          is_pin[static_cast<std::size_t>(cn_.dff_d[i])] = 1;
        if (cn_.dff_en[i] != kNoNet)
          is_pin[static_cast<std::size_t>(cn_.dff_en[i])] = 1;
      }
      for (std::size_t i = 0; i < cn_.dff_out.size(); ++i) {
        dff_deferred_flag_[i] =
            is_pin[static_cast<std::size_t>(cn_.dff_out[i])];
        (dff_deferred_flag_[i] ? dff_deferred_ : dff_direct_)
            .push_back(static_cast<std::uint32_t>(i));
      }
    }
  }

  std::size_t width() const override { return kLanes; }
  const char* path_name() const override { return batch_simd_path(kLanes); }
  const char* engine_desc() const override {
    if (mode_ == Mode::Fused) return jit_ ? "fused+jit" : "fused";
    return jit_ ? "full+jit" : "full";
  }

  void begin(std::span<const StuckFault> faults) override {
    if (faults.size() > kLanes)
      throw std::invalid_argument("more faults than batch lanes");
    // Batch occupancy: lanes/width per begin(); one begin per (batch, trace).
    static obs::Counter& batches = obs::counter("gate.batches");
    static obs::Counter& lanes = obs::counter("gate.batch_lanes");
    batches.add(1);
    lanes.add(faults.size());
    // Plan reuse: the campaign driver replays the same fault batch against
    // every trace through one engine. The per-batch plan — fixups, patched
    // stream, cone program — depends only on the fault set, so an unchanged
    // set keeps it.
    const bool same_faults =
        plan_ready_ && faults.size() == prev_faults_.size() &&
        std::equal(faults.begin(), faults.end(), prev_faults_.begin(),
                   [](const StuckFault& x, const StuckFault& y) {
                     return x.net == y.net && x.stuck_high == y.stuck_high;
                   });
    if (!same_faults) prev_faults_.assign(faults.begin(), faults.end());
    for (const Net n : forced_nets_) {
      force0_[static_cast<std::size_t>(n)] = W::zero();
      force1_[static_cast<std::size_t>(n)] = W::zero();
      forced_flag_[static_cast<std::size_t>(n)] = 0;
    }
    forced_nets_.clear();
    source_sites_.clear();
    sites_.clear();
    lane_mask_ = W::zero();
    // The cone is per-batch: invalidated on a fault-set change, kept (with
    // the rest of the plan) when the same batch replays another trace.
    if (!same_faults) {
      cone_built_ = false;
      cone_eval_live_ = false;
    }
    std::fill(val_.begin(), val_.end(), W::zero());

    for (std::size_t k = 0; k < faults.size(); ++k) {
      const StuckFault& f = faults[k];
      const auto site = static_cast<std::size_t>(f.net);
      sites_.push_back(f.net);
      lane_mask_.set(static_cast<unsigned>(k));
      if (!force0_[site].any() && !force1_[site].any()) {
        forced_nets_.push_back(f.net);
        forced_flag_[site] = 1;
      }
      (f.stuck_high ? force1_ : force0_)[site].set(static_cast<unsigned>(k));
      const GateKind kind = nl_.gate(f.net).kind;
      if (kind == GateKind::Input || kind == GateKind::Const0 ||
          kind == GateKind::Const1 || kind == GateKind::Dff)
        source_sites_.push_back(f.net);
    }
    if (!same_faults) {
      plan_batch();
      plan_ready_ = true;
    }
    static obs::Counter& jit_batches = obs::counter("gate.jit.batches");
    static obs::Counter& patch_batches = obs::counter("gate.patched_batches");
    if (use_jit_) jit_batches.add(1);
    if (patched_) patch_batches.add(1);
  }

  std::size_t num_lanes() const override { return sites_.size(); }
  LaneMask lane_mask() const override { return lane_mask_.to_mask(); }

  void set_observed(std::span<const Net> nets) override {
    if (!std::equal(nets.begin(), nets.end(), observed_.begin(),
                    observed_.end()))
      plan_ready_ = false;  // the plan's stream choice depends on this set
    observed_.assign(nets.begin(), nets.end());
    observed_exact_ = true;
    for (const Net n : observed_)
      if (!gp_.value_exact(n)) observed_exact_ = false;
  }
  bool cone_active() const override {
    return cone_enabled_ && lane_mask_.any() && !use_jit_ && !skip_cone_;
  }

  void load_broadcast(GoldenRow vals) override {
    for (std::size_t i = 0; i < num_nets_; ++i) val_[i] = W::broadcast(vals[i]);
  }

  void set_bus(const PortBus& bus, std::uint64_t value) override {
    for (std::size_t i = 0; i < bus.nets.size(); ++i)
      val_[static_cast<std::size_t>(bus.nets[i])] =
          W::broadcast((value >> i) & 1);
  }

  void eval() override {
    for (const auto& [n, v] : nl_.constants())
      val_[static_cast<std::size_t>(n)] = W::broadcast(v);
    apply_source_overlays();
    if (use_jit_) {
      jit_eval();
    } else {
      run_code(active_code_.data(), active_code_.size(),
               std::span<const Fixup>(fixups_), GoldenRow{});
    }
  }

  /// Refresh the out-of-cone values the cone code reads. Frontier nets are
  /// never fault sites (every site seeds the cone BFS) and are only ever
  /// written by whole-word broadcasts, so their lanes stay uniform — one
  /// chunk identifies the current value and most cycles skip the store.
  void refresh_frontier(GoldenRow golden) {
    for (const Net n : frontier_) {
      const auto i = static_cast<std::size_t>(n);
      const std::uint64_t want = golden[i] ? ~std::uint64_t{0} : 0;
      if (val_[i].v[0] != want) val_[i] = W::broadcast(golden[i]);
    }
  }

  void eval_cone(GoldenRow golden) override {
    // Only here does cone-restricted EVAL go live: clock() may skip
    // out-of-cone DFFs solely because this path never recomputes their
    // inputs. A caller that sticks to plain eval() keeps full latching even
    // though the cone sets exist for the diff/retire read restrictions.
    cone_eval_live_ = true;
    ensure_cone_program();
    refresh_frontier(golden);
    apply_source_overlays();
    run_code(cone_code_.data(), cone_code_.size(),
             std::span<const Fixup>(cone_fixups_), golden);
  }

  void clock() override {
    if (cone_eval_live_) {
      // Out-of-cone DFFs cannot diverge (all their pins carry golden values),
      // and their words are refreshed through the frontier when read — so only
      // in-cone registers need latching at all.
      for (const std::uint32_t i : cone_dffs_def_) latch(i);
      for (const std::uint32_t i : cone_dffs_dir_) latch_direct(i);
      for (const std::uint32_t i : cone_dffs_def_)
        val_[static_cast<std::size_t>(cn_.dff_out[i])] = dff_next_[i];
      apply_source_overlays();
      return;
    }
    for (const std::uint32_t i : dff_deferred_) latch(i);
    for (const std::uint32_t i : dff_direct_) latch_direct(i);
    for (const std::uint32_t i : dff_deferred_)
      val_[static_cast<std::size_t>(cn_.dff_out[i])] = dff_next_[i];
    apply_source_overlays();
  }

  bool value(Net n, unsigned lane) const override {
    return val_[static_cast<std::size_t>(n)].test(lane);
  }

  std::uint64_t bus_value(const PortBus& bus, unsigned lane) const override {
    std::uint64_t v = 0;
    for (std::size_t i = 0; i < bus.nets.size(); ++i)
      if (value(bus.nets[i], lane)) v |= std::uint64_t{1} << i;
    return v;
  }

  LaneMask bus_values(const PortBus& bus, GoldenRow golden,
                      const LaneMask& lanes, std::uint64_t golden_value,
                      std::span<std::uint64_t> out) const override {
    const W sel = W::from_mask(lanes) & lane_mask_;
    if (!sel.any()) return {};
    for_each_lane(lanes, [&](unsigned k) { out[k] = golden_value; });
    W diff = W::zero();
    for (std::size_t i = 0; i < bus.nets.size(); ++i) {
      const auto n = static_cast<std::size_t>(bus.nets[i]);
      const W d = (val_[n] ^ W::broadcast(golden[n])) & sel;
      if (!d.any()) continue;
      diff |= d;
      const std::uint64_t bit = std::uint64_t{1} << i;
      for_each_lane(d.to_mask(), [&](unsigned k) { out[k] ^= bit; });
    }
    return diff.to_mask();
  }

  LaneMask diff_lanes(std::span<const Net> nets,
                      GoldenRow golden) const override {
    W m = W::zero();
    for (const Net n : nets) {
      const auto i = static_cast<std::size_t>(n);
      m |= val_[i] ^ W::broadcast(golden[i]);
    }
    return (m & lane_mask_).to_mask();
  }

  LaneMask diff_observed(GoldenRow golden) const override {
    // Divergence is confined to the fan-out cone no matter how values are
    // computed (forces only exist at in-cone sites), so the read restriction
    // applies whenever the sets exist — even under full-stream JIT eval.
    return diff_lanes(cone_built_ ? std::span<const Net>(observed_cone_)
                                  : std::span<const Net>(observed_),
                      golden);
  }

  LaneMask state_diff_lanes(GoldenRow golden) const override {
    W m = W::zero();
    if (cone_built_) {
      for (const std::uint32_t di : cone_dffs_) {
        const auto i = static_cast<std::size_t>(cn_.dff_out[di]);
        m |= val_[i] ^ W::broadcast(golden[i]);
      }
      return (m & lane_mask_).to_mask();
    }
    for (const Net n : nl_.dffs()) {
      const auto i = static_cast<std::size_t>(n);
      m |= val_[i] ^ W::broadcast(golden[i]);
    }
    return (m & lane_mask_).to_mask();
  }

  void retire_lane(unsigned lane, GoldenRow golden) override {
    const auto site = static_cast<std::size_t>(sites_[lane]);
    force0_[site].clear(lane);
    force1_[site].clear(lane);
    lane_mask_.clear(lane);
    const W bit = W::bit(lane);
    const W keep = ~bit;
    if (cone_built_) {
      // Out-of-cone nets already track the golden machine in every lane.
      for (const Net n : cone_nets_) {
        const auto i = static_cast<std::size_t>(n);
        val_[i] = (val_[i] & keep) | (W::broadcast(golden[i]) & bit);
      }
      return;
    }
    // vreg tail slots (beyond num_nets_) need no reset: every vreg is
    // written before it is read within each eval pass.
    for (std::size_t i = 0; i < num_nets_; ++i)
      val_[i] = (val_[i] & keep) | (W::broadcast(golden[i]) & bit);
  }

  std::size_t cone_gate_count() override {
    if (!cone_enabled_ || !lane_mask_.any() || use_jit_ || skip_cone_)
      return cn_.num_slots();
    ensure_cone_program();
    return cone_covered_;
  }

  std::size_t total_gate_count() const override { return cn_.num_slots(); }

 private:
  enum class Mode : std::uint8_t { Full, Fused };

  /// A pending stuck-at overlay: applied to storage index `storage` right
  /// after instruction `pos` of the active code, using net `net`'s force
  /// masks. Forces stay indexed by NET (not storage) so a reused vreg slot
  /// shared by two forced nets cannot cross-contaminate.
  struct Fixup {
    std::uint32_t pos;
    std::uint32_t storage;
    Net net;
  };

  void latch(std::uint32_t i) {
    const Net en_n = cn_.dff_en[i];
    const W en =
        en_n == kNoNet ? W::ones() : val_[static_cast<std::size_t>(en_n)];
    const W cur = val_[static_cast<std::size_t>(cn_.dff_out[i])];
    const Net d_n = cn_.dff_d[i];
    const W d = d_n == kNoNet ? cur : val_[static_cast<std::size_t>(d_n)];
    dff_next_[i] = (en & d) | (~en & cur);
  }

  /// Single-pass latch for DFFs no other DFF reads: compute and store.
  void latch_direct(std::uint32_t i) {
    const Net en_n = cn_.dff_en[i];
    const W en =
        en_n == kNoNet ? W::ones() : val_[static_cast<std::size_t>(en_n)];
    W& out = val_[static_cast<std::size_t>(cn_.dff_out[i])];
    const Net d_n = cn_.dff_d[i];
    const W d = d_n == kNoNet ? out : val_[static_cast<std::size_t>(d_n)];
    out = (en & d) | (~en & out);
  }

  void overlay(std::uint32_t storage, Net net) {
    const auto f = static_cast<std::size_t>(net);
    val_[storage] = (val_[storage] & ~force0_[f]) | force1_[f];
  }

  void apply_source_overlays() {
    for (const Net n : source_sites_) {
      const auto i = static_cast<std::size_t>(n);
      val_[i] = (val_[i] & ~force0_[i]) | force1_[i];
    }
  }

  // ---- per-batch execution plan ------------------------------------------

  void plan_batch() {
    use_jit_ = false;
    patched_ = false;
    const Stream* S = base_;
    if (mode_ == Mode::Fused) {
      if (!observed_exact_) {
        S = &gp_.full;  // exotic observed set: run the exact 1:1 stream
      } else {
        patch_ops_.clear();
        bool fold_patch = false;
        for (const Net n : forced_nets_) {
          const std::uint8_t fl = gp_.net_flags[static_cast<std::size_t>(n)];
          if (fl & kNetFoldedUse) fold_patch = true;
          if (fl & kNetInterior)
            patch_ops_.push_back(gp_.head_of[static_cast<std::size_t>(n)]);
        }
        if (fold_patch)
          for (std::size_t i = 0; i < gp_.fused.meta.size(); ++i)
            if (gp_.fused.meta[i].folded)
              patch_ops_.push_back(static_cast<std::uint32_t>(i));
        if (!patch_ops_.empty()) build_patch();
      }
    }
    active_stream_ = patched_ ? nullptr : S;
    if (!patched_) {
      active_code_ = S->code;
      active_meta_ = S->meta;
      fixups_.clear();
      for (const Net n : forced_nets_) {
        const std::uint32_t w = S->write_op[static_cast<std::size_t>(n)];
        if (w != kNoOp) fixups_.push_back(Fixup{w, S->code[w].out, n});
      }
      std::sort(fixups_.begin(), fixups_.end(),
                [](const Fixup& x, const Fixup& y) { return x.pos < y.pos; });
    }
    // JIT'd full evaluation versus interpreted cone program: only the
    // unpatched base stream has compiled code, and it only wins when the
    // union cone is a large fraction of the netlist.
    if (jit_ && !patched_ && S == base_) {
      if (!cone_enabled_ || !lane_mask_.any()) {
        use_jit_ = true;
      } else {
        ensure_cone_program();
        use_jit_ = static_cast<double>(cone_covered_) >=
                   kJitConeThreshold * static_cast<double>(cn_.num_slots());
      }
    }
    // Same call for the interpreter at a higher threshold: a cone covering
    // most of the netlist is pure overhead, so run the plain active stream.
    skip_cone_ = false;
    if (!use_jit_ && cone_enabled_ && lane_mask_.any()) {
      ensure_cone_program();
      skip_cone_ = static_cast<double>(cone_covered_) >=
                   kInterpConeThreshold * static_cast<double>(cn_.num_slots());
    }
  }

  /// Rebuilds the fused stream for this batch with the ops in patch_ops_
  /// re-expanded to their original compiled slots (gateprog.cpp::expand_op),
  /// so every fault site this batch forces is materialized at a fixup-able
  /// storage index.
  void build_patch() {
    patched_ = true;
    std::sort(patch_ops_.begin(), patch_ops_.end());
    patch_ops_.erase(std::unique(patch_ops_.begin(), patch_ops_.end()),
                     patch_ops_.end());
    patch_code_.clear();
    patch_meta_.clear();
    std::size_t pi = 0;
    for (std::size_t i = 0; i < gp_.fused.code.size(); ++i) {
      if (pi < patch_ops_.size() && patch_ops_[pi] == i) {
        expand_op(gp_, gp_.fused, static_cast<std::uint32_t>(i), patch_code_,
                  patch_meta_);
        ++pi;
      } else {
        patch_code_.push_back(gp_.fused.code[i]);
        patch_meta_.push_back(gp_.fused.meta[i]);
      }
    }
    active_code_ = patch_code_;
    active_meta_ = patch_meta_;
    fixups_.clear();
    for (std::size_t i = 0; i < patch_meta_.size(); ++i)
      if (forced_flag_[static_cast<std::size_t>(patch_meta_[i].out_net)])
        fixups_.push_back(Fixup{static_cast<std::uint32_t>(i),
                                patch_code_[i].out, patch_meta_[i].out_net});
  }

  void jit_eval() {
    W* const v = val_.data();
    std::size_t fi = 0;
    const std::size_t nfix = fixups_.size();
    // fixups_ is in stream order, which is level order.
    for (std::size_t l = 1; l < jit_->levels.size(); ++l) {
      if (const JitModule::LevelFn fn = jit_->levels[l]) fn(v);
      while (fi < nfix &&
             static_cast<std::size_t>(
                 active_meta_[fixups_[fi].pos].level) == l) {
        overlay(fixups_[fi].storage, fixups_[fi].net);
        ++fi;
      }
    }
  }

  // ---- direct-threaded interpreter ---------------------------------------

  /// `golden` feeds the cone program's Mat ops (eval_cone only).
  void run_code(const Instr* code, std::size_t n, std::span<const Fixup> fx,
                GoldenRow golden) {
    std::size_t start = 0;
    for (const Fixup& f : fx) {
      exec_range(code, start, f.pos + 1, golden);
      overlay(f.storage, f.net);
      start = f.pos + 1;
    }
    exec_range(code, start, n, golden);
  }

  void exec_range(const Instr* code, std::size_t i, std::size_t end,
                  GoldenRow golden) {
    if (i >= end) return;
    W* const v = val_.data();
#if defined(__GNUC__) || defined(__clang__)
    static const void* const tbl[kNumOps] = {
        &&l_c0, &&l_c1, &&l_cp, &&l_nc, &&l_and, &&l_or,  &&l_nand, &&l_nor,
        &&l_xor, &&l_xnor, &&l_mux, &&l_mat, &&l_f0, &&l_f1, &&l_f2, &&l_f3,
        &&l_f4, &&l_f5, &&l_f6, &&l_f7, &&l_f8, &&l_f9, &&l_f10, &&l_f11,
        &&l_f12, &&l_f13, &&l_f14, &&l_f15, &&l_x3, &&l_xn3};
#define GPF_NEXT()          \
  do {                      \
    if (++i >= end) return; \
    goto* tbl[code[i].op];  \
  } while (0)
#define GPF_OP(label, expr)                  \
  label : {                                  \
    const Instr& q = code[i];                \
    v[q.out] = (expr);                       \
  }                                          \
  GPF_NEXT()
    goto* tbl[code[i].op];
    GPF_OP(l_c0, W::zero());
    GPF_OP(l_c1, W::ones());
    GPF_OP(l_cp, v[q.a]);
    GPF_OP(l_nc, ~v[q.a]);
    GPF_OP(l_and, v[q.a] & v[q.b]);
    GPF_OP(l_or, v[q.a] | v[q.b]);
    GPF_OP(l_nand, ~(v[q.a] & v[q.b]));
    GPF_OP(l_nor, ~(v[q.a] | v[q.b]));
    GPF_OP(l_xor, v[q.a] ^ v[q.b]);
    GPF_OP(l_xnor, ~(v[q.a] ^ v[q.b]));
    GPF_OP(l_mux, (v[q.a] & v[q.c]) | (~v[q.a] & v[q.b]));
    GPF_OP(l_mat, W::broadcast(golden[q.a]));
    GPF_OP(l_f0, (v[q.a] & v[q.b]) & v[q.c]);
    GPF_OP(l_f1, (v[q.a] | v[q.b]) & v[q.c]);
    GPF_OP(l_f2, (v[q.a] & v[q.b]) | v[q.c]);
    GPF_OP(l_f3, (v[q.a] | v[q.b]) | v[q.c]);
    GPF_OP(l_f4, ~(v[q.a] & v[q.b]) & v[q.c]);
    GPF_OP(l_f5, ~(v[q.a] | v[q.b]) & v[q.c]);
    GPF_OP(l_f6, ~(v[q.a] & v[q.b]) | v[q.c]);
    GPF_OP(l_f7, ~(v[q.a] | v[q.b]) | v[q.c]);
    GPF_OP(l_f8, ~((v[q.a] & v[q.b]) & v[q.c]));
    GPF_OP(l_f9, ~((v[q.a] | v[q.b]) & v[q.c]));
    GPF_OP(l_f10, ~((v[q.a] & v[q.b]) | v[q.c]));
    GPF_OP(l_f11, ~((v[q.a] | v[q.b]) | v[q.c]));
    GPF_OP(l_f12, ~(~(v[q.a] & v[q.b]) & v[q.c]));
    GPF_OP(l_f13, ~(~(v[q.a] | v[q.b]) & v[q.c]));
    GPF_OP(l_f14, ~(~(v[q.a] & v[q.b]) | v[q.c]));
    GPF_OP(l_f15, ~(~(v[q.a] | v[q.b]) | v[q.c]));
    GPF_OP(l_x3, v[q.a] ^ v[q.b] ^ v[q.c]);
    GPF_OP(l_xn3, ~(v[q.a] ^ v[q.b] ^ v[q.c]));
#undef GPF_OP
#undef GPF_NEXT
#else
    for (; i < end; ++i) {
      const Instr& q = code[i];
      switch (static_cast<Op>(q.op)) {
        case Op::Const0: v[q.out] = W::zero(); break;
        case Op::Const1: v[q.out] = W::ones(); break;
        case Op::Copy: v[q.out] = v[q.a]; break;
        case Op::NCopy: v[q.out] = ~v[q.a]; break;
        case Op::And: v[q.out] = v[q.a] & v[q.b]; break;
        case Op::Or: v[q.out] = v[q.a] | v[q.b]; break;
        case Op::Nand: v[q.out] = ~(v[q.a] & v[q.b]); break;
        case Op::Nor: v[q.out] = ~(v[q.a] | v[q.b]); break;
        case Op::Xor: v[q.out] = v[q.a] ^ v[q.b]; break;
        case Op::Xnor: v[q.out] = ~(v[q.a] ^ v[q.b]); break;
        case Op::Mux:
          v[q.out] = (v[q.a] & v[q.c]) | (~v[q.a] & v[q.b]);
          break;
        case Op::Mat: v[q.out] = W::broadcast(golden[q.a]); break;
        case Op::Xor3: v[q.out] = v[q.a] ^ v[q.b] ^ v[q.c]; break;
        case Op::Xnor3: v[q.out] = ~(v[q.a] ^ v[q.b] ^ v[q.c]); break;
        default: {
          const std::uint32_t bits =
              q.op - static_cast<std::uint32_t>(Op::Fuse2_0);
          W mid = (bits & 1) ? (v[q.a] | v[q.b]) : (v[q.a] & v[q.b]);
          if (bits & 4) mid = ~mid;
          W r = (bits & 2) ? (mid | v[q.c]) : (mid & v[q.c]);
          v[q.out] = (bits & 8) ? ~r : r;
          break;
        }
      }
    }
#endif
  }

  // ---- fanout cone --------------------------------------------------------

  /// BFS over the fan-out CSR from the fault sites: fills cone_nets_ (the
  /// worklist doubles as the result), cone_dffs_ and the in-cone stamps.
  void build_cone_sets() {
    if (cone_stamp_.empty()) {
      cone_stamp_.assign(cn_.num_nets(), 0);
      frontier_stamp_.assign(cn_.num_nets(), 0);
    }
    ++cone_epoch_;
    cone_dffs_.clear();
    cone_nets_.clear();
    frontier_.clear();
    observed_cone_.clear();

    for (const Net s : forced_nets_) {
      if (in_cone(s)) continue;
      cone_stamp_[static_cast<std::size_t>(s)] = cone_epoch_;
      cone_nets_.push_back(s);
    }
    for (std::size_t i = 0; i < cone_nets_.size(); ++i)
      for (const Net t : cn_.fanout(cone_nets_[i])) {
        if (in_cone(t)) continue;
        cone_stamp_[static_cast<std::size_t>(t)] = cone_epoch_;
        cone_nets_.push_back(t);
      }
    for (const Net n : cone_nets_)
      if (cn_.dff_index[static_cast<std::size_t>(n)] >= 0)
        cone_dffs_.push_back(
            static_cast<std::uint32_t>(cn_.dff_index[static_cast<std::size_t>(n)]));
    std::sort(cone_dffs_.begin(), cone_dffs_.end());
    cone_dffs_dir_.clear();
    cone_dffs_def_.clear();
    for (const std::uint32_t i : cone_dffs_)
      (dff_deferred_flag_[i] ? cone_dffs_def_ : cone_dffs_dir_).push_back(i);
  }

  bool in_cone(Net n) const {
    return cone_stamp_[static_cast<std::size_t>(n)] == cone_epoch_;
  }

  void add_frontier(Net n) {
    if (n == kNoNet || in_cone(n)) return;
    auto& st = frontier_stamp_[static_cast<std::size_t>(n)];
    if (st == cone_epoch_) return;
    st = cone_epoch_;
    frontier_.push_back(n);
  }

  void finish_cone(std::size_t covered) {
    for (const std::uint32_t i : cone_dffs_) {
      add_frontier(cn_.dff_d[i]);
      add_frontier(cn_.dff_en[i]);
    }
    for (const Net n : observed_) {
      if (in_cone(n))
        observed_cone_.push_back(n);
      else
        add_frontier(n);
    }
    // Cone fraction = cone_gates / cone_total_gates across all builds.
    static obs::Counter& builds = obs::counter("gate.cone_builds");
    static obs::Counter& cone_gates = obs::counter("gate.cone_gates");
    static obs::Counter& total_gates = obs::counter("gate.cone_total_gates");
    builds.add(1);
    cone_gates.add(covered);
    total_gates.add(cn_.num_slots());
  }

  /// Builds the per-batch cone PROGRAM: the in-cone subsequence of the
  /// active code, with Mat pseudo-ops materializing out-of-cone values that
  /// live in vreg slots (a frontier broadcast cannot reach those), and the
  /// batch's force fixups re-positioned for the compacted code.
  void ensure_cone_program() {
    if (cone_built_) return;
    cone_built_ = true;
    build_cone_sets();
    cone_code_.clear();
    cone_fixups_.clear();
    cone_covered_ = 0;
    // Collect the in-cone op indices. With an unpatched stream this is
    // O(|cone|) through write_op (index order == levelized order after the
    // sort); only patched batches pay a full-stream scan.
    cone_ops_.clear();
    if (active_stream_) {
      for (const Net n : cone_nets_) {
        const std::uint32_t w =
            active_stream_->write_op[static_cast<std::size_t>(n)];
        if (w != kNoOp) cone_ops_.push_back(w);
      }
      std::sort(cone_ops_.begin(), cone_ops_.end());
    } else {
      for (std::size_t i = 0; i < active_code_.size(); ++i)
        if (in_cone(active_meta_[i].out_net))
          cone_ops_.push_back(static_cast<std::uint32_t>(i));
    }
    for (const std::uint32_t i : cone_ops_) {
      const OpMeta& m = active_meta_[i];
      const Instr& q = active_code_[i];
      const Net srcs[3] = {m.src_a, m.src_b, m.src_c};
      const std::uint32_t stor[3] = {q.a, q.b, q.c};
      for (int k = 0; k < 3; ++k) {
        const Net s = srcs[k];
        if (s == kNoNet || in_cone(s)) continue;
        if (stor[k] >= num_nets_) {
          // Out-of-cone producer renamed to a vreg slot: materialize its
          // golden value right before the (single) consumer.
          Instr mat;
          mat.op = static_cast<std::uint32_t>(Op::Mat);
          mat.a = static_cast<std::uint32_t>(s);
          mat.out = stor[k];
          cone_code_.push_back(mat);
        } else {
          add_frontier(s);
        }
      }
      if (forced_flag_[static_cast<std::size_t>(m.out_net)])
        cone_fixups_.push_back(
            Fixup{static_cast<std::uint32_t>(cone_code_.size()), q.out,
                  m.out_net});
      cone_code_.push_back(q);
      cone_covered_ += m.cover_count;
    }
    finish_cone(cone_covered_);
  }

  const Netlist& nl_;
  const CompiledNetlist& cn_;
  const GateProgram& gp_;
  const Mode mode_;          ///< full / fused, latched at ctor
  const Stream* base_;       ///< the mode's default stream
  const std::size_t num_nets_;
  std::shared_ptr<const JitModule> jit_;  ///< nullptr = interpret
  std::vector<W> val_;       ///< [storage] -> N fault lanes (nets then vregs)
  std::vector<W> force0_;    ///< per-net stuck-at-0 lane masks
  std::vector<W> force1_;    ///< per-net stuck-at-1 lane masks
  std::vector<std::uint8_t> forced_flag_;  ///< per-net: forced in this batch
  std::vector<W> dff_next_;  ///< reusable clock() sample buffer
  std::vector<Net> forced_nets_;  ///< fault sites (dedup'd)
  std::vector<Net> source_sites_; ///< Input/Const/Dff fault sites
  std::vector<Net> sites_;        ///< per-lane fault site
  W lane_mask_ = W::zero();

  // Per-batch execution plan.
  std::span<const Instr> active_code_;
  std::span<const OpMeta> active_meta_;
  const Stream* active_stream_ = nullptr;  ///< null when patched
  std::vector<Fixup> fixups_;  ///< sorted by pos; level order too
  bool use_jit_ = false;
  bool skip_cone_ = false;  ///< cone covers too much; run the full stream
  bool patched_ = false;
  bool plan_ready_ = false;  ///< plan below is valid for prev_faults_
  std::vector<StuckFault> prev_faults_;
  std::vector<std::uint32_t> patch_ops_;
  std::vector<Instr> patch_code_;
  std::vector<OpMeta> patch_meta_;
  std::vector<Net> observed_;  ///< classification read set
  bool observed_exact_ = true;

  // Cone state (valid for the current batch once cone_built_).
  const bool cone_enabled_;  ///< GPF_CONE knob, latched at ctor
  bool cone_built_ = false;  ///< cone sets/program built for current batch
  bool cone_eval_live_ = false;  ///< driver called eval_cone() this batch, so
                                 ///< clock() may latch in-cone DFFs only; any
                                 ///< full-stream eval (plain eval(), JIT,
                                 ///< cone-skip) keeps full latching while the
                                 ///< sets keep restricting diff/retire reads
  std::uint32_t cone_epoch_ = 0;
  std::vector<std::uint32_t> cone_stamp_;      ///< per-net in-cone epoch
  std::vector<std::uint32_t> frontier_stamp_;  ///< per-net frontier epoch
  std::vector<std::uint32_t> cone_ops_;        ///< in-cone active-code indices
  std::vector<Instr> cone_code_;               ///< in-cone program + Mat ops
  std::vector<Fixup> cone_fixups_;
  std::size_t cone_covered_ = 0;  ///< compiled slots covered by cone_code_
  std::vector<std::uint32_t> cone_dffs_;       ///< in-cone DFF indices
  std::vector<std::uint32_t> cone_dffs_dir_;   ///< in-cone, single-pass latch
  std::vector<std::uint32_t> cone_dffs_def_;   ///< in-cone, two-phase latch
  std::vector<std::uint32_t> dff_direct_;      ///< single-pass latch set
  std::vector<std::uint32_t> dff_deferred_;    ///< two-phase latch set
  std::vector<std::uint8_t> dff_deferred_flag_;  ///< per-DFF partition bit
  std::vector<Net> cone_nets_;                 ///< all in-cone nets
  std::vector<Net> frontier_;                  ///< golden-refreshed nets
  std::vector<Net> observed_cone_;             ///< observed_ ∩ cone
};

}  // namespace gpf::gate
