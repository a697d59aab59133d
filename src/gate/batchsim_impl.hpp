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
//           (computed goto).
//   fused   GPF_FUSE=1 (default): the folded/fused/DCE'd/vreg-renamed
//           stream, optionally JIT-compiled to native code (GPF_JIT).
//
// Per-cycle work outside the gate ops is kept off the hot path three ways,
// each exact by construction:
//   - force ops: a batch's stuck-at overlays are ops of its own copy of the
//     stream (and of its cone program), placed after the op writing each
//     forced net, at the end of that op's level, so one interpreter call
//     evaluates a whole cycle. The op is the And-Or superop
//     (v & keep) | set over two per-site mask words stored past the vreg
//     slots. Exact because the stream is levelized: every consumer of the
//     forced net sits at a higher level. The JIT applies the same overlays
//     between its per-level calls;
//   - enable groups: DFFs sharing an enable net are latched together, the
//     enable word read once per group, and a group whose enable is 0 in
//     every lane is skipped — (en & d) | (~en & q) is q there;
//   - single-bit bus diffs: bus_diff_split() hands classification the lanes
//     whose bus value differs from golden in exactly one bit, grouped by
//     that bit, so a lookup table can classify them without a per-lane
//     decode (gate/replay.cpp).
//
// Exactness of the fused mode under arbitrary fault sites, per batch:
//   - a forced net the stream writes (own index or vreg slot) gets a force
//     op after the writing instruction, before any higher-level op;
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
#include <bit>
#include <limits>
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
        mask_base_(gp_.storage_size),
        val_(mask_base_ + 2 * kLanes, W::zero()),
        force_slot_(num_nets_, kNoForce),
        dff_next_(nl.dffs().size(), W::zero()),
        cone_enabled_(gpf::cone_enabled()) {
    if (!nl.finalized()) throw std::logic_error("netlist not finalized");
    jit_ = jit_module(gp_, *base_, N);
    build_latch_groups();
  }

  ~BatchFaultSimT() override { flush_latch_counters(); }

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
    flush_latch_counters();
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
    for (const Net n : forced_nets_)
      force_slot_[static_cast<std::size_t>(n)] = kNoForce;
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

    // Sites get mask slots in first-occurrence order, so an unchanged fault
    // set reuses the slot numbers its kept plan's force ops name.
    for (std::size_t k = 0; k < faults.size(); ++k) {
      const StuckFault& f = faults[k];
      const auto site = static_cast<std::size_t>(f.net);
      sites_.push_back(f.net);
      lane_mask_.set(static_cast<unsigned>(k));
      std::uint32_t& j = force_slot_[site];
      if (j == kNoForce) {
        j = static_cast<std::uint32_t>(forced_nets_.size());
        forced_nets_.push_back(f.net);
        keep_mask(j) = W::ones();
        const GateKind kind = nl_.gate(f.net).kind;
        if (kind == GateKind::Input || kind == GateKind::Const0 ||
            kind == GateKind::Const1 || kind == GateKind::Dff)
          source_sites_.push_back(f.net);
      }
      if (f.stuck_high)
        set_mask(j).set(static_cast<unsigned>(k));
      else
        keep_mask(j).clear(static_cast<unsigned>(k));
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
      ensure_eval_code();
      exec_range(eval_code_.data(), 0, eval_code_.size(), GoldenRow{});
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
    exec_range(cone_code_.data(), 0, cone_code_.size(), golden);
  }

  void clock() override {
    // Out-of-cone DFFs cannot diverge (all their pins carry golden values),
    // and their words are refreshed through the frontier when read — so once
    // cone eval is live only in-cone registers need latching at all.
    if (cone_eval_live_)
      latch(cone_groups_, cone_members_);
    else
      latch(latch_groups_, latch_members_);
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

  BusDiffSplit bus_diff_split(const PortBus& bus, GoldenRow golden,
                              const LaneMask& lanes,
                              std::uint64_t golden_value,
                              std::span<LaneMask> single,
                              std::span<std::uint64_t> out) const override {
    if (bus.nets.size() > 64 || single.size() < bus.nets.size())
      throw std::invalid_argument("bus_diff_split: bus wider than its groups");
    const W sel = W::from_mask(lanes) & lane_mask_;
    BusDiffSplit r;
    if (!sel.any()) return r;
    // Per-bit diff words, then two word-wide accumulators: `once` holds the
    // lanes with at least one differing bit, `twice` those with two or more.
    W d[64];
    std::uint64_t bits = 0;
    W once = W::zero(), twice = W::zero();
    for (std::size_t i = 0; i < bus.nets.size(); ++i) {
      const auto n = static_cast<std::size_t>(bus.nets[i]);
      d[i] = (val_[n] ^ W::broadcast(golden[n])) & sel;
      if (!d[i].any()) continue;
      bits |= std::uint64_t{1} << i;
      twice |= once & d[i];
      once |= d[i];
    }
    if (!bits) return r;
    const W one_bit = once & ~twice;
    r.multi = twice.to_mask();
    for_each_lane(r.multi, [&](unsigned k) { out[k] = golden_value; });
    for (std::uint64_t rest = bits; rest; rest &= rest - 1) {
      const unsigned i = static_cast<unsigned>(std::countr_zero(rest));
      const W s = d[i] & one_bit;
      if (s.any()) {
        single[i] = s.to_mask();
        r.single_bits |= std::uint64_t{1} << i;
      }
      const W m = d[i] & twice;
      if (m.any())
        for_each_lane(m.to_mask(),
                      [&](unsigned k) { out[k] ^= std::uint64_t{1} << i; });
    }
    return r;
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
      for (const std::uint32_t di : cone_members_) {
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
    const std::uint32_t j = force_slot_[static_cast<std::size_t>(sites_[lane])];
    keep_mask(j).set(lane);
    set_mask(j).clear(lane);
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

  static constexpr std::uint32_t kNoForce = 0xFFFFFFFFu;

  /// A stuck-at overlay of the active code: storage index `storage`, which
  /// instruction `pos` writes, takes mask slot `slot`'s force before any
  /// higher-level op reads it. Masks stay per forced NET (not storage) so a
  /// reused vreg slot shared by two forced nets cannot cross-contaminate.
  struct Fixup {
    std::uint32_t pos;
    std::uint32_t storage;
    std::uint32_t slot;
  };

  /// DFFs sharing one enable net (kNoNet: always enabled). members
  /// [begin, mid) take the two-phase latch, [mid, end) the direct one.
  struct LatchGroup {
    Net en;
    std::uint32_t begin, mid, end;
  };

  /// A forced site's masks, stored past the vreg slots: lanes stuck at 0
  /// are clear in keep, lanes stuck at 1 are set in set.
  W& keep_mask(std::uint32_t slot) { return val_[mask_base_ + 2 * slot]; }
  W& set_mask(std::uint32_t slot) { return val_[mask_base_ + 2 * slot + 1]; }

  /// The force op for a fixup: (v & keep) | set is the And-Or superop, so
  /// the interpreter needs no extra opcode.
  Instr force_instr(const Fixup& f) const {
    Instr in;
    in.op = static_cast<std::uint32_t>(Op::Fuse2_2);
    in.a = f.storage;
    in.b = static_cast<std::uint32_t>(mask_base_ + 2 * f.slot);
    in.c = in.b + 1;
    in.out = f.storage;
    return in;
  }

  void overlay(std::uint32_t storage, std::uint32_t slot) {
    val_[storage] = (val_[storage] & keep_mask(slot)) | set_mask(slot);
  }

  void apply_source_overlays() {
    for (const Net n : source_sites_) {
      const auto i = static_cast<std::uint32_t>(n);
      overlay(i, force_slot_[i]);
    }
  }

  // ---- latching -----------------------------------------------------------

  /// Groups the DFFs by enable net, in order of first appearance. Only a
  /// DFF whose out net feeds another DFF's D/EN pin needs the two-phase
  /// (compute-all-then-store) latch; the rest compute and store in one
  /// pass. Reading any DFF out or enable net in phase A still sees the
  /// pre-clock value, because direct stores touch only nets no DFF reads.
  void build_latch_groups() {
    const std::size_t n = cn_.dff_out.size();
    std::vector<std::uint8_t> is_pin(num_nets_, 0);
    for (std::size_t i = 0; i < n; ++i) {
      if (cn_.dff_d[i] != kNoNet)
        is_pin[static_cast<std::size_t>(cn_.dff_d[i])] = 1;
      if (cn_.dff_en[i] != kNoNet)
        is_pin[static_cast<std::size_t>(cn_.dff_en[i])] = 1;
    }
    // group_of[en + 1]: the group of enable net en (slot 0: kNoNet).
    constexpr std::uint32_t kNoGroup = 0xFFFFFFFFu;
    std::vector<std::uint32_t> group_of(num_nets_ + 1, kNoGroup);
    std::vector<std::uint32_t> gid(n);
    std::uint32_t groups = 0;
    for (std::size_t i = 0; i < n; ++i) {
      std::uint32_t& g = group_of[static_cast<std::size_t>(cn_.dff_en[i] + 1)];
      if (g == kNoGroup) g = groups++;
      gid[i] = g;
    }
    const auto deferred = [&](std::uint32_t i) {
      return is_pin[static_cast<std::size_t>(cn_.dff_out[i])] != 0;
    };
    latch_members_.resize(n);
    for (std::uint32_t i = 0; i < n; ++i) latch_members_[i] = i;
    std::stable_sort(latch_members_.begin(), latch_members_.end(),
                     [&](std::uint32_t x, std::uint32_t y) {
                       if (gid[x] != gid[y]) return gid[x] < gid[y];
                       return deferred(x) && !deferred(y);
                     });
    for (std::uint32_t m = 0; m < n;) {
      const std::uint32_t first = latch_members_[m];
      LatchGroup g{cn_.dff_en[first], m, m, m};
      for (; g.end < n && gid[latch_members_[g.end]] == gid[first]; ++g.end)
        if (deferred(latch_members_[g.end])) g.mid = g.end + 1;
      latch_groups_.push_back(g);
      m = g.end;
    }
  }

  W next_state(std::uint32_t i, const W& en) const {
    const W cur = val_[static_cast<std::size_t>(cn_.dff_out[i])];
    const Net d_n = cn_.dff_d[i];
    const W d = d_n == kNoNet ? cur : val_[static_cast<std::size_t>(d_n)];
    return (en & d) | (~en & cur);
  }

  /// Latches `groups` (indices into `members`): one enable-word read per
  /// group, and a group whose enable is 0 in every lane holds every one of
  /// its registers, so it is skipped. Deferred registers of the groups that
  /// did latch are stored last, after every read.
  void latch(const std::vector<LatchGroup>& groups,
             const std::vector<std::uint32_t>& members) {
    latched_groups_.clear();
    for (const LatchGroup& g : groups) {
      const W en =
          g.en == kNoNet ? W::ones() : val_[static_cast<std::size_t>(g.en)];
      if (!en.any()) {
        ++latch_skipped_;
        continue;
      }
      for (std::uint32_t m = g.begin; m < g.mid; ++m)
        dff_next_[members[m]] = next_state(members[m], en);
      for (std::uint32_t m = g.mid; m < g.end; ++m)
        val_[static_cast<std::size_t>(cn_.dff_out[members[m]])] =
            next_state(members[m], en);
      if (g.mid > g.begin) latched_groups_.push_back(&g);
    }
    latch_seen_ += groups.size();
    for (const LatchGroup* g : latched_groups_)
      for (std::uint32_t m = g->begin; m < g->mid; ++m)
        val_[static_cast<std::size_t>(cn_.dff_out[members[m]])] =
            dff_next_[members[m]];
  }

  /// Latch-group counts go to the registry once per batch and trace, not
  /// once per clock.
  void flush_latch_counters() {
    static obs::Counter& seen = obs::counter("gate.latch_groups");
    static obs::Counter& skipped = obs::counter("gate.latch_groups_skipped");
    seen.add(latch_seen_);
    skipped.add(latch_skipped_);
    latch_seen_ = 0;
    latch_skipped_ = 0;
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
        if (w != kNoOp)
          fixups_.push_back(Fixup{w, S->code[w].out,
                                  force_slot_[static_cast<std::size_t>(n)]});
      }
      std::sort(fixups_.begin(), fixups_.end(),
                [](const Fixup& x, const Fixup& y) { return x.pos < y.pos; });
    }
    eval_code_ready_ = false;
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
    for (std::size_t i = 0; i < patch_meta_.size(); ++i) {
      const std::uint32_t j =
          force_slot_[static_cast<std::size_t>(patch_meta_[i].out_net)];
      if (j != kNoForce)
        fixups_.push_back(
            Fixup{static_cast<std::uint32_t>(i), patch_code_[i].out, j});
    }
  }

  /// Appends the held force ops of writers below `level` to `code`. Every
  /// consumer of a net sits at a higher level than its writer, so a force op
  /// is exact anywhere from its writer to the first higher-level op; holding
  /// it until then turns each level's force ops into one run instead of
  /// breaking the level's same-opcode runs, which the interpreter's dispatch
  /// branch predicts. (The JIT overlays at the same points.)
  void release_forces(std::vector<Instr>& code, std::int32_t level) {
    std::size_t kept = 0;
    for (std::size_t h = 0; h < held_.size(); ++h) {
      if (held_[h].level < level)
        code.push_back(held_[h].op);
      else
        held_[kept++] = held_[h];
    }
    held_.resize(kept);
  }

  /// The stream eval() runs: the active code with each fixup's force op
  /// after its writer (see release_forces). Built on first use, since a
  /// batch that runs its cone program never needs it.
  void ensure_eval_code() {
    if (eval_code_ready_) return;
    eval_code_ready_ = true;
    eval_code_.clear();
    eval_code_.reserve(active_code_.size() + fixups_.size());
    std::size_t f = 0;
    for (std::size_t i = 0; i < active_code_.size(); ++i) {
      const std::int32_t level = active_meta_[i].level;
      release_forces(eval_code_, level);
      eval_code_.push_back(active_code_[i]);
      for (; f < fixups_.size() && fixups_[f].pos == i; ++f)
        held_.push_back({level, force_instr(fixups_[f])});
    }
    release_forces(eval_code_, std::numeric_limits<std::int32_t>::max());
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
        overlay(fixups_[fi].storage, fixups_[fi].slot);
        ++fi;
      }
    }
  }

  // ---- direct-threaded interpreter ---------------------------------------

  /// `golden` feeds the cone program's Mat ops (eval_cone only).
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
  /// worklist doubles as the result), the in-cone stamps, and the in-cone
  /// DFFs as enable groups (the latch groups restricted to the cone).
  void build_cone_sets() {
    if (cone_stamp_.empty()) {
      cone_stamp_.assign(cn_.num_nets(), 0);
      frontier_stamp_.assign(cn_.num_nets(), 0);
    }
    ++cone_epoch_;
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
    cone_groups_.clear();
    cone_members_.clear();
    const auto take = [&](std::uint32_t m) {
      const std::uint32_t i = latch_members_[m];
      if (in_cone(cn_.dff_out[i])) cone_members_.push_back(i);
    };
    for (const LatchGroup& g : latch_groups_) {
      const auto at = [&] {
        return static_cast<std::uint32_t>(cone_members_.size());
      };
      LatchGroup cg{g.en, at(), 0, 0};
      for (std::uint32_t m = g.begin; m < g.mid; ++m) take(m);
      cg.mid = at();
      for (std::uint32_t m = g.mid; m < g.end; ++m) take(m);
      cg.end = at();
      if (cg.end > cg.begin) cone_groups_.push_back(cg);
    }
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
    for (const std::uint32_t i : cone_members_) {
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
  /// live in vreg slots (a frontier broadcast cannot reach those), and a
  /// force op right after each op writing a forced net.
  void ensure_cone_program() {
    if (cone_built_) return;
    cone_built_ = true;
    build_cone_sets();
    cone_code_.clear();
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
      release_forces(cone_code_, m.level);
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
      cone_code_.push_back(q);
      const std::uint32_t j = force_slot_[static_cast<std::size_t>(m.out_net)];
      if (j != kNoForce)
        held_.push_back({m.level, force_instr(Fixup{i, q.out, j})});
      cone_covered_ += m.cover_count;
    }
    release_forces(cone_code_, std::numeric_limits<std::int32_t>::max());
    finish_cone(cone_covered_);
  }

  const Netlist& nl_;
  const CompiledNetlist& cn_;
  const GateProgram& gp_;
  const Mode mode_;          ///< full / fused, latched at ctor
  const Stream* base_;       ///< the mode's default stream
  const std::size_t num_nets_;
  const std::size_t mask_base_;  ///< storage index of mask slot 0
  std::shared_ptr<const JitModule> jit_;  ///< nullptr = interpret
  std::vector<W> val_;  ///< [storage] -> N fault lanes (nets, vregs, then
                        ///<   two force-mask words per possible site, sized
                        ///<   once so begin() never reallocates)
  std::vector<std::uint32_t> force_slot_;  ///< per-net mask slot, or kNoForce
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
  std::vector<Instr> eval_code_;  ///< active code + force ops (eval())
  bool eval_code_ready_ = false;
  struct HeldForce {
    std::int32_t level;  ///< the writer's level
    Instr op;
  };
  std::vector<HeldForce> held_;  ///< release_forces scratch
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
  std::vector<Instr> cone_code_;  ///< in-cone program + Mat and force ops
  std::size_t cone_covered_ = 0;  ///< compiled slots covered by cone_code_
  std::vector<LatchGroup> cone_groups_;        ///< latch groups ∩ cone
  std::vector<std::uint32_t> cone_members_;    ///< their DFF indices
  std::vector<Net> cone_nets_;                 ///< all in-cone nets
  std::vector<Net> frontier_;                  ///< golden-refreshed nets
  std::vector<Net> observed_cone_;             ///< observed_ ∩ cone

  // Latching.
  std::vector<LatchGroup> latch_groups_;       ///< every DFF, by enable net
  std::vector<std::uint32_t> latch_members_;   ///< their DFF indices
  std::vector<const LatchGroup*> latched_groups_;  ///< clock() scratch
  std::uint64_t latch_seen_ = 0;     ///< groups visited since the last flush
  std::uint64_t latch_skipped_ = 0;  ///< of which all-lanes-disabled
};

}  // namespace gpf::gate
