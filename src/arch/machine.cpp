#include "arch/machine.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <functional>
#include <stdexcept>
#include <string>

#include "common/bitops.hpp"
#include "obs/metrics.hpp"

namespace gpf::arch {

using isa::Instruction;
using isa::MemSpace;
using isa::Op;

namespace {
constexpr unsigned kPhysRegsPerThread = 64;  // physical register window per thread
constexpr std::size_t kWindowWords = std::size_t{kPhysRegsPerThread} * kWarpSize;
constexpr unsigned kTrapKinds = static_cast<unsigned>(TrapKind::Watchdog) + 1;

/// True when every register INT/FP32/SFU/MOVE op `in` names is RZ or lies in
/// [0, regs). Not checked: sources past num_sources, and the source an
/// immediate replaces (rs1 of MOV, the last source of a two- or three-source
/// op). A one-source ALU op checks rs1 even when an immediate replaces it.
bool operands_valid(const Instruction& in, unsigned regs) {
  const auto ok = [regs](std::uint8_t r) { return r == isa::kRZ || r < regs; };
  switch (in.op) {
    case Op::MOV: return ok(in.rd) && (in.use_imm || ok(in.rs1));
    case Op::SEL: return ok(in.rd) && ok(in.rs1) && (in.use_imm || ok(in.rs2));
    case Op::S2R: return ok(in.rd);
    default: {
      const int srcs = isa::num_sources(in.op);
      if (srcs >= 1 && !ok(in.rs1)) return false;
      if (srcs >= 2 && !(in.use_imm && srcs == 2) && !ok(in.rs2)) return false;
      if (srcs >= 3 && !(in.use_imm && srcs == 3) && !ok(in.rs3)) return false;
      return isa::writes_predicate(in.op) || ok(in.rd);  // SETP's rd names a predicate
    }
  }
}

/// Bit l, for each lane l in `mask`, is cmp(a[l], b[l]) with the lanes
/// read as T (int32_t, uint32_t or float).
template <class T, class Cmp>
std::uint32_t compare_lanes(std::uint32_t mask, RowIn a, RowIn b, Cmp cmp) {
  std::uint32_t bits = 0;
  for_each_lane(mask, [&](unsigned lane) {
    bits |= static_cast<std::uint32_t>(
                cmp(std::bit_cast<T>(a[lane]), std::bit_cast<T>(b[lane])))
            << lane;
  });
  return bits;
}

template <class T>
std::uint32_t compare_lanes(isa::Cmp cmp, std::uint32_t mask, RowIn a, RowIn b) {
  switch (cmp) {
    case isa::Cmp::LT: return compare_lanes<T>(mask, a, b, std::less<T>{});
    case isa::Cmp::LE: return compare_lanes<T>(mask, a, b, std::less_equal<T>{});
    case isa::Cmp::GT: return compare_lanes<T>(mask, a, b, std::greater<T>{});
    case isa::Cmp::GE: return compare_lanes<T>(mask, a, b, std::greater_equal<T>{});
    case isa::Cmp::EQ: return compare_lanes<T>(mask, a, b, std::equal_to<T>{});
    default: return compare_lanes<T>(mask, a, b, std::not_equal_to<T>{});
  }
}

/// The outcome of SETP op `op` on each lane of `mask`, one bit per lane.
std::uint32_t setp_lanes(Op op, std::uint32_t mask, RowIn a, RowIn b) {
  const isa::Cmp cmp = isa::cmp_of(op);
  if (isa::is_float(op)) return compare_lanes<float>(cmp, mask, a, b);
  if (cmp == isa::Cmp::LTU)
    return compare_lanes<std::uint32_t>(mask, a, b, std::less<std::uint32_t>{});
  if (cmp == isa::Cmp::GEU)
    return compare_lanes<std::uint32_t>(mask, a, b, std::greater_equal<std::uint32_t>{});
  return compare_lanes<std::int32_t>(cmp, mask, a, b);
}

}  // namespace

// ---------------------------------------------------------------------------
// ExecCtx register/predicate accessors
// ---------------------------------------------------------------------------

ExecCtx::ExecCtx(Gpu& gpu, unsigned sm, unsigned ppb, Warp& warp, std::uint32_t pc,
                 isa::Instruction instr)
    : instr(instr), pc(pc), sm_id(sm), ppb_id(ppb), gpu_(gpu), warp_(warp),
      regs_(gpu.sms_[sm].ppbs[ppb].regfile.data() + warp.slot * kWindowWords),
      regs_per_thread_(gpu.prog_->regs_per_thread) {}

std::uint32_t ExecCtx::read_reg(unsigned lane, std::uint8_t r) {
  if (r == isa::kRZ) return 0;
  if (r >= regs_per_thread_) {
    pending_trap = TrapKind::InvalidRegister;
    return 0;
  }
  return row(r)[lane % kWarpSize];
}

void ExecCtx::write_reg(unsigned lane, std::uint8_t r, std::uint32_t v) {
  if (r == isa::kRZ) return;
  if (r >= regs_per_thread_) {
    pending_trap = TrapKind::InvalidRegister;
    return;
  }
  row(r)[lane % kWarpSize] = v;
}

bool ExecCtx::read_pred(unsigned lane, std::uint8_t p) const {
  p &= 0x7;
  if (p >= isa::kNumPredicates) return true;  // PT
  return (warp_.preds[lane] >> p) & 1;
}

void ExecCtx::write_pred(unsigned lane, std::uint8_t p, bool v) {
  p &= 0x7;
  if (p >= isa::kNumPredicates) return;  // PT is not writable
  warp_.preds[lane] = static_cast<std::uint8_t>(
      v ? (warp_.preds[lane] | (1u << p)) : (warp_.preds[lane] & ~(1u << p)));
}

// ---------------------------------------------------------------------------
// Gpu
// ---------------------------------------------------------------------------

Gpu::Gpu(GpuConfig cfg) : cfg_(cfg) {
  const_.assign(cfg_.const_words, 0);
  sms_.resize(cfg_.num_sms);
  for (Sm& sm : sms_) {
    sm.ppbs.resize(cfg_.ppbs_per_sm);
    for (Ppb& ppb : sm.ppbs) {
      ppb.warps.resize(cfg_.max_warps_per_ppb);
      for (unsigned s = 0; s < cfg_.max_warps_per_ppb; ++s) ppb.warps[s].slot = s;
      ppb.regfile.assign(
          static_cast<std::size_t>(cfg_.max_warps_per_ppb) * kPhysRegsPerThread * kWarpSize, 0);
      ppb.local.assign(static_cast<std::size_t>(cfg_.max_warps_per_ppb) * kWarpSize *
                           cfg_.local_words_per_thread, 0);
    }
  }
}

std::vector<std::uint32_t>& Gpu::global() {
  global_.resize(cfg_.global_words);
  return global_;
}

void Gpu::write_global(std::size_t addr, std::span<const std::uint32_t> data) {
  if (!global_in_bounds(addr, data.size()))
    throw std::out_of_range("write_global out of bounds");
  reserve_global(addr, data.size());
  std::copy(data.begin(), data.end(), global_.begin() + static_cast<std::ptrdiff_t>(addr));
}

void Gpu::write_global_f(std::size_t addr, std::span<const float> data) {
  if (!global_in_bounds(addr, data.size()))
    throw std::out_of_range("write_global_f out of bounds");
  reserve_global(addr, data.size());
  for (std::size_t i = 0; i < data.size(); ++i) global_[addr + i] = f32_bits(data[i]);
}

void Gpu::reserve_global(std::size_t addr, std::size_t words) {
  if (words == 0) return;
  if (!global_in_bounds(addr, words))
    throw std::out_of_range("reserve_global out of bounds");
  if (global_.size() < addr + words) global_.resize(addr + words);  // zero-fills
  // Merge with an existing adjacent/overlapping segment when possible.
  for (auto& [base, size] : segments_) {
    if (addr <= base + size && base <= addr + words) {
      const std::size_t lo = std::min(base, addr);
      const std::size_t hi = std::max(base + size, addr + words);
      base = lo;
      size = hi - lo;
      return;
    }
  }
  segments_.emplace_back(addr, words);
}

bool Gpu::global_addr_valid(std::uint64_t addr) const {
  if (addr >= cfg_.global_words) return false;
  if (segments_.empty()) return true;  // bare-metal mode
  for (const auto& [base, size] : segments_)
    if (addr >= base && addr < base + size) return true;
  return false;
}

std::span<const std::uint32_t> Gpu::read_global(std::size_t addr, std::size_t n) const {
  if (n > global_.size() || addr > global_.size() - n)
    throw std::out_of_range("read_global outside the stored prefix");
  return {global_.data() + addr, n};
}

std::vector<float> Gpu::read_global_f(std::size_t addr, std::size_t n) const {
  const std::span<const std::uint32_t> words = read_global(addr, n);
  std::vector<float> out(n);
  for (std::size_t i = 0; i < n; ++i) out[i] = bits_f32(words[i]);
  return out;
}

void Gpu::clear_memories() {
  global_.clear();
  segments_.clear();
  std::fill(const_.begin(), const_.end(), 0u);
  for (Sm& sm : sms_)
    for (Ppb& ppb : sm.ppbs) std::fill(ppb.local.begin(), ppb.local.end(), 0u);
}

std::uint32_t& Gpu::reg_at(unsigned sm, unsigned ppb, unsigned slot, unsigned lane,
                           unsigned reg) {
  Ppb& p = sms_[sm].ppbs[ppb];
  const std::size_t idx =
      (static_cast<std::size_t>(slot) * kPhysRegsPerThread + (reg % kPhysRegsPerThread)) *
          kWarpSize +
      (lane % kWarpSize);
  return p.regfile[idx % p.regfile.size()];
}

void Gpu::raise_trap(TrapKind kind, std::uint32_t pc) {
  if (trap_ == TrapKind::None) {
    trap_ = kind;
    trap_pc_ = pc;
  }
}

// ---------------------------------------------------------------------------
// CTA management
// ---------------------------------------------------------------------------

void Gpu::init_cta(unsigned sm_i, unsigned cta_x, unsigned cta_y) {
  Sm& sm = sms_[sm_i];
  sm.cta.active = true;
  sm.cta.cta_x = cta_x;
  sm.cta.cta_y = cta_y;
  sm.cta.shared.assign(prog_->shared_words, 0);

  const unsigned threads = block_.count();
  const unsigned warps = (threads + kWarpSize - 1) / kWarpSize;
  sm.cta.expected_warps = warps;

  const unsigned ppbs = static_cast<unsigned>(sm.ppbs.size());
  for (unsigned w = 0; w < warps; ++w) {
    const unsigned ppb_i = w % ppbs;
    const unsigned slot = w / ppbs;
    Ppb& ppb = sm.ppbs[ppb_i];
    Warp& warp = ppb.warps.at(slot);
    warp.valid = true;
    warp.done = false;
    warp.at_barrier = false;
    warp.warp_in_cta = w;
    warp.cta_x = cta_x;
    warp.cta_y = cta_y;
    warp.preds.fill(0);
    // Idle lanes read thread index 0, not what an earlier launch left there.
    warp.tid_x.fill(0);
    warp.tid_y.fill(0);
    warp.tid_z.fill(0);

    std::uint32_t mask = 0;
    for (unsigned lane = 0; lane < kWarpSize; ++lane) {
      const unsigned tid = w * kWarpSize + lane;
      if (tid >= threads) break;
      mask |= 1u << lane;
      warp.tid_x[lane] = static_cast<std::uint16_t>(tid % block_.x);
      warp.tid_y[lane] = static_cast<std::uint16_t>((tid / block_.x) % block_.y);
      warp.tid_z[lane] = static_cast<std::uint16_t>(tid / (block_.x * block_.y));
    }
    warp.exist_mask = mask;
    warp.stack.assign(1, SimtEntry{0, kNoReconv, mask});

    // Zero the warp's register window for run-to-run determinism.
    std::fill_n(ppb.regfile.begin() + static_cast<std::ptrdiff_t>(slot * kWindowWords),
                kWindowWords, 0u);
  }
}

void Gpu::release_barriers(unsigned sm_i) {
  Sm& sm = sms_[sm_i];
  if (!sm.cta.active) return;
  unsigned at_barrier = 0;
  for (const Ppb& ppb : sm.ppbs)
    for (const Warp& w : ppb.warps)
      if (w.valid && w.at_barrier) ++at_barrier;
  // All warps of the CTA must arrive. A warp that exited early can never
  // arrive, which deadlocks the barrier — the watchdog then reports a hang,
  // matching real-GPU behaviour for corrupted control flow.
  if (at_barrier == sm.cta.expected_warps) {
    for (Ppb& ppb : sm.ppbs)
      for (Warp& w : ppb.warps)
        if (w.valid) w.at_barrier = false;
  }
}

bool Gpu::sm_idle(unsigned sm_i) const {
  const Sm& sm = sms_[sm_i];
  if (!sm.cta.active) return true;
  for (const Ppb& ppb : sm.ppbs)
    for (const Warp& w : ppb.warps)
      if (w.valid && !w.done) return false;
  return true;
}

// ---------------------------------------------------------------------------
// Scheduling / fetch / decode / execute
// ---------------------------------------------------------------------------

int Gpu::select_warp(unsigned sm_i, unsigned ppb_i) {
  Ppb& ppb = sms_[sm_i].ppbs[ppb_i];
  const unsigned n = static_cast<unsigned>(ppb.warps.size());
  for (unsigned k = 0; k < n; ++k) {
    const unsigned slot = (ppb.rr_next + k) % n;
    if (ppb.warps[slot].ready()) {
      ppb.rr_next = (slot + 1) % n;
      return static_cast<int>(slot);
    }
  }
  return -1;
}

bool Gpu::step_ppb(unsigned sm_i, unsigned ppb_i, LaunchResult& res) {
  if (hooks_) hooks_->pre_cycle(*this, sm_i, ppb_i);

  int slot = select_warp(sm_i, ppb_i);
  if (hooks_) slot = hooks_->post_select(*this, sm_i, ppb_i, slot);
  Ppb& ppb = sms_[sm_i].ppbs[ppb_i];
  if (slot < 0 || slot >= static_cast<int>(ppb.warps.size())) return false;
  Warp& w = ppb.warps[static_cast<unsigned>(slot)];
  if (!w.valid || w.done || w.stack.empty()) return false;

  // Reconvergence: pop entries whose PC reached their reconvergence point.
  while (w.stack.size() > 1 &&
         (w.stack.back().pc == w.stack.back().reconv_pc || w.stack.back().mask == 0))
    w.stack.pop_back();

  std::uint32_t pc = w.pc();
  if (hooks_) {
    const std::uint32_t pc2 =
        hooks_->post_fetch_pc(*this, sm_i, ppb_i, static_cast<unsigned>(slot), pc);
    if (pc2 != pc) {
      pc = pc2;
      w.stack.back().pc = pc;  // the warp's PC register itself is corrupted
    }
  }
  if (pc >= prog_->words.size()) {
    raise_trap(TrapKind::InvalidPC, pc);
    return false;
  }

  std::uint64_t word = prog_->words[pc];
  if (hooks_)
    word = hooks_->post_fetch_word(*this, sm_i, ppb_i, static_cast<unsigned>(slot), word);

  isa::DecodeResult dec = isa::decode(word);
  bool ok = dec.ok;
  if (hooks_) hooks_->post_decode(*this, sm_i, ppb_i, dec.instr, ok);
  if (!ok) {
    raise_trap(TrapKind::InvalidOpcode, pc);
    return false;
  }

  ExecCtx ctx(*this, sm_i, ppb_i, w, pc, dec.instr);
  std::uint32_t guard = 0;
  const std::uint32_t active = w.active_mask();
  const Instruction& in = ctx.instr;
  if (in.guard_pred >= isa::kNumPredicates) {
    guard = in.guard_neg ? 0 : active;  // PT: every lane or none
  } else {
    for_each_lane(active, [&](unsigned lane) {
      if (((w.preds[lane] >> in.guard_pred) & 1) != in.guard_neg) guard |= 1u << lane;
    });
  }
  ctx.exec_mask = guard;

  if (hooks_) hooks_->pre_execute(ctx);
  if (!ctx.skip) execute(ctx);
  if (hooks_ && ctx.pending_trap == TrapKind::None) hooks_->post_execute(ctx);
  if (ctx.pending_trap != TrapKind::None) {
    raise_trap(ctx.pending_trap, pc);
    return false;
  }

  ++res.instructions;
  ++res.unit_issues[static_cast<unsigned>(isa::unit_of(ctx.instr.op))];
  return true;
}

void Gpu::execute(ExecCtx& ctx) {
  Warp& w = ctx.warp();
  const std::uint32_t pc = w.stack.back().pc;  // may differ from ctx.pc under faults
  const Instruction& in = ctx.instr;

  switch (in.op) {
    case Op::BRA: {
      const std::uint32_t taken = ctx.exec_mask;
      const std::uint32_t not_taken = w.active_mask() & ~taken;
      SimtEntry& tos = w.stack.back();
      if (taken == 0) {
        tos.pc = pc + 1;
      } else if (not_taken == 0) {
        tos.pc = in.imm;
      } else {
        if (w.stack.size() >= kMaxStackDepth) {
          ctx.pending_trap = TrapKind::StackOverflow;
          return;
        }
        tos.mask = not_taken;
        tos.pc = pc + 1;
        w.stack.push_back(SimtEntry{in.imm, tos.reconv_pc, taken});
      }
      return;
    }
    case Op::SSY: {
      if (w.stack.size() >= kMaxStackDepth) {
        ctx.pending_trap = TrapKind::StackOverflow;
        return;
      }
      const SimtEntry tos = w.stack.back();
      w.stack.back() = SimtEntry{in.imm, tos.reconv_pc, tos.mask};  // join entry
      w.stack.push_back(SimtEntry{pc + 1, in.imm, tos.mask});       // continue entry
      return;
    }
    case Op::EXIT: {
      const std::uint32_t dying = ctx.exec_mask;
      const std::size_t tos_idx = w.stack.size() - 1;
      for (SimtEntry& e : w.stack) e.mask &= ~dying;
      while (!w.stack.empty() && w.stack.back().mask == 0) w.stack.pop_back();
      if (w.stack.empty()) {
        w.done = true;
      } else if (w.stack.size() - 1 == tos_idx) {
        w.stack.back().pc = pc + 1;  // surviving lanes of the current entry
      }
      return;
    }
    case Op::BAR:
      // Predicated-off barriers do not arrive (a warp whose lanes are all
      // guarded off skips the barrier — the source of barrier mismatches).
      if (ctx.exec_mask != 0) w.at_barrier = true;
      w.stack.back().pc = pc + 1;
      return;
    case Op::NOP:
      w.stack.back().pc = pc + 1;
      return;
    default:
      if (isa::unit_of(in.op) == isa::UnitClass::MEM) {
        execute_mem(ctx);
      } else if (ctx.pending_trap == TrapKind::None) {
        // A register outside the program's window traps at the first active
        // lane, before anything is written; with no active lane, nothing runs.
        if (operands_valid(in, ctx.regs_per_thread_))
          execute_warp(ctx);
        else if (ctx.exec_mask != 0)
          ctx.pending_trap = TrapKind::InvalidRegister;
      }
      if (ctx.pending_trap == TrapKind::None) w.stack.back().pc = pc + 1;
      return;
  }
}

// The warp path for INT, FP32, SFU and MOVE ops whose registers are all valid
// and which start with no trap pending: source rows are read in place, the
// op is switched on once, and the result goes to the destination row (or the
// SETP predicate) for the lanes of exec_mask only. Each lane reads and writes
// only its own column of the window, so this equals running the lanes one by
// one in lane order.
void Gpu::execute_warp(ExecCtx& ctx) {
  static constexpr LaneRow kZeroRow{};
  const Instruction& in = ctx.instr;
  const std::uint32_t mask = ctx.exec_mask;
  if (mask == 0) return;

  LaneRow imm;  // the immediate, broadcast when an operand uses it
  const auto immediate = [&]() -> RowIn {
    imm.fill(in.imm);
    return imm;
  };
  const auto src = [&](std::uint8_t r) -> RowIn {
    return r == isa::kRZ ? RowIn(kZeroRow) : RowIn(ctx.row(r), kWarpSize);
  };
  LaneRow discard;  // where writes to RZ go
  const auto dst = [&]() -> RowOut {
    return in.rd == isa::kRZ ? RowOut(discard) : RowOut(ctx.row(in.rd), kWarpSize);
  };

  switch (in.op) {
    case Op::MOV: {
      const RowIn v = in.use_imm ? immediate() : src(in.rs1);
      const RowOut d = dst();
      for_each_lane(mask, [&](unsigned lane) { d[lane] = v[lane]; });
      return;
    }
    case Op::SEL: {
      const RowIn a = src(in.rs1);
      const RowIn b = in.use_imm ? immediate() : src(in.rs2);
      const unsigned p = in.rs3 & 0x7u;
      const std::array<std::uint8_t, kWarpSize>& preds = ctx.warp().preds;
      const RowOut d = dst();
      for_each_lane(mask, [&](unsigned lane) {
        const bool taken = p >= isa::kNumPredicates || ((preds[lane] >> p) & 1);
        d[lane] = taken ? a[lane] : b[lane];
      });
      return;
    }
    case Op::S2R: {
      const RowOut d = dst();
      for_each_lane(mask,
                    [&](unsigned lane) { d[lane] = special_value(ctx, lane, in.rs1); });
      return;
    }
    default:
      break;
  }

  // Source k (1-based) exists when srcs >= k; the immediate replaces the last.
  const int srcs = isa::num_sources(in.op);
  const auto operand = [&](int k, std::uint8_t r) -> RowIn {
    if (srcs < k) return kZeroRow;
    return srcs == k && in.use_imm ? immediate() : src(r);
  };
  const RowIn a = operand(1, in.rs1);
  const RowIn b = operand(2, in.rs2);
  const RowIn c = operand(3, in.rs3);
  if (isa::writes_predicate(in.op)) {
    const unsigned p = in.rd & 0x7u;
    if (p >= isa::kNumPredicates) return;  // PT is not writable
    const std::uint32_t r = setp_lanes(in.op, mask, a, b);
    std::array<std::uint8_t, kWarpSize>& preds = ctx.warp().preds;
    for_each_lane(mask, [&](unsigned lane) {
      const std::uint8_t bit = static_cast<std::uint8_t>(1u << p);
      preds[lane] = ((r >> lane) & 1) ? (preds[lane] | bit) : (preds[lane] & ~bit);
    });
    return;
  }
  ExecUnit& unit = exec_ ? *exec_ : builtin_exec_;
  unit.alu_warp(in.op, a, b, c, mask, dst());
}

// LD and ST run lane by lane in lane order: the first lane whose address is
// illegal traps, with the loads and stores of the lanes before it done.
void Gpu::execute_mem(ExecCtx& ctx) {
  const Instruction& in = ctx.instr;
  for (unsigned lane = 0; lane < kWarpSize && ctx.pending_trap == TrapKind::None;
       ++lane) {
    if (!((ctx.exec_mask >> lane) & 1)) continue;
    const std::uint64_t base = ctx.read_reg(lane, in.rs1);
    const std::uint64_t off = in.use_imm ? in.imm : ctx.read_reg(lane, in.rs2);
    if (in.op == Op::LD) {
      const std::uint32_t v = mem_read(ctx, in.space, lane, base + off);
      if (ctx.pending_trap == TrapKind::None) ctx.write_reg(lane, in.rd, v);
    } else {
      const std::uint32_t data = ctx.read_reg(lane, in.rd);
      if (ctx.pending_trap == TrapKind::None)
        mem_write(ctx, in.space, lane, base + off, data);
    }
  }
}

std::uint32_t Gpu::mem_read(ExecCtx& ctx, MemSpace space, unsigned lane,
                            std::uint64_t addr) {
  switch (space) {
    case MemSpace::Global:
      if (!global_addr_valid(addr)) {
        ctx.pending_trap = TrapKind::IllegalAddress;
        return 0;
      }
      return global_[addr];
    case MemSpace::Shared: {
      CtaState& cta = sms_[ctx.sm_id].cta;
      if (addr >= cta.shared.size()) {
        ctx.pending_trap = TrapKind::IllegalAddress;
        return 0;
      }
      return cta.shared[addr];
    }
    case MemSpace::Const:
      if (addr >= const_.size()) {
        ctx.pending_trap = TrapKind::IllegalAddress;
        return 0;
      }
      return const_[addr];
    case MemSpace::Local: {
      if (addr >= cfg_.local_words_per_thread) {
        ctx.pending_trap = TrapKind::IllegalAddress;
        return 0;
      }
      Ppb& ppb = sms_[ctx.sm_id].ppbs[ctx.ppb_id];
      const std::size_t idx =
          (static_cast<std::size_t>(ctx.warp().slot) * kWarpSize + lane) *
              cfg_.local_words_per_thread +
          addr;
      return ppb.local[idx];
    }
  }
  return 0;
}

void Gpu::mem_write(ExecCtx& ctx, MemSpace space, unsigned lane, std::uint64_t addr,
                    std::uint32_t value) {
  switch (space) {
    case MemSpace::Global:
      if (!global_addr_valid(addr)) {
        ctx.pending_trap = TrapKind::IllegalAddress;
        return;
      }
      global_[addr] = value;
      return;
    case MemSpace::Shared: {
      CtaState& cta = sms_[ctx.sm_id].cta;
      if (addr >= cta.shared.size()) {
        ctx.pending_trap = TrapKind::IllegalAddress;
        return;
      }
      cta.shared[addr] = value;
      return;
    }
    case MemSpace::Const:
      ctx.pending_trap = TrapKind::IllegalAddress;  // constant memory is read-only
      return;
    case MemSpace::Local: {
      if (addr >= cfg_.local_words_per_thread) {
        ctx.pending_trap = TrapKind::IllegalAddress;
        return;
      }
      Ppb& ppb = sms_[ctx.sm_id].ppbs[ctx.ppb_id];
      const std::size_t idx =
          (static_cast<std::size_t>(ctx.warp().slot) * kWarpSize + lane) *
              cfg_.local_words_per_thread +
          addr;
      ppb.local[idx] = value;
      return;
    }
  }
}

std::uint32_t Gpu::special_value(const ExecCtx& ctx, unsigned lane,
                                 std::uint8_t sr) const {
  const Warp& w = ctx.warp_;
  switch (static_cast<isa::SpecialReg>(sr)) {
    case isa::SpecialReg::TID_X: return w.tid_x[lane];
    case isa::SpecialReg::TID_Y: return w.tid_y[lane];
    case isa::SpecialReg::TID_Z: return w.tid_z[lane];
    case isa::SpecialReg::NTID_X: return block_.x;
    case isa::SpecialReg::NTID_Y: return block_.y;
    case isa::SpecialReg::NTID_Z: return block_.z;
    case isa::SpecialReg::CTAID_X: return w.cta_x;
    case isa::SpecialReg::CTAID_Y: return w.cta_y;
    case isa::SpecialReg::NCTAID_X: return grid_.x;
    case isa::SpecialReg::NCTAID_Y: return grid_.y;
    case isa::SpecialReg::LANEID: return lane;
    case isa::SpecialReg::WARPID: return w.warp_in_cta;
    case isa::SpecialReg::SMID: return ctx.sm_id;
    default: return 0;  // unknown special register reads zero
  }
}

// ---------------------------------------------------------------------------
// Launch loop
// ---------------------------------------------------------------------------

LaunchResult Gpu::launch(const isa::Program& prog, Dim3 grid, Dim3 block,
                         std::uint64_t max_cycles) {
  LaunchResult res;
  if (prog.regs_per_thread > kPhysRegsPerThread)
    throw std::invalid_argument("kernel exceeds 64 registers per thread");
  const unsigned warps_per_cta = (block.count() + kWarpSize - 1) / kWarpSize;
  if (warps_per_cta > cfg_.max_warps_per_ppb * cfg_.ppbs_per_sm)
    throw std::invalid_argument("CTA exceeds resident warp capacity");
  if (block.count() == 0 || grid.count() == 0)
    throw std::invalid_argument("empty launch");

  prog_ = &prog;
  grid_ = grid;
  block_ = block;
  cycle_ = 0;
  trap_ = TrapKind::None;
  trap_pc_ = 0;
  for (Sm& sm : sms_) {
    sm.cta.active = false;
    for (Ppb& ppb : sm.ppbs) {
      ppb.rr_next = 0;
      for (Warp& w : ppb.warps) {
        w.valid = false;
        w.done = false;
        w.at_barrier = false;
        w.stack.clear();
      }
    }
  }

  // Bare-metal mode: every address is valid, so all of memory is stored.
  if (segments_.empty()) global_.resize(cfg_.global_words);
  if (hooks_) hooks_->on_launch_begin(*this, prog);

  const std::uint64_t budget = max_cycles ? max_cycles : cfg_.watchdog_cycles;
  const unsigned total_ctas = grid.x * grid.y;
  unsigned next_cta = 0;

  for (;;) {
    // Retire finished CTAs and dispatch pending ones.
    bool any_active = false;
    for (unsigned s = 0; s < sms_.size(); ++s) {
      if (sms_[s].cta.active && sm_idle(s)) {
        sms_[s].cta.active = false;
        for (Ppb& ppb : sms_[s].ppbs)
          for (Warp& w : ppb.warps) w.valid = false;
      }
      if (!sms_[s].cta.active && next_cta < total_ctas) {
        init_cta(s, next_cta % grid.x, next_cta / grid.x);
        ++next_cta;
      }
      any_active |= sms_[s].cta.active;
    }
    if (!any_active && next_cta >= total_ctas) break;

    for (unsigned s = 0; s < sms_.size(); ++s)
      for (unsigned p = 0; p < sms_[s].ppbs.size(); ++p) {
        step_ppb(s, p, res);
        if (trap_ != TrapKind::None) {
          res.trap = trap_;
          res.trap_pc = trap_pc_;
          return finish_launch(res);
        }
      }

    for (unsigned s = 0; s < sms_.size(); ++s) release_barriers(s);

    if (++cycle_ > budget) {
      res.trap = TrapKind::Watchdog;
      res.trap_pc = 0;
      return finish_launch(res);
    }
  }

  res.ok = true;
  return finish_launch(res);
}

LaunchResult Gpu::finish_launch(LaunchResult res) {
  res.cycles = cycle_;
  prog_ = nullptr;

  static obs::Counter& launches = obs::counter("arch.launches");
  static obs::Counter& cycles = obs::counter("arch.cycles");
  static obs::Counter& instructions = obs::counter("arch.warp_instructions");
  // arch.traps.<kind>, with trap_name's dashes as underscores.
  static const std::array<obs::Counter*, kTrapKinds> traps = [] {
    std::array<obs::Counter*, kTrapKinds> t{};
    for (unsigned k = 1; k < kTrapKinds; ++k) {
      std::string name = trap_name(static_cast<TrapKind>(k));
      std::replace(name.begin(), name.end(), '-', '_');
      t[k] = &obs::counter("arch.traps." + name);
    }
    return t;
  }();
  launches.add();
  cycles.add(res.cycles);
  instructions.add(res.instructions);
  if (res.trap != TrapKind::None) traps[static_cast<unsigned>(res.trap)]->add();
  return res;
}

}  // namespace gpf::arch
