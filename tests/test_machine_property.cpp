// Property tests: randomly generated structured programs executed on the
// SIMT machine must match a scalar per-thread oracle. This exercises the
// divergence stack, predication, and the ALU paths far beyond the directed
// tests — any reconvergence bug shows up as a per-thread mismatch. Random
// straight-line programs also check the warp-wide execution path against a
// per-lane reference built on the public ExecCtx API.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <set>
#include <string>

#include "arch/machine.hpp"
#include "common/bitops.hpp"
#include "common/rng.hpp"
#include "isa/builder.hpp"
#include "softfloat/buses.hpp"

namespace gpf::arch {
namespace {

using isa::Cmp;
using isa::KernelBuilder;
using Reg = KernelBuilder::Reg;

constexpr unsigned kThreads = 64;
constexpr unsigned kAluRegs = 5;   // registers random ALU statements touch
constexpr unsigned kIfTmp = 5;     // scratch for if conditions
constexpr unsigned kLoopBase = 6;  // counter/bound pair per nesting level
constexpr unsigned kRegs = 12;
constexpr std::uint32_t kOutBase = 0;

/// Scalar oracle state: one thread's registers.
using Scalar = std::array<std::uint32_t, kRegs>;

/// A generated program is built twice: once as SIMT code via the builder and
/// once as a scalar lambda applied per thread.
struct Generated {
  std::function<void(KernelBuilder&, const std::vector<Reg>&,
                     std::vector<KernelBuilder::Pred>&)>
      emit;
  std::function<void(Scalar&)> oracle;
};

/// Random ALU statement over two random registers.
Generated gen_alu(Rng& rng) {
  const unsigned d = static_cast<unsigned>(rng.below(kAluRegs));
  const unsigned a = static_cast<unsigned>(rng.below(kAluRegs));
  const unsigned b = static_cast<unsigned>(rng.below(kAluRegs));
  const unsigned op = static_cast<unsigned>(rng.below(6));
  const std::uint32_t imm = static_cast<std::uint32_t>(rng.below(1000)) + 1;
  Generated g;
  g.emit = [=](KernelBuilder& kb, const std::vector<Reg>& r, auto&) {
    switch (op) {
      case 0: kb.iadd(r[d], r[a], r[b]); break;
      case 1: kb.isub(r[d], r[a], r[b]); break;
      case 2: kb.imul(r[d], r[a], r[b]); break;
      case 3: kb.iaddi(r[d], r[a], imm); break;
      case 4: kb.lxor(r[d], r[a], r[b]); break;
      default: kb.imax(r[d], r[a], r[b]); break;
    }
  };
  g.oracle = [=](Scalar& s) {
    switch (op) {
      case 0: s[d] = s[a] + s[b]; break;
      case 1: s[d] = s[a] - s[b]; break;
      case 2: s[d] = s[a] * s[b]; break;
      case 3: s[d] = s[a] + imm; break;
      case 4: s[d] = s[a] ^ s[b]; break;
      default:
        s[d] = static_cast<std::uint32_t>(
            std::max(static_cast<std::int32_t>(s[a]),
                     static_cast<std::int32_t>(s[b])));
        break;
    }
  };
  return g;
}

/// Recursive generator: blocks of statements with nested ifs and bounded
/// counted loops whose conditions depend on thread-varying registers.
Generated gen_block(Rng& rng, int depth, int level, int max_stmts);

Generated gen_if(Rng& rng, int depth, int level) {
  const unsigned c = static_cast<unsigned>(rng.below(kAluRegs));
  const std::uint32_t threshold = static_cast<std::uint32_t>(rng.below(64));
  const bool with_else = rng.chance(0.5);
  auto then_g = std::make_shared<Generated>(gen_block(rng, depth - 1, level, 3));
  auto else_g = std::make_shared<Generated>(gen_block(rng, depth - 1, level, 3));
  Generated g;
  g.emit = [=](KernelBuilder& kb, const std::vector<Reg>& r, auto& preds) {
    auto p = kb.pred();
    kb.landi(r[kIfTmp], r[c], 63);  // bounded compare operand
    kb.isetpi(p, Cmp::LT, r[kIfTmp], threshold);
    if (with_else)
      kb.if_(p, false, [&] { then_g->emit(kb, r, preds); },
             [&] { else_g->emit(kb, r, preds); });
    else
      kb.if_(p, false, [&] { then_g->emit(kb, r, preds); });
    kb.release(p);
  };
  g.oracle = [=](Scalar& s) {
    s[kIfTmp] = s[c] & 63;
    if (static_cast<std::int32_t>(s[kIfTmp]) <
        static_cast<std::int32_t>(threshold)) {
      then_g->oracle(s);
    } else if (with_else) {
      else_g->oracle(s);
    }
  };
  return g;
}

Generated gen_loop(Rng& rng, int depth, int level) {
  const unsigned c = static_cast<unsigned>(rng.below(kAluRegs));
  const unsigned cnt = kLoopBase + 2 * static_cast<unsigned>(level);
  const unsigned bound = cnt + 1;
  auto body_g = std::make_shared<Generated>(gen_block(rng, depth - 1, level + 1, 2));
  Generated g;
  // trip count = (reg[c] & 7): thread-dependent, divergent trip counts.
  // Counter/bound registers are reserved per nesting level so generated
  // statements can never turn a bounded loop into an unbounded one.
  g.emit = [=](KernelBuilder& kb, const std::vector<Reg>& r, auto& preds) {
    auto p = kb.pred();
    kb.landi(r[bound], r[c], 7);
    kb.movi(r[cnt], 0);
    kb.while_(p, false, [&] { kb.isetp(p, Cmp::LT, r[cnt], r[bound]); },
              [&] {
                body_g->emit(kb, r, preds);
                kb.iaddi(r[cnt], r[cnt], 1);
              });
    kb.release(p);
  };
  g.oracle = [=](Scalar& s) {
    s[bound] = s[c] & 7;
    for (s[cnt] = 0; static_cast<std::int32_t>(s[cnt]) <
                     static_cast<std::int32_t>(s[bound]);
         ++s[cnt])
      body_g->oracle(s);
  };
  return g;
}

Generated gen_block(Rng& rng, int depth, int level, int max_stmts) {
  auto stmts = std::make_shared<std::vector<Generated>>();
  const int n = 1 + static_cast<int>(rng.below(static_cast<std::uint64_t>(max_stmts)));
  for (int i = 0; i < n; ++i) {
    const double u = rng.uniform();
    if (depth > 0 && u < 0.25)
      stmts->push_back(gen_if(rng, depth, level));
    else if (depth > 0 && u < 0.4 && level < 3)
      stmts->push_back(gen_loop(rng, depth, level));
    else
      stmts->push_back(gen_alu(rng));
  }
  Generated g;
  g.emit = [stmts](KernelBuilder& kb, const std::vector<Reg>& r, auto& preds) {
    for (const auto& s : *stmts) s.emit(kb, r, preds);
  };
  g.oracle = [stmts](Scalar& s) {
    for (const auto& st : *stmts) st.oracle(s);
  };
  return g;
}

class RandomStructuredPrograms : public ::testing::TestWithParam<int> {};

TEST_P(RandomStructuredPrograms, SimtMatchesScalarOracle) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 2654435761u + 17);
  const Generated body = gen_block(rng, 3, 0, 5);

  KernelBuilder kb("random_prog");
  std::vector<Reg> r = kb.regs(kRegs);
  std::vector<KernelBuilder::Pred> preds;

  // Seed registers from the thread id so threads diverge.
  auto tid = kb.reg();
  kb.s2r(tid, isa::SpecialReg::TID_X);
  for (unsigned i = 0; i < kRegs; ++i) {
    kb.imuli(r[i], tid, 2 * i + 3);
    kb.iaddi(r[i], r[i], i * 7 + 1);
  }
  body.emit(kb, r, preds);
  // Store the ALU-visible registers.
  for (unsigned i = 0; i < kAluRegs; ++i)
    kb.stg(tid, kOutBase + i * kThreads, r[i]);
  const isa::Program prog = kb.build();

  Gpu gpu;
  const LaunchResult res = gpu.launch(prog, {1, 1, 1}, {kThreads, 1, 1}, 2'000'000);
  ASSERT_TRUE(res.ok) << trap_name(res.trap) << " seed=" << GetParam();

  for (unsigned t = 0; t < kThreads; ++t) {
    Scalar s{};
    for (unsigned i = 0; i < kRegs; ++i) s[i] = t * (2 * i + 3) + i * 7 + 1;
    body.oracle(s);
    for (unsigned i = 0; i < kAluRegs; ++i)
      ASSERT_EQ(gpu.global()[kOutBase + i * kThreads + t], s[i])
          << "seed=" << GetParam() << " thread=" << t << " reg=" << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomStructuredPrograms, ::testing::Range(0, 40));

// ---------------------------------------------------------------------------
// Warp path vs per-lane reference on random straight-line programs
// ---------------------------------------------------------------------------

using isa::Op;

/// Every op of the INT, FP32, SFU and MOVE units: the ops the warp path runs.
constexpr Op kWarpOps[] = {
    Op::IADD,     Op::ISUB,     Op::IMUL,     Op::IMAD,     Op::IMIN,
    Op::IMAX,     Op::IABS,     Op::SHL,      Op::SHR,      Op::SHRA,
    Op::LOP_AND,  Op::LOP_OR,   Op::LOP_XOR,  Op::LOP_NOT,  Op::ISETP_LT,
    Op::ISETP_LE, Op::ISETP_GT, Op::ISETP_GE, Op::ISETP_EQ, Op::ISETP_NE,
    Op::ISETP_LTU, Op::ISETP_GEU, Op::FADD,   Op::FMUL,     Op::FFMA,
    Op::FMIN,     Op::FMAX,     Op::F2I,      Op::I2F,      Op::FSETP_LT,
    Op::FSETP_LE, Op::FSETP_GT, Op::FSETP_GE, Op::FSETP_EQ, Op::FSETP_NE,
    Op::FSIN,     Op::FEXP,     Op::FRCP,     Op::FSQRT,    Op::FLG2,
    Op::MOV,      Op::SEL,      Op::S2R};

/// Operand values at the edges: shift counts around 32, sign bits, zeros,
/// infinities, NaNs with distinct payloads, subnormals.
constexpr std::uint32_t kEdgeValues[] = {
    0,           1,           2,           31,          32,          33,
    40,          0x7FFFFFFFu, 0x80000000u, 0xFFFFFFFFu, 0x3F800000u, 0xBF800000u,
    0x00800000u, 0x7F800000u, 0xFF800000u, 0x7FC00000u, 0x7FA00001u, 0xFFC00123u,
    0x00000001u, 0x807FFFFFu, 0x4B000000u, 0xCF000000u};

std::uint32_t edge_or_random(std::uint64_t h) {
  return (h & 3) == 0 ? kEdgeValues[(h >> 8) % std::size(kEdgeValues)]
                      : static_cast<std::uint32_t>(h >> 32);
}

constexpr Dim3 kLineGrid{2, 1, 1};
constexpr Dim3 kLineBlock{40, 1, 1};  // warp 1 holds lanes 0..7 only
constexpr std::size_t kLineOutWords = 1u << 14;

struct StraightLine {
  isa::Program prog;
  std::uint32_t body = 0;  ///< instructions [0, body) are the random ones
};

/// One random INT/FP32/SFU/MOVE instruction over `regs` registers: random
/// guards, immediates, RZ operands, rd aliasing a source and, when `bad_regs`,
/// register indices past regs_per_thread.
isa::Instruction random_warp_instr(Rng& rng, unsigned regs, bool bad_regs) {
  bool named_bad = false;
  const auto reg = [&]() -> std::uint8_t {
    const double u = rng.uniform();
    if (u < 0.1) return isa::kRZ;
    if (bad_regs && u < 0.13) {
      const unsigned bad[] = {regs, regs + 1, 63, 64, 128, 254};
      named_bad = true;
      return static_cast<std::uint8_t>(bad[rng.below(std::size(bad))]);
    }
    return static_cast<std::uint8_t>(rng.below(regs));
  };
  isa::Instruction in;
  in.op = kWarpOps[rng.below(std::size(kWarpOps))];
  in.rd = reg();
  in.rs1 = reg();
  in.rs2 = reg();
  in.rs3 = reg();
  if (rng.chance(0.2)) in.rd = rng.chance(0.5) ? in.rs1 : in.rs2;
  if (rng.chance(0.3)) {
    in.use_imm = true;
    in.imm = edge_or_random(rng());
  }
  if (isa::writes_predicate(in.op)) in.rd = static_cast<std::uint8_t>(rng.below(8));
  if (in.op == Op::SEL) in.rs3 = static_cast<std::uint8_t>(rng.below(8));
  if (in.op == Op::S2R)
    in.rs1 = static_cast<std::uint8_t>(
        rng.below(static_cast<unsigned>(isa::SpecialReg::COUNT) + 2));
  if (rng.chance(0.5)) {
    in.guard_pred = static_cast<std::uint8_t>(rng.below(8));
    in.guard_neg = rng.chance(0.3);
  }
  // Half the bad-register instructions are guarded off (@!PT): no lane runs.
  if (named_bad && rng.chance(0.5)) {
    in.guard_pred = isa::kPT;
    in.guard_neg = true;
  }
  return in;
}

/// `body` random instructions, then an epilogue that stores every register
/// r >= 3 and every predicate of every thread to out[slot + k * 128],
/// slot = (ctaid * 2 + warpid) * 32 + lane. Idle lanes show in the register
/// file and predicates the test compares after the launch.
StraightLine gen_straight_line(Rng& rng, unsigned regs, unsigned body, bool bad_regs) {
  StraightLine p;
  p.prog.name = "straight_line";
  p.prog.regs_per_thread = regs;
  p.body = body;
  auto emit = [&](isa::Instruction in) { p.prog.words.push_back(isa::encode(in)); };
  for (unsigned i = 0; i < body; ++i) emit(random_warp_instr(rng, regs, bad_regs));

  const auto s2r = [&](std::uint8_t rd, isa::SpecialReg sr) {
    emit({.op = Op::S2R, .rd = rd, .rs1 = static_cast<std::uint8_t>(sr)});
  };
  const auto rri = [&](Op op, std::uint8_t rd, std::uint8_t rs1, std::uint32_t imm) {
    emit({.op = op, .rd = rd, .rs1 = rs1, .use_imm = true, .imm = imm});
  };
  s2r(0, isa::SpecialReg::LANEID);
  s2r(1, isa::SpecialReg::CTAID_X);
  s2r(2, isa::SpecialReg::WARPID);
  rri(Op::IMUL, 1, 1, 2);
  emit({.op = Op::IADD, .rd = 1, .rs1 = 1, .rs2 = 2});
  rri(Op::IMUL, 1, 1, 32);
  emit({.op = Op::IADD, .rd = 1, .rs1 = 1, .rs2 = 0});
  std::uint32_t row = 0;
  for (std::uint8_t r = 3; r < regs; ++r)
    emit({.op = Op::ST, .rd = r, .rs1 = 1, .use_imm = true, .imm = 128 * row++});
  for (std::uint8_t pr = 0; pr < isa::kNumPredicates; ++pr) {
    emit({.op = Op::SEL, .rd = 2, .rs1 = 0, .rs3 = pr, .use_imm = true, .imm = ~0u});
    emit({.op = Op::ST, .rd = 2, .rs1 = 1, .use_imm = true, .imm = 128 * row++});
  }
  emit({.op = Op::EXIT});
  return p;
}

/// Fault-hook-like perturbation, deterministic per issue: seeds every
/// register and predicate of a warp at its first issue, then rewrites
/// exec_mask at random (lanes outside exist_mask included) and leaves a trap
/// pending on entry to one chosen issue.
class Perturb : public MachineHooks {
 public:
  Perturb(std::uint64_t seed, std::uint32_t body, std::uint64_t trap_issue)
      : seed_(seed), body_(body), trap_issue_(trap_issue) {}

  void pre_execute(ExecCtx& ctx) override {
    const std::uint64_t issue = issue_++;
    if (ctx.pc == 0) seed_warp(ctx);
    if (ctx.pc >= body_) return;
    const std::uint64_t h = SplitMix64(seed_ ^ (issue * 0x9E3779B97F4A7C15ull)).next();
    switch (h % 6) {
      case 0: ctx.exec_mask = static_cast<std::uint32_t>(h >> 32); break;
      case 1: ctx.exec_mask = 0; break;
      case 2: ctx.exec_mask = ~0u; break;
      default: break;
    }
    if (issue == trap_issue_) ctx.pending_trap = TrapKind::InvalidOpcode;
  }

  void post_execute(ExecCtx& ctx) override {
    // A register past regs_per_thread on an issue with no lane: no trap.
    const unsigned regs = ctx.gpu().running_program()->regs_per_thread;
    const auto bad = [regs](std::uint8_t r) { return r != isa::kRZ && r >= regs; };
    const isa::Instruction& in = ctx.instr;
    if (ctx.exec_mask == 0 && isa::writes_register(in.op) &&
        (bad(in.rd) || (in.op != Op::S2R && bad(in.rs1))))
      ++idle_bad_regs;
  }

  std::uint64_t idle_bad_regs = 0;

 private:
  void seed_warp(ExecCtx& ctx) {
    const unsigned regs = ctx.gpu().running_program()->regs_per_thread;
    const std::uint64_t warp = ctx.warp().cta_x * 977u + ctx.warp().slot;
    SplitMix64 sm(seed_ ^ warp * 0xD1B54A32D192ED03ull);
    for (unsigned lane = 0; lane < kWarpSize; ++lane) {
      for (unsigned r = 0; r < regs; ++r)
        ctx.write_reg(lane, static_cast<std::uint8_t>(r), edge_or_random(sm.next()));
      const std::uint64_t pbits = sm.next();
      for (std::uint8_t pr = 0; pr < isa::kNumPredicates; ++pr)
        ctx.write_pred(lane, pr, (pbits >> pr) & 1);
    }
  }

  std::uint64_t seed_;
  std::uint32_t body_;
  std::uint64_t trap_issue_;
  std::uint64_t issue_ = 0;
};

/// The per-lane reference: after the perturbation, runs each INT, FP32, SFU
/// and MOVE issue lane by lane through the public ExecCtx API and the unit's
/// alu(), then advances the PC and skips the machine's own execution. The
/// first lane that raises a trap writes nothing, and no later lane runs.
class LaneReference final : public Perturb {
 public:
  LaneReference(std::uint64_t seed, std::uint32_t body, std::uint64_t trap_issue,
                ExecUnit& unit)
      : Perturb(seed, body, trap_issue), unit_(unit) {}

  void pre_execute(ExecCtx& ctx) override {
    Perturb::pre_execute(ctx);
    const isa::UnitClass u = isa::unit_of(ctx.instr.op);
    if (u == isa::UnitClass::MEM || u == isa::UnitClass::CTRL) return;
    for (unsigned lane = 0; lane < kWarpSize; ++lane) {
      if (ctx.pending_trap != TrapKind::None) break;
      if ((ctx.exec_mask >> lane) & 1) execute_lane(ctx, lane);
    }
    if (ctx.pending_trap == TrapKind::None) ++ctx.warp().stack.back().pc;
    ctx.skip = true;
  }

 private:
  void execute_lane(ExecCtx& ctx, unsigned lane) {
    const isa::Instruction& in = ctx.instr;
    std::uint32_t v = 0;
    switch (in.op) {
      case Op::MOV:
        v = in.use_imm ? in.imm : ctx.read_reg(lane, in.rs1);
        break;
      case Op::SEL: {
        const std::uint32_t a = ctx.read_reg(lane, in.rs1);
        const std::uint32_t b = in.use_imm ? in.imm : ctx.read_reg(lane, in.rs2);
        v = ctx.read_pred(lane, in.rs3) ? a : b;
        break;
      }
      case Op::S2R:
        v = special(ctx, lane, in.rs1);
        break;
      default: {
        const int srcs = isa::num_sources(in.op);
        std::uint32_t a = 0, b = 0, c = 0;
        if (srcs >= 1) a = ctx.read_reg(lane, in.rs1);
        if (srcs >= 2) b = (in.use_imm && srcs == 2) ? in.imm : ctx.read_reg(lane, in.rs2);
        if (srcs >= 3) c = (in.use_imm && srcs == 3) ? in.imm : ctx.read_reg(lane, in.rs3);
        if (srcs == 1 && in.use_imm) a = in.imm;
        if (ctx.pending_trap != TrapKind::None) return;
        if (isa::writes_predicate(in.op)) {
          ctx.write_pred(lane, in.rd, compare(in.op, a, b));
          return;
        }
        v = unit_.alu(in.op, a, b, c, lane);
        break;
      }
    }
    if (ctx.pending_trap == TrapKind::None) ctx.write_reg(lane, in.rd, v);
  }

  static bool compare(Op op, std::uint32_t a, std::uint32_t b) {
    const isa::Cmp cmp = isa::cmp_of(op);
    if (isa::is_float(op)) {
      const float fa = bits_f32(a), fb = bits_f32(b);
      switch (cmp) {
        case isa::Cmp::LT: return fa < fb;
        case isa::Cmp::LE: return fa <= fb;
        case isa::Cmp::GT: return fa > fb;
        case isa::Cmp::GE: return fa >= fb;
        case isa::Cmp::EQ: return fa == fb;
        default: return fa != fb;
      }
    }
    const auto sa = static_cast<std::int32_t>(a), sb = static_cast<std::int32_t>(b);
    switch (cmp) {
      case isa::Cmp::LT: return sa < sb;
      case isa::Cmp::LE: return sa <= sb;
      case isa::Cmp::GT: return sa > sb;
      case isa::Cmp::GE: return sa >= sb;
      case isa::Cmp::EQ: return sa == sb;
      case isa::Cmp::LTU: return a < b;
      case isa::Cmp::GEU: return a >= b;
      default: return sa != sb;
    }
  }

  static std::uint32_t special(const ExecCtx& ctx, unsigned lane, std::uint8_t sr) {
    const Warp& w = ctx.warp();
    switch (static_cast<isa::SpecialReg>(sr)) {
      case isa::SpecialReg::TID_X: return w.tid_x[lane];
      case isa::SpecialReg::TID_Y: return w.tid_y[lane];
      case isa::SpecialReg::TID_Z: return w.tid_z[lane];
      case isa::SpecialReg::NTID_X: return kLineBlock.x;
      case isa::SpecialReg::NTID_Y: return kLineBlock.y;
      case isa::SpecialReg::NTID_Z: return kLineBlock.z;
      case isa::SpecialReg::CTAID_X: return w.cta_x;
      case isa::SpecialReg::CTAID_Y: return w.cta_y;
      case isa::SpecialReg::NCTAID_X: return kLineGrid.x;
      case isa::SpecialReg::NCTAID_Y: return kLineGrid.y;
      case isa::SpecialReg::LANEID: return lane;
      case isa::SpecialReg::WARPID: return w.warp_in_cta;
      case isa::SpecialReg::SMID: return ctx.sm_id;
      default: return 0;
    }
  }

  ExecUnit& unit_;
};

struct LineRun {
  LaunchResult res;
  std::vector<std::uint32_t> regfile;
  std::vector<std::uint8_t> preds;
  std::vector<std::uint32_t> global;
};

LineRun run_line(const StraightLine& p, ExecUnit* unit, MachineHooks& hooks) {
  Gpu gpu;
  gpu.reserve_global(0, kLineOutWords);
  gpu.set_exec(unit);
  gpu.set_hooks(&hooks);
  LineRun run;
  run.res = gpu.launch(p.prog, kLineGrid, kLineBlock, 100'000);
  const Ppb& ppb = gpu.sm(0).ppbs[0];
  run.regfile = ppb.regfile;
  for (const Warp& w : ppb.warps)
    run.preds.insert(run.preds.end(), w.preds.begin(), w.preds.end());
  const std::span<const std::uint32_t> g = gpu.read_global(0, kLineOutWords);
  run.global.assign(g.begin(), g.end());
  return run;
}

/// Index of the first element where `a` and `b` differ, or -1.
template <class T>
long first_diff(const std::vector<T>& a, const std::vector<T>& b) {
  if (a.size() != b.size()) return static_cast<long>(std::min(a.size(), b.size()));
  const auto [ia, ib] = std::mismatch(a.begin(), a.end(), b.begin());
  return ia == a.end() ? -1 : static_cast<long>(ia - a.begin());
}

TEST(WarpPath, MatchesPerLaneReferenceOnStraightLinePrograms) {
  std::set<Op> ops;
  std::map<TrapKind, unsigned> outcomes;
  std::uint64_t idle_bad_regs = 0;
  unsigned faulty_lane_runs = 0;
  for (int seed = 0; seed < 300; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    Rng rng(static_cast<std::uint64_t>(seed) * 0x9E3779B97F4A7C15ull + 11);
    const unsigned regs = 8 + static_cast<unsigned>(rng.below(25));
    const bool bad_regs = rng.chance(0.4);
    const StraightLine p =
        gen_straight_line(rng, regs, 16 + static_cast<unsigned>(rng.below(48)), bad_regs);
    for (std::uint32_t i = 0; i < p.body; ++i)
      ops.insert(isa::decode(p.prog.words[i]).instr.op);
    const std::uint64_t trap_issue = rng.chance(0.25) ? rng.below(4 * p.body) : ~0ull;
    const std::uint64_t hook_seed = rng();

    // Backend: the builtin FastExec, SoftExec, or SoftExec with a lane fault.
    FastExec fast;
    SoftExec soft;
    const auto bus =
        static_cast<sf::Bus>(rng.below(static_cast<unsigned>(sf::Bus::Count)));
    const sf::BusFaultSet fault(sf::BusFault{
        bus, static_cast<std::uint8_t>(rng.below(sf::bus_width(bus))), rng.chance(0.5)});
    const int backend = seed % 3;
    if (backend == 2) {
      soft.set_lane_fault(static_cast<unsigned>(rng.below(kWarpSize)), &fault);
      ++faulty_lane_runs;
    }
    ExecUnit* installed = backend == 0 ? nullptr : &soft;
    ExecUnit& ref_unit = backend == 0 ? static_cast<ExecUnit&>(fast) : soft;

    Perturb perturb(hook_seed, p.body, trap_issue);
    LaneReference reference(hook_seed, p.body, trap_issue, ref_unit);
    const LineRun warp = run_line(p, installed, perturb);
    const LineRun lanes = run_line(p, installed, reference);

    EXPECT_EQ(warp.res.ok, lanes.res.ok);
    EXPECT_EQ(warp.res.trap, lanes.res.trap);
    EXPECT_EQ(warp.res.trap_pc, lanes.res.trap_pc);
    EXPECT_EQ(warp.res.cycles, lanes.res.cycles);
    EXPECT_EQ(warp.res.instructions, lanes.res.instructions);
    EXPECT_EQ(warp.res.unit_issues, lanes.res.unit_issues);
    EXPECT_EQ(first_diff(warp.regfile, lanes.regfile), -1) << "register file word";
    EXPECT_EQ(first_diff(warp.preds, lanes.preds), -1) << "predicate byte";
    EXPECT_EQ(first_diff(warp.global, lanes.global), -1) << "global word";
    if (::testing::Test::HasFailure()) break;
    ++outcomes[warp.res.trap];
    idle_bad_regs += perturb.idle_bad_regs;
  }
  // The generator reached every case the warp path must route correctly.
  EXPECT_EQ(ops.size(), std::size(kWarpOps));
  EXPECT_GT(outcomes[TrapKind::None], 50u);
  EXPECT_GT(outcomes[TrapKind::InvalidRegister], 10u);
  EXPECT_GT(outcomes[TrapKind::InvalidOpcode], 10u);
  EXPECT_GT(idle_bad_regs, 10u);
  EXPECT_EQ(faulty_lane_runs, 100u);
}

}  // namespace
}  // namespace gpf::arch
