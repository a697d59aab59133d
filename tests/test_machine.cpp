#include <gtest/gtest.h>

#include <cmath>
#include <numeric>

#include "arch/machine.hpp"
#include "common/env.hpp"
#include "isa/builder.hpp"
#include "obs/metrics.hpp"

namespace gpf::arch {
namespace {

using isa::Cmp;
using isa::KernelBuilder;
using isa::MemSpace;
using isa::SpecialReg;

/// out[i] = a[i] + b[i], one thread per element. Buffers at fixed addresses.
isa::Program vecadd_kernel(std::uint32_t a_base, std::uint32_t b_base,
                           std::uint32_t out_base, std::uint32_t n) {
  KernelBuilder kb("vecadd");
  auto tid = kb.reg();
  auto ctaid = kb.reg();
  auto ntid = kb.reg();
  auto gid = kb.reg();
  auto va = kb.reg();
  auto vb = kb.reg();
  auto p = kb.pred();
  kb.s2r(tid, SpecialReg::TID_X);
  kb.s2r(ctaid, SpecialReg::CTAID_X);
  kb.s2r(ntid, SpecialReg::NTID_X);
  kb.imad(gid, ctaid, ntid, tid);
  kb.isetpi(p, Cmp::LT, gid, n);
  kb.if_(p, false, [&] {
    kb.iaddi(va, gid, a_base);
    kb.ldg(va, va);
    kb.iaddi(vb, gid, b_base);
    kb.ldg(vb, vb);
    kb.fadd(va, va, vb);
    kb.iaddi(vb, gid, out_base);
    kb.stg(vb, 0, va);
  });
  return kb.build();
}

TEST(Machine, VectorAddEndToEnd) {
  Gpu gpu;
  const std::uint32_t n = 100;  // not a multiple of warp or block size
  std::vector<float> a(n), b(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    a[i] = static_cast<float>(i) * 0.5f;
    b[i] = 100.0f - static_cast<float>(i);
  }
  gpu.write_global_f(0, a);
  gpu.write_global_f(1024, b);
  gpu.reserve_global(2048, n);

  const isa::Program prog = vecadd_kernel(0, 1024, 2048, n);
  const LaunchResult res = gpu.launch(prog, {2, 1, 1}, {64, 1, 1});
  ASSERT_TRUE(res.ok) << trap_name(res.trap);
  EXPECT_GT(res.instructions, 0u);

  const std::vector<float> out = gpu.read_global_f(2048, n);
  for (std::uint32_t i = 0; i < n; ++i) EXPECT_EQ(out[i], a[i] + b[i]) << i;
}

TEST(Machine, GuardPredicateMasksLanes) {
  // Even lanes write 1, odd lanes write 2.
  KernelBuilder kb("pred");
  auto lane = kb.reg();
  auto bit = kb.reg();
  auto v = kb.reg();
  auto addr = kb.reg();
  auto p = kb.pred();
  kb.s2r(lane, SpecialReg::LANEID);
  kb.landi(bit, lane, 1);
  kb.isetpi(p, Cmp::EQ, bit, 0);
  kb.movi(v, 0);
  kb.on(p).movi(v, 1);
  kb.on(p, true).movi(v, 2);
  kb.mov(addr, lane);
  kb.stg(addr, 0, v);
  const isa::Program prog = kb.build();

  Gpu gpu;
  ASSERT_TRUE(gpu.launch(prog, {1, 1, 1}, {32, 1, 1}).ok);
  for (unsigned i = 0; i < 32; ++i)
    EXPECT_EQ(gpu.global()[i], (i % 2 == 0) ? 1u : 2u) << i;
}

TEST(Machine, DivergenceReconverges) {
  // if (lane < 16) x = 10 else x = 20; then x += 1 for everyone.
  KernelBuilder kb("diverge");
  auto lane = kb.reg();
  auto x = kb.reg();
  auto p = kb.pred();
  kb.s2r(lane, SpecialReg::LANEID);
  kb.isetpi(p, Cmp::LT, lane, 16);
  kb.if_(p, false, [&] { kb.movi(x, 10); }, [&] { kb.movi(x, 20); });
  kb.iaddi(x, x, 1);
  kb.stg(lane, 0, x);
  const isa::Program prog = kb.build();

  Gpu gpu;
  ASSERT_TRUE(gpu.launch(prog, {1, 1, 1}, {32, 1, 1}).ok);
  for (unsigned i = 0; i < 32; ++i)
    EXPECT_EQ(gpu.global()[i], i < 16 ? 11u : 21u) << i;
}

TEST(Machine, LoopWithDivergentTripCounts) {
  // Each lane sums 1..laneid with a while loop (different trip counts).
  KernelBuilder kb("loop");
  auto lane = kb.reg();
  auto acc = kb.reg();
  auto i = kb.reg();
  auto p = kb.pred();
  kb.s2r(lane, SpecialReg::LANEID);
  kb.movi(acc, 0);
  kb.movi(i, 1);
  kb.while_(p, false, [&] { kb.isetp(p, Cmp::LE, i, lane); },
            [&] {
              kb.iadd(acc, acc, i);
              kb.iaddi(i, i, 1);
            });
  kb.stg(lane, 0, acc);
  const isa::Program prog = kb.build();

  Gpu gpu;
  ASSERT_TRUE(gpu.launch(prog, {1, 1, 1}, {32, 1, 1}).ok);
  for (unsigned l = 0; l < 32; ++l)
    EXPECT_EQ(gpu.global()[l], l * (l + 1) / 2) << l;
}

TEST(Machine, NestedDivergence) {
  // Nested if inside if.
  KernelBuilder kb("nested");
  auto lane = kb.reg();
  auto x = kb.reg();
  auto p = kb.pred();
  auto q = kb.pred();
  kb.s2r(lane, SpecialReg::LANEID);
  kb.movi(x, 0);
  kb.isetpi(p, Cmp::LT, lane, 16);
  kb.if_(p, false, [&] {
    kb.isetpi(q, Cmp::LT, lane, 8);
    kb.if_(q, false, [&] { kb.movi(x, 1); }, [&] { kb.movi(x, 2); });
  }, [&] { kb.movi(x, 3); });
  kb.stg(lane, 0, x);
  const isa::Program prog = kb.build();

  Gpu gpu;
  ASSERT_TRUE(gpu.launch(prog, {1, 1, 1}, {32, 1, 1}).ok);
  for (unsigned l = 0; l < 32; ++l) {
    const std::uint32_t expect = l < 8 ? 1u : (l < 16 ? 2u : 3u);
    EXPECT_EQ(gpu.global()[l], expect) << l;
  }
}

TEST(Machine, SharedMemoryAndBarrier) {
  // Reverse 64 values within a CTA through shared memory.
  KernelBuilder kb("reverse");
  kb.set_shared_words(64);
  auto tid = kb.reg();
  auto v = kb.reg();
  auto rev = kb.reg();
  auto tmp = kb.reg();
  kb.s2r(tid, SpecialReg::TID_X);
  kb.ldg(v, tid, 100);        // v = g[100 + tid]
  kb.sts(tid, 0, v);          // shared[tid] = v
  kb.bar();
  kb.movi(tmp, 63);
  kb.isub(rev, tmp, tid);     // rev = 63 - tid
  kb.lds(v, rev, 0);          // v = shared[rev]
  kb.stg(tid, 200, v);        // g[200 + tid] = v
  const isa::Program prog = kb.build();

  Gpu gpu;
  for (unsigned i = 0; i < 64; ++i) gpu.global()[100 + i] = i * 7 + 1;
  ASSERT_TRUE(gpu.launch(prog, {1, 1, 1}, {64, 1, 1}).ok);
  for (unsigned i = 0; i < 64; ++i)
    EXPECT_EQ(gpu.global()[200 + i], (63 - i) * 7 + 1) << i;
}

TEST(Machine, MultiCtaGrid) {
  // Each CTA writes its id at out[cta].
  KernelBuilder kb("ctas");
  auto tid = kb.reg();
  auto cta = kb.reg();
  auto p = kb.pred();
  kb.s2r(tid, SpecialReg::TID_X);
  kb.s2r(cta, SpecialReg::CTAID_X);
  kb.isetpi(p, Cmp::EQ, tid, 0);
  kb.if_(p, false, [&] { kb.stg(cta, 300, cta); });
  const isa::Program prog = kb.build();

  Gpu gpu;
  ASSERT_TRUE(gpu.launch(prog, {10, 1, 1}, {32, 1, 1}).ok);
  for (unsigned c = 0; c < 10; ++c) EXPECT_EQ(gpu.global()[300 + c], c) << c;
}

TEST(Machine, IllegalAddressTraps) {
  KernelBuilder kb("oob");
  auto r = kb.reg();
  kb.movi(r, 0x7FFFFFFF);
  kb.ldg(r, r);
  const isa::Program prog = kb.build();
  Gpu gpu;
  const LaunchResult res = gpu.launch(prog, {1, 1, 1}, {1, 1, 1});
  EXPECT_FALSE(res.ok);
  EXPECT_EQ(res.trap, TrapKind::IllegalAddress);
}

TEST(Machine, InvalidRegisterTraps) {
  isa::Program prog;
  prog.name = "badreg";
  prog.regs_per_thread = 4;
  isa::Instruction in;
  in.op = isa::Op::IADD;
  in.rd = 0;
  in.rs1 = 50;  // beyond regs_per_thread
  in.rs2 = 1;
  prog.words.push_back(isa::encode(in));
  prog.words.push_back(isa::encode({.op = isa::Op::EXIT}));
  Gpu gpu;
  const LaunchResult res = gpu.launch(prog, {1, 1, 1}, {32, 1, 1});
  EXPECT_FALSE(res.ok);
  EXPECT_EQ(res.trap, TrapKind::InvalidRegister);
}

TEST(Machine, InvalidRegisterIssueWritesNothing) {
  // MOV r0, r50 and SEL r0, r50, r1 with regs_per_thread 4: each traps at
  // lane 0 and leaves r0 as the MOV before it set it.
  for (const isa::Op op : {isa::Op::MOV, isa::Op::SEL}) {
    isa::Program prog;
    prog.regs_per_thread = 4;
    prog.words.push_back(
        isa::encode({.op = isa::Op::MOV, .rd = 0, .use_imm = true, .imm = 7}));
    prog.words.push_back(isa::encode({.op = op, .rd = 0, .rs1 = 50, .rs2 = 1, .rs3 = 7}));
    prog.words.push_back(isa::encode({.op = isa::Op::EXIT}));
    Gpu gpu;
    const LaunchResult res = gpu.launch(prog, {1, 1, 1}, {32, 1, 1});
    EXPECT_EQ(res.trap, TrapKind::InvalidRegister) << isa::name_of(op);
    EXPECT_EQ(res.trap_pc, 1u);
    for (unsigned lane = 0; lane < kWarpSize; ++lane)
      EXPECT_EQ(gpu.reg_at(0, 0, 0, lane, 0), 7u) << isa::name_of(op) << lane;
  }
}

TEST(Machine, InvalidOpcodeTraps) {
  isa::Program prog;
  prog.name = "badop";
  prog.words.push_back(std::uint64_t{0xEE} << 56);
  Gpu gpu;
  const LaunchResult res = gpu.launch(prog, {1, 1, 1}, {32, 1, 1});
  EXPECT_FALSE(res.ok);
  EXPECT_EQ(res.trap, TrapKind::InvalidOpcode);
}

TEST(Machine, WatchdogCatchesInfiniteLoop) {
  KernelBuilder kb("spin");
  auto head = kb.label();
  kb.place(head);
  kb.bra(head);
  const isa::Program prog = kb.build();
  Gpu gpu;
  const LaunchResult res = gpu.launch(prog, {1, 1, 1}, {32, 1, 1}, 10'000);
  EXPECT_FALSE(res.ok);
  EXPECT_EQ(res.trap, TrapKind::Watchdog);
}

TEST(Machine, BarrierDeadlockAfterEarlyExitHangs) {
  // Warp 0 exits before the barrier; warp 1 waits forever -> watchdog.
  KernelBuilder kb("deadlock");
  auto tid = kb.reg();
  auto wid = kb.reg();
  auto p = kb.pred();
  kb.s2r(tid, SpecialReg::TID_X);
  kb.shr(wid, tid, 5);
  kb.isetpi(p, Cmp::EQ, wid, 0);
  // Guarded EXIT kills warp 0's lanes entirely.
  auto after = kb.label();
  kb.bra(after, p, true);
  kb.movi(tid, 0);  // warp 0 only
  // warp 0 runs off into EXIT below via fallthrough? No: both warps reach
  // here, so instead: warp0 exits via the built EXIT after storing,
  // warp1 hits BAR first.
  kb.place(after);
  kb.on(p, true).bar();  // only warp 1 executes the barrier
  // warp 1 waits; warp 0 proceeds to EXIT and finishes.
  const isa::Program prog = kb.build();
  Gpu gpu;
  const LaunchResult res = gpu.launch(prog, {1, 1, 1}, {64, 1, 1}, 20'000);
  EXPECT_FALSE(res.ok);
  EXPECT_EQ(res.trap, TrapKind::Watchdog);
}

TEST(Machine, SpecialRegistersExposed) {
  KernelBuilder kb("specials");
  auto tid = kb.reg();
  auto lane = kb.reg();
  auto warp = kb.reg();
  auto ntid = kb.reg();
  kb.s2r(tid, SpecialReg::TID_X);
  kb.s2r(lane, SpecialReg::LANEID);
  kb.s2r(warp, SpecialReg::WARPID);
  kb.s2r(ntid, SpecialReg::NTID_X);
  kb.stg(tid, 0, lane);
  kb.stg(tid, 100, warp);
  kb.stg(tid, 200, ntid);
  const isa::Program prog = kb.build();
  Gpu gpu;
  ASSERT_TRUE(gpu.launch(prog, {1, 1, 1}, {64, 1, 1}).ok);
  for (unsigned t = 0; t < 64; ++t) {
    EXPECT_EQ(gpu.global()[t], t % 32);
    EXPECT_EQ(gpu.global()[100 + t], t / 32);
    EXPECT_EQ(gpu.global()[200 + t], 64u);
  }
}

TEST(Machine, LocalMemoryPerThread) {
  // Each thread writes its tid into local[3] and reads it back.
  KernelBuilder kb("local");
  auto tid = kb.reg();
  auto v = kb.reg();
  kb.s2r(tid, SpecialReg::TID_X);
  kb.st(MemSpace::Local, KernelBuilder::RZ, 3, tid);
  kb.ld(v, MemSpace::Local, KernelBuilder::RZ, 3);
  kb.stg(tid, 0, v);
  const isa::Program prog = kb.build();
  Gpu gpu;
  ASSERT_TRUE(gpu.launch(prog, {1, 1, 1}, {64, 1, 1}).ok);
  for (unsigned t = 0; t < 64; ++t) EXPECT_EQ(gpu.global()[t], t) << t;

  // clear_memories zeroes local memory: a local load reads 0, not what
  // the previous run stored.
  KernelBuilder kb2("local-load");
  auto tid2 = kb2.reg();
  auto v2 = kb2.reg();
  kb2.s2r(tid2, SpecialReg::TID_X);
  kb2.ld(v2, MemSpace::Local, KernelBuilder::RZ, 3);
  kb2.stg(tid2, 0, v2);
  gpu.clear_memories();
  ASSERT_TRUE(gpu.launch(kb2.build(), {1, 1, 1}, {64, 1, 1}).ok);
  for (unsigned t = 0; t < 64; ++t) EXPECT_EQ(gpu.global()[t], 0u) << t;
}

TEST(Machine, ConstMemoryReadOnly) {
  KernelBuilder kb("const");
  auto v = kb.reg();
  auto tid = kb.reg();
  kb.s2r(tid, SpecialReg::TID_X);
  kb.ldc(v, tid, 0);
  kb.stg(tid, 0, v);
  const isa::Program prog = kb.build();
  Gpu gpu;
  for (unsigned i = 0; i < 32; ++i) gpu.constm()[i] = 1000 + i;
  ASSERT_TRUE(gpu.launch(prog, {1, 1, 1}, {32, 1, 1}).ok);
  for (unsigned i = 0; i < 32; ++i) EXPECT_EQ(gpu.global()[i], 1000 + i);

  // A store to const memory traps.
  KernelBuilder kb2("const-store");
  auto r = kb2.reg();
  kb2.movi(r, 1);
  kb2.st(MemSpace::Const, KernelBuilder::RZ, 0, r);
  const isa::Program bad = kb2.build();
  const LaunchResult res = gpu.launch(bad, {1, 1, 1}, {1, 1, 1});
  EXPECT_FALSE(res.ok);
  EXPECT_EQ(res.trap, TrapKind::IllegalAddress);
}

TEST(Machine, DeterministicAcrossRuns) {
  const isa::Program prog = vecadd_kernel(0, 1024, 2048, 64);
  Gpu gpu;
  std::vector<float> a(64, 1.5f), b(64, 2.25f);
  gpu.write_global_f(0, a);
  gpu.write_global_f(1024, b);
  gpu.reserve_global(2048, 64);
  const LaunchResult r1 = gpu.launch(prog, {1, 1, 1}, {64, 1, 1});
  const LaunchResult r2 = gpu.launch(prog, {1, 1, 1}, {64, 1, 1});
  EXPECT_EQ(r1.cycles, r2.cycles);
  EXPECT_EQ(r1.instructions, r2.instructions);
}

/// Forces every lane of every issue on, like a stuck-high dispatch mask.
class AllLanesOn final : public MachineHooks {
 public:
  void pre_execute(ExecCtx& ctx) override { ctx.exec_mask = ~0u; }
};

TEST(Machine, IdleLanesReadZeroThreadIndices) {
  // Every lane (idle ones too) stores its TID_X at out[warp * 32 + lane].
  KernelBuilder kb("tids");
  auto tid = kb.reg();
  auto lane = kb.reg();
  auto warp = kb.reg();
  auto addr = kb.reg();
  kb.s2r(tid, SpecialReg::TID_X);
  kb.s2r(lane, SpecialReg::LANEID);
  kb.s2r(warp, SpecialReg::WARPID);
  kb.shl(addr, warp, 5);
  kb.iadd(addr, addr, lane);
  kb.stg(addr, 0, tid);
  const isa::Program prog = kb.build();

  // A full 64-thread launch leaves TID_X 32..63 in warp 1's lanes; the
  // 40-thread launch after it must not let its idle lanes 8..31 see them.
  Gpu reused;
  ASSERT_TRUE(reused.launch(prog, {1, 1, 1}, {64, 1, 1}).ok);
  AllLanesOn all_on;
  reused.set_hooks(&all_on);
  ASSERT_TRUE(reused.launch(prog, {1, 1, 1}, {40, 1, 1}).ok);

  Gpu fresh;
  fresh.set_hooks(&all_on);
  ASSERT_TRUE(fresh.launch(prog, {1, 1, 1}, {40, 1, 1}).ok);
  for (unsigned i = 0; i < 64; ++i) {
    EXPECT_EQ(reused.global()[i], fresh.global()[i]) << i;
    EXPECT_EQ(fresh.global()[i], i < 40 ? i : 0u) << i;
  }
}

TEST(Machine, LaunchCountersRecordTraps) {
  set_metrics_override(1);
  obs::reset_all();
  // An IADD naming r50 with regs_per_thread 4 traps.
  isa::Program bad;
  bad.regs_per_thread = 4;
  bad.words.push_back(isa::encode({.op = isa::Op::IADD, .rd = 0, .rs1 = 50, .rs2 = 1}));
  bad.words.push_back(isa::encode({.op = isa::Op::EXIT}));
  Gpu gpu;
  const LaunchResult trapped = gpu.launch(bad, {1, 1, 1}, {32, 1, 1});
  ASSERT_EQ(trapped.trap, TrapKind::InvalidRegister);

  KernelBuilder kb("spin");
  auto head = kb.label();
  kb.place(head);
  kb.bra(head);
  const LaunchResult hung = gpu.launch(kb.build(), {1, 1, 1}, {32, 1, 1}, 100);
  ASSERT_EQ(hung.trap, TrapKind::Watchdog);

  const LaunchResult ok =
      gpu.launch(vecadd_kernel(0, 1024, 2048, 64), {1, 1, 1}, {64, 1, 1});
  ASSERT_TRUE(ok.ok);

  const obs::Snapshot snap = obs::snapshot();
  set_metrics_override(-1);
  EXPECT_EQ(snap.counter("arch.launches"), 3u);
  EXPECT_EQ(snap.counter("arch.cycles"), trapped.cycles + hung.cycles + ok.cycles);
  EXPECT_EQ(snap.counter("arch.warp_instructions"),
            trapped.instructions + hung.instructions + ok.instructions);
  EXPECT_EQ(snap.counter("arch.traps.invalid_register"), 1u);
  EXPECT_EQ(snap.counter("arch.traps.watchdog_hang"), 1u);
}

TEST(Machine, UnitIssueCountsTracked) {
  const isa::Program prog = vecadd_kernel(0, 1024, 2048, 64);
  Gpu gpu;
  const LaunchResult res = gpu.launch(prog, {1, 1, 1}, {64, 1, 1});
  ASSERT_TRUE(res.ok);
  EXPECT_GT(res.unit_issues[static_cast<unsigned>(isa::UnitClass::FP32)], 0u);
  EXPECT_GT(res.unit_issues[static_cast<unsigned>(isa::UnitClass::MEM)], 0u);
  EXPECT_GT(res.unit_issues[static_cast<unsigned>(isa::UnitClass::INT)], 0u);
}

}  // namespace
}  // namespace gpf::arch
