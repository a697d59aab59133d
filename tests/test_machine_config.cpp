// Configuration generality: the GPU model must behave identically across
// SM/PPB topologies (multi-SM grids, multi-PPB CTAs, small warp capacity),
// and the trap surface must be stable under them.
#include <gtest/gtest.h>

#include "arch/machine.hpp"
#include "isa/builder.hpp"
#include "perfi/campaign.hpp"
#include "rtl/campaign.hpp"
#include "workloads/workload.hpp"

namespace gpf::arch {
namespace {

using isa::Cmp;
using isa::KernelBuilder;
using isa::SpecialReg;

isa::Program marker_kernel() {
  // out[gid] = smid * 1000 + warpid * 100 + tid
  KernelBuilder kb("marker");
  auto tid = kb.reg();
  auto cta = kb.reg();
  auto ntid = kb.reg();
  auto gid = kb.reg();
  auto sm = kb.reg();
  auto wid = kb.reg();
  auto v = kb.reg();
  auto k = kb.reg();
  kb.s2r(tid, SpecialReg::TID_X);
  kb.s2r(cta, SpecialReg::CTAID_X);
  kb.s2r(ntid, SpecialReg::NTID_X);
  kb.imad(gid, cta, ntid, tid);
  kb.s2r(sm, SpecialReg::SMID);
  kb.s2r(wid, SpecialReg::WARPID);
  kb.movi(k, 1000);
  kb.imul(v, sm, k);
  kb.movi(k, 100);
  kb.imad(v, wid, k, v);
  kb.iadd(v, v, tid);
  kb.stg(gid, 0, v);
  return kb.build();
}

TEST(MultiSm, CtasDistributeAcrossSms) {
  GpuConfig cfg;
  cfg.num_sms = 2;
  Gpu gpu(cfg);
  const isa::Program prog = marker_kernel();
  ASSERT_TRUE(gpu.launch(prog, {4, 1, 1}, {32, 1, 1}).ok);
  // With 2 SMs and 4 CTAs, both SMs must have executed work.
  bool sm0 = false, sm1 = false;
  for (unsigned i = 0; i < 128; ++i) {
    const std::uint32_t v = gpu.global()[i];
    (v / 1000 == 0 ? sm0 : sm1) = true;
    EXPECT_EQ(v % 100, i % 32);  // tid is topology-independent
  }
  EXPECT_TRUE(sm0);
  EXPECT_TRUE(sm1);
}

class TopologySweep
    : public ::testing::TestWithParam<std::tuple<unsigned, unsigned>> {};

TEST_P(TopologySweep, WorkloadResultsTopologyIndependent) {
  const auto [sms, ppbs] = GetParam();
  GpuConfig cfg;
  cfg.num_sms = sms;
  cfg.ppbs_per_sm = ppbs;

  for (const char* name : {"mxm", "hotspot", "mergesort", "tmxm"}) {
    const workloads::Workload& w = *workloads::find(name);
    Gpu base;
    const auto golden = workloads::golden_output(w, base);
    Gpu gpu(cfg);
    w.setup(gpu);
    const workloads::RunStats s = w.run(gpu);
    ASSERT_TRUE(s.ok) << name << " sms=" << sms << " ppbs=" << ppbs;
    const workloads::OutputSpec spec = w.output();
    for (std::size_t i = 0; i < spec.words; ++i)
      ASSERT_EQ(gpu.global()[spec.addr + i], golden[i])
          << name << " word " << i << " sms=" << sms << " ppbs=" << ppbs;
  }
}

INSTANTIATE_TEST_SUITE_P(Topologies, TopologySweep,
                         ::testing::Values(std::make_tuple(1u, 2u),
                                           std::make_tuple(2u, 1u),
                                           std::make_tuple(2u, 2u),
                                           std::make_tuple(4u, 1u)));

TEST(MultiPpb, BarrierSpansPpbs) {
  // CTA of 8 warps over 2 PPBs: the shared-memory reverse must still work.
  GpuConfig cfg;
  cfg.ppbs_per_sm = 2;
  Gpu gpu(cfg);
  KernelBuilder kb("reverse256");
  kb.set_shared_words(256);
  auto tid = kb.reg();
  auto v = kb.reg();
  auto rev = kb.reg();
  auto tmp = kb.reg();
  kb.s2r(tid, SpecialReg::TID_X);
  kb.ldg(v, tid, 1000);
  kb.sts(tid, 0, v);
  kb.bar();
  kb.movi(tmp, 255);
  kb.isub(rev, tmp, tid);
  kb.lds(v, rev, 0);
  kb.stg(tid, 2000, v);
  const isa::Program prog = kb.build();
  for (unsigned i = 0; i < 256; ++i) gpu.global()[1000 + i] = i * 3 + 5;
  ASSERT_TRUE(gpu.launch(prog, {1, 1, 1}, {256, 1, 1}).ok);
  for (unsigned i = 0; i < 256; ++i)
    EXPECT_EQ(gpu.global()[2000 + i], (255 - i) * 3 + 5) << i;
}

TEST(Config, CtaBeyondCapacityThrows) {
  GpuConfig cfg;
  cfg.max_warps_per_ppb = 2;
  Gpu gpu(cfg);
  KernelBuilder kb("big");
  const isa::Program prog = kb.build();
  EXPECT_THROW(gpu.launch(prog, {1, 1, 1}, {128, 1, 1}), std::invalid_argument);
}

TEST(Config, EmptyLaunchThrows) {
  Gpu gpu;
  KernelBuilder kb("none");
  const isa::Program prog = kb.build();
  EXPECT_THROW(gpu.launch(prog, {0, 1, 1}, {32, 1, 1}), std::invalid_argument);
}

TEST(Config, SegmentsEnforceAllocationMap) {
  Gpu gpu;
  gpu.reserve_global(100, 10);
  KernelBuilder kb("touch");
  auto r = kb.reg();
  kb.movi(r, 105);
  kb.ldg(r, r);  // inside the segment
  const isa::Program ok_prog = kb.build();
  ASSERT_TRUE(gpu.launch(ok_prog, {1, 1, 1}, {1, 1, 1}).ok);

  KernelBuilder kb2("stray");
  auto r2 = kb2.reg();
  kb2.movi(r2, 50);  // outside any segment
  kb2.ldg(r2, r2);
  const isa::Program bad_prog = kb2.build();
  const LaunchResult res = gpu.launch(bad_prog, {1, 1, 1}, {1, 1, 1});
  EXPECT_FALSE(res.ok);
  EXPECT_EQ(res.trap, TrapKind::IllegalAddress);
}

// Global memory is stored only up to the highest registered word, so no Gpu
// and no reset pays for all of global_words. This counts stored words, so a
// later whole-memory touch on the production path fails here, not as a
// slowdown. A bare-metal launch, where every address is valid, stores all.
TEST(Config, ResidencyFollowsAllocationMap) {
  const std::size_t all = GpuConfig{}.global_words;
  EXPECT_EQ(Gpu{}.resident_global_words(), 0u);

  std::size_t largest = 0;
  for (const auto& set : {workloads::evaluation_set(), workloads::profiling_set()})
    for (const workloads::Workload* w : set) {
      Gpu gpu;
      w->setup(gpu);
      const std::size_t stored = gpu.resident_global_words();
      ASSERT_TRUE(w->run(gpu).ok) << w->name();
      EXPECT_EQ(gpu.resident_global_words(), stored) << w->name();
      // The last stored word is registered: storage ends at the highest
      // registered word.
      ASSERT_GT(stored, 0u) << w->name();
      EXPECT_TRUE(gpu.global_addr_valid(stored - 1)) << w->name();
      largest = std::max(largest, stored);
    }
  EXPECT_LE(largest, 10'241u);  // bfs stores the most

  // Golden capture, injection and output compare read only the output.
  perfi::AppInjectionRunner app(*workloads::find("hotspot"));
  EXPECT_LT(app.gpu().resident_global_words(), all);
  Rng rng(11);
  for (int i = 0; i < 4; ++i)
    (void)app.inject(perfi::random_descriptor(errmodel::ErrorModel::IMS, rng));
  EXPECT_LT(app.gpu().resident_global_words(), all);

  const rtl::Injector injector(rtl::target_from_tmxm(workloads::TileType::Max, 3));
  EXPECT_LT(injector.gpu().resident_global_words(), all);
  rtl::TmxmUnitRunner tmxm(rtl::tmxm_campaign_meta(workloads::TileType::Max,
                                                   rtl::Site::FuLane, 8, 3));
  const std::vector<std::uint64_t> ids{0, 1, 2, 3, 4, 5, 6, 7};
  tmxm.run(ids, [](std::uint64_t, const rtl::InjectionResult&) {});
  EXPECT_LT(tmxm.resident_global_words(), all);

  Gpu bare;
  KernelBuilder kb("bare");
  auto r = kb.reg();
  kb.movi(r, 7);
  kb.stg(KernelBuilder::RZ, 5, r);
  ASSERT_TRUE(bare.launch(kb.build(), {1, 1, 1}, {1, 1, 1}).ok);
  EXPECT_EQ(bare.resident_global_words(), all);
}

TEST(Config, AdjacentSegmentsMerge) {
  Gpu gpu;
  gpu.reserve_global(0, 10);
  gpu.reserve_global(10, 10);  // adjacent: must merge into [0, 20)
  EXPECT_TRUE(gpu.global_addr_valid(15));
  EXPECT_FALSE(gpu.global_addr_valid(25));
}

}  // namespace
}  // namespace gpf::arch
