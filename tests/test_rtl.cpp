#include <gtest/gtest.h>

#include <filesystem>
#include <stdexcept>
#include <string>
#include <unistd.h>

#include "rtl/campaign.hpp"
#include "rtl/microbench.hpp"
#include "store/result_log.hpp"
#include "syndrome/pattern.hpp"

namespace gpf::rtl {
namespace {

TEST(MicroBench, AllOpsRunCleanly) {
  for (unsigned o = 0; o < static_cast<unsigned>(MicroOp::COUNT); ++o) {
    const MicroBench mb = make_micro_bench(static_cast<MicroOp>(o),
                                           InputRange::Medium, 1);
    arch::Gpu gpu;
    setup_micro(gpu, mb);
    const auto res = gpu.launch(mb.prog, {1, 1, 1}, {64, 1, 1});
    ASSERT_TRUE(res.ok) << micro_op_name(static_cast<MicroOp>(o));
  }
}

TEST(MicroBench, DistinctDrawsProduceDistinctInputs) {
  const MicroBench a = make_micro_bench(MicroOp::FMUL, InputRange::Small, 1);
  const MicroBench b = make_micro_bench(MicroOp::FMUL, InputRange::Small, 2);
  EXPECT_NE(a.input_a, b.input_a);
}

TEST(Injector, GoldenReproducible) {
  const MicroBench mb = make_micro_bench(MicroOp::FADD, InputRange::Medium, 3);
  Injector i1(target_from_micro(mb, true));
  Injector i2(target_from_micro(mb, true));
  EXPECT_EQ(i1.golden(), i2.golden());
}

TEST(Injector, FuFaultCorruptsOneLane) {
  const MicroBench mb = make_micro_bench(MicroOp::FMUL, InputRange::Medium, 3);
  Injector inj(target_from_micro(mb, true));
  FaultSpec f;
  f.site = Site::FuLane;
  f.lane = 5;
  f.bus = sf::BusFault{sf::Bus::MulProduct, 45, true};
  const InjectionResult r = inj.inject(f);
  // A high product bit stuck on a per-lane FU corrupts exactly that lane in
  // both warps (threads 5 and 37) unless the bit was already set.
  ASSERT_NE(r.outcome, Outcome::Due);
  for (std::uint32_t idx : r.corrupted_idx) EXPECT_EQ(idx % 32, 5u);
  EXPECT_LE(r.corrupted, 2u);
}

TEST(Injector, SfuFaultHitsSharedLanes) {
  const MicroBench mb = make_micro_bench(MicroOp::FSIN, InputRange::Medium, 3);
  Injector inj(target_from_micro(mb, true));
  FaultSpec f;
  f.site = Site::Sfu;
  f.lane = 0;  // SFU 0 serves lanes 0..15
  f.bus = sf::BusFault{sf::Bus::SfuPolyT2, 20, true};
  const InjectionResult r = inj.inject(f);
  ASSERT_NE(r.outcome, Outcome::Due);
  for (std::uint32_t idx : r.corrupted_idx) EXPECT_LT(idx % 32, 16u);
  EXPECT_GT(r.corrupted, 2u);  // many threads share the faulty SFU
}

TEST(Injector, SchedulerMaskFaultDisablesThread) {
  const MicroBench mb = make_micro_bench(MicroOp::IADD, InputRange::Medium, 3);
  Injector inj(target_from_micro(mb, false));
  FaultSpec f;
  f.site = Site::Scheduler;
  f.sched = SchedulerFault{SchedulerFault::Field::ActiveMask, 0, 7, false};
  const InjectionResult r = inj.inject(f);
  // Thread 7 of warp slot 0 never executes -> its output stays zero (SDC).
  ASSERT_TRUE(r.outcome == Outcome::SdcSingle || r.outcome == Outcome::SdcMultiple);
  bool has7 = false;
  for (std::uint32_t idx : r.corrupted_idx)
    if (idx == 7) has7 = true;
  EXPECT_TRUE(has7);
}

TEST(Injector, SchedulerPcFaultCausesDue) {
  const MicroBench mb = make_micro_bench(MicroOp::IADD, InputRange::Medium, 3);
  Injector inj(target_from_micro(mb, false));
  FaultSpec f;
  f.site = Site::Scheduler;
  f.sched = SchedulerFault{SchedulerFault::Field::StoredPc, 0, 9, true};
  const InjectionResult r = inj.inject(f);
  EXPECT_EQ(r.outcome, Outcome::Due);  // PC forced past the program
}

TEST(Injector, PipelineInstrWordFault) {
  const MicroBench mb = make_micro_bench(MicroOp::FADD, InputRange::Medium, 3);
  Injector inj(target_from_micro(mb, false));
  FaultSpec f;
  f.site = Site::Pipeline;
  f.pipe = PipelineFault{PipelineFault::Field::InstrWord, 0, 57, true};
  const InjectionResult r = inj.inject(f);
  // Corrupting opcode bits of every instruction either DUEs or corrupts data.
  EXPECT_NE(r.outcome, Outcome::Masked);
}

TEST(Injector, InjectionDoesNotPerturbNextRun) {
  const MicroBench mb = make_micro_bench(MicroOp::FMUL, InputRange::Medium, 4);
  Injector inj(target_from_micro(mb, true));
  FaultSpec f;
  f.site = Site::FuLane;
  f.lane = 0;
  f.bus = sf::BusFault{sf::Bus::MulProduct, 46, false};
  (void)inj.inject(f);
  // A null-ish fault afterwards must be fully masked (state fully reset).
  FaultSpec benign;
  benign.site = Site::FuLane;
  benign.lane = 1;
  benign.bus = sf::BusFault{sf::Bus::AddExpDiff, 7, false};  // unused by FMUL
  const InjectionResult r = inj.inject(benign);
  EXPECT_EQ(r.outcome, Outcome::Masked);
}

TEST(Campaign, MicroCampaignProducesMixedOutcomes) {
  const AvfSummary s =
      run_micro_campaign(MicroOp::FMUL, InputRange::Medium, Site::FuLane, 60, 11);
  EXPECT_EQ(s.injections, 60u);
  EXPECT_GT(s.masked, 0u);
  EXPECT_GT(s.sdc_single + s.sdc_multi, 0u);
  EXPECT_FALSE(s.rel_errors.empty());
}

TEST(Campaign, SchedulerCorruptsMoreThreadsThanFu) {
  const AvfSummary fu =
      run_micro_campaign(MicroOp::IADD, InputRange::Medium, Site::FuLane, 120, 21);
  const AvfSummary sched =
      run_micro_campaign(MicroOp::IADD, InputRange::Medium, Site::Scheduler, 200, 22);
  ASSERT_GT(fu.sdc_single + fu.sdc_multi, 0u);
  ASSERT_GT(sched.sdc_single + sched.sdc_multi, 0u);
  // Paper Fig. 4 discussion: ~1 corrupted thread/warp for INT FUs vs ~28 for
  // the scheduler; we only require the ordering and a clear gap.
  EXPECT_LT(fu.avg_corrupted_per_warp(), 1.5);
  EXPECT_GT(sched.avg_corrupted_per_warp(), fu.avg_corrupted_per_warp());
}

TEST(Campaign, TmxmCampaignRuns) {
  std::vector<InjectionResult> details;
  const AvfSummary s = run_tmxm_campaign(workloads::TileType::Random,
                                         Site::Scheduler, 40, 31, &details);
  EXPECT_EQ(s.injections, 40u);
  EXPECT_EQ(details.size(), 40u);
}

// run_tmxm_campaign's details are, id by id, the records a store of the
// same campaign holds: outcome, corrupted elements and their syndromes.
TEST(Campaign, TmxmDetailsEqualStoredRecords) {
  constexpr std::size_t kN = 24;
  std::vector<InjectionResult> details;
  run_tmxm_campaign(workloads::TileType::Random, Site::Scheduler, kN, 9,
                    &details);
  ASSERT_EQ(details.size(), kN);

  const std::string path = ::testing::TempDir() + "gpf-rtl-details-" +
                           std::to_string(::getpid()) + ".gpfs";
  std::filesystem::remove(path);
  {
    store::CampaignCheckpoint ckpt(
        path, tmxm_campaign_meta(workloads::TileType::Random, Site::Scheduler,
                                 kN, 9));
    run_tmxm_campaign_store(ckpt);
  }
  const store::LoadedStore stored = store::load_store(path);
  std::filesystem::remove(path);
  ASSERT_EQ(stored.records.size(), kN);
  std::size_t corrupted = 0;
  for (const auto& [id, payload] : stored.records) {
    const InjectionResult r = from_rtl_record(store::decode_rtl(payload));
    const InjectionResult& d = details.at(id);
    EXPECT_EQ(d.outcome, r.outcome) << "id " << id;
    EXPECT_EQ(d.corrupted, r.corrupted) << "id " << id;
    EXPECT_EQ(d.per_warp_corrupted, r.per_warp_corrupted) << "id " << id;
    EXPECT_EQ(d.rel_errors, r.rel_errors) << "id " << id;
    EXPECT_EQ(d.corrupted_idx, r.corrupted_idx) << "id " << id;
    corrupted += r.corrupted;
  }
  EXPECT_GT(corrupted, 0u);  // syndromes were compared, not only outcomes
}

// The tile (target) and site (param0) bytes of an rtl header come from a
// .gpfs file or a LeaseGrant: a byte naming no tile or site is refused with
// an error that names it, instead of running an undefined campaign.
TEST(Campaign, TmxmRunnerRefusesUnknownTileAndSite) {
  const auto expect_refused = [](const store::CampaignMeta& meta,
                                 const std::string& what) {
    try {
      TmxmUnitRunner runner(meta);
      ADD_FAILURE() << "runner accepted " << what;
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find(what), std::string::npos) << e.what();
    }
  };
  store::CampaignMeta meta =
      tmxm_campaign_meta(workloads::TileType::Random, Site::FuLane, 4, 1);
  meta.target = 3;
  expect_refused(meta, "tile byte 3");
  meta.target = 255;
  expect_refused(meta, "tile byte 255");
  meta = tmxm_campaign_meta(workloads::TileType::Max, Site::Scheduler, 4, 1);
  meta.param0 = 4;
  expect_refused(meta, "site 4");
  meta.param0 = 255;
  expect_refused(meta, "site 255");
}

TEST(RandomFault, CoversSites) {
  Rng rng(5);
  for (Site site : {Site::FuLane, Site::Sfu, Site::Pipeline, Site::Scheduler}) {
    for (int i = 0; i < 200; ++i) {
      const FaultSpec f = random_fault(site, true, rng);
      EXPECT_EQ(f.site, site);
      if (site == Site::Sfu) {
        EXPECT_LT(f.lane, 2u);
      }
      if (site == Site::FuLane) {
        EXPECT_LT(f.lane, 32u);
      }
    }
  }
}

}  // namespace
}  // namespace gpf::rtl

namespace gpf::syndrome {
namespace {

std::vector<std::uint32_t> idx_of(std::initializer_list<std::pair<unsigned, unsigned>> rc,
                                  unsigned n) {
  std::vector<std::uint32_t> v;
  for (auto [r, c] : rc) v.push_back(r * n + c);
  return v;
}

TEST(Spatial, BasicPatterns) {
  const unsigned n = 16;
  EXPECT_EQ(classify_spatial({}, n), SpatialPattern::None);
  EXPECT_EQ(classify_spatial(idx_of({{3, 4}}, n), n),
            SpatialPattern::Single);
  EXPECT_EQ(classify_spatial(idx_of({{5, 0}, {5, 3}, {5, 9}, {5, 15}}, n), n),
            SpatialPattern::Row);
  EXPECT_EQ(classify_spatial(idx_of({{0, 7}, {4, 7}, {11, 7}}, n), n),
            SpatialPattern::Col);
  EXPECT_EQ(classify_spatial(
                idx_of({{2, 0}, {2, 5}, {2, 9}, {0, 6}, {7, 6}, {13, 6}}, n), n),
            SpatialPattern::RowCol);
  EXPECT_EQ(classify_spatial(
                idx_of({{4, 4}, {4, 5}, {5, 4}, {5, 5}, {4, 6}, {5, 6}}, n), n),
            SpatialPattern::Block);
  std::vector<std::uint32_t> all;
  for (unsigned i = 0; i < 256; ++i) all.push_back(i);
  EXPECT_EQ(classify_spatial(all, n), SpatialPattern::All);
  EXPECT_EQ(classify_spatial(idx_of({{0, 0}, {3, 9}, {12, 2}, {15, 15}}, n), n),
            SpatialPattern::Random);
}

TEST(Spatial, NamesDefined) {
  for (int p = 0; p <= static_cast<int>(SpatialPattern::All); ++p)
    EXPECT_NE(pattern_name(static_cast<SpatialPattern>(p)), "?");
}

}  // namespace
}  // namespace gpf::syndrome
