// Directed tests for the 13 software error functions plus EPR-campaign
// integration: each model must produce its architecturally-specified effect.
#include <gtest/gtest.h>

#include <array>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <unistd.h>

#include "perfi/campaign.hpp"
#include "perfi/injector.hpp"
#include "store/result_log.hpp"
#include "workloads/workload.hpp"

namespace gpf::perfi {
namespace {

using errmodel::ErrorDescriptor;
using errmodel::ErrorModel;

ErrorDescriptor base_descriptor(ErrorModel m) {
  ErrorDescriptor d;
  d.model = m;
  d.sm_id = 0;
  d.ppb_id = 0;
  d.warp_mask = 0xFF;        // all resident warps
  d.thread_mask = 0x1;       // lane 0
  d.bit_err_mask = 0x1;
  return d;
}

const workloads::Workload& app(const char* name) {
  const workloads::Workload* w = workloads::find(name);
  if (!w) throw std::runtime_error("missing app");
  return *w;
}

TEST(ErrorFunctions, NullModelOutcomeEquivalence) {
  // An injector whose warp mask matches nothing behaves as uninstrumented.
  AppInjectionRunner runner(app("vectoradd"));
  ErrorDescriptor d = base_descriptor(ErrorModel::IOC);
  d.warp_mask = 0;  // never matches
  EXPECT_EQ(runner.inject(d), AppOutcome::Masked);
}

TEST(ErrorFunctions, IvocAlwaysDue) {
  AppInjectionRunner runner(app("vectoradd"));
  const ErrorDescriptor d = base_descriptor(ErrorModel::IVOC);
  EXPECT_EQ(runner.inject(d), AppOutcome::DUE);
  EXPECT_EQ(runner.last_trap(), arch::TrapKind::InvalidOpcode);
}

TEST(ErrorFunctions, IvraRaisesInvalidRegister) {
  AppInjectionRunner runner(app("vectoradd"));
  ErrorDescriptor d = base_descriptor(ErrorModel::IVRA);
  d.err_oper_loc = 1;  // corrupt the first source operand
  EXPECT_EQ(runner.inject(d), AppOutcome::DUE);
  EXPECT_EQ(runner.last_trap(), arch::TrapKind::InvalidRegister);
}

TEST(ErrorFunctions, IraProducesSdcOrDue) {
  AppInjectionRunner runner(app("vectoradd"));
  ErrorDescriptor d = base_descriptor(ErrorModel::IRA);
  d.err_oper_loc = 0;
  d.bit_err_mask = 0x3;
  // Redirected destinations either corrupt data (SDC) or derail addressing.
  EXPECT_NE(runner.inject(d), AppOutcome::Masked);
}

TEST(ErrorFunctions, IatCorruptsOutput) {
  AppInjectionRunner runner(app("vectoradd"));
  ErrorDescriptor d = base_descriptor(ErrorModel::IAT);
  d.thread_mask = 0x2;  // thread 1's index register flips
  d.bit_err_mask = 0x4;
  const AppOutcome out = runner.inject(d);
  EXPECT_NE(out, AppOutcome::Masked);
}

TEST(ErrorFunctions, WvOnlyAffectsTargetPredicate) {
  // vectoradd uses one predicate (P0) for its bounds check; flipping P3
  // must be fully masked.
  AppInjectionRunner runner(app("vectoradd"));
  ErrorDescriptor d = base_descriptor(ErrorModel::WV);
  d.target_pred = 3;
  EXPECT_EQ(runner.inject(d), AppOutcome::Masked);
  d.target_pred = 0;
  EXPECT_NE(runner.inject(d), AppOutcome::Masked);
}

TEST(ErrorFunctions, ImdMaskedWithoutSharedMemory) {
  // The paper: codes that do not use shared memory mask 100% of IMD.
  AppInjectionRunner runner(app("vectoradd"));
  ErrorDescriptor d = base_descriptor(ErrorModel::IMD);
  d.thread_mask = 0xFFFFFFFF;
  d.bit_err_mask = 0xFF;
  EXPECT_EQ(runner.inject(d), AppOutcome::Masked);
}

TEST(ErrorFunctions, ImdAffectsSharedMemoryApp) {
  // t-MxM stores tiles to shared memory every iteration.
  AppInjectionRunner runner(app("tmxm"));
  ErrorDescriptor d = base_descriptor(ErrorModel::IMD);
  d.thread_mask = 0xFFFFFFFF;
  d.err_oper_loc = 0;  // corrupt the stored data register
  d.bit_err_mask = 1u << 20;
  EXPECT_NE(runner.inject(d), AppOutcome::Masked);
}

TEST(ErrorFunctions, ImsMaskedWithoutSharedOrConst) {
  AppInjectionRunner runner(app("vectoradd"));
  ErrorDescriptor d = base_descriptor(ErrorModel::IMS);
  d.thread_mask = 0xFFFFFFFF;
  d.bit_err_mask = 0xFFFF;
  EXPECT_EQ(runner.inject(d), AppOutcome::Masked);
}

TEST(ErrorFunctions, IalDisableDropsResults) {
  AppInjectionRunner runner(app("vectoradd"));
  ErrorDescriptor d = base_descriptor(ErrorModel::IAL);
  d.enable_lane = false;
  d.thread_mask = 0x1;  // lane 0 results discarded
  EXPECT_NE(runner.inject(d), AppOutcome::Masked);
}

TEST(ErrorFunctions, IocChangesComputation) {
  AppInjectionRunner runner(app("mxm"));
  ErrorDescriptor d = base_descriptor(ErrorModel::IOC);
  d.replacement_op = 0;  // IADD substitution
  EXPECT_NE(runner.inject(d), AppOutcome::Masked);
}

TEST(ErrorFunctions, DeterministicOutcome) {
  AppInjectionRunner runner(app("gemm"));
  ErrorDescriptor d = base_descriptor(ErrorModel::IAT);
  d.bit_err_mask = 0x8;
  const AppOutcome a = runner.inject(d);
  const AppOutcome b = runner.inject(d);
  EXPECT_EQ(a, b);
}

TEST(Campaign, EprCellAccounting) {
  const EprCell cell = run_epr_cell(app("vectoradd"), ErrorModel::IAT, 20, 77);
  EXPECT_EQ(cell.injections, 20u);
  EXPECT_EQ(cell.masked + cell.sdc + cell.due, 20u);
  EXPECT_NEAR(cell.epr_sdc() + cell.epr_due() + cell.epr_masked(), 1.0, 1e-9);
}

TEST(Campaign, OperationErrorsSkewToDue) {
  // Paper Fig. 13: IRA/IVRA injections overwhelmingly DUE.
  const EprCell ivra = run_epr_cell(app("mxm"), ErrorModel::IVRA, 15, 78);
  EXPECT_GT(ivra.epr_due(), 0.9);
}

TEST(Campaign, ParallelManagementErrorsProduceSdc) {
  // Paper: IAT on low-interdependence codes mostly SDC.
  const EprCell iat = run_epr_cell(app("vectoradd"), ErrorModel::IAT, 25, 79);
  EXPECT_GT(iat.epr_sdc(), 0.3);
}

// run_epr_cell is the fold of the records a store of the same campaign
// holds. gemm x IOC ends in traps and in hangs, so both DUE causes are
// compared, not only the outcome split.
TEST(Campaign, EprCellEqualsFoldOfStoredRecords) {
  const workloads::Workload& w = app("gemm");
  constexpr std::size_t kN = 24;
  const store::CampaignMeta meta = epr_campaign_meta(w, ErrorModel::IOC, kN, 5);
  const EprCell mem = run_epr_cell(w, ErrorModel::IOC, kN, 5);

  const std::string path = ::testing::TempDir() + "gpf-perfi-fold-" +
                           std::to_string(::getpid()) + ".gpfs";
  std::filesystem::remove(path);
  {
    store::CampaignCheckpoint ckpt(path, meta);
    run_epr_cell_store(w, ckpt);
  }
  const store::LoadedStore stored = store::load_store(path);
  std::filesystem::remove(path);
  ASSERT_EQ(stored.records.size(), kN);
  EprCell folded;
  for (const auto& [id, payload] : stored.records)
    add_record(folded, store::decode_perfi(payload));

  const auto fields = [](const EprCell& c) {
    return std::array<std::size_t, 9>{
        c.injections,          c.masked,
        c.sdc,                 c.due,
        c.due_illegal_address, c.due_invalid_register,
        c.due_invalid_opcode,  c.due_hang,
        c.due_other};
  };
  EXPECT_EQ(fields(mem), fields(folded));
  EXPECT_GT(mem.due_hang, 0u);
  EXPECT_GT(mem.due - mem.due_hang, 0u);
}

TEST(Campaign, SoftwareModelListMatchesPaper) {
  const auto models = software_models();
  EXPECT_EQ(models.size(), 11u);  // 13 minus IPP and IVOC
  for (auto m : models) {
    EXPECT_NE(m, ErrorModel::IPP);
    EXPECT_NE(m, ErrorModel::IVOC);
  }
}

// The model byte of a perfi header comes from a .gpfs file or a LeaseGrant:
// a byte naming no error model is refused with an error that names it.
TEST(Campaign, EprRunnerRefusesUnknownModel) {
  const workloads::Workload& w = *workloads::find("hotspot");
  store::CampaignMeta meta = epr_campaign_meta(w, ErrorModel::IMS, 4, 1);
  for (const std::uint8_t bad : {std::uint8_t{13}, std::uint8_t{255}}) {
    meta.model = bad;
    try {
      EprUnitRunner runner(w, meta);
      ADD_FAILURE() << "runner accepted model byte " << static_cast<int>(bad);
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("error-model byte " +
                                           std::to_string(bad)),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(Descriptor, RandomDescriptorsRespectModelShape) {
  Rng rng(3);
  for (int i = 0; i < 100; ++i) {
    const auto d = random_descriptor(ErrorModel::IRA, rng);
    EXPECT_EQ(d.thread_mask, 0xFFFFFFFFu);  // warp-wide model
    EXPECT_EQ(d.warp_mask, 0xFFu);          // shared decode-path hardware
  }
  for (int i = 0; i < 100; ++i) {
    const auto d = random_descriptor(ErrorModel::IAT, rng);
    EXPECT_NE(d.thread_mask, 0u);
    EXPECT_LE(std::popcount(d.thread_mask), 4);
  }
}

}  // namespace
}  // namespace gpf::perfi
