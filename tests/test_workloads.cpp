// Validation of every workload against its host reference: this is the
// integration test layer proving the GPU model executes real programs
// correctly (a prerequisite for trusting the fault-injection results).
#include <gtest/gtest.h>

#include <cmath>

#include "common/bitops.hpp"
#include "common/env.hpp"
#include "obs/metrics.hpp"
#include "workloads/tmxm.hpp"
#include "workloads/workload.hpp"

namespace gpf::workloads {
namespace {

class WorkloadValidation : public ::testing::TestWithParam<const Workload*> {};

TEST_P(WorkloadValidation, MatchesHostReference) {
  const Workload& w = *GetParam();
  arch::Gpu gpu;
  w.setup(gpu);
  const RunStats stats = w.run(gpu);
  ASSERT_TRUE(stats.ok) << w.name() << " trapped: " << arch::trap_name(stats.trap);
  EXPECT_GT(stats.instructions, 0u);

  const OutputSpec spec = w.output();
  ASSERT_GT(spec.words, 0u);
  if (spec.is_float) {
    const std::vector<float> expect = w.host_reference_f();
    ASSERT_EQ(expect.size(), spec.words) << w.name();
    const std::vector<float> got = gpu.read_global_f(spec.addr, spec.words);
    for (std::size_t i = 0; i < spec.words; ++i) {
      const double tol =
          spec.tolerance * std::max(1.0, std::fabs(static_cast<double>(expect[i])));
      ASSERT_NEAR(got[i], expect[i], tol) << w.name() << " word " << i;
    }
  } else {
    const std::vector<std::uint32_t> expect = w.host_reference_u();
    ASSERT_EQ(expect.size(), spec.words) << w.name();
    for (std::size_t i = 0; i < spec.words; ++i)
      ASSERT_EQ(gpu.global()[spec.addr + i], expect[i]) << w.name() << " word " << i;
  }
}

std::string workload_name(const ::testing::TestParamInfo<const Workload*>& info) {
  std::string n{info.param->name()};
  for (char& c : n)
    if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
  return n;
}

INSTANTIATE_TEST_SUITE_P(Evaluation, WorkloadValidation,
                         ::testing::ValuesIn(evaluation_set()), workload_name);
INSTANTIATE_TEST_SUITE_P(Profiling, WorkloadValidation,
                         ::testing::ValuesIn(profiling_set()), workload_name);
INSTANTIATE_TEST_SUITE_P(MiniApp, WorkloadValidation,
                         ::testing::Values(find("tmxm")), workload_name);

TEST(Registry, EvaluationSetMatchesTable1) {
  const auto apps = evaluation_set();
  ASSERT_EQ(apps.size(), 15u);
  EXPECT_EQ(apps[0]->name(), "vectoradd");
  EXPECT_EQ(apps[14]->name(), "yolov3");
  // Table 1 data types.
  for (const Workload* w : apps) {
    const bool is_int = w->data_type() == "INT32";
    const bool expected_int = w->name() == "bfs" || w->name() == "accl" ||
                              w->name() == "nw" || w->name() == "quicksort" ||
                              w->name() == "mergesort";
    EXPECT_EQ(is_int, expected_int) << w->name();
  }
}

TEST(Registry, ProfilingSetHas14Workloads) {
  EXPECT_EQ(profiling_set().size(), 14u);
}

TEST(Registry, FindUnknownReturnsNull) { EXPECT_EQ(find("nope"), nullptr); }

TEST(Registry, MultiKernelAppsLaunchManyKernels) {
  // The paper stresses that bfs/mergesort/quicksort instance many kernels.
  for (const char* name : {"bfs", "mergesort", "quicksort", "gaussian", "nw"}) {
    arch::Gpu gpu;
    const Workload* w = find(name);
    ASSERT_NE(w, nullptr);
    w->setup(gpu);
    const RunStats s = w->run(gpu);
    ASSERT_TRUE(s.ok) << name;
    EXPECT_GE(s.launches, 5u) << name;
  }
}

TEST(Registry, GoldenOutputIsDeterministic) {
  arch::Gpu gpu;
  const Workload* w = find("gemm");
  const auto g1 = golden_output(*w, gpu);
  const auto g2 = golden_output(*w, gpu);
  EXPECT_EQ(g1, g2);
}

// The arch counters see every launch of every fault-free app run once, on
// FastExec and on SoftExec, and count no trap.
TEST(ArchCounters, FaultFreeRunsAddUp) {
  set_metrics_override(1);
  obs::reset_all();
  arch::SoftExec soft;
  std::vector<std::pair<const Workload*, arch::ExecUnit*>> runs;  // nullptr: FastExec
  for (const Workload* w : evaluation_set()) runs.emplace_back(w, nullptr);
  for (const Workload* w : profiling_set()) runs.emplace_back(w, nullptr);
  runs.emplace_back(find("tmxm"), nullptr);
  runs.emplace_back(find("tmxm"), &soft);  // as an rtl campaign runs it
  RunStats total;
  for (const auto& [w, unit] : runs) {
    arch::Gpu gpu;
    gpu.set_exec(unit);
    w->setup(gpu);
    const RunStats s = w->run(gpu);
    ASSERT_TRUE(s.ok) << w->name();
    total.instructions += s.instructions;
    total.cycles += s.cycles;
    total.launches += s.launches;
  }
  const obs::Snapshot snap = obs::snapshot();
  set_metrics_override(-1);
  EXPECT_EQ(snap.counter("arch.warp_instructions"), total.instructions);
  EXPECT_EQ(snap.counter("arch.cycles"), total.cycles);
  EXPECT_EQ(snap.counter("arch.launches"), total.launches);
  for (const auto& [name, value] : snap.counters)
    if (name.rfind("arch.traps.", 0) == 0) {
      EXPECT_EQ(value, 0u) << name;
    }
}

TEST(Tmxm, TileFlavoursDiffer) {
  const auto mx = tmxm_input(TileType::Max, 1, 8);
  const auto z = tmxm_input(TileType::Zero, 1, 8);
  double sum_max = 0, zeros = 0;
  for (float v : mx) sum_max += v;
  for (float v : z)
    if (v == 0.0f) ++zeros;
  EXPECT_GT(sum_max, 4.0 * 64);     // big values
  EXPECT_GT(zeros, 32.0);           // mostly zeros
}

}  // namespace
}  // namespace gpf::workloads
