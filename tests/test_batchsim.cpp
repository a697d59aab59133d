// The bit-parallel (PPSFP) engine must be observationally equivalent to the
// brute-force scalar oracle at every compiled SIMD width: lane-for-lane identical
// FaultCharacterization (class, activation, hang, per-model error counts)
// for every fault on every unit over real profiled traces, including a
// ragged final batch (< lane-width faults) and both stuck-at polarities.
// Widths the build or CPU cannot run are skipped, never failed.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <memory>
#include <stdexcept>
#include <string>

#include "common/rng.hpp"
#include "gate/batchsim.hpp"
#include "gate/jit.hpp"
#include "gate/profiler.hpp"
#include "gate/replay.hpp"
#include "workloads/workload.hpp"

namespace gpf::gate {
namespace {

UnitTraces trace_of(const char* app, std::size_t max_issues = 500) {
  arch::Gpu gpu;
  UnitProfiler prof(max_issues);
  gpu.set_hooks(&prof);
  const workloads::Workload* w = workloads::find(app);
  w->setup(gpu);
  EXPECT_TRUE(w->run(gpu).ok);
  gpu.set_hooks(nullptr);
  return prof.take(app);
}

void expect_same(const FaultCharacterization& a, const FaultCharacterization& b,
                 const char* engines) {
  ASSERT_EQ(a.fault.net, b.fault.net) << engines;
  ASSERT_EQ(a.fault.stuck_high, b.fault.stuck_high) << engines;
  ASSERT_EQ(a.activated, b.activated)
      << engines << " net " << a.fault.net << " stuck" << a.fault.stuck_high;
  ASSERT_EQ(a.hang, b.hang)
      << engines << " net " << a.fault.net << " stuck" << a.fault.stuck_high;
  ASSERT_EQ(a.cls(), b.cls())
      << engines << " net " << a.fault.net << " stuck" << a.fault.stuck_high;
  for (unsigned m = 0; m < errmodel::kNumErrorModels; ++m)
    ASSERT_EQ(a.error_counts[m], b.error_counts[m])
        << engines << " net " << a.fault.net << " stuck" << a.fault.stuck_high
        << " model " << errmodel::name_of(static_cast<errmodel::ErrorModel>(m));
}

/// The width matrix every test sweeps: the scalar baseline plus whichever
/// SIMD widths this build and CPU can actually run.
std::vector<std::size_t> supported_widths() {
  std::vector<std::size_t> widths;
  for (const std::size_t w : {std::size_t{64}, std::size_t{256}, std::size_t{512}})
    if (batch_width_supported(w)) widths.push_back(w);
  return widths;
}

/// Restores lane-width dispatch to "defer to environment" even when an
/// assertion aborts the test body early.
struct LaneGuard {
  ~LaneGuard() { set_batch_lanes_override(0); }
};

class BatchSimEquivalence : public ::testing::TestWithParam<UnitKind> {};

// Full-campaign equivalence over two real profiled traces at every supported
// lane width. 150 sampled faults force a ragged final batch at all widths
// (150 % 64 = 22; a 256/512-lane run gets one partially filled batch).
TEST_P(BatchSimEquivalence, CampaignMatchesBruteOracleAtEveryWidth) {
  const std::vector<UnitTraces> traces = {trace_of("p_tiled_mxm"),
                                          trace_of("p_sort")};
  constexpr std::size_t kFaults = 150;
  static_assert(kFaults % 64 != 0 && kFaults < 256,
                "sample must exercise a ragged final batch at every width");
  LaneGuard guard;

  const auto brute = run_unit_campaign(GetParam(), traces, kFaults, 42, nullptr,
                                       EngineKind::Brute);
  ASSERT_EQ(brute.faults.size(), kFaults);

  for (const std::size_t width : supported_widths()) {
    set_batch_lanes_override(width);
    const auto batch = run_unit_campaign(GetParam(), traces, kFaults, 42,
                                         nullptr, EngineKind::Batch);
    ASSERT_EQ(batch.faults.size(), kFaults) << "width " << width;

    // The sample must cover both stuck-at polarities.
    const auto high = [](const FaultCharacterization& f) {
      return f.fault.stuck_high;
    };
    EXPECT_TRUE(std::any_of(batch.faults.begin(), batch.faults.end(), high));
    EXPECT_TRUE(std::any_of(batch.faults.begin(), batch.faults.end(),
                            [&](const auto& f) { return !high(f); }));

    const std::string label = "width " + std::to_string(width);
    for (std::size_t i = 0; i < kFaults; ++i)
      expect_same(brute.faults[i], batch.faults[i],
                  ("brute-vs-batch @ " + label).c_str());
  }
}

// Direct run_fault_batch on a small ragged batch must equal per-fault
// run_fault lane for lane (at the dispatched width — the batch is far
// smaller than any width, so every width exercises the ragged path).
TEST_P(BatchSimEquivalence, RaggedBatchMatchesRunFault) {
  const UnitTraces t = trace_of("p_tiled_mxm");
  UnitReplayer replayer(GetParam());
  const auto golden = replayer.compute_goldens({&t, 1})[0];

  std::vector<StuckFault> all = full_fault_list(replayer.netlist());
  Rng rng(99);
  std::vector<StuckFault> sample;
  bool saw_high = false, saw_low = false;
  for (std::size_t i = 0; i < 10; ++i) {
    const StuckFault f = all[rng.below(all.size())];
    sample.push_back(f);
    (f.stuck_high ? saw_high : saw_low) = true;
  }
  // Guarantee both polarities in the batch.
  if (!saw_high) sample.back().stuck_high = true;
  if (!saw_low) sample.front().stuck_high = false;

  LaneGuard guard;
  for (const std::size_t width : supported_widths()) {
    set_batch_lanes_override(width);
    std::vector<FaultCharacterization> batch(sample.size());
    for (std::size_t k = 0; k < sample.size(); ++k) batch[k].fault = sample[k];
    const std::unique_ptr<BatchSim> sim = make_batch_sim(replayer.netlist());
    replayer.run_fault_batch(*sim, sample, t, golden, batch);

    for (std::size_t k = 0; k < sample.size(); ++k) {
      FaultCharacterization scalar;
      scalar.fault = sample[k];
      replayer.run_fault(sample[k], t, golden, scalar);
      expect_same(scalar, batch[k],
                  ("brute-vs-batch(lane) @ width " + std::to_string(width))
                      .c_str());
    }
  }
}

/// Restores the collapse/cone knobs to "defer to environment" even when an
/// assertion aborts the test body early.
struct KnobGuard {
  ~KnobGuard() {
    set_collapse_override(-1);
    set_cone_override(-1);
  }
};

// Fault collapsing and cone pruning are pure optimizations: every
// (GPF_COLLAPSE, GPF_CONE, engine) combination must produce the identical
// characterization for every fault as the knobs-off brute-force reference.
// The batch engine runs at the dispatched width here; the width matrix above
// covers per-width equivalence.
TEST_P(BatchSimEquivalence, KnobMatrixClassifiesIdentically) {
  const std::vector<UnitTraces> traces = {trace_of("p_tiled_mxm", 300),
                                          trace_of("p_sort", 300)};
  constexpr std::size_t kFaults = 130;
  static_assert(kFaults % 64 != 0 && kFaults < 256,
                "sample must exercise a ragged final batch at every width");
  KnobGuard guard;

  set_collapse_override(0);
  set_cone_override(0);
  const auto reference = run_unit_campaign(GetParam(), traces, kFaults, 42,
                                           nullptr, EngineKind::Brute);
  ASSERT_EQ(reference.faults.size(), kFaults);

  for (const int collapse : {0, 1}) {
    for (const int cone : {0, 1}) {
      for (const EngineKind e : {EngineKind::Brute, EngineKind::Batch}) {
        if (collapse == 0 && cone == 0 && e == EngineKind::Brute)
          continue;  // the reference itself
        set_collapse_override(collapse);
        set_cone_override(cone);
        const auto res =
            run_unit_campaign(GetParam(), traces, kFaults, 42, nullptr, e);
        const std::string label = std::string("collapse=") +
                                  std::to_string(collapse) +
                                  " cone=" + std::to_string(cone) +
                                  " engine=" + engine_name(e) + " vs reference";
        ASSERT_EQ(res.faults.size(), reference.faults.size()) << label;
        for (std::size_t i = 0; i < kFaults; ++i)
          expect_same(reference.faults[i], res.faults[i], label.c_str());
      }
    }
  }
}

// The gate-program engines are pure optimizations too: the optimized
// streams with fusion on/off and the JIT'd native code must all characterize
// every fault exactly like the brute oracle. JIT rows are skipped (not
// failed) when the container has no C++ compiler.
TEST_P(BatchSimEquivalence, EngineKnobMatrixClassifiesIdentically) {
  const std::vector<UnitTraces> traces = {trace_of("p_tiled_mxm", 250)};
  constexpr std::size_t kFaults = 130;
  KnobGuard guard;
  struct EngineGuard {
    ~EngineGuard() {
      set_fuse_override(-1);
      set_jit_override(-1);
      set_jit_cache_dir_override("");
      jit_reset_for_tests();
    }
  } engine_guard;
  const std::string jit_dir = ::testing::TempDir() + "gpf-jit-knobmatrix";
  set_jit_cache_dir_override(jit_dir);

  const auto reference = run_unit_campaign(GetParam(), traces, kFaults, 42,
                                           nullptr, EngineKind::Brute);
  ASSERT_EQ(reference.faults.size(), kFaults);

  for (const int fuse : {0, 1}) {
    for (const int jit : {0, 1}) {
      if (jit == 1 && !jit_compiler_available()) continue;
      set_fuse_override(fuse);
      set_jit_override(jit);
      jit_reset_for_tests();
      const auto res = run_unit_campaign(GetParam(), traces, kFaults, 42,
                                         nullptr, EngineKind::Batch);
      const std::string label = std::string("fuse=") + std::to_string(fuse) +
                                " jit=" + std::to_string(jit) + " vs brute";
      ASSERT_EQ(res.faults.size(), reference.faults.size()) << label;
      for (std::size_t i = 0; i < kFaults; ++i)
        expect_same(reference.faults[i], res.faults[i], label.c_str());
    }
  }
  std::filesystem::remove_all(jit_dir);
}

INSTANTIATE_TEST_SUITE_P(Units, BatchSimEquivalence,
                         ::testing::Values(UnitKind::Decoder, UnitKind::Fetch,
                                           UnitKind::WSC),
                         [](const auto& info) {
                           return std::string(unit_name(info.param));
                         });

// The dispatch layer: every compiled width reports a path name, the widest
// supported width wins by default, and pinning an unsupported width throws
// instead of silently running the wrong engine.
TEST(BatchSimDispatch, WidthDispatchIsSaneAndPinnable) {
  ASSERT_TRUE(batch_width_supported(64));
  EXPECT_FALSE(batch_width_supported(128));
  EXPECT_FALSE(batch_width_supported(0));
  EXPECT_STREQ(batch_simd_path(64), "scalar64");
  EXPECT_STREQ(batch_simd_path(256), "avx2x256");
  EXPECT_STREQ(batch_simd_path(512), "avx512x512");

  const std::size_t dispatched = batch_lane_width();
  EXPECT_TRUE(batch_width_supported(dispatched));

  LaneGuard guard;
  for (const std::size_t w : supported_widths()) {
    set_batch_lanes_override(w);
    EXPECT_EQ(batch_lane_width(), w);
  }
  if (!batch_width_supported(512))
    EXPECT_THROW(set_batch_lanes_override(512), std::invalid_argument);
  EXPECT_THROW(set_batch_lanes_override(128), std::invalid_argument);
}

TEST(BatchFaultSimUnit, WordEvalMatchesScalarOnToyNetlist) {
  // Tiny mixed netlist: every gate kind the units use, one DFF.
  Netlist nl;
  const Net a = nl.input();
  const Net b = nl.input();
  const Net x1 = nl.xor_(a, b);
  const Net n1 = nl.nand_(a, x1);
  const Net m = nl.mux(b, x1, n1);
  const Net q = nl.dff(m);
  const Net o = nl.or_(q, nl.not_(a));
  nl.add_output_bus("o", {o});
  nl.finalize();

  std::vector<StuckFault> faults;
  for (Net n : {a, b, x1, n1, m, q, o}) {
    faults.push_back({n, false});
    faults.push_back({n, true});
  }

  for (const std::size_t width : supported_widths()) {
    for (int av = 0; av < 2; ++av) {
      for (int bv = 0; bv < 2; ++bv) {
        const std::unique_ptr<BatchSim> bsim = make_batch_sim(nl, width);
        ASSERT_EQ(bsim->width(), width);
        // This test probes value() on interior nets, so declare them as read:
        // the optimized engine only keeps declared (and output/DFF) nets
        // positionally exact.
        const std::vector<Net> probe{a, b, x1, n1, m, q, o};
        bsim->set_observed(probe);
        bsim->begin(faults);
        std::vector<Simulator> ssims;
        for (const StuckFault& f : faults) {
          ssims.emplace_back(nl);
          ssims.back().set_fault(f);
        }
        for (int cycle = 0; cycle < 3; ++cycle) {
          for (std::size_t k = 0; k < faults.size(); ++k) {
            ssims[k].set_input(a, av != 0);
            ssims[k].set_input(b, bv != 0);
            ssims[k].eval();
          }
          const PortBus in_a{"a", {a}}, in_b{"b", {b}};
          bsim->set_bus(in_a, static_cast<std::uint64_t>(av));
          bsim->set_bus(in_b, static_cast<std::uint64_t>(bv));
          bsim->eval();
          for (std::size_t k = 0; k < faults.size(); ++k)
            for (Net n : {a, b, x1, n1, m, q, o})
              ASSERT_EQ(bsim->value(n, static_cast<unsigned>(k)),
                        ssims[k].value(n))
                  << "width=" << width << " a=" << av << " b=" << bv
                  << " cycle=" << cycle << " lane=" << k << " net=" << n;
          for (auto& s : ssims) s.clock();
          bsim->clock();
        }
      }
    }
  }
}

}  // namespace
}  // namespace gpf::gate
