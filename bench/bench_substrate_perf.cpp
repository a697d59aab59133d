// Substrate micro-performance (google-benchmark): netlist evaluation,
// functional-simulator throughput, softfloat datapaths, encode/decode, and
// instrumentation overhead. These are the knobs that set campaign cost.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <string>
#include <vector>

#include "arch/machine.hpp"
#include "common/bitops.hpp"
#include "gate/sim.hpp"
#include "gate/units.hpp"
#include "isa/encoding.hpp"
#include "perfi/injector.hpp"
#include "softfloat/fp32.hpp"
#include "workloads/workload.hpp"

using namespace gpf;

static void BM_EncodeDecode(benchmark::State& state) {
  isa::Instruction in;
  in.op = isa::Op::FFMA;
  in.rd = 3;
  in.rs1 = 1;
  in.rs2 = 2;
  in.rs3 = 3;
  for (auto _ : state) {
    const std::uint64_t w = isa::encode(in);
    benchmark::DoNotOptimize(isa::decode(w));
  }
}
BENCHMARK(BM_EncodeDecode);

static void BM_SoftFloatFma(benchmark::State& state) {
  std::uint32_t a = f32_bits(1.5f), b = f32_bits(2.25f), c = f32_bits(-0.5f);
  for (auto _ : state) {
    c = sf::ffma(a, b, c);
    benchmark::DoNotOptimize(c);
    c = f32_bits(-0.5f);
  }
}
BENCHMARK(BM_SoftFloatFma);

static void BM_DecoderNetlistEval(benchmark::State& state) {
  auto nl = gate::build_decoder_unit();
  gate::Simulator sim(*nl);
  isa::Instruction in;
  in.op = isa::Op::IMAD;
  in.rd = 1;
  in.rs1 = 2;
  in.rs2 = 3;
  in.rs3 = 4;
  sim.set_bus(*nl->find_input("instr"), isa::encode(in));
  sim.set_bus(*nl->find_input("fetch_valid"), 1);
  for (auto _ : state) {
    sim.eval();
    benchmark::DoNotOptimize(sim.bus_value(*nl->find_output("rd")));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(nl->cell_count()));
}
BENCHMARK(BM_DecoderNetlistEval);

static void BM_WscNetlistEval(benchmark::State& state) {
  auto nl = gate::build_wsc_unit();
  gate::Simulator sim(*nl);
  for (auto _ : state) {
    sim.eval();
    sim.clock();
    benchmark::DoNotOptimize(sim.bus_value(*nl->find_output("sel_slot")));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(nl->cell_count()));
}
BENCHMARK(BM_WscNetlistEval);

// --- functional simulator ---------------------------------------------------
// Warp-instructions/s of Workload::run over the 15 evaluation apps and t-MxM
// in the three configurations campaigns use (BENCH_arch.json):
//   fast  — FastExec, no hook: golden runs and gate profiling;
//   perfi — FastExec under an ErrorInjector (IMS, every warp slot);
//   rtl   — SoftExec with no fault installed.
// items_per_second is the warp-instruction rate. Each aggregate row takes
// every field on its own over the 5 repetitions: the median row's rate is
// the rate at the median CPU time, while the min row holds the best CPU time
// next to the slowest repetition's rate.

enum class SimConfig { Fast, Perfi, Rtl };

static void BM_SimulatorInstructionRate(benchmark::State& state,
                                        const workloads::Workload* w, SimConfig config) {
  arch::Gpu gpu;
  // A corrupted run may hang: bound each launch by four fault-free runs.
  w->setup(gpu);
  const std::uint64_t budget = 4 * w->run(gpu).cycles + 10'000;

  arch::SoftExec soft;
  errmodel::ErrorDescriptor d;
  d.model = errmodel::ErrorModel::IMS;
  d.warp_mask = 0xFF;
  d.thread_mask = 0x2;
  d.bit_err_mask = 0x4;
  perfi::ErrorInjector injector(d);
  if (config == SimConfig::Rtl) gpu.set_exec(&soft);
  if (config == SimConfig::Perfi) gpu.set_hooks(&injector);

  std::uint64_t instructions = 0;
  for (auto _ : state) {
    state.PauseTiming();
    gpu.clear_memories();
    w->setup(gpu);
    state.ResumeTiming();
    const workloads::RunStats s = w->run(gpu, budget);
    instructions += s.instructions;
    benchmark::DoNotOptimize(s.cycles);
  }
  gpu.set_hooks(nullptr);
  gpu.set_exec(nullptr);
  state.counters["warp_instr_per_run"] = benchmark::Counter(
      static_cast<double>(instructions), benchmark::Counter::kAvgIterations);
  state.SetItemsProcessed(static_cast<int64_t>(instructions));
}

static const bool kSimulatorRowsRegistered = [] {
  benchmark::AddCustomContext("arch_rows", "15 evaluation apps + tmxm; fast = FastExec, "
                                           "perfi = ErrorInjector IMS on warps 0-7, "
                                           "rtl = SoftExec without a fault");
  benchmark::AddCustomContext("arch_statistic",
                              "mean, median, stddev, cv and min over 5 repetitions of "
                              ">= 0.1 s, each field aggregated on its own");
  benchmark::AddCustomContext("gpf_build_type", GPF_BUILD_TYPE);
  std::vector<const workloads::Workload*> apps = workloads::evaluation_set();
  apps.push_back(workloads::find("tmxm"));
  const auto min = [](const std::vector<double>& v) {
    return *std::min_element(v.begin(), v.end());
  };
  const auto shape = [&](benchmark::internal::Benchmark* b) {
    b->Repetitions(5)->MinTime(0.1)->ComputeStatistics("min", min);
    b->ReportAggregatesOnly(true);
  };
  for (const workloads::Workload* w : apps) {
    const std::string app(w->name());
    const std::string rate = "BM_SimulatorInstructionRate/" + app;
    const std::string perfi = "BM_InstrumentedSimulatorRate/" + app;
    shape(benchmark::RegisterBenchmark((rate + "/fast").c_str(),
                                       BM_SimulatorInstructionRate, w, SimConfig::Fast));
    shape(benchmark::RegisterBenchmark((perfi + "/perfi").c_str(),
                                       BM_SimulatorInstructionRate, w, SimConfig::Perfi));
    shape(benchmark::RegisterBenchmark((rate + "/rtl").c_str(),
                                       BM_SimulatorInstructionRate, w, SimConfig::Rtl));
  }
  return true;
}();
