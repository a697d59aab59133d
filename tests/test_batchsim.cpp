// The bit-parallel (PPSFP) engine must be observationally equivalent to the
// brute-force scalar oracle at every compiled SIMD width: lane-for-lane identical
// FaultCharacterization (class, activation, hang, per-model error counts)
// for every fault on every unit over real profiled traces, including a
// ragged final batch (< lane-width faults) and both stuck-at polarities.
// Widths the build or CPU cannot run are skipped, never failed.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <memory>
#include <stdexcept>
#include <string>

#include "common/rng.hpp"
#include "gate/batchsim.hpp"
#include "gate/interp.hpp"
#include "gate/profiler.hpp"
#include "gate/replay.hpp"
#include "isa/encoding.hpp"
#include "obs/metrics.hpp"
#include "report/gate_experiments.hpp"
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

/// One unit's in-memory campaign: the GateUnitRunner path the benches run.
UnitCampaignResult run_campaign(UnitKind unit,
                                const std::vector<UnitTraces>& traces,
                                std::size_t faults, std::uint64_t seed,
                                EngineKind engine) {
  return report::run_unit_campaign(
      traces, report::gate_campaign_meta(unit, faults, 0, seed, engine));
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

/// Net values (one byte per net) packed into a golden row.
std::vector<std::uint64_t> pack_row(const std::vector<std::uint8_t>& v) {
  std::vector<std::uint64_t> row((v.size() + 63) / 64, 0);
  for (std::size_t n = 0; n < v.size(); ++n)
    row[n / 64] |= std::uint64_t{v[n]} << (n % 64);
  return row;
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

  const auto brute = run_campaign(GetParam(), traces, kFaults, 42,
                                  EngineKind::Brute);
  ASSERT_EQ(brute.faults.size(), kFaults);

  for (const std::size_t width : supported_widths()) {
    set_batch_lanes_override(width);
    const auto batch = run_campaign(GetParam(), traces, kFaults, 42,
                                    EngineKind::Batch);
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

// The classifier adds a WordDiffTable entry for a lane whose instruction
// word differs from golden in exactly one bit, and decodes every other
// lane's word. A WSC batch takes both paths: faults on single dispatch bits
// (use_imm among them) give one-bit diffs, and the instruction buffer's
// enable stuck at 0 freezes the buffered word, which the dispatch mux then
// sends in place of each new one. Every lane must equal the brute oracle,
// with the table and without it, at every width.
TEST(BatchSimWordDiff, SingleAndMultiBitWordDiffsMatchBruteOracle) {
  const UnitTraces t = trace_of("p_tiled_mxm");
  const UnitReplayer replayer(UnitKind::WSC);
  const Netlist& nl = replayer.netlist();
  const auto goldens = replayer.compute_goldens({&t, 1});
  const UnitReplayer::GoldenTrace& g = goldens[0];
  const WordDiffTable table = replayer.word_diff_table({&t, 1}, goldens);
  ASSERT_GT(table.keys(), 0u);

  const PortBus& dispatch = *nl.find_output("dispatch");
  const Net ibuf_en = nl.find_input("ibuf_en")->nets[0];
  const unsigned use_imm = isa::field::kFlagImm;
  // dispatch[b] = bufs(mux(ibuf_en, ibuf_q[b], ibuf_in[b])).
  std::vector<Net> ibuf_q;
  for (const Net out : dispatch.nets) {
    Net n = out;
    while (nl.gate(n).kind == GateKind::Buf) n = nl.gate(n).a;
    ASSERT_EQ(nl.gate(n).kind, GateKind::Mux);
    ibuf_q.push_back(nl.gate(n).b);
  }
  const auto word = [&](std::span<const Net> nets, std::size_t c) {
    std::uint64_t v = 0;
    for (std::size_t i = 0; i < nets.size(); ++i)
      v |= std::uint64_t{g.row(c)[static_cast<std::size_t>(nets[i])]} << i;
    return v;
  };
  // The shapes this batch must produce, read off the golden trace. ibuf_en
  // stuck at 0 activates on its first cycle at 1 and keeps ibuf_q at that
  // cycle's value, which differs from a later dispatched word in two or
  // more bits. use_imm is issued both set and clear, so each polarity of a
  // stuck use_imm bit flips it.
  std::size_t first = g.cycles;
  for (std::size_t c = 0; c < g.cycles && first == g.cycles; ++c)
    if (g.row(c)[static_cast<std::size_t>(ibuf_en)]) first = c;
  ASSERT_LT(first, g.cycles);
  const std::uint64_t frozen = word(ibuf_q, first);
  bool multi = false, imm_set = false, imm_clear = false;
  for (std::size_t c = first; c < g.cycles; ++c) {
    if (!t.wsc[c].is_issue) continue;
    const std::uint64_t d = word(dispatch.nets, c);
    multi |= std::popcount(d ^ frozen) >= 2;
    ((d >> use_imm) & 1 ? imm_set : imm_clear) = true;
  }
  ASSERT_TRUE(multi && imm_set && imm_clear);

  std::vector<StuckFault> faults;
  for (const bool high : {false, true}) {
    faults.push_back({ibuf_en, high});
    for (const unsigned bit : {use_imm, 60u, 42u, 35u, 27u, 18u, 3u})
      faults.push_back({dispatch.nets[bit], high});
  }
  std::vector<FaultCharacterization> brute(faults.size());
  for (std::size_t k = 0; k < faults.size(); ++k) {
    brute[k].fault = faults[k];
    replayer.run_fault(faults[k], t, g, brute[k]);
  }
  // A flipped use_imm bit is an immediate-operand error.
  const auto iio = static_cast<unsigned>(errmodel::ErrorModel::IIO);
  EXPECT_GT(brute[1].error_counts[iio], 0u);
  EXPECT_GT(brute[faults.size() / 2 + 1].error_counts[iio], 0u);

  LaneGuard guard;
  obs::Counter& table_lanes = obs::counter("gate.classify_table_lanes");
  for (const std::size_t width : supported_widths()) {
    set_batch_lanes_override(width);
    for (const WordDiffTable* words :
         {&table, static_cast<const WordDiffTable*>(nullptr)}) {
      std::vector<FaultCharacterization> batch(faults.size());
      for (std::size_t k = 0; k < faults.size(); ++k)
        batch[k].fault = faults[k];
      const std::uint64_t before = table_lanes.value();
      const std::unique_ptr<BatchSim> sim = make_batch_sim(nl);
      replayer.run_fault_batch(*sim, faults, t, g, batch, words);
      if (obs::enabled()) {
        if (words)
          EXPECT_GT(table_lanes.value(), before);
        else
          EXPECT_EQ(table_lanes.value(), before);
      }
      const std::string label = "width " + std::to_string(width) +
                                (words ? " table" : " decode");
      for (std::size_t k = 0; k < faults.size(); ++k)
        expect_same(brute[k], batch[k], label.c_str());
    }
  }
}

// A lane whose instruction word differs from golden in exactly two bits
// must be decoded; the table's entry for either bit alone misclassifies it.
// No profiled trace yields such a diff, so this edits one. At an issue cycle
// c the buffer enable drops, so golden dispatches the buffered word (the
// previous issue's), while ibuf_in carries that word with use_imm and the
// low rs1 bit flipped. ibuf_en stuck at 1 dispatches ibuf_in there: a
// two-bit diff whose use_imm flip is an immediate-operand error that the
// rs1 bit's entry lacks. Every lane must equal the brute oracle, with the
// table and without it, at every width.
TEST(BatchSimWordDiff, TwoBitWordDiffsMatchBruteOracle) {
  UnitTraces t = trace_of("p_tiled_mxm");
  std::vector<std::size_t> issues;
  for (std::size_t c = 0; c < t.wsc.size(); ++c)
    if (t.wsc[c].is_issue) issues.push_back(c);
  ASSERT_GE(issues.size(), 4u);
  const std::size_t c = issues[issues.size() / 2];
  const std::size_t prev = issues[issues.size() / 2 - 1];
  const unsigned use_imm = isa::field::kFlagImm, rs1 = isa::field::kRs1Lo;
  const std::uint64_t two = (std::uint64_t{1} << use_imm) |
                            (std::uint64_t{1} << rs1);
  t.wsc[c].ibuf_en = false;
  t.wsc[c].ibuf_in = t.wsc[prev].ibuf_in ^ two;

  const UnitReplayer replayer(UnitKind::WSC);
  const Netlist& nl = replayer.netlist();
  const auto goldens = replayer.compute_goldens({&t, 1});
  const UnitReplayer::GoldenTrace& g = goldens[0];
  const WordDiffTable table = replayer.word_diff_table({&t, 1}, goldens);
  const PortBus& dispatch = *nl.find_output("dispatch");
  std::uint64_t gw = 0;
  for (std::size_t i = 0; i < dispatch.nets.size(); ++i)
    gw |= std::uint64_t{g.row(c)[static_cast<std::size_t>(dispatch.nets[i])]}
          << i;
  // The shape: golden sends the buffered word, which decodes, and ibuf_in
  // differs from it in exactly the two chosen bits.
  ASSERT_EQ(gw, t.wsc[prev].ibuf_in);
  ASSERT_TRUE(isa::decode(gw).ok);
  ASSERT_EQ(gw ^ t.wsc[c].ibuf_in, two);
  const auto iio = static_cast<unsigned>(errmodel::ErrorModel::IIO);
  const std::uint32_t* entries = table.find(gw, t.wsc[c].regs_per_thread);
  ASSERT_NE(entries, nullptr);
  EXPECT_NE(entries[rs1], WordDiffTable::kPerLane);
  EXPECT_EQ((entries[rs1] >> (2 * iio)) & 3u, 0u);

  const Net ibuf_en = nl.find_input("ibuf_en")->nets[0];
  std::vector<StuckFault> faults = {{ibuf_en, true}, {ibuf_en, false}};
  for (const unsigned bit : {use_imm, rs1, 60u, 3u})
    for (const bool high : {false, true})
      faults.push_back({dispatch.nets[bit], high});
  std::vector<FaultCharacterization> brute(faults.size());
  for (std::size_t k = 0; k < faults.size(); ++k) {
    brute[k].fault = faults[k];
    replayer.run_fault(faults[k], t, g, brute[k]);
  }
  EXPECT_GT(brute[0].error_counts[iio], 0u);

  LaneGuard guard;
  for (const std::size_t width : supported_widths()) {
    set_batch_lanes_override(width);
    for (const WordDiffTable* words :
         {&table, static_cast<const WordDiffTable*>(nullptr)}) {
      std::vector<FaultCharacterization> batch(faults.size());
      for (std::size_t k = 0; k < faults.size(); ++k)
        batch[k].fault = faults[k];
      const std::unique_ptr<BatchSim> sim = make_batch_sim(nl);
      replayer.run_fault_batch(*sim, faults, t, g, batch, words);
      const std::string label = "width " + std::to_string(width) +
                                (words ? " table" : " decode");
      for (std::size_t k = 0; k < faults.size(); ++k)
        expect_same(brute[k], batch[k], label.c_str());
    }
  }
}

/// A gate soup whose DFFs share a few enable nets (one of them always
/// enabled): enables drawn from inputs, gates and DFF outputs, DFFs fed by
/// other DFFs directly, and at least one enable group of two or more DFFs.
/// With `constants`, gates may also read a constant-0 and a constant-1 net.
Netlist enable_group_netlist(Rng& rng, bool constants = false) {
  Netlist nl;
  std::vector<Net> nets;
  const std::size_t ni = 2 + rng.below(4);
  for (std::size_t i = 0; i < ni; ++i) nets.push_back(nl.input());
  std::vector<Net> dffs;
  const std::size_t nd = 4 + rng.below(9);
  for (std::size_t i = 0; i < nd; ++i) {
    dffs.push_back(nl.dff());
    nets.push_back(dffs.back());
  }
  if (constants) {
    nets.push_back(nl.constant(false));
    nets.push_back(nl.constant(true));
  }
  const std::size_t ng = 8 + rng.below(30);
  for (std::size_t i = 0; i < ng; ++i) {
    const auto pick = [&] { return nets[rng.below(nets.size())]; };
    switch (rng.below(5)) {
      case 0: nets.push_back(nl.and_(pick(), pick())); break;
      case 1: nets.push_back(nl.or_(pick(), pick())); break;
      case 2: nets.push_back(nl.xor_(pick(), pick())); break;
      case 3: nets.push_back(nl.not_(pick())); break;
      default: nets.push_back(nl.mux(pick(), pick(), pick())); break;
    }
  }
  std::vector<Net> enables = {kNoNet};
  const std::size_t ne = 1 + rng.below(3);
  for (std::size_t i = 0; i < ne; ++i)
    enables.push_back(nets[rng.below(nets.size())]);
  for (std::size_t i = 0; i < nd; ++i) {
    // DFF 1 always reads DFF 0, then a third of the rest read some DFF.
    const Net d = i == 1 || rng.below(3) == 0 ? dffs[i == 1 ? 0 : rng.below(nd)]
                                              : nets[rng.below(nets.size())];
    // DFFs 0 and 1 share an enable net, so some group has two members.
    const Net en = i == 1 ? nl.gate(dffs[0]).b
                          : enables[1 + rng.below(enables.size() - 1)];
    nl.set_dff_input(dffs[i], d, rng.below(4) == 0 && i > 1 ? kNoNet : en);
  }
  std::vector<Net> out;
  for (int i = 0; i < 4; ++i) out.push_back(nets[rng.below(nets.size())]);
  nl.add_output_bus("o", out);
  nl.finalize();
  return nl;
}

// Enable-grouped latching is exact: a group is skipped only when its enable
// is 0 in every installed lane, and a faulted enable (or D, or DFF output) in one lane
// must still latch that lane. Every fault of random shared-enable netlists,
// lane for lane against the scalar Simulator on every cycle, at every width,
// with plain eval (full latching) and with eval_cone (cone-restricted
// latching, golden values from a fault-free Simulator).
TEST(BatchSimLatch, SharedEnableNetlistsMatchSimulatorWithConeOnAndOff) {
  KnobGuard knobs;
  obs::Counter& groups = obs::counter("gate.latch_groups");
  obs::Counter& skipped = obs::counter("gate.latch_groups_skipped");
  const std::uint64_t groups0 = groups.value(), skipped0 = skipped.value();
  Rng rng(0xE7AB1E);
  constexpr int kCycles = 6;
  for (int iter = 0; iter < 40; ++iter) {
    const Netlist nl = enable_group_netlist(rng);
    std::vector<Net> inputs, probe = nl.outputs()[0].nets;
    for (Net n = 0; n < static_cast<Net>(nl.num_nets()); ++n)
      if (nl.gate(n).kind == GateKind::Input) inputs.push_back(n);
    for (const Net d : nl.dffs()) probe.push_back(d);
    std::vector<StuckFault> all;
    for (Net n = 0; n < static_cast<Net>(nl.num_nets()); ++n)
      for (const bool high : {false, true}) all.push_back({n, high});

    // One input drive per cycle, and the fault-free rows eval_cone reads.
    std::vector<std::vector<std::uint8_t>> drive(kCycles);
    std::vector<std::vector<std::uint64_t>> rows(kCycles);
    Simulator golden(nl);
    for (int c = 0; c < kCycles; ++c) {
      for (const Net n : inputs) {
        drive[c].push_back(static_cast<std::uint8_t>(rng.below(2)));
        golden.set_input(n, drive[c].back() != 0);
      }
      golden.eval();
      rows[c] = pack_row(golden.values());
      golden.clock();
    }
    std::vector<std::uint8_t> want;  // [cycle][probe net][fault]
    for (const StuckFault& f : all) {
      Simulator sim(nl);
      sim.set_fault(f);
      for (int c = 0; c < kCycles; ++c) {
        for (std::size_t i = 0; i < inputs.size(); ++i)
          sim.set_input(inputs[i], drive[c][i] != 0);
        sim.eval();
        for (const Net n : probe) want.push_back(sim.value(n) ? 1 : 0);
        sim.clock();
      }
    }
    const std::size_t per_fault = kCycles * probe.size();

    for (const std::size_t width : supported_widths()) {
      for (const int cone : {0, 1}) {
        set_cone_override(cone);
        for (std::size_t base = 0; base < all.size(); base += width) {
          const std::size_t count = std::min(width, all.size() - base);
          const std::unique_ptr<BatchSim> sim = make_batch_sim(nl, width);
          sim->set_observed(probe);
          sim->begin(std::span(all).subspan(base, count));
          for (int c = 0; c < kCycles; ++c) {
            sim->set_inputs(GoldenRow{rows[c].data()});
            if (cone)
              sim->eval_cone(GoldenRow{rows[c].data()});
            else
              sim->eval();
            for (std::size_t k = 0; k < count; ++k)
              for (std::size_t p = 0; p < probe.size(); ++p)
                ASSERT_EQ(
                    sim->value(probe[p], static_cast<unsigned>(k)),
                    want[(base + k) * per_fault + c * probe.size() + p] != 0)
                    << "iter " << iter << " width " << width << " cone "
                    << cone << " cycle " << c << " net " << probe[p]
                    << " fault net " << all[base + k].net << " stuck "
                    << all[base + k].stuck_high;
            sim->clock();
          }
        }
      }
    }
  }
  // Both latch paths ran: some groups latched, some were skipped.
  if (obs::enabled()) {
    EXPECT_GT(skipped.value(), skipped0);
    EXPECT_GT(groups.value() - groups0, skipped.value() - skipped0);
  }
}

/// A random shared-enable netlist with constants, every net faulted in both
/// polarities, replayed for `cycles` cycles by per-lane Simulators. Input 0
/// holds one value, input 1 toggles every cycle, and every other input does
/// one or the other. Values are taken after each cycle's eval.
struct SourceReplay {
  Netlist nl;
  std::vector<Net> inputs;
  std::vector<StuckFault> faults;
  std::vector<std::vector<std::uint8_t>> drive;   ///< [cycle][input]
  std::vector<std::vector<std::uint8_t>> golden;  ///< [cycle][net]
  std::vector<std::vector<std::uint64_t>> rows;   ///< [cycle] golden, packed
  std::vector<std::vector<std::vector<std::uint8_t>>> faulty;  ///< [fault][cycle][net]

  SourceReplay(Rng& rng, std::size_t cycles)
      : nl(enable_group_netlist(rng, true)) {
    for (Net n = 0; n < static_cast<Net>(nl.num_nets()); ++n) {
      if (nl.gate(n).kind == GateKind::Input) inputs.push_back(n);
      for (const bool high : {false, true}) faults.push_back({n, high});
    }
    drive.assign(cycles, std::vector<std::uint8_t>(inputs.size()));
    for (std::size_t i = 0; i < inputs.size(); ++i) {
      const bool toggles = i == 1 || (i > 1 && rng.below(2) == 0);
      const auto v0 = static_cast<std::uint8_t>(rng.below(2));
      for (std::size_t c = 0; c < cycles; ++c)
        drive[c][i] = toggles ? static_cast<std::uint8_t>(v0 ^ (c & 1)) : v0;
    }
    const auto replay = [&](Simulator& sim) {
      std::vector<std::vector<std::uint8_t>> vals;
      for (const std::vector<std::uint8_t>& d : drive) {
        for (std::size_t i = 0; i < inputs.size(); ++i)
          sim.set_input(inputs[i], d[i] != 0);
        sim.eval();
        vals.push_back(sim.values());
        sim.clock();
      }
      return vals;
    };
    Simulator g(nl);
    golden = replay(g);
    for (const std::vector<std::uint8_t>& v : golden) rows.push_back(pack_row(v));
    for (const StuckFault& f : faults) {
      Simulator sim(nl);
      sim.set_fault(f);
      faulty.push_back(replay(sim));
    }
  }
  GoldenRow row(std::size_t c) const { return {rows[c].data()}; }
};

// A source net is written only by the code that changes it, and that code
// applies the force: set_inputs() rewrites an input only when its golden
// value changes, a constant is written once per begin(), and a DFF output
// takes its force in the store of a group that latches, while a skipped
// group's forced DFFs keep their forced value. Every net of random
// shared-enable netlists with constants is faulted, inputs hold or toggle,
// and every source net and output is checked lane for lane against the
// per-lane Simulators on every cycle, at every width, with eval and with
// eval_cone.
TEST(BatchSimSources, SourceForcesMatchSimulatorWithConeOnAndOff) {
  KnobGuard knobs;
  obs::Counter& forces = obs::counter("gate.source_forces");
  obs::Counter& dispatches = obs::counter("gate.interp_dispatches");
  obs::Counter& ops = obs::counter("gate.interp_ops");
  const std::uint64_t forces0 = forces.value();
  const std::uint64_t dispatches0 = dispatches.value(), ops0 = ops.value();
  Rng rng(0x50E5CE);
  constexpr std::size_t kCycles = 8;
  // Forced DFF lanes at a clock whose group no lane enables / some lane does.
  std::size_t skipped_sites = 0, latched_sites = 0;
  for (int iter = 0; iter < 30; ++iter) {
    const SourceReplay r(rng, kCycles);
    const Netlist& nl = r.nl;
    std::vector<Net> probe = nl.outputs()[0].nets;
    for (Net n = 0; n < static_cast<Net>(nl.num_nets()); ++n) {
      const GateKind k = nl.gate(n).kind;
      if (k == GateKind::Input || k == GateKind::Const0 ||
          k == GateKind::Const1 || k == GateKind::Dff)
        probe.push_back(n);
    }
    for (const std::size_t width : supported_widths()) {
      for (const int cone : {0, 1}) {
        set_cone_override(cone);
        for (std::size_t base = 0; base < r.faults.size(); base += width) {
          const std::size_t count = std::min(width, r.faults.size() - base);
          const std::unique_ptr<BatchSim> sim = make_batch_sim(nl, width);
          sim->set_observed(probe);
          sim->begin(std::span(r.faults).subspan(base, count));
          for (std::size_t c = 0; c < kCycles; ++c) {
            sim->set_inputs(r.row(c));
            if (cone)
              sim->eval_cone(r.row(c));
            else
              sim->eval();
            for (std::size_t k = 0; k < count; ++k)
              for (const Net n : probe)
                ASSERT_EQ(sim->value(n, static_cast<unsigned>(k)),
                          r.faulty[base + k][c][static_cast<std::size_t>(n)] !=
                              0)
                    << "iter " << iter << " width " << width << " cone "
                    << cone << " cycle " << c << " net " << n << " fault net "
                    << r.faults[base + k].net << " stuck "
                    << r.faults[base + k].stuck_high;
            // Does the clock below skip or latch each forced DFF's group?
            // It skips a group no installed lane enables.
            for (std::size_t k = 0; k < count && cone == 0; ++k) {
              const Gate& q = nl.gate(r.faults[base + k].net);
              if (q.kind != GateKind::Dff) continue;
              bool skipped = q.b != kNoNet;
              for (std::size_t j = 0; j < count && skipped; ++j)
                skipped = !r.faulty[base + j][c][static_cast<std::size_t>(q.b)];
              ++(skipped ? skipped_sites : latched_sites);
            }
            sim->clock();
          }
        }
      }
    }
  }
  EXPECT_GT(skipped_sites, 0u);
  EXPECT_GT(latched_sites, 0u);
  if (obs::enabled()) {
    EXPECT_GT(forces.value(), forces0);
    EXPECT_GT(dispatches.value(), dispatches0);
    EXPECT_GT(ops.value() - ops0, dispatches.value() - dispatches0);
  }
}

// retire_lane() only takes a lane out of lane_mask(): the lane keeps its
// fault and goes on diverging, and every read that reports lanes must leave
// it out. Every net of random shared-enable netlists is faulted; after
// cycle 2's eval every lane whose fault has reached the outputs or the DFF
// state is retired, and on every later cycle each read is checked against
// the per-lane Simulators, at every width, with eval and with eval_cone.
TEST(BatchSimRetire, RetiredLanesLeaveEveryLaneRead) {
  KnobGuard knobs;
  Rng rng(0x7E71E);
  constexpr std::size_t kCycles = 8;
  constexpr std::size_t kRetireAt = 2;
  std::size_t retired_diverging = 0;  // (retired lane, later cycle) pairs
  for (int iter = 0; iter < 30; ++iter) {
    const SourceReplay r(rng, kCycles);
    const Netlist& nl = r.nl;
    const PortBus& bus = nl.outputs()[0];
    const auto bus_of = [&](const std::vector<std::uint8_t>& vals) {
      std::uint64_t v = 0;
      for (std::size_t i = 0; i < bus.nets.size(); ++i)
        v |= std::uint64_t{vals[static_cast<std::size_t>(bus.nets[i])]} << i;
      return v;
    };
    const auto state_differs = [&](std::size_t f, std::size_t c) {
      for (const Net d : nl.dffs())
        if (r.faulty[f][c][static_cast<std::size_t>(d)] !=
            r.golden[c][static_cast<std::size_t>(d)])
          return true;
      return false;
    };
    for (const std::size_t width : supported_widths()) {
      for (const int cone : {0, 1}) {
        set_cone_override(cone);
        for (std::size_t base = 0; base < r.faults.size(); base += width) {
          const std::size_t count = std::min(width, r.faults.size() - base);
          const std::unique_ptr<BatchSim> sim = make_batch_sim(nl, width);
          sim->set_observed(bus.nets);
          sim->begin(std::span(r.faults).subspan(base, count));
          const LaneMask installed = sim->lane_mask();
          std::vector<std::uint8_t> retired(count, 0);
          for (std::size_t c = 0; c < kCycles; ++c) {
            const GoldenRow row = r.row(c);
            sim->set_inputs(row);
            if (cone)
              sim->eval_cone(row);
            else
              sim->eval();
            const std::uint64_t gv = bus_of(r.golden[c]);
            if (c == kRetireAt) {
              for (std::size_t k = 0; k < count; ++k)
                if (bus_of(r.faulty[base + k][c]) != gv ||
                    state_differs(base + k, c)) {
                  retired[k] = 1;
                  sim->retire_lane(static_cast<unsigned>(k));
                }
            }
            LaneMask want_out, want_state, want_act, want_live;
            std::vector<std::uint64_t> fv(count);
            for (std::size_t k = 0; k < count; ++k) {
              const auto lane = static_cast<unsigned>(k);
              fv[k] = bus_of(r.faulty[base + k][c]);
              const bool diverged = fv[k] != gv || state_differs(base + k, c);
              if (retired[k]) {
                retired_diverging += c > kRetireAt && diverged;
                continue;
              }
              want_live.set(lane);
              if (fv[k] != gv) want_out.set(lane);
              if (state_differs(base + k, c)) want_state.set(lane);
              const StuckFault& f = r.faults[base + k];
              if (row[static_cast<std::size_t>(f.net)] != f.stuck_high)
                want_act.set(lane);
            }
            const std::string at = "iter " + std::to_string(iter) +
                                   " width " + std::to_string(width) +
                                   " cone " + std::to_string(cone) +
                                   " cycle " + std::to_string(c);
            ASSERT_EQ(sim->lane_mask(), want_live) << at;
            EXPECT_EQ(sim->diff_lanes(bus.nets, row), want_out) << at;
            EXPECT_EQ(sim->diff_observed(row), want_out) << at;
            EXPECT_EQ(sim->state_diff_lanes(row), want_state) << at;
            EXPECT_EQ(sim->activated_lanes(row), want_act) << at;
            // Ask for every installed lane, retired ones included.
            std::array<std::uint64_t, LaneMask::kMaxLanes> out{};
            EXPECT_EQ(sim->bus_values(bus, row, installed, gv, out), want_out)
                << at;
            for_each_lane(want_out, [&](unsigned k) {
              EXPECT_EQ(out[k], fv[k]) << at << " lane " << k;
            });
            sim->clock();
          }
        }
      }
    }
  }
  // Retired lanes must go on diverging for the checks above to mean anything.
  EXPECT_GT(retired_diverging, 0u);
}

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
  const auto reference = run_campaign(GetParam(), traces, kFaults, 42,
                                      EngineKind::Brute);
  ASSERT_EQ(reference.faults.size(), kFaults);

  for (const int collapse : {0, 1}) {
    for (const int cone : {0, 1}) {
      for (const EngineKind e : {EngineKind::Brute, EngineKind::Batch}) {
        if (collapse == 0 && cone == 0 && e == EngineKind::Brute)
          continue;  // the reference itself
        set_collapse_override(collapse);
        set_cone_override(cone);
        const auto res =
            run_campaign(GetParam(), traces, kFaults, 42, e);
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

// The batch engine's knobs together: at every supported lane width, every
// (GPF_COLLAPSE, GPF_CONE) combination must characterize every fault exactly
// like the brute oracle, on a trace the matrices above do not replay.
TEST_P(BatchSimEquivalence, EngineKnobMatrixClassifiesIdentically) {
  const std::vector<UnitTraces> traces = {trace_of("p_tiled_mxm", 250)};
  constexpr std::size_t kFaults = 130;
  KnobGuard guard;
  LaneGuard lanes;

  const auto reference = run_campaign(GetParam(), traces, kFaults, 42,
                                      EngineKind::Brute);
  ASSERT_EQ(reference.faults.size(), kFaults);

  for (const std::size_t width : supported_widths()) {
    for (const int collapse : {0, 1}) {
      for (const int cone : {0, 1}) {
        set_batch_lanes_override(width);
        set_collapse_override(collapse);
        set_cone_override(cone);
        const auto res = run_campaign(GetParam(), traces, kFaults, 42,
                                      EngineKind::Batch);
        const std::string label =
            "width=" + std::to_string(width) +
            " collapse=" + std::to_string(collapse) +
            " cone=" + std::to_string(cone) + " vs brute";
        ASSERT_EQ(res.faults.size(), reference.faults.size()) << label;
        for (std::size_t i = 0; i < kFaults; ++i)
          expect_same(reference.faults[i], res.faults[i], label.c_str());
      }
    }
  }
}

// Hung lanes are retired and keep diverging unsnapped. A batch mixes
// faults that hang the unit early — the decoder dropping `valid`, fetch
// dropping `fetch_valid`, the WSC dropping `sel_valid`: stuck-ats on that
// output net and its fan-in — with sampled faults that go on producing
// errors, over two traces, so lanes hung in the first replay are retired
// before the second starts. Every lane must match run_fault at every width,
// with the cone on and off.
TEST_P(BatchSimEquivalence, HungLanesMatchRunFaultWithConeOnAndOff) {
  const std::vector<UnitTraces> traces = {trace_of("p_tiled_mxm", 300),
                                          trace_of("p_sort", 300)};
  const UnitReplayer replayer(GetParam());
  const Netlist& nl = replayer.netlist();
  const auto goldens = replayer.compute_goldens(traces);
  const char* hang_bus = GetParam() == UnitKind::Decoder ? "valid"
                         : GetParam() == UnitKind::Fetch ? "fetch_valid"
                                                         : "sel_valid";
  std::vector<Net> fanin = {nl.find_output(hang_bus)->nets[0]};
  for (std::size_t i = 0; i < fanin.size() && fanin.size() < 24; ++i) {
    const Gate& g = nl.gate(fanin[i]);
    for (const Net n : {g.a, g.b, g.c})
      if (n != kNoNet && std::find(fanin.begin(), fanin.end(), n) == fanin.end())
        fanin.push_back(n);
  }
  std::vector<StuckFault> faults;
  for (const Net n : fanin)
    for (const bool high : {false, true}) faults.push_back({n, high});
  const std::vector<StuckFault> all = full_fault_list(nl);
  Rng rng(0x4A6);
  for (int i = 0; i < 40; ++i) faults.push_back(all[rng.below(all.size())]);

  std::vector<FaultCharacterization> brute(faults.size());
  for (std::size_t k = 0; k < faults.size(); ++k) {
    brute[k].fault = faults[k];
    for (std::size_t ti = 0; ti < traces.size(); ++ti)
      replayer.run_fault(faults[k], traces[ti], goldens[ti], brute[k]);
  }
  const auto hung = std::count_if(brute.begin(), brute.end(),
                                  [](const auto& f) { return f.hang; });
  const auto erring = std::count_if(brute.begin(), brute.end(), [](const auto& f) {
    return !f.hang && f.any_error();
  });
  ASSERT_GE(hung, 2);
  ASSERT_GE(erring, 4);

  LaneGuard lanes;
  KnobGuard knobs;
  for (const std::size_t width : supported_widths()) {
    set_batch_lanes_override(width);
    for (const int cone : {0, 1}) {
      set_cone_override(cone);
      std::vector<FaultCharacterization> batch(faults.size());
      for (std::size_t k = 0; k < faults.size(); ++k) batch[k].fault = faults[k];
      replay_faults(replayer, EngineKind::Batch, faults, traces, goldens,
                    nullptr, batch);
      const std::string label =
          "width " + std::to_string(width) + " cone " + std::to_string(cone);
      for (std::size_t k = 0; k < faults.size(); ++k)
        expect_same(brute[k], batch[k], label.c_str());
    }
  }
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
  if (!batch_width_supported(512)) {
    EXPECT_THROW(set_batch_lanes_override(512), std::invalid_argument);
  }
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
          // set_inputs reads only the input nets' bits of the row.
          std::vector<std::uint64_t> row((nl.num_nets() + 63) / 64, 0);
          for (const auto& [n, v] : {std::pair{a, av}, std::pair{b, bv}})
            row[static_cast<std::size_t>(n) / 64] |=
                std::uint64_t(v) << (static_cast<std::size_t>(n) % 64);
          bsim->set_inputs(GoldenRow{row.data()});
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

// The decoder's activation test is one word-wide pass over the batch's
// force masks. It must equal the per-lane scan (the site's golden value
// differs from the stuck value) with stuck-at-0 and stuck-at-1 on one site,
// and never name an unfilled or a retired lane.
TEST(BatchSimActivation, WordWideTestMatchesPerLaneScan) {
  const UnitReplayer replayer(UnitKind::Decoder);
  const Netlist& nl = replayer.netlist();
  const std::vector<StuckFault> all = full_fault_list(nl);
  Rng rng(0xAC71);
  for (const std::size_t width : supported_widths()) {
    // Pairs of both polarities on one site; the last lanes stay unfilled.
    const std::size_t count = width / 2 + 3;
    std::vector<StuckFault> faults;
    while (faults.size() < count) {
      const Net n = all[rng.below(all.size())].net;
      faults.push_back({n, false});
      if (faults.size() < count) faults.push_back({n, true});
    }
    const std::unique_ptr<BatchSim> sim = make_batch_sim(nl, width);
    sim->begin(faults);
    std::vector<std::uint8_t> retired(count, 0);
    for (std::size_t k = 0; k < count; k += 5) {
      retired[k] = 1;
      sim->retire_lane(static_cast<unsigned>(k));
    }
    for (int pattern = 0; pattern < 16; ++pattern) {
      std::vector<std::uint64_t> bits((nl.num_nets() + 63) / 64);
      for (std::uint64_t& w : bits) w = rng();
      const GoldenRow row{bits.data()};
      LaneMask want;
      for (std::size_t k = 0; k < count; ++k)
        if (!retired[k] &&
            row[static_cast<std::size_t>(faults[k].net)] != faults[k].stuck_high)
          want.set(static_cast<unsigned>(k));
      EXPECT_EQ(sim->activated_lanes(row), want)
          << "width " << width << " pattern " << pattern;
    }
  }
}

// The interpreter dispatches once per run of same-opcode ops. Every opcode
// — Mat and the And-Or force op included — alone and in a longer run, each
// run between runs of other opcodes, must compute what GateProgram::eval
// computes op by op, and op_runs must cut the stream into its maximal runs.
TEST(BatchSimInterp, EveryOpcodeInRunsOfOneAndLongerMatchesOpByOpEval) {
  using W = LaneWord<64>;
  constexpr std::uint32_t kSlots = 40;  // values; two force masks follow
  Rng rng(0x1E7E);
  const std::uint64_t golden_bits = rng();
  const GoldenRow golden{&golden_bits};
  for (int iter = 0; iter < 50; ++iter) {
    std::vector<Instr> code;
    std::vector<std::uint32_t> lengths;  // of the runs, in order
    const auto emit = [&](std::uint32_t op, std::uint32_t len) {
      for (std::uint32_t i = 0; i < len; ++i) {
        Instr in;
        in.op = op;
        in.a = static_cast<std::uint32_t>(rng.below(
            op == static_cast<std::uint32_t>(Op::Mat) ? 64 : kSlots));
        in.b = static_cast<std::uint32_t>(rng.below(kSlots));
        in.c = static_cast<std::uint32_t>(rng.below(kSlots));
        in.out = static_cast<std::uint32_t>(rng.below(kSlots));
        if (op == static_cast<std::uint32_t>(Op::Fuse2_2) && rng.below(2)) {
          in.a = in.out;  // a force op: (v & keep) | set in place
          in.b = kSlots;
          in.c = kSlots + 1;
        }
        code.push_back(in);
      }
      lengths.push_back(len);
    };
    // Every opcode alone, in order, then every opcode in a run of 2 to 6.
    for (std::uint32_t op = 0; op < kNumOps; ++op) emit(op, 1);
    for (std::uint32_t op = 0; op < kNumOps; ++op)
      emit(op, 2 + static_cast<std::uint32_t>(rng.below(5)));

    std::vector<OpRun> runs;
    op_runs(code, runs);
    ASSERT_EQ(runs.size(), lengths.size());
    std::uint32_t at = 0;
    for (std::size_t i = 0; i < runs.size(); ++i) {
      EXPECT_EQ(runs[i].begin, at);
      EXPECT_EQ(runs[i].end - runs[i].begin, lengths[i]) << "run " << i;
      EXPECT_EQ(runs[i].op, code[at].op) << "run " << i;
      at = runs[i].end;
    }

    std::vector<std::uint64_t> want(kSlots + 2);
    for (std::uint64_t& x : want) x = rng();
    std::vector<W> v(want.size());
    for (std::size_t i = 0; i < want.size(); ++i) v[i].v[0] = want[i];
    for (const Instr& in : code)
      want[in.out] = in.op == static_cast<std::uint32_t>(Op::Mat)
                         ? (golden[in.a] ? ~std::uint64_t{0} : 0)
                         : GateProgram::eval(in, want.data());
    exec_runs(v.data(), code.data(), runs, golden);
    for (std::size_t i = 0; i < want.size(); ++i)
      ASSERT_EQ(v[i].v[0], want[i]) << "iter " << iter << " slot " << i;
  }
}

}  // namespace
}  // namespace gpf::gate
