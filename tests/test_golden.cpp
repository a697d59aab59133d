// Differential test of the production golden pass against its oracle.
//
// UnitReplayer::compute_goldens runs every trace of a unit through the full
// gate-program stream in 64-pattern words and transposes the result into
// bit-packed rows; UnitReplayer::golden_oracle steps the scalar Simulator
// through one trace at a time. The brute oracle and the batch engine both
// read the same goldens, so their agreement (test_batchsim) cannot catch a
// golden bug: this test is the check. It compares every row bit, every
// activation window and the resulting ActivationSummary on the profiling
// traces and on random traces chosen to reach the pass's edge cases: ragged
// lengths, an empty and a one-cycle trace, more than 64 sequential traces
// and more than 64 decoder patterns (so the multi-pass code runs).
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "gate/replay.hpp"
#include "obs/metrics.hpp"
#include "report/gate_experiments.hpp"

namespace gpf::gate {
namespace {

using GoldenTrace = UnitReplayer::GoldenTrace;

std::size_t cycles_of(UnitKind unit, const UnitTraces& t) {
  switch (unit) {
    case UnitKind::Decoder: return t.decoder.size();
    case UnitKind::Fetch: return t.fetch.size();
    case UnitKind::WSC: return t.wsc.size();
  }
  return 0;
}

/// ActivationSummary straight from the rows: a net is ever-0 (ever-1) when
/// some cycle's bit for it is clear (set).
ActivationSummary summary_from_rows(const std::vector<GoldenTrace>& goldens,
                                    std::size_t nets) {
  ActivationSummary act(nets);
  for (const GoldenTrace& g : goldens)
    for (std::size_t c = 0; c < g.cycles; ++c)
      for (std::size_t n = 0; n < nets; ++n)
        (g.row(c)[n] ? act.ever1 : act.ever0)[n] = 1;
  return act;
}

void expect_goldens_match(const UnitReplayer& rep,
                          const std::vector<UnitTraces>& traces,
                          const std::string& label) {
  const std::size_t nets = rep.netlist().num_nets();
  const std::vector<GoldenTrace> fast = rep.compute_goldens(traces);
  ASSERT_EQ(fast.size(), traces.size()) << label;
  std::vector<GoldenTrace> oracle;
  for (const UnitTraces& t : traces) oracle.push_back(rep.golden_oracle(t));

  for (std::size_t i = 0; i < traces.size(); ++i) {
    const GoldenTrace& f = fast[i];
    const GoldenTrace& o = oracle[i];
    const std::string at = label + " trace " + std::to_string(i);
    ASSERT_EQ(f.cycles, cycles_of(rep.kind(), traces[i])) << at;
    ASSERT_EQ(f.cycles, o.cycles) << at;
    ASSERT_EQ(f.row_words, (nets + 63) / 64) << at;
    ASSERT_EQ(f.row_words, o.row_words) << at;
    ASSERT_EQ(f.bits.size(), f.cycles * f.row_words) << at;
    for (std::size_t c = 0; c < f.cycles; ++c)
      for (std::size_t w = 0; w < f.row_words; ++w)
        ASSERT_EQ(f.bits[c * f.row_words + w], o.bits[c * o.row_words + w])
            << at << " cycle " << c << " nets [" << w * 64 << ", "
            << w * 64 + 64 << ")";
    ASSERT_EQ(f.windows.size(), nets) << at;
    ASSERT_EQ(o.windows.size(), nets) << at;
    for (std::size_t n = 0; n < nets; ++n) {
      const GoldenTrace::Window& fw = f.windows[n];
      const GoldenTrace::Window& ow = o.windows[n];
      ASSERT_EQ(fw.first0, ow.first0) << at << " net " << n;
      ASSERT_EQ(fw.last0, ow.last0) << at << " net " << n;
      ASSERT_EQ(fw.first1, ow.first1) << at << " net " << n;
      ASSERT_EQ(fw.last1, ow.last1) << at << " net " << n;
    }
    if (f.cycles == 0)
      for (std::size_t n = 0; n < nets; ++n) {
        ASSERT_EQ(f.windows[n].first0, GoldenTrace::kNoCycle) << at;
        ASSERT_EQ(f.windows[n].first1, GoldenTrace::kNoCycle) << at;
      }
  }

  ActivationSummary from_windows(nets);
  for (const GoldenTrace& g : fast) from_windows.add(g);
  const ActivationSummary from_rows = summary_from_rows(oracle, nets);
  EXPECT_EQ(from_windows.ever0, from_rows.ever0) << label;
  EXPECT_EQ(from_windows.ever1, from_rows.ever1) << label;
}

const std::vector<UnitTraces>& profiling_traces() {
  static const std::vector<UnitTraces> traces =
      report::collect_profiling_traces(400);
  return traces;
}

// ---- random stimulus -------------------------------------------------------

DecoderPattern random_pattern(Rng& rng) {
  DecoderPattern p;
  p.word = rng();
  p.regs_per_thread = 16 + static_cast<std::uint32_t>(rng.below(49));
  p.count = 1 + rng.below(4);
  return p;
}

FetchCycle random_fetch(Rng& rng) {
  FetchCycle c;
  c.sel_slot = static_cast<std::uint8_t>(rng.below(8));
  c.sel_valid = rng.below(4) != 0;
  c.instr_in = rng();
  c.redirect_en = rng.below(6) == 0;
  c.redirect_pc = static_cast<std::uint32_t>(rng.below(1u << 16));
  c.pc_wr_en = rng.below(2) != 0;
  c.init_en = rng.below(8) == 0;
  c.init_slot = static_cast<std::uint8_t>(rng.below(8));
  c.init_pc = static_cast<std::uint32_t>(rng.below(1u << 16));
  c.is_issue = c.sel_valid;
  return c;
}

WscCycle random_wsc(Rng& rng) {
  WscCycle c;
  c.wr_slot = static_cast<std::uint8_t>(rng.below(8));
  c.wr_state_en = rng.below(3) == 0;
  c.wr_valid = rng.below(2) != 0;
  c.wr_done = rng.below(5) == 0;
  c.wr_barrier = rng.below(6) == 0;
  c.wr_mask_en = rng.below(4) == 0;
  c.wr_mask = static_cast<std::uint32_t>(rng());
  c.wr_base_en = rng.below(4) == 0;
  c.wr_base = static_cast<std::uint8_t>(rng.below(256));
  c.wr_cta_en = rng.below(4) == 0;
  c.wr_cta = static_cast<std::uint8_t>(rng.below(16));
  c.lane_cfg_en = rng.below(8) == 0;
  c.lane_cfg = static_cast<std::uint32_t>(rng());
  c.barrier_release = rng.below(10) == 0;
  c.ibuf_en = rng.below(2) != 0;
  c.ibuf_in = rng();
  c.is_issue = rng.below(3) != 0;
  return c;
}

UnitTraces random_trace(UnitKind unit, std::size_t cycles, Rng& rng) {
  UnitTraces t;
  t.workload = "random";
  for (std::size_t c = 0; c < cycles; ++c) {
    switch (unit) {
      case UnitKind::Decoder: t.decoder.push_back(random_pattern(rng)); break;
      case UnitKind::Fetch: t.fetch.push_back(random_fetch(rng)); break;
      case UnitKind::WSC: t.wsc.push_back(random_wsc(rng)); break;
    }
  }
  t.issues = cycles;
  return t;
}

class GoldenPass : public ::testing::TestWithParam<UnitKind> {};

TEST_P(GoldenPass, MatchesOracleOnProfilingTraces) {
  const UnitReplayer rep(GetParam());
  const std::vector<UnitTraces>& traces = profiling_traces();
  ASSERT_EQ(traces.size(), 14u);
  expect_goldens_match(rep, traces, "profiling");
}

// Ragged lengths with an empty and a one-cycle trace among them, in an order
// the pass's longest-first lane assignment has to undo.
TEST_P(GoldenPass, MatchesOracleOnRaggedRandomTraces) {
  const UnitReplayer rep(GetParam());
  Rng rng(0x60D + static_cast<std::uint64_t>(GetParam()));
  std::vector<UnitTraces> traces;
  for (const std::size_t len : {37u, 0u, 130u, 1u, 64u, 65u, 130u, 3u, 90u})
    traces.push_back(random_trace(GetParam(), len, rng));
  expect_goldens_match(rep, traces, "ragged");
}

// More than 64 traces: sequential units need a second group of lanes, and
// the decoder's (trace, pattern) pairs span many 64-pattern words.
TEST_P(GoldenPass, MatchesOracleBeyondSixtyFourTraces) {
  const UnitReplayer rep(GetParam());
  Rng rng(0xB16 + static_cast<std::uint64_t>(GetParam()));
  std::vector<UnitTraces> traces;
  for (int i = 0; i < 70; ++i)
    traces.push_back(random_trace(GetParam(), rng.below(24), rng));
  traces.push_back(random_trace(GetParam(), 0, rng));
  traces.push_back(random_trace(GetParam(), 1, rng));
  expect_goldens_match(rep, traces, "70+ traces");
}

TEST_P(GoldenPass, NoTracesNoGoldens) {
  const UnitReplayer rep(GetParam());
  EXPECT_TRUE(rep.compute_goldens({}).empty());
}

INSTANTIATE_TEST_SUITE_P(Units, GoldenPass,
                         ::testing::Values(UnitKind::Decoder, UnitKind::Fetch,
                                           UnitKind::WSC),
                         [](const auto& info) {
                           return std::string(unit_name(info.param));
                         });

// A single trace of more than 64 decoder patterns: one trace alone fills
// several words, the last one partly.
TEST(GoldenPassDecoder, MatchesOracleBeyondSixtyFourPatterns) {
  const UnitReplayer rep(UnitKind::Decoder);
  Rng rng(0xDEC);
  expect_goldens_match(rep, {random_trace(UnitKind::Decoder, 200, rng)},
                       "200 patterns");
}

TEST(GoldenPassObs, OnePassAddsOneGoldenSample) {
  const UnitReplayer rep(UnitKind::Decoder);
  obs::Histogram& golden_us = obs::histogram("gate.golden_us");
  const std::uint64_t before = golden_us.count();
  (void)rep.compute_goldens(profiling_traces());
  EXPECT_EQ(golden_us.count(), before + 1);
}

}  // namespace
}  // namespace gpf::gate
