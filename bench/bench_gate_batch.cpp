// Engine shoot-out for the gate-level replay campaigns: the brute-force
// scalar oracle vs bit-parallel (PPSFP) word simulation, the latter both
// bare and with the two structural optimizations layered on top — stuck-at
// equivalence collapsing (GPF_COLLAPSE) and fanout-cone pruning (GPF_CONE) —
// interpreted and JIT-compiled, and the tuned engine again at every SIMD
// lane width this build and CPU support (64-lane scalar words, 256-lane
// AVX2, 512-lane AVX-512). The runner rows time the path stores and fleets
// run instead: a serial report::GateUnitRunner::run over the whole fault
// list in lease-sized slices (64 or 512 ids) at the dispatched width, which
// is what a fleet worker computes for a campaign's work units back to back.
// All rows produce identical classifications (checked here against the
// brute row and asserted in test_batchsim); this bench measures throughput
// in faults*cycles/sec, the figure of merit for exhaustive stuck-at sweeps.
// The golden rows time each campaign's set-up instead: the golden oracle
// (UnitReplayer::golden_oracle over every trace) against the production
// word-wide pass (compute_goldens, checked bit for bit against the oracle
// here), the whole GateUnitRunner constructor, and the resident size of the
// golden rows in the old byte-per-net layout and the packed one.
//
//   bench_gate_batch [decoder|fetch|wsc]...   (no arguments: all three units)
#include <algorithm>
#include <cctype>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <numeric>
#include <string>
#include <unordered_set>
#include <vector>

#include "common/env.hpp"
#include "common/table.hpp"
#include "gate/batchsim.hpp"
#include "gate/collapse.hpp"
#include "gate/jit.hpp"
#include "obs/metrics.hpp"
#include "report/gate_experiments.hpp"

using namespace gpf;
using Clock = std::chrono::steady_clock;

namespace {

std::size_t unit_cycles(gate::UnitKind unit,
                        const std::vector<gate::UnitTraces>& traces) {
  std::size_t n = 0;
  for (const auto& t : traces) {
    switch (unit) {
      case gate::UnitKind::Decoder: n += t.decoder.size(); break;
      case gate::UnitKind::Fetch: n += t.fetch.size(); break;
      case gate::UnitKind::WSC: n += t.wsc.size(); break;
    }
  }
  return n;
}

/// The unique class representatives actually simulated for a campaign list.
std::vector<gate::StuckFault> representatives(
    const gate::Netlist& nl, const std::vector<gate::StuckFault>& faults) {
  const gate::FaultCollapse col(nl);
  std::vector<gate::StuckFault> reps;
  std::unordered_set<std::uint32_t> seen;
  for (const gate::StuckFault& f : faults) {
    const gate::StuckFault rep = col.representative(f);
    if (seen.insert(gate::FaultCollapse::node(rep)).second) reps.push_back(rep);
  }
  return reps;
}

/// Mean fraction of the netlist's gates inside the union fanout cone of each
/// `lanes`-fault batch — the share of word evaluations cone pruning actually
/// pays for (out-of-cone gates are skipped entirely). Wider batches union
/// more fault sites, so this fraction grows with the lane width: the wide
/// paths trade cone sharpness for lane count.
double mean_cone_fraction(const gate::Netlist& nl,
                          const std::vector<gate::StuckFault>& reps,
                          std::size_t lanes) {
  const std::unique_ptr<gate::BatchSim> sim = gate::make_batch_sim(nl, lanes);
  const auto total = static_cast<double>(sim->total_gate_count());
  double acc = 0.0;
  std::size_t batches = 0;
  for (std::size_t lo = 0; lo < reps.size(); lo += lanes) {
    const std::size_t len = std::min(lanes, reps.size() - lo);
    sim->begin(std::span(reps).subspan(lo, len));
    acc += static_cast<double>(sim->cone_gate_count()) / total;
    ++batches;
  }
  return batches ? acc / static_cast<double>(batches) : 1.0;
}

/// A fleet worker's work for a whole campaign: GateUnitRunner::run over
/// every fault id in lease-sized slices of `unit_ids`, serially. Returns the
/// records in id order, like run_unit_campaign.
gate::UnitCampaignResult run_leases(const report::GateUnitRunner& runner,
                                    gate::UnitKind unit, std::size_t unit_ids) {
  gate::UnitCampaignResult res;
  res.unit = unit;
  res.full_fault_list_size = runner.full_fault_list_size();
  res.faults.resize(runner.faults().size());
  std::vector<std::uint64_t> ids(runner.faults().size());
  std::iota(ids.begin(), ids.end(), 0);
  for (std::size_t lo = 0; lo < ids.size(); lo += unit_ids)
    runner.run(std::span(ids).subspan(lo, std::min(unit_ids, ids.size() - lo)),
               [&](std::uint64_t id, const gate::FaultCharacterization& fc) {
                 res.faults[id] = fc;
               });
  return res;
}

/// Class representatives the runner simulates for lease-sized slices: each
/// run() collapses only its own ids, so a class split across slices is
/// simulated once per slice it appears in.
std::size_t slice_representatives(const gate::Netlist& nl,
                                  const std::vector<gate::StuckFault>& faults,
                                  std::size_t unit_ids) {
  std::size_t n = 0;
  for (std::size_t lo = 0; lo < faults.size(); lo += unit_ids) {
    const auto first = faults.begin() + static_cast<std::ptrdiff_t>(lo);
    const auto len = std::min(unit_ids, faults.size() - lo);
    n += representatives(nl, {first, first + static_cast<std::ptrdiff_t>(len)})
             .size();
  }
  return n;
}

/// Set-up of one unit's campaign: the golden oracle against the production
/// golden pass, and the runner constructor that contains the pass.
struct SetupRow {
  std::string unit;
  std::size_t traces = 0, cycles = 0, nets = 0;
  double oracle_seconds = 1e300, pass_seconds = 1e300;
  double runner_setup_seconds = 1e300;
  std::size_t byte_layout_bytes = 0, packed_bytes = 0;
  bool equal = true;  ///< pass rows and windows == oracle's
};

struct JsonRow {
  std::string unit, engine;
  std::size_t faults = 0, simulated = 0, cycles = 0, lanes = 0, unit_ids = 0;
  bool collapse = false, cone = false, jit = false;
  double collapse_ratio = 1.0, mean_cone_fraction = 1.0;
  double wall_seconds = 0.0, speedup_vs_brute = 1.0, speedup_vs_batch_base = 1.0;
  double speedup_vs_lanes64 = 1.0, speedup_vs_64ids = 1.0;
};

// Machine-readable perf record so the speedup trajectory is tracked across
// PRs instead of living only in stdout. Written next to the binary (or into
// GPF_BENCH_JSON_DIR).
void write_bench_json(const std::vector<JsonRow>& rows,
                      const std::vector<SetupRow>& golden,
                      double metrics_overhead_pct) {
  const char* dir = std::getenv("GPF_BENCH_JSON_DIR");
  const std::string path =
      std::string(dir && *dir ? dir : ".") + "/BENCH_gate_batch.json";
  std::ofstream os(path);
  if (!os) {
    std::cerr << "warning: cannot write " << path << "\n";
    return;
  }
  const auto num = [](double v, const char* fmt) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), fmt, v);
    return std::string(buf);
  };
  // Self-describing header: the engine/jit/lane configuration this process
  // resolved from the environment, so a JSON consumer never has to guess
  // which code path produced the numbers.
  const std::size_t lanes = gate::batch_lane_width();
  os << "{\n  \"bench\": \"gate_batch\",\n  \"config\": {"
     << "\"lanes\": " << lanes << ", \"simd_path\": \""
     << gate::batch_simd_path(lanes) << "\", \"engine\": \""
     << gate::batch_engine_tag() << "\", \"jit_mode\": \""
     << jit_mode_name(jit_mode()) << "\", \"jit_compiler\": "
     << (gate::jit_compiler_available() ? "true" : "false")
     << ", \"fuse\": " << (fuse_enabled() ? "true" : "false")
     << ", \"collapse\": " << (collapse_enabled() ? "true" : "false")
     << ", \"cone\": " << (cone_enabled() ? "true" : "false")
     << "},\n  \"metrics_overhead_pct\": "
     << num(metrics_overhead_pct, "%.2f") << ",\n  \"results\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const JsonRow& r = rows[i];
    os << "    {\"unit\": \"" << r.unit << "\", \"engine\": \"" << r.engine
       << "\", \"faults\": " << r.faults << ", \"simulated\": " << r.simulated
       << ", \"cycles\": " << r.cycles << ", \"lanes\": " << r.lanes
       << ", \"unit_ids\": " << r.unit_ids
       << ", \"collapse\": " << (r.collapse ? "true" : "false")
       << ", \"cone\": " << (r.cone ? "true" : "false")
       << ", \"jit\": " << (r.jit ? "true" : "false")
       << ", \"collapse_ratio\": " << num(r.collapse_ratio, "%.3f")
       << ", \"mean_cone_fraction\": " << num(r.mean_cone_fraction, "%.3f")
       << ", \"wall_seconds\": " << num(r.wall_seconds, "%.6f")
       << ", \"speedup_vs_brute\": " << num(r.speedup_vs_brute, "%.3f")
       << ", \"speedup_vs_batch_base\": " << num(r.speedup_vs_batch_base, "%.3f")
       << ", \"speedup_vs_lanes64\": " << num(r.speedup_vs_lanes64, "%.3f")
       << ", \"speedup_vs_64ids\": " << num(r.speedup_vs_64ids, "%.3f")
       << "}" << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  os << "  ],\n  \"golden\": [\n";
  for (std::size_t i = 0; i < golden.size(); ++i) {
    const SetupRow& g = golden[i];
    os << "    {\"unit\": \"" << g.unit << "\", \"traces\": " << g.traces
       << ", \"cycles\": " << g.cycles << ", \"nets\": " << g.nets
       << ", \"oracle_seconds\": " << num(g.oracle_seconds, "%.6f")
       << ", \"pass_seconds\": " << num(g.pass_seconds, "%.6f")
       << ", \"speedup_vs_oracle\": "
       << num(g.oracle_seconds / g.pass_seconds, "%.3f")
       << ", \"runner_setup_seconds\": " << num(g.runner_setup_seconds, "%.6f")
       << ", \"byte_layout_bytes\": " << g.byte_layout_bytes
       << ", \"packed_bytes\": " << g.packed_bytes << "}"
       << (i + 1 < golden.size() ? "," : "") << "\n";
  }
  os << "  ]\n}\n";
  std::cout << "\nwrote " << path << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  dump_env(std::cout);
  // max_faults 0 = the full stuck-at list of each unit: the exhaustive sweep
  // is the workload the collapse/cone layers are built for (a sparse sample
  // under-states both the class sizes and the batch cone overlap).
  const std::size_t max_faults = 0;
  const std::size_t max_issues = scaled(400, 100);
  const auto& traces = report::collect_profiling_traces(max_issues);
  std::vector<JsonRow> json_rows;
  std::vector<SetupRow> golden_rows;

  std::vector<gate::UnitKind> units = {gate::UnitKind::Decoder,
                                       gate::UnitKind::Fetch,
                                       gate::UnitKind::WSC};
  if (argc > 1) {
    units.clear();
    const auto lower = [](std::string s) {
      for (char& c : s) c = static_cast<char>(std::tolower(
                            static_cast<unsigned char>(c)));
      return s;
    };
    for (int a = 1; a < argc; ++a) {
      const std::string want = lower(argv[a]);
      bool known = false;
      for (gate::UnitKind u : {gate::UnitKind::Decoder, gate::UnitKind::Fetch,
                               gate::UnitKind::WSC})
        if (want == lower(gate::unit_name(u))) {
          units.push_back(u);
          known = true;
        }
      if (!known) {
        std::cerr << "unknown unit: " << want << " (decoder|fetch|wsc)\n";
        return 2;
      }
    }
  }

  bool any_mismatch = false;
  Table t("Gate campaign engines: brute oracle vs batch, tuned per SIMD width");
  t.header({"unit", "faults", "sim'd", "engine", "lanes", "cone frac", "time",
            "faults*cyc/s", "vs brute", "vs 64-lane"});

  struct Row {
    std::string label;
    EngineKind engine;
    int collapse, cone;     // set_*_override values
    std::size_t lanes = 0;  // batch rows: pinned width (0 = brute)
    int jit = 0;            // set_jit_override value for batch rows
    std::string base;       // label without the @width suffix (row pairing)
    std::size_t unit_ids = 0;  // runner rows: ids per run() (0 = campaign)
  };
  std::vector<Row> rows = {
      {"brute", EngineKind::Brute, 0, 0, 0, 0, "brute"},
      {"batch", EngineKind::Batch, 0, 0, 64, 0, "batch"},
      {"batch+c+c", EngineKind::Batch, 1, 1, 64, 0, "batch+c+c"},
      {"batch+c+c+jit", EngineKind::Batch, 1, 1, 64, 1, "batch+c+c+jit"},
  };
  // The interpreted and jit engines again at each wider SIMD path the
  // build/CPU can run: vs-64-lane is the payoff of widening.
  for (const std::size_t w : {std::size_t{256}, std::size_t{512}}) {
    if (!gate::batch_width_supported(w)) continue;
    const std::string at = "@" + std::to_string(w);
    rows.push_back({"batch+c+c" + at, EngineKind::Batch, 1, 1, w, 0,
                    "batch+c+c"});
    rows.push_back({"batch+c+c+jit" + at, EngineKind::Batch, 1, 1, w, 1,
                    "batch+c+c+jit"});
  }
  // The store/fleet path at the dispatched width and default JIT mode:
  // GateUnitRunner over 64-id slices (a unit that fills a 64-lane word) and
  // 512-id slices (one that fills the widest word). vs-64-ids is the payoff
  // of lane-filling leases on this CPU.
  for (const std::size_t ids : {std::size_t{64}, gate::kWidestBatchLanes})
    rows.push_back({"runner@" + std::to_string(ids) + "ids", EngineKind::Batch,
                    1, 1, gate::batch_lane_width(), -1, "runner", ids});

  for (gate::UnitKind unit : units) {
    const std::size_t cycles = unit_cycles(unit, traces);

    // Static per-unit structure stats for the tuned rows.
    gate::UnitReplayer replayer(unit);
    const auto list =
        gate::sampled_fault_list(replayer.netlist(), unit, max_faults, 7);
    const std::size_t faults = list.size();
    const double work = static_cast<double>(faults) * static_cast<double>(cycles);
    const auto reps = representatives(replayer.netlist(), list);
    std::map<std::size_t, double> cone_frac;
    set_jit_override(0);  // jit full-eval batches would report fraction 1.0
    for (const Row& row : rows)
      if (row.lanes && !cone_frac.count(row.lanes))
        cone_frac[row.lanes] = mean_cone_fraction(replayer.netlist(), reps,
                                                  row.lanes);
    set_jit_override(-1);

    // The runner rows' campaign: the same full fault list as the others.
    set_collapse_override(1);
    const report::GateUnitRunner runner(
        traces, report::gate_campaign_meta(unit, max_faults, max_issues, 7,
                                           EngineKind::Batch));
    set_collapse_override(-1);
    // Runner rows' cone fraction, as the engine's own cone counters saw it
    // (their batches are made of per-slice representatives).
    std::map<std::size_t, double> runner_cone;  // row index -> fraction
    bool runner_jit = false;

    double brute_s = 0.0, batch_base_s = 0.0, ids64_s = 0.0;
    std::map<std::string, double> base64_s;  // base label -> 64-lane secs

    // Measure first, report after. Each round times every row once, so the
    // host's slow phases (seconds-scale frequency / steal-time drift) hit
    // all rows roughly equally instead of poisoning whichever row owned that
    // slice of wall clock; the per-row minimum across rounds then yields
    // stable vs-* ratios. Rows slower than the repeat budget (brute) keep
    // their single measurement.
    std::vector<double> row_secs(rows.size(), 1e300);
    std::vector<gate::UnitCampaignResult> row_res(rows.size());
    SetupRow golden;
    golden.unit = gate::unit_name(unit);
    golden.traces = traces.size();
    golden.cycles = cycles;
    golden.nets = replayer.netlist().num_nets();
    const auto secs_since = [](Clock::time_point t0) {
      return std::chrono::duration<double>(Clock::now() - t0).count();
    };
    constexpr int kRounds = 9;
    constexpr double kRepeatBudgetSecs = 1.0;
    for (int round = 0; round < kRounds; ++round) {
      // Golden row: the oracle, the production pass and the runner
      // constructor, once each per round like every engine row.
      {
        auto t0 = Clock::now();
        std::vector<gate::UnitReplayer::GoldenTrace> oracle;
        for (const gate::UnitTraces& tr : traces)
          oracle.push_back(replayer.golden_oracle(tr));
        golden.oracle_seconds = std::min(golden.oracle_seconds, secs_since(t0));
        t0 = Clock::now();
        const auto pass = replayer.compute_goldens(traces);
        golden.pass_seconds = std::min(golden.pass_seconds, secs_since(t0));
        t0 = Clock::now();
        {
          const report::GateUnitRunner setup(
              traces, report::gate_campaign_meta(unit, max_faults, max_issues,
                                                 7, EngineKind::Batch));
        }
        golden.runner_setup_seconds =
            std::min(golden.runner_setup_seconds, secs_since(t0));
        if (round == 0) {
          for (std::size_t i = 0; i < pass.size(); ++i) {
            golden.equal &= pass[i].bits == oracle[i].bits &&
                            pass[i].windows == oracle[i].windows;
            golden.byte_layout_bytes += pass[i].cycles * golden.nets;
            golden.packed_bytes += pass[i].bits.size() * sizeof(std::uint64_t);
          }
          any_mismatch |= !golden.equal;
        }
      }
      for (std::size_t ri = 0; ri < rows.size(); ++ri) {
        const Row& row = rows[ri];
        if (round > 0 && row_secs[ri] > kRepeatBudgetSecs) continue;
        set_collapse_override(row.collapse);
        set_cone_override(row.cone);
        gate::set_batch_lanes_override(row.lanes);
        set_jit_override(row.jit);
        // Warm the jit cache outside the timed region: the one-time compile
        // is reported separately (gate.jit.compile_us), not charged to
        // throughput.
        if (round == 0 && row.jit != 0 && row.lanes) {
          const auto sim = gate::make_batch_sim(replayer.netlist(), row.lanes);
          // GPF_JIT=auto rows: whether the engine loaded native code.
          if (row.jit == -1)
            runner_jit = std::string(sim->engine_desc()).find("jit") !=
                         std::string::npos;
        }
        // Sub-0.1s rows (decoder at any width) jitter ±10% even as a
        // min-of-rounds; stretch each timing sample to ~0.2s of work by
        // repeating the campaign and dividing.
        const int reps =
            round == 0 ? 1
                       : static_cast<int>(std::clamp(
                             0.2 / std::max(row_secs[ri], 1e-9), 1.0, 16.0));
        const bool count_cone = round == 0 && row.unit_ids;
        const obs::Snapshot before =
            count_cone ? obs::snapshot() : obs::Snapshot{};
        const auto t0 = Clock::now();
        for (int rep = 0; rep < reps; ++rep)
          row_res[ri] =
              row.unit_ids
                  ? run_leases(runner, unit, row.unit_ids)
                  : gate::run_unit_campaign(unit, traces, max_faults, 7,
                                            nullptr, row.engine);
        row_secs[ri] = std::min(
            row_secs[ri],
            std::chrono::duration<double>(Clock::now() - t0).count() / reps);
        if (count_cone) {
          const obs::Snapshot after = obs::snapshot();
          const auto delta = [&](const char* c) {
            return static_cast<double>(after.counter(c) - before.counter(c));
          };
          const double total = delta("gate.cone_total_gates");
          runner_cone[ri] = total > 0 ? delta("gate.cone_gates") / total : 1.0;
        }
      }
    }
    set_collapse_override(-1);
    set_cone_override(-1);
    gate::set_batch_lanes_override(0);
    set_jit_override(-1);
    golden_rows.push_back(golden);

    gate::UnitCampaignResult reference;
    for (std::size_t ri = 0; ri < rows.size(); ++ri) {
      const Row& row = rows[ri];
      const double secs = row_secs[ri];
      const gate::UnitCampaignResult& res = row_res[ri];
      const bool tuned = row.collapse || row.cone;
      const std::size_t simulated =
          row.unit_ids
              ? slice_representatives(replayer.netlist(), list, row.unit_ids)
              : tuned ? reps.size() : faults;
      const double cone = row.unit_ids ? runner_cone[ri]
                          : tuned && row.lanes ? cone_frac[row.lanes]
                                               : 1.0;

      std::string note;
      if (row.engine == EngineKind::Brute) {
        brute_s = secs;
        reference = res;
        note = "1.0x";
      } else {
        bool equal = res.faults.size() == reference.faults.size();
        for (std::size_t i = 0; equal && i < res.faults.size(); ++i)
          equal = res.faults[i].activated == reference.faults[i].activated &&
                  res.faults[i].hang == reference.faults[i].hang &&
                  res.faults[i].error_counts == reference.faults[i].error_counts;
        note = Table::num(brute_s / secs, 1) + "x" + (equal ? "" : " (MISMATCH)");
        any_mismatch |= !equal;
      }
      if (row.engine == EngineKind::Batch && !tuned) batch_base_s = secs;
      if (row.engine == EngineKind::Batch && tuned && row.lanes == 64 &&
          !row.unit_ids)
        base64_s[row.base] = secs;
      if (row.unit_ids == 64) ids64_s = secs;
      const double vs_batch = batch_base_s > 0.0 ? batch_base_s / secs : 1.0;
      const double vs_64 =
          tuned && !row.unit_ids && base64_s.count(row.base)
              ? base64_s[row.base] / secs
              : 1.0;
      const double vs_64ids =
          row.unit_ids && ids64_s > 0.0 ? ids64_s / secs : 1.0;

      t.row({gate::unit_name(unit), std::to_string(faults),
             std::to_string(simulated), row.label,
             row.lanes ? std::to_string(row.lanes) : std::string("-"),
             Table::num(cone, 2), Table::num(secs, 2) + " s",
             Table::num(work / secs, 0), note,
             row.unit_ids ? Table::num(vs_64ids, 2) + "x (ids)"
             : tuned      ? Table::num(vs_64, 2) + "x"
                          : std::string("-")});
      JsonRow jr;
      jr.unit = gate::unit_name(unit);
      jr.engine = row.label;
      jr.faults = faults;
      jr.simulated = simulated;
      jr.cycles = cycles;
      jr.lanes = row.lanes;
      jr.unit_ids = row.unit_ids;
      jr.collapse = row.collapse != 0;
      jr.cone = row.cone != 0;
      jr.jit = row.jit == 1 || (row.jit == -1 && runner_jit);
      jr.collapse_ratio =
          static_cast<double>(faults) / static_cast<double>(simulated);
      jr.mean_cone_fraction = cone;
      jr.wall_seconds = secs;
      jr.speedup_vs_brute = row.engine == EngineKind::Brute ? 1.0 : brute_s / secs;
      jr.speedup_vs_batch_base =
          row.engine == EngineKind::Batch ? vs_batch : 1.0;
      jr.speedup_vs_lanes64 = vs_64;
      jr.speedup_vs_64ids = vs_64ids;
      json_rows.push_back(jr);
    }
  }
  t.print(std::cout);

  Table gt("Campaign set-up: golden oracle vs word-wide golden pass");
  gt.header({"unit", "nets", "cycles", "oracle", "pass", "vs oracle",
             "runner setup", "byte layout", "packed"});
  const auto mib = [](std::size_t b) {
    return Table::num(static_cast<double>(b) / 1048576.0, 3) + " MiB";
  };
  for (const SetupRow& g : golden_rows)
    gt.row({g.unit, std::to_string(g.nets), std::to_string(g.cycles),
            Table::num(g.oracle_seconds * 1e3, 2) + " ms",
            Table::num(g.pass_seconds * 1e3, 2) + " ms",
            Table::num(g.oracle_seconds / g.pass_seconds, 1) + "x" +
                (g.equal ? "" : " (MISMATCH)"),
            Table::num(g.runner_setup_seconds * 1e3, 2) + " ms",
            mib(g.byte_layout_bytes), mib(g.packed_bytes)});
  std::cout << "\n";
  gt.print(std::cout);

  // Instrumentation overhead: the tuned decoder row with the obs registry
  // recording vs every record call compiled down to one untaken branch
  // (set_metrics_override(0)). Min-of-two runs each way to damp scheduler
  // noise; the registry's contract is ~zero, CI asserts a lenient ceiling.
  double metrics_overhead_pct = 0.0;
  if (std::find(units.begin(), units.end(), gate::UnitKind::Decoder) !=
      units.end()) {
    set_collapse_override(1);
    set_cone_override(1);
    const auto timed = [&](int metrics_on) {
      set_metrics_override(metrics_on);
      const auto t0 = Clock::now();
      gate::run_unit_campaign(gate::UnitKind::Decoder, traces, max_faults, 7,
                              nullptr, EngineKind::Batch);
      return std::chrono::duration<double>(Clock::now() - t0).count();
    };
    timed(0);  // warm caches before either measured pass
    // Interleave the off/on measurements like the row timing above: the
    // sub-0.1s decoder run makes a sequential pair hostage to whichever
    // host-noise phase it lands in.
    double off_s = 1e300, on_s = 1e300;
    for (int rep = 0; rep < 6; ++rep) {
      off_s = std::min(off_s, timed(0));
      on_s = std::min(on_s, timed(1));
    }
    set_metrics_override(-1);
    set_collapse_override(-1);
    set_cone_override(-1);
    metrics_overhead_pct =
        off_s > 0.0 ? (on_s - off_s) / off_s * 100.0 : 0.0;
    std::printf("\nmetrics overhead (decoder, batch+c+c): off %.3fs on %.3fs "
                "=> %+.2f%%\n",
                off_s, on_s, metrics_overhead_pct);
  }

  std::cout << "\nThe batch engine packs one stuck-at fault per SIMD lane —\n"
               "64 in a uint64_t word, 256 in an AVX2 register, 512 in an\n"
               "AVX-512 register — and replays each trace once per batch.\n"
               "Collapsing (GPF_COLLAPSE) simulates one representative per\n"
               "structural equivalence class and expands the records; cone\n"
               "pruning (GPF_CONE) word-evaluates only gates downstream of a\n"
               "batch's fault sites. Both default on; all rows classify\n"
               "identically and export byte-identical stores at any width.\n"
               "The runner rows run the store/fleet path instead: a serial\n"
               "GateUnitRunner::run over the fault list in lease-sized\n"
               "slices at the dispatched width; their last column is the\n"
               "speedup of 512-id over 64-id slices (gpfd's gate units are\n"
               "512 ids, so they fill whole words at any lane width).\n"
               "The batch rows interpret the fused/folded gate program with\n"
               "sparse force fixups (GPF_FUSE, default on); +jit rows\n"
               "compile the program to native code per level (GPF_JIT=auto,\n"
               "cached under GPF_JIT_CACHE_DIR). Select an engine with\n"
               "GPF_ENGINE=brute|batch, pin a lane width with\n"
               "GPF_LANES=64|256|512 (default: the widest the CPU runs), and\n"
               "size the pool with GPF_THREADS.\n";
  write_bench_json(json_rows, golden_rows, metrics_overhead_pct);
  if (any_mismatch) {
    std::cerr << "FAIL: engines disagree on at least one classification, or "
                 "the golden pass on at least one golden row\n";
    return 1;
  }
  return 0;
}
