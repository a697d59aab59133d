// Campaign-driver tests for src/report/gate_experiments (previously only
// exercised via benches): per-unit class counts stable across engines and
// across a kill/resume cycle through the persistent store, and a 4-shard
// merged store reproducing the single-store run exactly.
#include <gtest/gtest.h>

#include <array>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <thread>

#include "gate/batchsim.hpp"
#include "gate/replay.hpp"
#include "obs/metrics.hpp"
#include "report/gate_experiments.hpp"
#include "store/export.hpp"
#include "store/merge.hpp"
#include "store/records.hpp"

using namespace gpf;

namespace {

constexpr std::size_t kMaxIssues = 40;
constexpr std::size_t kFaults = 96;
constexpr std::uint64_t kSeed = 7;

class GateExperimentsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("gpf-gatexp-" + std::to_string(::getpid()) + "-" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string path(const std::string& name) const { return (dir_ / name).string(); }

  static std::array<std::size_t, 4> class_counts(
      const gate::UnitCampaignResult& r) {
    return {r.count_class(gate::FaultClass::Uncontrollable),
            r.count_class(gate::FaultClass::Masked),
            r.count_class(gate::FaultClass::Hang),
            r.count_class(gate::FaultClass::SwError)};
  }

  static std::string export_json(const std::string& store_path) {
    std::ostringstream os;
    store::export_store(store::load_store(store_path), store::ExportFormat::Json,
                        os);
    return os.str();
  }

  /// The id-keyed record payloads of a store: what an export's records are
  /// made of, without the header that names the engine.
  static std::map<std::uint64_t, std::vector<std::uint8_t>> records_of(
      const std::string& store_path) {
    return store::load_store(store_path).records;
  }

  static const std::vector<gate::UnitTraces>& traces() {
    return report::collect_profiling_traces(kMaxIssues);
  }

 protected:
  std::filesystem::path dir_;
};

TEST_F(GateExperimentsTest, ProfilingTracesCoverAllWorkloads) {
  ASSERT_EQ(traces().size(), 14u);
  for (const auto& t : traces()) {
    EXPECT_FALSE(t.workload.empty());
    EXPECT_GT(t.issues, 0u);
  }
}

// Per-unit class counts are stable across engines at the campaign-driver
// level: the batch engine reproduces the brute oracle.
TEST_F(GateExperimentsTest, ClassCountsStableAcrossEngines) {
  const auto batch =
      report::run_gate_campaigns(traces(), kFaults, kSeed, EngineKind::Batch);
  const auto brute =
      report::run_gate_campaigns(traces(), kFaults, kSeed, EngineKind::Brute);
  ASSERT_EQ(batch.units.size(), brute.units.size());
  for (unsigned u = 0; u < 3; ++u) {
    SCOPED_TRACE(gate::unit_name(batch.units[u].unit));
    EXPECT_EQ(class_counts(batch.units[u]), class_counts(brute.units[u]));
  }
  EXPECT_GT(batch.total_dynamic_instructions, 0u);
}

// The checkpointed driver produces the same classifications as the in-memory
// campaign, and the store's class names match the gate library's.
TEST_F(GateExperimentsTest, StoreDriverMatchesInMemoryCampaign) {
  const auto meta = report::gate_campaign_meta(
      gate::UnitKind::Decoder, kFaults, kMaxIssues, kSeed, EngineKind::Batch);
  const auto plain = report::run_unit_campaign(traces(), meta);
  store::CampaignCheckpoint ckpt(path("a.gpfs"), meta);
  const auto stored = report::run_unit_campaign_store(traces(), ckpt);
  ASSERT_EQ(stored.faults.size(), plain.faults.size());
  for (std::size_t i = 0; i < plain.faults.size(); ++i) {
    EXPECT_EQ(stored.faults[i].fault.net, plain.faults[i].fault.net);
    EXPECT_EQ(stored.faults[i].activated, plain.faults[i].activated);
    EXPECT_EQ(stored.faults[i].hang, plain.faults[i].hang);
    EXPECT_EQ(stored.faults[i].error_counts, plain.faults[i].error_counts);
    // Store-side class naming agrees with the gate library.
    store::GateRecord rec;
    rec.activated = stored.faults[i].activated;
    rec.hang = stored.faults[i].hang;
    rec.error_counts = stored.faults[i].error_counts;
    EXPECT_STREQ(rec.class_name(),
                 gate::fault_class_name(plain.faults[i].cls()));
  }
}

// Acceptance: killing a campaign mid-run and resuming yields an export
// byte-identical to an uninterrupted run. The kill is simulated two ways:
// a record limit (clean pause) plus a torn half-written record at the tail
// (what a SIGKILL mid-append leaves behind).
TEST_F(GateExperimentsTest, KillAndResumeExportIsByteIdentical) {
  const auto unit = gate::UnitKind::Decoder;
  const auto meta = report::gate_campaign_meta(unit, kFaults, kMaxIssues, kSeed,
                                               EngineKind::Batch);
  // Uninterrupted reference run.
  {
    store::CampaignCheckpoint ckpt(path("full.gpfs"), meta);
    report::run_unit_campaign_store(traces(), ckpt);
    EXPECT_FALSE(ckpt.paused());
  }
  const std::string full_json = export_json(path("full.gpfs"));

  // Interrupted run at 64 lanes: pause after one 64-fault batch (a wider
  // dispatched width could retire the whole campaign in one batch, leaving
  // nothing to resume). The reference above ran at the dispatched width, so
  // this test also asserts byte-identity across lane widths.
  struct LaneGuard {
    ~LaneGuard() { gate::set_batch_lanes_override(0); }
  } lane_guard;
  gate::set_batch_lanes_override(64);
  {
    store::CampaignCheckpoint ckpt(path("killed.gpfs"), meta);
    ckpt.set_record_limit(1);
    report::run_unit_campaign_store(traces(), ckpt);
    EXPECT_TRUE(ckpt.paused());
    EXPECT_LT(ckpt.done_count(), kFaults);
  }
  // ...and SIGKILL debris: a half-written record at the tail.
  {
    std::ofstream f(path("killed.gpfs"), std::ios::binary | std::ios::app);
    const char torn[] = {42, 0, 0, 0, 0, 0, 0, 0, 99, 0, 0, 0, 7};
    f.write(torn, sizeof(torn));
  }
  // Resume to completion.
  {
    store::CampaignCheckpoint ckpt(path("killed.gpfs"), meta);
    EXPECT_GT(ckpt.torn_bytes_dropped(), 0u);
    const auto resumed = report::run_unit_campaign_store(traces(), ckpt);
    EXPECT_FALSE(ckpt.paused());
    EXPECT_EQ(resumed.faults.size(), kFaults);
  }
  EXPECT_EQ(export_json(path("killed.gpfs")), full_json);
}

// Acceptance: merging 4 disjoint shard stores reproduces the single-store
// campaign exactly (counts and export bytes).
TEST_F(GateExperimentsTest, FourShardMergeMatchesSingleStore) {
  const auto unit = gate::UnitKind::Fetch;
  {
    store::CampaignCheckpoint ckpt(
        path("single.gpfs"), report::gate_campaign_meta(unit, kFaults, kMaxIssues,
                                                        kSeed, EngineKind::Batch));
    report::run_unit_campaign_store(traces(), ckpt);
  }
  std::vector<std::string> shard_paths;
  std::size_t sharded_total = 0;
  for (std::uint32_t s = 0; s < 4; ++s) {
    shard_paths.push_back(path("shard" + std::to_string(s) + ".gpfs"));
    store::CampaignCheckpoint ckpt(
        shard_paths.back(),
        report::gate_campaign_meta(unit, kFaults, kMaxIssues, kSeed,
                                   EngineKind::Batch, s, 4));
    const auto r = report::run_unit_campaign_store(traces(), ckpt);
    sharded_total += r.faults.size();
  }
  EXPECT_EQ(sharded_total, kFaults);

  store::MergeStats st = store::merge_store_files(shard_paths, path("merged.gpfs"));
  EXPECT_EQ(st.records, kFaults);
  EXPECT_EQ(export_json(path("merged.gpfs")), export_json(path("single.gpfs")));
}

// Acceptance: a collapsed + cone-pruned campaign's store export is
// byte-identical to a knobs-off run of the same campaign — collapsing is an
// expansion-exact optimization, not an approximation. Also checks the
// status-level representative accounting.
TEST_F(GateExperimentsTest, CollapsedStoreExportIsByteIdentical) {
  const auto unit = gate::UnitKind::Decoder;
  const auto meta = report::gate_campaign_meta(unit, kFaults, kMaxIssues, kSeed,
                                               EngineKind::Batch);
  struct KnobGuard {
    ~KnobGuard() {
      gpf::set_collapse_override(-1);
      gpf::set_cone_override(-1);
    }
  } guard;

  gpf::set_collapse_override(0);
  gpf::set_cone_override(0);
  {
    store::CampaignCheckpoint ckpt(path("plain.gpfs"), meta);
    report::run_unit_campaign_store(traces(), ckpt);
  }
  EXPECT_EQ(report::gate_campaign_representatives(meta), kFaults);

  gpf::set_collapse_override(1);
  gpf::set_cone_override(1);
  {
    store::CampaignCheckpoint ckpt(path("collapsed.gpfs"), meta);
    report::run_unit_campaign_store(traces(), ckpt);
  }
  const std::size_t reps = report::gate_campaign_representatives(meta);
  EXPECT_LE(reps, kFaults);

  EXPECT_EQ(export_json(path("collapsed.gpfs")), export_json(path("plain.gpfs")));

  // The runner itself reports the same representative accounting.
  const report::GateUnitRunner runner(traces(), meta);
  EXPECT_TRUE(runner.collapsed());
  EXPECT_EQ(runner.representative_count(), reps);
}

// Acceptance: campaign store exports are byte-identical across SIMD lane
// widths — the 64-lane scalar baseline and every wider path this build/CPU
// supports produce exactly the same bytes, because each fault's record is
// independent of which batch carried it. This is what lets a fleet mix
// AVX-512, AVX2 and scalar workers in one campaign.
TEST_F(GateExperimentsTest, StoreExportIsByteIdenticalAcrossLaneWidths) {
  const auto unit = gate::UnitKind::WSC;
  const auto meta = report::gate_campaign_meta(unit, kFaults, kMaxIssues, kSeed,
                                               EngineKind::Batch);
  struct LaneGuard {
    ~LaneGuard() { gate::set_batch_lanes_override(0); }
  } guard;

  gate::set_batch_lanes_override(64);
  {
    store::CampaignCheckpoint ckpt(path("w64.gpfs"), meta);
    report::run_unit_campaign_store(traces(), ckpt);
  }
  const std::string base_json = export_json(path("w64.gpfs"));

  for (const std::size_t w : {std::size_t{256}, std::size_t{512}}) {
    if (!gate::batch_width_supported(w)) continue;
    SCOPED_TRACE(w);
    gate::set_batch_lanes_override(w);
    const std::string p = path("w" + std::to_string(w) + ".gpfs");
    store::CampaignCheckpoint ckpt(p, meta);
    report::run_unit_campaign_store(traces(), ckpt);
    EXPECT_EQ(export_json(p), base_json);
  }
}

// Acceptance: exports are also byte-identical across the gate engine's
// knobs together — every supported lane width with collapsing and cone
// pruning each on and off retires exactly the same record for every fault as
// a default run. The brute oracle's store must hold the same records too; its
// export names a different engine, so only the records are compared there.
TEST_F(GateExperimentsTest, StoreExportIsByteIdenticalAcrossEngineKnobs) {
  const auto unit = gate::UnitKind::Fetch;
  const auto meta = report::gate_campaign_meta(unit, kFaults, kMaxIssues, kSeed,
                                               EngineKind::Batch);
  struct KnobGuard {
    ~KnobGuard() {
      gate::set_batch_lanes_override(0);
      set_collapse_override(-1);
      set_cone_override(-1);
    }
  } guard;

  {
    store::CampaignCheckpoint ckpt(path("default.gpfs"), meta);
    report::run_unit_campaign_store(traces(), ckpt);
  }
  const std::string base_json = export_json(path("default.gpfs"));

  {
    store::CampaignCheckpoint ckpt(
        path("brute.gpfs"),
        report::gate_campaign_meta(unit, kFaults, kMaxIssues, kSeed,
                                   EngineKind::Brute));
    report::run_unit_campaign_store(traces(), ckpt);
  }
  EXPECT_EQ(records_of(path("brute.gpfs")), records_of(path("default.gpfs")));

  for (const std::size_t w :
       {std::size_t{64}, std::size_t{256}, std::size_t{512}}) {
    if (!gate::batch_width_supported(w)) continue;
    for (const int collapse : {0, 1}) {
      for (const int cone : {0, 1}) {
        const std::string knobs = "w" + std::to_string(w) + "c" +
                                  std::to_string(collapse) + "p" +
                                  std::to_string(cone);
        SCOPED_TRACE(knobs);
        gate::set_batch_lanes_override(w);
        set_collapse_override(collapse);
        set_cone_override(cone);
        const std::string p = path(knobs + ".gpfs");
        store::CampaignCheckpoint ckpt(p, meta);
        report::run_unit_campaign_store(traces(), ckpt);
        EXPECT_EQ(export_json(p), base_json);
      }
    }
  }
}

// The unit (target) byte is checked the same way: a byte naming no unit
// used to reach build_unit's null netlist and crash. Every entry point that
// reads a gate header refuses it with an error naming the byte.
TEST_F(GateExperimentsTest, UnitByteIsValidated) {
  auto meta = report::gate_campaign_meta(gate::UnitKind::WSC, kFaults,
                                         kMaxIssues, kSeed, EngineKind::Batch);
  EXPECT_EQ(report::gate_campaign_unit(meta), gate::UnitKind::WSC);
  for (const std::uint8_t bad : {std::uint8_t{3}, std::uint8_t{255}}) {
    SCOPED_TRACE(static_cast<int>(bad));
    meta.target = bad;
    const std::string what = "unit byte " + std::to_string(bad);
    const auto expect_refused = [&](const char* entry, const auto& call) {
      try {
        call();
        ADD_FAILURE() << entry << " accepted " << what;
      } catch (const std::runtime_error& e) {
        EXPECT_NE(std::string(e.what()).find(what), std::string::npos)
            << entry << ": " << e.what();
      }
    };
    expect_refused("GateUnitRunner",
                   [&] { const report::GateUnitRunner runner(traces(), meta); });
    expect_refused("gate_campaign_representatives",
                   [&] { report::gate_campaign_representatives(meta); });
    expect_refused("run_unit_campaign_store", [&] {
      const std::string p = path("bad_unit" + std::to_string(bad) + ".gpfs");
      store::CampaignCheckpoint ckpt(p, meta);
      report::run_unit_campaign_store(traces(), ckpt);
    });
  }
}

// Profiling is memoized per max_issues: concurrent first callers wait for
// one profiling run and get the same immutable traces, and later callers
// run nothing. arch.launches counts the launches each run makes; a run's
// count does not depend on max_issues, which only caps what is recorded.
TEST_F(GateExperimentsTest, ProfilingMemoRunsOncePerMaxIssues) {
  if (!obs::enabled()) GTEST_SKIP() << "metrics registry disabled";
  obs::Counter& launches = obs::counter("arch.launches");
  std::uint64_t before = launches.value();
  const std::vector<gate::UnitTraces>& serial =
      report::collect_profiling_traces(kMaxIssues + 1);
  const std::uint64_t one_run = launches.value() - before;
  ASSERT_GT(one_run, 0u);
  EXPECT_EQ(&report::collect_profiling_traces(kMaxIssues + 1), &serial);

  constexpr int kCallers = 4;
  std::array<const std::vector<gate::UnitTraces>*, kCallers> got{};
  before = launches.value();
  {
    std::vector<std::thread> callers;
    for (int i = 0; i < kCallers; ++i)
      callers.emplace_back([&got, i] {
        got[i] = &report::collect_profiling_traces(kMaxIssues + 2);
      });
    for (std::thread& c : callers) c.join();
  }
  EXPECT_EQ(launches.value() - before, one_run);
  for (const auto* g : got) EXPECT_EQ(g, got[0]);
  ASSERT_EQ(got[0]->size(), 14u);
  EXPECT_EQ(&report::collect_profiling_traces(kMaxIssues + 2), got[0]);
  EXPECT_EQ(launches.value() - before, one_run) << "repeat call profiled";
}

// Every gate entry point shares one netlist per unit per process.
TEST_F(GateExperimentsTest, UnitNetlistIsBuiltOncePerProcess) {
  for (const gate::UnitKind u :
       {gate::UnitKind::Decoder, gate::UnitKind::Fetch, gate::UnitKind::WSC}) {
    const std::shared_ptr<const gate::Netlist> nl = gate::unit_netlist(u);
    EXPECT_EQ(gate::unit_netlist(u), nl);
    EXPECT_EQ(&gate::UnitReplayer(u).netlist(), nl.get());
  }
}

// Gate set-up has its own histograms: one gate.runner_setup_us sample per
// runner and one gate.golden_us sample per golden pass, which a runner runs
// once.
TEST_F(GateExperimentsTest, RunnerSetupRecordsOneSampleEach) {
  const auto meta = report::gate_campaign_meta(
      gate::UnitKind::Fetch, kFaults, kMaxIssues, kSeed, EngineKind::Batch);
  obs::Histogram& setup = obs::histogram("gate.runner_setup_us");
  obs::Histogram& golden = obs::histogram("gate.golden_us");
  const std::uint64_t setup0 = setup.count(), golden0 = golden.count();
  const report::GateUnitRunner runner(traces(), meta);
  EXPECT_EQ(setup.count(), setup0 + 1);
  EXPECT_EQ(golden.count(), golden0 + 1);
}

// The engine byte of a campaign header is checked, never cast: Brute and
// Batch run their engines, 0xFF (a merge of mixed-engine shards) runs the
// batch engine, and any other byte — 1 was the removed event engine — is
// refused with an error that names it instead of silently running brute.
TEST_F(GateExperimentsTest, EngineByteIsValidated) {
  auto meta = report::gate_campaign_meta(gate::UnitKind::Decoder, kFaults,
                                         kMaxIssues, kSeed, EngineKind::Batch);
  EXPECT_EQ(report::gate_campaign_engine(meta), EngineKind::Batch);
  meta.engine = static_cast<std::uint8_t>(EngineKind::Brute);
  EXPECT_EQ(report::gate_campaign_engine(meta), EngineKind::Brute);

  for (const std::uint8_t bad : {std::uint8_t{1}, std::uint8_t{7}}) {
    SCOPED_TRACE(static_cast<int>(bad));
    meta.engine = bad;
    try {
      const report::GateUnitRunner runner(traces(), meta);
      ADD_FAILURE() << "runner accepted engine byte " << static_cast<int>(bad);
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("engine byte " + std::to_string(bad)),
                std::string::npos)
          << e.what();
    }
  }

  // 0xFF runs the batch engine and retires the same records it does.
  meta.engine = 0xFF;
  EXPECT_EQ(report::gate_campaign_engine(meta), EngineKind::Batch);
  const report::GateUnitRunner mixed(traces(), meta);
  meta.engine = static_cast<std::uint8_t>(EngineKind::Batch);
  const report::GateUnitRunner batch(traces(), meta);
  std::vector<std::uint64_t> ids(kFaults);
  for (std::uint64_t i = 0; i < kFaults; ++i) ids[i] = i;
  std::map<std::uint64_t, std::vector<std::uint8_t>> got, want;
  const auto into = [](std::map<std::uint64_t, std::vector<std::uint8_t>>& m) {
    return [&m](std::uint64_t id, const gate::FaultCharacterization& fc) {
      m[id] = store::encode(report::to_gate_record(fc));
    };
  };
  mixed.run(ids, into(got));
  batch.run(ids, into(want));
  EXPECT_EQ(got.size(), kFaults);
  EXPECT_EQ(got, want);
}

// GateUnitRunner::run replays each lane-width batch against every trace
// through one engine, so each batch builds its cone program once — not once
// per (batch, trace) pair, as a fresh engine per trace did. The ids are a
// non-contiguous subset spanning several batches at every width, like the
// ids of a resumed or reassigned lease, and their records must equal the
// brute oracle's.
TEST_F(GateExperimentsTest, RunnerBuildsOneConeProgramPerBatch) {
  auto meta = report::gate_campaign_meta(gate::UnitKind::Decoder, 1200,
                                         kMaxIssues, kSeed, EngineKind::Batch);
  struct KnobGuard {
    ~KnobGuard() {
      set_collapse_override(-1);
      set_cone_override(-1);
      set_metrics_override(-1);
    }
  } guard;
  set_collapse_override(0);  // one simulated fault per id
  set_cone_override(1);
  set_metrics_override(1);

  std::vector<std::uint64_t> ids;
  for (std::uint64_t id = 0; id < meta.total; ++id)
    if (id % 3 != 1) ids.push_back(id);
  const std::size_t width = gate::batch_lane_width();
  const std::size_t batches = (ids.size() + width - 1) / width;
  ASSERT_GT(batches, 1u);

  std::map<std::uint64_t, std::vector<std::uint8_t>> got, want;
  const auto into = [](std::map<std::uint64_t, std::vector<std::uint8_t>>& m) {
    return [&m](std::uint64_t id, const gate::FaultCharacterization& fc) {
      m[id] = store::encode(report::to_gate_record(fc));
    };
  };
  const report::GateUnitRunner batch(traces(), meta);
  const std::uint64_t builds = obs::snapshot().counter("gate.cone_builds");
  batch.run(ids, into(got));
  EXPECT_EQ(obs::snapshot().counter("gate.cone_builds") - builds, batches);

  meta.engine = static_cast<std::uint8_t>(EngineKind::Brute);
  const report::GateUnitRunner brute(traces(), meta);
  brute.run(ids, into(want));
  EXPECT_EQ(got.size(), ids.size());
  EXPECT_EQ(got, want);
}

// A store written for one unit refuses to resume a different campaign.
TEST_F(GateExperimentsTest, StoreMismatchIsRejected) {
  const auto meta = report::gate_campaign_meta(gate::UnitKind::Decoder, kFaults,
                                               kMaxIssues, kSeed, EngineKind::Batch);
  { store::CampaignCheckpoint ckpt(path("d.gpfs"), meta); }
  const auto other = report::gate_campaign_meta(gate::UnitKind::WSC, kFaults,
                                                kMaxIssues, kSeed, EngineKind::Batch);
  EXPECT_THROW(store::CampaignCheckpoint(path("d.gpfs"), other),
               std::runtime_error);
}

}  // namespace
