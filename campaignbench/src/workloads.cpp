// The four benchmark workloads. Each repetition calls the same library entry
// points `gpfctl run` and gpfd call, in the same order, into fresh stores:
//
//   gate_units   gate_campaign_meta, CampaignCheckpoint,
//                collect_profiling_traces, run_unit_campaign_store on a
//                ThreadPool, compact_stores — per unit, like drive_campaign
//   perfi_epr    epr_campaign_meta, CampaignCheckpoint, run_epr_cell_store,
//                compact_stores — three cells picked for their outcome mix
//   rtl_tmxm     tmxm_campaign_meta, CampaignCheckpoint,
//                run_tmxm_campaign_store, compact_stores — three sites
//   fleet_mixed  one in-process Coordinator serving the three gate units,
//                a cheap perfi cell and a cheap rtl campaign to nproc-1
//                run_worker threads
#include <algorithm>
#include <cctype>
#include <condition_variable>
#include <cstdio>
#include <filesystem>
#include <optional>
#include <stdexcept>
#include <thread>

#include "bench.hpp"
#include "common/env.hpp"
#include "common/threadpool.hpp"
#include "gate/batchsim.hpp"
#include "gate/jit.hpp"
#include "net/coordinator.hpp"
#include "net/service.hpp"
#include "net/worker.hpp"
#include "obs/metrics.hpp"
#include "perfi/campaign.hpp"
#include "report/gate_experiments.hpp"
#include "rtl/campaign.hpp"
#include "store/checkpoint.hpp"
#include "store/records.hpp"
#include "warehouse/compact.hpp"
#include "workloads/kernels.hpp"
#include "workloads/workload.hpp"

namespace cb {

namespace {

using namespace gpf;
namespace fs = std::filesystem;

/// gpfctl's default --max-issues (profiling traces saturate past it).
constexpr std::size_t kMaxIssues = 400;
/// Injections per perfi cell and per rtl site: sized so one repetition
/// takes a few seconds and a run holds several.
constexpr std::size_t kPerfiInjections = 40;
constexpr std::size_t kRtlInjections = 256;
/// The fleet's perfi cell (hotspot x IMS, ~1.3 ms per injection): four
/// 64-id work units.
constexpr std::size_t kFleetPerfiInjections = 256;
/// The fleet's rtl campaign (max tile, fu site, ~2.4 ms per injection): one
/// work unit.
constexpr std::size_t kFleetRtlInjections = 64;
/// A fleet repetition still serving after this long is drained and failed.
constexpr double kFleetLimitS = 60;
/// Coordinator lease. A worker told NoWork{drained=false} sleeps lease/4
/// before asking again, and serve() lingers only 2 s for workers to collect
/// NoWork{drained=true}; at gpfd's 10 s default a worker asleep at the end
/// misses the linger and spends ~64 s in reconnect backoff. 500 ms keeps
/// that sleep, which idles a worker at the end of every repetition, at
/// 125 ms, while make_unit_fn (~25 ms) stays far inside the lease.
constexpr std::uint32_t kFleetLeaseMs = 500;
/// Untimed fleet repetitions before timing: the first few run up to 2x
/// slower.
constexpr std::size_t kFleetWarmReps = 3;

const gate::UnitKind kUnits[] = {gate::UnitKind::Decoder, gate::UnitKind::Fetch,
                                 gate::UnitKind::WSC};

const char* unit_slug(gate::UnitKind u) {
  switch (u) {
    case gate::UnitKind::Decoder: return "decoder";
    case gate::UnitKind::Fetch: return "fetch";
    case gate::UnitKind::WSC: return "wsc";
  }
  return "unit";
}

std::string store_path(const std::string& dir, const std::string& label) {
  return dir + "/" + label + ".gpfs";
}

std::size_t nproc() {
  return std::max<std::size_t>(1, std::thread::hardware_concurrency());
}

/// Pool size gpfctl's `ThreadPool pool;` resolves to.
std::size_t default_pool_threads() { return ThreadPool().size(); }

/// A driver call whose store appends run on the calling thread: the span
/// carries the store time spent inside it (see Span::store_s).
template <class F>
void driver_call(Tracer* tr, const std::string& name, const char* layer,
                 bool store_on_caller, F&& f) {
  Tracer::Scope span(tr, name, layer);
  const double before = tr && store_on_caller ? store_busy_s() : 0;
  f();
  if (tr && store_on_caller) span.set_store_s(store_busy_s() - before);
}

/// gpfctl's end-of-campaign warehouse compaction.
void compact(Tracer* tr, const std::string& path, RepResult& r) {
  Tracer::Scope span(tr, "warehouse.compact_stores", "warehouse");
  r.warehouse_rows +=
      warehouse::compact_stores({path}, warehouse::warehouse_path_for(path)).rows;
}

/// Campaign stores held open together (the fleet serves them all at once).
using Stores = std::vector<std::unique_ptr<store::CampaignCheckpoint>>;

/// Opens a campaign store the way gpfctl does (fresh file, header written).
std::unique_ptr<store::CampaignCheckpoint> open_store(
    Tracer* tr, const CampaignRun& c) {
  store::create_parent_dirs(c.store_path);
  Tracer::Scope span(tr, "store.open", "store");
  return std::make_unique<store::CampaignCheckpoint>(c.store_path, c.meta);
}

void fail(RepResult& r, const std::string& label, const std::string& msg) {
  r.failures.emplace(label, msg);
}

std::string pct(std::size_t n, std::size_t total) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.1f%%",
                total ? 100.0 * static_cast<double>(n) /
                            static_cast<double>(total)
                      : 0.0);
  return buf;
}

// --- summaries (what export/status print, in one line per campaign) ---------

std::string gate_summary(const std::string& label, const store::LoadedStore& s) {
  std::map<std::string, std::size_t> by_class;
  for (const auto& [id, payload] : s.records)
    ++by_class[store::decode_gate(payload).class_name()];
  const std::size_t n = s.records.size();
  std::string out = label + ": " + std::to_string(n) + " faults";
  for (const char* c : {"uncontrollable", "hw-masked", "hw-hang", "sw-error"})
    out += std::string("  ") + c + " " + pct(by_class[c], n);
  return out;
}

std::string perfi_summary(const std::string& label,
                          const store::LoadedStore& s) {
  perfi::EprCell cell;
  for (const auto& [id, payload] : s.records)
    perfi::add_record(cell, store::decode_perfi(payload));
  return label + ": " + std::to_string(cell.injections) + " injections  masked " +
         pct(cell.masked, cell.injections) + "  SDC " +
         pct(cell.sdc, cell.injections) + "  DUE " +
         pct(cell.due, cell.injections) + " (illegal-address " +
         std::to_string(cell.due_illegal_address) + ", invalid-register " +
         std::to_string(cell.due_invalid_register) + ", invalid-opcode " +
         std::to_string(cell.due_invalid_opcode) + ", hang " +
         std::to_string(cell.due_hang) + ", other " +
         std::to_string(cell.due_other) + ")";
}

std::string rtl_summary(const std::string& label, const store::LoadedStore& s) {
  rtl::AvfSummary sum;
  for (const auto& [id, payload] : s.records)
    sum.add(rtl::from_rtl_record(store::decode_rtl(payload)));
  char buf[160];
  std::snprintf(buf, sizeof buf,
                ": %zu injections  AVF SDC-single %.1f%%  SDC-multi %.1f%%  "
                "DUE %.1f%%",
                sum.injections, 100 * sum.avf_sdc_single(),
                100 * sum.avf_sdc_multi(), 100 * sum.avf_due());
  return label + buf;
}


// --- traced-run helpers -------------------------------------------------------

/// Total duration of the spans of run `run` whose name starts with `prefix`.
double span_total(const std::vector<Span>& spans, int run,
                  const std::string& prefix) {
  double t = 0;
  for (const Span& s : spans)
    if (s.run == run && s.name.rfind(prefix, 0) == 0) t += s.t1 - s.t0;
  return t;
}

double sum(const std::vector<double>& v) {
  double s = 0;
  for (const double x : v) s += x;
  return s;
}

/// Host speed of the functional simulator: warp-instructions per second of
/// Workload::run on a fresh arch::Gpu, over `apps`, repeated until at least
/// half a second has been timed.
double arch_speed(Tracer& tr, const std::vector<const workloads::Workload*>& apps) {
  std::uint64_t instr = 0;
  double secs = 0;
  while (secs < 0.5) {
    for (const workloads::Workload* w : apps) {
      arch::Gpu gpu;
      w->setup(gpu);
      Tracer::Scope span(&tr, "arch.run " + std::string(w->name()), "arch");
      const auto t0 = Clock::now();
      const workloads::RunStats st = w->run(gpu);
      secs += seconds_since(t0);
      if (!st.ok)
        throw std::runtime_error("fault-free run failed: " + std::string(w->name()));
      instr += st.instructions;
    }
  }
  return static_cast<double>(instr) / secs;
}

/// Checks that a runner's in-memory records equal the driver's store.
void compare_records(const CampaignRun& c,
                     const std::vector<std::vector<std::uint8_t>>& recs,
                     std::map<std::string, std::string>& failures) {
  const store::LoadedStore s = store::load_store(c.store_path);
  for (std::uint64_t id = 0; id < recs.size(); ++id) {
    const auto it = s.records.find(id);
    if (it == s.records.end() || it->second != recs[id]) {
      failures.emplace(c.label, "public runner's record for id " +
                                    std::to_string(id) +
                                    " differs from the driver's store");
      return;
    }
  }
}

std::vector<std::uint64_t> all_ids(const store::CampaignMeta& m) {
  std::vector<std::uint64_t> ids(m.total);
  for (std::uint64_t i = 0; i < m.total; ++i) ids[i] = i;
  return ids;
}

// ---------------------------------------------------------------------------
// gate_units
// ---------------------------------------------------------------------------

class GateUnits : public Workload {
 public:
  GateUnits(std::uint64_t seed, std::string jit_dir)
      : seed_(seed), jit_dir_(std::move(jit_dir)) {}

  void warm_up(const std::string& dir) override { run_rep(dir, nullptr); }

  RepResult run_rep(const std::string& dir, Tracer* tr) override {
    RepResult r;
    const Stamp t0;
    r.campaigns = campaigns(dir, tr);
    r.setup += t0.elapsed();
    for (const CampaignRun& c : r.campaigns) {
      try {
        const Stamp ts;
        const auto ckpt = open_store(tr, c);
        std::vector<gate::UnitTraces> traces;
        {
          // Profiling runs the apps on arch::Gpu: its self time is arch time.
          Tracer::Scope span(tr, "gate.collect_profiling_traces", "arch");
          traces = report::collect_profiling_traces(c.meta.param1);
        }
        std::optional<ThreadPool> pool;
        {
          Tracer::Scope span(tr, "gate.thread_pool", "gate");
          pool.emplace();
        }
        r.setup += ts.elapsed();
        const Stamp te;
        // Appends run on the pool threads, so no store time is carved out.
        driver_call(tr, "report.run_unit_campaign_store " + c.label, "gate",
                    false, [&] {
                      report::run_unit_campaign_store(traces, *ckpt, &*pool);
                    });
        r.eval += te.elapsed();
        r.appended += ckpt->done_count();
        {
          Tracer::Scope span(tr, "gate.thread_pool_join", "gate");
          pool.reset();
        }
        compact(tr, c.store_path, r);
      } catch (const std::exception& e) {
        fail(r, c.label, e.what());
      }
    }
    r.total = t0.elapsed();
    return r;
  }

  void traced_extras(const TracedContext& ctx, LayerMetrics& out,
                     std::map<std::string, std::string>& failures) override {
    const int run = ctx.tr.run();
    out["gate.profile_s"] = span_total(ctx.spans, run, "gate.collect_profiling_traces");
    out["gate.meta_s"] = span_total(ctx.spans, run, "gate.gate_campaign_meta");
    out["gate.pool_busy_share"] =
        trace_event_seconds(ctx.gpf_trace_path, "batch") /
        (static_cast<double>(default_pool_threads()) * ctx.rep.eval.wall);
    gate_counters(ctx.snap, out);

    // The driver hides runner setup (golden traces, collapse map, JIT load)
    // and evaluation: call the public runner on the same ids.
    ctx.tr.set_run(run + 1);
    obs::reset_all();
    std::vector<gate::UnitTraces> traces;
    {
      Tracer::Scope span(&ctx.tr, "gate.collect_profiling_traces", "arch");
      traces = report::collect_profiling_traces(kMaxIssues);
    }
    ThreadPool pool;
    double runner_setup = 0, eval = 0;
    for (const CampaignRun& c : ctx.rep.campaigns) {
      auto t0 = Clock::now();
      std::optional<report::GateUnitRunner> runner;
      {
        Tracer::Scope span(&ctx.tr, "gate.GateUnitRunner " + c.label, "gate");
        runner.emplace(traces, c.meta);
      }
      runner_setup += seconds_since(t0);
      std::vector<std::vector<std::uint8_t>> recs(c.meta.total);
      const std::vector<std::uint64_t> ids = all_ids(c.meta);
      t0 = Clock::now();
      {
        Tracer::Scope span(&ctx.tr, "gate.GateUnitRunner::run " + c.label, "gate");
        runner->run(
            ids,
            [&](std::uint64_t id, const gate::FaultCharacterization& fc) {
              recs[id] = store::encode(report::to_gate_record(fc));
            },
            &pool);
      }
      eval += seconds_since(t0);
      compare_records(c, recs, failures);
    }
    out["gate.runner_setup_s"] = runner_setup;
    out["gate.eval_s"] = eval;
    out["gate.lane_cycles_per_s"] =
        static_cast<double>(obs::snapshot().counter("gate.lane_cycles")) / eval;

    // JIT compile cost against an empty cache, then the load cost from the
    // benchmark's warm cache, each over one whole campaign set.
    ctx.tr.set_run(run + 2);
    const std::string cold = ctx.dir + "/jit-cold";
    set_jit_cache_dir_override(cold);
    gate::jit_reset_for_tests();
    obs::reset_all();
    RepResult rc = run_rep(ctx.dir + "/cold", nullptr);
    const obs::Snapshot cs = obs::snapshot();
    out["gate.jit.compile_us"] =
        static_cast<double>(find_histogram(cs, "gate.jit.compile_us").sum);
    out["gate.jit.compiles"] = static_cast<double>(cs.counter("gate.jit.compiles"));
    set_jit_cache_dir_override(jit_dir_);
    gate::jit_reset_for_tests();
    obs::reset_all();
    RepResult rw = run_rep(ctx.dir + "/warm", nullptr);
    out["gate.jit.cache_hits"] =
        static_cast<double>(obs::snapshot().counter("gate.jit.cache_hits"));
    for (const RepResult* x : {&rc, &rw}) failures.insert(x->failures.begin(), x->failures.end());
    fs::remove_all(cold);

    ctx.tr.set_run(run + 3);
    out["arch.warp_instr_per_s"] = arch_speed(ctx.tr, workloads::profiling_set());
  }

  /// The campaign set of one repetition (gate_campaign_meta per unit).
  std::vector<CampaignRun> campaigns(const std::string& dir, Tracer* tr) const {
    std::vector<CampaignRun> out;
    for (const gate::UnitKind u : kUnits) {
      Tracer::Scope span(tr, "gate.gate_campaign_meta", "gate");
      CampaignRun c;
      c.label = std::string("gate-") + unit_slug(u);
      c.meta = report::gate_campaign_meta(u, 0, kMaxIssues, seed_,
                                          EngineKind::Batch);
      c.store_path = store_path(dir, c.label);
      out.push_back(std::move(c));
    }
    return out;
  }

  /// Gate counters of an obs snapshot taken over one campaign set.
  static void gate_counters(const obs::Snapshot& s, LayerMetrics& out) {
    const double batches = static_cast<double>(s.counter("gate.batches"));
    out["gate.batches"] = batches;
    out["gate.lane_occupancy"] =
        static_cast<double>(s.counter("gate.batch_lanes")) /
        (batches * static_cast<double>(gate::batch_lane_width()));
    out["gate.collapse_ratio"] =
        static_cast<double>(s.counter("gate.collapse_members")) /
        static_cast<double>(s.counter("gate.collapse_reps"));
  }

 private:
  std::uint64_t seed_;
  std::string jit_dir_;
};

// ---------------------------------------------------------------------------
// perfi_epr
// ---------------------------------------------------------------------------

struct EprCellSpec {
  const char* app;
  errmodel::ErrorModel model;
};

/// gemm x IOC: a quarter of its injections hang to the watchdog; yolov3 x
/// IMS: all masked; yolov3 x IAT: SDCs plus illegal-address traps, no hangs.
const EprCellSpec kEprCells[] = {{"gemm", errmodel::ErrorModel::IOC},
                                 {"yolov3", errmodel::ErrorModel::IMS},
                                 {"yolov3", errmodel::ErrorModel::IAT}};

const workloads::Workload& find_app(const std::string& name) {
  const workloads::Workload* w = workloads::find(name);
  if (!w) throw std::runtime_error("unknown workload " + name);
  return *w;
}

CampaignRun epr_campaign(const std::string& dir, const std::string& app,
                         errmodel::ErrorModel model, std::size_t n,
                         std::uint64_t seed) {
  CampaignRun c;
  c.label = "perfi-" + app + "-" + std::string(errmodel::name_of(model));
  c.meta = perfi::epr_campaign_meta(find_app(app), model, n, seed);
  c.store_path = store_path(dir, c.label);
  return c;
}

/// The driver hides the golden run and the per-injection latency: calls the
/// public EprUnitRunner on every id of each perfi campaign, times each emit,
/// and records a failure unless its records equal the driver's store.
void perfi_extras(Tracer& tr, const std::vector<CampaignRun>& campaigns,
                  LayerMetrics& out, std::map<std::string, std::string>& failures) {
  std::vector<double> all, masked, sdc, due_trap, due_hang, golden_ms;
  for (const CampaignRun& c : campaigns) {
    if (c.meta.kind != store::CampaignKind::Perfi) continue;
    const workloads::Workload& w = find_app(c.meta.app);
    auto t0 = Clock::now();
    std::optional<perfi::EprUnitRunner> runner;
    {
      Tracer::Scope span(&tr, "perfi.EprUnitRunner " + c.label, "arch");
      runner.emplace(w, c.meta);
    }
    golden_ms.push_back(1e3 * seconds_since(t0));
    std::vector<std::vector<std::uint8_t>> recs(c.meta.total);
    Tracer::Scope span(&tr, "perfi.EprUnitRunner::run " + c.label, "perfi");
    auto last = Clock::now();
    runner->run(all_ids(c.meta), [&](std::uint64_t id,
                                     const store::PerfiRecord& rec) {
      const double ms = 1e3 * seconds_between(last, Clock::now());
      all.push_back(ms);
      switch (rec.outcome) {
        case store::PerfiOutcome::Masked: masked.push_back(ms); break;
        case store::PerfiOutcome::Sdc: sdc.push_back(ms); break;
        case store::PerfiOutcome::DueHang: due_hang.push_back(ms); break;
        default: due_trap.push_back(ms); break;
      }
      recs[id] = store::encode(rec);
      last = Clock::now();
    });
    compare_records(c, recs, failures);
  }
  const Tail tail = tail_percentile(all);
  out["perfi.injections"] = static_cast<double>(all.size());
  out["perfi.injection_ms.p50"] = median(all);
  out["perfi.injection_ms.tail"] = tail.value;
  out["perfi.injection_ms.tail_pct"] = tail.pct;
  // An outcome no injection had reads 0 (median of no samples).
  out["perfi.injection_ms.masked"] = median(masked);
  out["perfi.injection_ms.sdc"] = median(sdc);
  out["perfi.injection_ms.due_trap"] = median(due_trap);
  out["perfi.injection_ms.due_hang"] = median(due_hang);
  out["perfi.count.masked"] = static_cast<double>(masked.size());
  out["perfi.count.sdc"] = static_cast<double>(sdc.size());
  out["perfi.count.due_trap"] = static_cast<double>(due_trap.size());
  out["perfi.count.due_hang"] = static_cast<double>(due_hang.size());
  out["perfi.hang_time_share"] = sum(due_hang) / sum(all);
  out["perfi.masked_time_share"] = sum(masked) / sum(all);
  out["arch.golden_ms"] = sum(golden_ms) / static_cast<double>(golden_ms.size());
}

class PerfiEpr : public Workload {
 public:
  explicit PerfiEpr(std::uint64_t seed) : seed_(seed) {}

  void warm_up(const std::string& dir) override {
    // Page in the apps and allocator on a few injections of every cell.
    for (const EprCellSpec& cell : kEprCells) {
      const CampaignRun c = epr_campaign(dir, cell.app, cell.model, 2, seed_);
      perfi::run_epr_cell_store(find_app(cell.app), *open_store(nullptr, c));
    }
  }

  RepResult run_rep(const std::string& dir, Tracer* tr) override {
    RepResult r;
    const Stamp t0;
    for (const EprCellSpec& cell : kEprCells) {
      CampaignRun c;
      try {
        const Stamp ts;
        {
          Tracer::Scope span(tr, "perfi.epr_campaign_meta", "perfi");
          c = epr_campaign(dir, cell.app, cell.model, kPerfiInjections, seed_);
        }
        const auto ckpt = open_store(tr, c);
        r.setup += ts.elapsed();
        const Stamp te;
        driver_call(tr, "perfi.run_epr_cell_store " + c.label, "perfi", true,
                    [&] { perfi::run_epr_cell_store(find_app(cell.app), *ckpt); });
        r.eval += te.elapsed();
        r.appended += ckpt->done_count();
        compact(tr, c.store_path, r);
      } catch (const std::exception& e) {
        fail(r, c.label.empty() ? cell.app : c.label, e.what());
      }
      r.campaigns.push_back(c);
    }
    r.total = t0.elapsed();
    return r;
  }

  void traced_extras(const TracedContext& ctx, LayerMetrics& out,
                     std::map<std::string, std::string>& failures) override {
    const int run = ctx.tr.run();
    ctx.tr.set_run(run + 1);
    perfi_extras(ctx.tr, ctx.rep.campaigns, out, failures);

    ctx.tr.set_run(run + 2);
    std::vector<const workloads::Workload*> apps;
    for (const CampaignRun& c : ctx.rep.campaigns) {
      const workloads::Workload* w = &find_app(c.meta.app);
      if (std::find(apps.begin(), apps.end(), w) == apps.end()) apps.push_back(w);
    }
    out["arch.warp_instr_per_s"] = arch_speed(ctx.tr, apps);
  }

 private:
  std::uint64_t seed_;
};

// ---------------------------------------------------------------------------
// rtl_tmxm
// ---------------------------------------------------------------------------

/// sfu is left out: t-MxM issues no SFU operations, so every injection
/// there is masked.
const rtl::Site kRtlSites[] = {rtl::Site::FuLane, rtl::Site::Pipeline,
                               rtl::Site::Scheduler};

/// Metric key of a site (rtl.injection_ms.<key>).
const char* site_key(rtl::Site site) {
  switch (site) {
    case rtl::Site::FuLane: return "fu";
    case rtl::Site::Sfu: return "sfu";
    case rtl::Site::Pipeline: return "pipeline";
    case rtl::Site::Scheduler: return "scheduler";
  }
  return "site";
}

/// A t-MxM campaign labelled rtl-<tile>-<site>, e.g. rtl-random-FU.
CampaignRun tmxm_campaign(const std::string& dir, workloads::TileType tile,
                          rtl::Site site, std::size_t n, std::uint64_t seed) {
  std::string slug = workloads::tile_type_name(tile);
  std::transform(slug.begin(), slug.end(), slug.begin(),
                 [](unsigned char ch) { return std::tolower(ch); });
  CampaignRun c;
  c.label = "rtl-" + slug + "-" + std::string(rtl::site_name(site));
  c.meta = rtl::tmxm_campaign_meta(tile, site, n, seed);
  c.store_path = store_path(dir, c.label);
  return c;
}

/// Campaign seed of a site. About 1% of pipeline and scheduler faults hang
/// to the watchdog at 100-420 ms each (50-150x a normal injection), so the
/// cost of 256 of them swings by +-30% from one seed to the next -- more
/// than any bound the benchmark could hold. Those two sites always run the
/// reference campaigns; fu, which has no such hangs, follows --seed.
std::uint64_t site_seed(rtl::Site site, std::uint64_t seed) {
  return site == rtl::Site::FuLane ? seed : kReferenceSeed;
}

/// Per-injection rtl figures: the public TmxmUnitRunner on every id of each
/// rtl campaign in `campaigns`, each emit timed (median per site present);
/// records a failure unless its records equal the driver's store.
void rtl_extras(Tracer& tr, const std::vector<CampaignRun>& campaigns,
                LayerMetrics& out, std::map<std::string, std::string>& failures) {
  std::vector<double> all, due;
  std::map<std::string, std::vector<double>> by_site;
  std::size_t n_masked = 0, n_sdc = 0;
  const CampaignRun* first = nullptr;
  for (const CampaignRun& c : campaigns) {
    if (c.meta.kind != store::CampaignKind::Rtl) continue;
    if (!first) first = &c;
    const std::string site = site_key(static_cast<rtl::Site>(c.meta.param0));
    rtl::TmxmUnitRunner runner(c.meta);
    std::vector<std::vector<std::uint8_t>> recs(c.meta.total);
    Tracer::Scope span(&tr, "rtl.TmxmUnitRunner::run " + c.label, "rtl");
    auto last = Clock::now();
    runner.run(all_ids(c.meta), [&](std::uint64_t id,
                                    const rtl::InjectionResult& res) {
      const double ms = 1e3 * seconds_between(last, Clock::now());
      all.push_back(ms);
      by_site[site].push_back(ms);
      if (res.outcome == rtl::Outcome::Due)
        due.push_back(ms);
      else if (res.outcome == rtl::Outcome::Masked)
        ++n_masked;
      else
        ++n_sdc;
      recs[id] = store::encode(rtl::to_rtl_record(res));
      last = Clock::now();
    });
    compare_records(c, recs, failures);
  }
  // Injector construction (one golden run per input draw) is lazy inside
  // the runner; time it through the public Injector for the first
  // campaign's four draws.
  std::vector<double> setup_ms;
  for (std::uint64_t draw = 0; first && draw < 4; ++draw) {
    Tracer::Scope span(&tr, "rtl.Injector", "rtl");
    const auto t0 = Clock::now();
    rtl::Injector inj(rtl::target_from_tmxm(
        static_cast<workloads::TileType>(first->meta.target),
        first->meta.seed * 16 + draw));
    setup_ms.push_back(1e3 * seconds_since(t0));
  }
  const Tail tail = tail_percentile(all);
  out["rtl.injections"] = static_cast<double>(all.size());
  for (const auto& [site, ms] : by_site)
    out["rtl.injection_ms." + site] = median(ms);
  out["rtl.injection_ms.tail"] = tail.value;
  out["rtl.injection_ms.tail_pct"] = tail.pct;
  out["rtl.injector_setup_ms"] = median(setup_ms);
  out["rtl.due_time_share"] = sum(due) / sum(all);
  out["rtl.count.masked"] = static_cast<double>(n_masked);
  out["rtl.count.sdc"] = static_cast<double>(n_sdc);
  out["rtl.count.due"] = static_cast<double>(due.size());
}

class RtlTmxm : public Workload {
 public:
  explicit RtlTmxm(std::uint64_t seed) : seed_(seed) {}

  void warm_up(const std::string& dir) override {
    for (const rtl::Site site : kRtlSites) {
      rtl::run_tmxm_campaign_store(*open_store(nullptr, campaign(dir, site, 4)));
    }
  }

  RepResult run_rep(const std::string& dir, Tracer* tr) override {
    RepResult r;
    const Stamp t0;
    for (const rtl::Site site : kRtlSites) {
      CampaignRun c;
      try {
        const Stamp ts;
        {
          Tracer::Scope span(tr, "rtl.tmxm_campaign_meta", "rtl");
          c = campaign(dir, site, kRtlInjections);
        }
        const auto ckpt = open_store(tr, c);
        r.setup += ts.elapsed();
        const Stamp te;
        driver_call(tr, "rtl.run_tmxm_campaign_store " + c.label, "rtl", true,
                    [&] { rtl::run_tmxm_campaign_store(*ckpt); });
        r.eval += te.elapsed();
        r.appended += ckpt->done_count();
        compact(tr, c.store_path, r);
      } catch (const std::exception& e) {
        fail(r, c.label.empty() ? std::string(rtl::site_name(site)) : c.label,
             e.what());
      }
      r.campaigns.push_back(c);
    }
    r.total = t0.elapsed();
    return r;
  }

  void traced_extras(const TracedContext& ctx, LayerMetrics& out,
                     std::map<std::string, std::string>& failures) override {
    const int run = ctx.tr.run();
    ctx.tr.set_run(run + 1);
    rtl_extras(ctx.tr, ctx.rep.campaigns, out, failures);

    ctx.tr.set_run(run + 2);
    out["arch.warp_instr_per_s"] = tmxm_speed(ctx.tr);
  }

 private:
  CampaignRun campaign(const std::string& dir, rtl::Site site,
                       std::size_t n) const {
    return tmxm_campaign(dir, workloads::TileType::Random, site, n,
                         site_seed(site, seed_));
  }

  /// Simulator speed on the t-MxM kernel: the 16x16 tiled multiply the rtl
  /// target launches (grid 2x2, 8x8 tiles), fault-free, on a fresh Gpu.
  double tmxm_speed(Tracer& tr) const {
    const rtl::Target t =
        rtl::target_from_tmxm(workloads::TileType::Random, seed_ * 16);
    constexpr std::uint32_t kA = 0, kB = 1024, kC = 2048, kN = 16, kTile = 8;
    if (t.out_addr != kC || t.out_words != kN * kN)
      throw std::runtime_error("t-MxM target layout changed; update tmxm_speed");
    const isa::Program prog =
        workloads::kernels::tiled_matmul(kA, kB, kC, kN, kTile);
    std::uint64_t instr = 0;
    double secs = 0;
    while (secs < 0.5) {
      arch::Gpu gpu;
      t.setup(gpu);
      Tracer::Scope span(&tr, "arch.launch tiled_matmul", "arch");
      const auto t0 = Clock::now();
      const arch::LaunchResult res =
          gpu.launch(prog, {kN / kTile, kN / kTile, 1}, {kTile, kTile, 1});
      secs += seconds_since(t0);
      if (!res.ok) throw std::runtime_error("fault-free t-MxM launch trapped");
      instr += res.instructions;
    }
    return static_cast<double>(instr) / secs;
  }

  std::uint64_t seed_;
};

// ---------------------------------------------------------------------------
// fleet_mixed
// ---------------------------------------------------------------------------

class FleetMixed : public Workload {
 public:
  explicit FleetMixed(std::uint64_t seed) : seed_(seed), gate_(seed, "") {}

  void warm_up(const std::string& dir) override {
    // Single-process references of the same metas (gpfctl run), which the
    // fleet's exports must equal on every seed.
    for (const CampaignRun& c : campaigns(dir, nullptr)) {
      {
        const auto ckpt = open_store(nullptr, c);
        switch (c.meta.kind) {
          case store::CampaignKind::Gate: {
            ThreadPool pool(nproc());
            report::run_unit_campaign_store(
                report::collect_profiling_traces(c.meta.param1), *ckpt, &pool);
            break;
          }
          case store::CampaignKind::Perfi:
            perfi::run_epr_cell_store(find_app(c.meta.app), *ckpt);
            break;
          case store::CampaignKind::Rtl:
            rtl::run_tmxm_campaign_store(*ckpt);
            break;
        }
      }
      expected_[c.label] = export_digest(store::load_store(c.store_path));
    }
    for (std::size_t k = 0; k < kFleetWarmReps; ++k) {
      const std::string rep_dir = dir + "/fleet" + std::to_string(k);
      const RepResult r = run_rep(rep_dir, nullptr);
      if (!r.failures.empty())
        throw std::runtime_error("warm-up fleet repetition failed: " +
                                 r.failures.begin()->first + ": " +
                                 r.failures.begin()->second);
      fs::remove_all(rep_dir);
    }
  }

  std::map<std::string, std::string> expected_digests() const override {
    return expected_;
  }

  RepResult run_rep(const std::string& dir, Tracer* tr) override {
    RepResult r;
    // Threads <= nproc: one gate pool thread per worker.
    set_campaign_threads_override(1);
    const Stamp t0;
    try {
      r.campaigns = campaigns(dir, tr);
      Stores ckpts;
      for (const CampaignRun& c : r.campaigns) ckpts.push_back(open_store(tr, c));
      std::optional<net::Coordinator> coord;
      {
        Tracer::Scope span(tr, "net.Coordinator", "net");
        coord.emplace(fleet_config());
      }
      {
        Tracer::Scope span(tr, "net.add_campaign", "net");
        for (const auto& ck : ckpts) coord->add_campaign(*ck);
      }
      r.setup = t0.elapsed();

      net::Coordinator::Stats stats;
      bool timed_out = false;
      {
        Tracer::Scope serve_span(tr, "net.Coordinator::serve", "net");
        const net::UnitFnFactory factory =
            tr ? traced_factory(*tr, serve_span.id()) : net::make_unit_fn;
        std::vector<net::WorkerStats> wstats(workers());
        std::vector<std::string> werrors(workers());
        std::vector<std::thread> workers;
        std::mutex mu;
        std::condition_variable cv;
        bool served = false;
        std::thread guard([&] {
          std::unique_lock lock(mu);
          if (!cv.wait_for(lock, std::chrono::duration<double>(kFleetLimitS),
                           [&] { return served; })) {
            timed_out = true;
            coord->request_drain();
          }
        });
        for (std::size_t i = 0; i < wstats.size(); ++i)
          workers.emplace_back([&, i] {
            net::WorkerConfig wcfg;
            wcfg.port = coord->port();
            wcfg.name = "bench-" + std::to_string(i);
            wcfg.backoff_ms = worker_backoff_ms();
            try {
              wstats[i] = net::run_worker(wcfg, factory);
            } catch (const std::exception& e) {
              werrors[i] = e.what();
            }
          });
        // The threads above reference this frame: a throwing serve() must
        // still release and join them before the error propagates.
        std::string serve_error;
        const double before = tr ? store_busy_s() : 0;
        const Stamp te;
        try {
          stats = coord->serve();
        } catch (const std::exception& e) {
          serve_error = e.what();
          std::fprintf(stderr, "campaign_bench: Coordinator::serve: %s\n",
                       serve_error.c_str());
        }
        r.eval = te.elapsed();
        if (tr) serve_span.set_store_s(store_busy_s() - before);
        {
          std::lock_guard lock(mu);
          served = true;
        }
        cv.notify_all();
        guard.join();
        for (auto& w : workers) w.join();
        if (!serve_error.empty()) throw std::runtime_error(serve_error);
        for (std::size_t i = 0; i < wstats.size(); ++i) {
          const std::string who = "worker " + std::to_string(i);
          if (!werrors[i].empty()) fail(r, who, werrors[i]);
          else if (!wstats[i].drained) fail(r, who, "exited without draining");
        }
      }
      if (timed_out)
        for (const CampaignRun& c : r.campaigns)
          fail(r, c.label, "fleet still serving after time limit, drained");
      last_stats_ = stats;
      r.appended = stats.appended;
      for (std::size_t i = 0; i < r.campaigns.size(); ++i) {
        ckpts[i].reset();
        compact(tr, r.campaigns[i].store_path, r);
      }
    } catch (const std::exception& e) {
      fail(r, "fleet", e.what());
    }
    set_campaign_threads_override(0);
    r.total = t0.elapsed();
    return r;
  }

  void traced_extras(const TracedContext& ctx, LayerMetrics& out,
                     std::map<std::string, std::string>& failures) override {
    const int run = ctx.tr.run();
    const double serve = span_total(ctx.spans, run, "net.Coordinator::serve");
    out["net.serve_s"] = serve;
    out["net.worker_setup_s"] = span_total(ctx.spans, run, "net.make_unit_fn");
    out["net.worker_compute_share"] =
        span_total(ctx.spans, run, "net.UnitFn") /
        (static_cast<double>(workers()) * serve);
    for (const char* c : {"net.lease_grants", "net.frames_in", "net.bytes_in",
                          "net.busy_rejections"})
      out[c] = static_cast<double>(ctx.snap.counter(c));
    out["net.heartbeat_rtt_us.p50"] = static_cast<double>(
        find_histogram(ctx.snap, "net.heartbeat_rtt_us").quantile(0.5));
    out["net.lease_expiries"] = static_cast<double>(last_stats_.expired_leases);
    out["net.duplicates"] = static_cast<double>(last_stats_.duplicates);
    out["net.useful_ratio"] =
        useful_ratio(last_stats_.appended, last_stats_.duplicates);
    GateUnits::gate_counters(ctx.snap, out);

    ctx.tr.set_run(run + 1);
    perfi_extras(ctx.tr, ctx.rep.campaigns, out, failures);
    rtl_extras(ctx.tr, ctx.rep.campaigns, out, failures);

    ctx.tr.set_run(run + 2);
    std::vector<const workloads::Workload*> apps = workloads::profiling_set();
    apps.push_back(&find_app("hotspot"));
    out["arch.warp_instr_per_s"] = arch_speed(ctx.tr, apps);
  }

 private:
  static const char* layer_of(store::CampaignKind kind) {
    switch (kind) {
      case store::CampaignKind::Gate: return "gate";
      case store::CampaignKind::Perfi: return "perfi";
      case store::CampaignKind::Rtl: return "rtl";
    }
    return "net";
  }

  static std::size_t workers() { return std::max<std::size_t>(1, nproc() - 1); }

  /// gpfd's defaults for a mixed-kind registry, except the lease (above).
  static net::CoordinatorConfig fleet_config() {
    net::CoordinatorConfig cfg;
    cfg.lease_ms = kFleetLeaseMs;
    return cfg;
  }

  std::vector<CampaignRun> campaigns(const std::string& dir, Tracer* tr) const {
    std::vector<CampaignRun> out = gate_.campaigns(dir, tr);
    {
      Tracer::Scope span(tr, "perfi.epr_campaign_meta", "perfi");
      out.push_back(epr_campaign(dir, "hotspot", errmodel::ErrorModel::IMS,
                                 kFleetPerfiInjections, seed_));
    }
    Tracer::Scope span(tr, "rtl.tmxm_campaign_meta", "rtl");
    out.push_back(tmxm_campaign(dir, workloads::TileType::Max,
                                rtl::Site::FuLane, kFleetRtlInjections, seed_));
    return out;
  }

  /// make_unit_fn and the UnitFn it returns, each wrapped in a span on the
  /// worker's thread (layer = the campaign kind's layer).
  static net::UnitFnFactory traced_factory(Tracer& tr, int serve_span) {
    return [&tr, serve_span](const store::CampaignMeta& m) -> net::UnitFn {
      const char* layer = layer_of(m.kind);
      net::UnitFn fn;
      {
        Tracer::Scope span(&tr, "net.make_unit_fn", layer, serve_span);
        fn = net::make_unit_fn(m);
      }
      return [&tr, serve_span, layer, fn = std::move(fn)](
                 std::span<const std::uint64_t> ids, const net::EmitBytes& emit,
                 const std::function<bool()>& stop) {
        Tracer::Scope span(&tr, "net.UnitFn", layer, serve_span);
        fn(ids, emit, stop);
      };
    };
  }

  std::uint64_t seed_;
  GateUnits gate_;
  std::map<std::string, std::string> expected_;
  net::Coordinator::Stats last_stats_;
};

}  // namespace

std::string campaign_summary(const std::string& label,
                             const store::LoadedStore& s) {
  switch (s.meta.kind) {
    case store::CampaignKind::Gate: return gate_summary(label, s);
    case store::CampaignKind::Perfi: return perfi_summary(label, s);
    case store::CampaignKind::Rtl: return rtl_summary(label, s);
  }
  return label;
}

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed,
                                        const std::string& jit_dir) {
  if (name == "gate_units") return std::make_unique<GateUnits>(seed, jit_dir);
  if (name == "perfi_epr") return std::make_unique<PerfiEpr>(seed);
  if (name == "rtl_tmxm") return std::make_unique<RtlTmxm>(seed);
  if (name == "fleet_mixed") return std::make_unique<FleetMixed>(seed);
  return nullptr;
}

}  // namespace cb
