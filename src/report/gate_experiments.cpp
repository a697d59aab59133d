#include "report/gate_experiments.hpp"

#include <algorithm>
#include <map>
#include <memory>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <unordered_map>

#include "gate/collapse.hpp"
#include "gate/profiler.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "store/records.hpp"
#include "workloads/workload.hpp"

namespace gpf::report {

namespace {

std::vector<gate::UnitTraces> profile(std::size_t max_issues) {
  std::vector<gate::UnitTraces> traces;
  for (const workloads::Workload* w : workloads::profiling_set()) {
    arch::Gpu gpu;
    gate::UnitProfiler profiler(max_issues);
    gpu.set_hooks(&profiler);
    w->setup(gpu);
    const workloads::RunStats stats = w->run(gpu);
    gpu.set_hooks(nullptr);
    if (!stats.ok)
      throw std::runtime_error("profiling run failed: " + std::string(w->name()));
    traces.push_back(profiler.take(std::string(w->name())));
  }
  return traces;
}

}  // namespace

const std::vector<gate::UnitTraces>& collect_profiling_traces(
    std::size_t max_issues) {
  // One entry per max_issues, never evicted, so returned references stay
  // valid for the process. The map lock only finds the entry; call_once
  // makes concurrent first callers of one key wait for a single profiling
  // run (and lets a later caller retry if that run threw).
  struct Entry {
    std::once_flag once;
    std::vector<gate::UnitTraces> traces;
  };
  static std::mutex mu;
  static std::map<std::size_t, std::unique_ptr<Entry>> memo;
  Entry* e = nullptr;
  {
    const std::lock_guard<std::mutex> lock(mu);
    std::unique_ptr<Entry>& slot = memo[max_issues];
    if (!slot) slot = std::make_unique<Entry>();
    e = slot.get();
  }
  std::call_once(e->once, [&] { e->traces = profile(max_issues); });
  return e->traces;
}

GateCampaigns run_gate_campaigns(const std::vector<gate::UnitTraces>& traces,
                                 std::size_t faults_per_unit, std::uint64_t seed,
                                 EngineKind engine) {
  GateCampaigns out;
  ThreadPool pool;
  const gate::UnitKind kinds[] = {gate::UnitKind::Decoder, gate::UnitKind::Fetch,
                                  gate::UnitKind::WSC};
  for (unsigned i = 0; i < 3; ++i)
    out.units[i] = gate::run_unit_campaign(kinds[i], traces, faults_per_unit, seed,
                                           &pool, engine);
  for (const auto& t : traces) out.total_dynamic_instructions += t.issues;
  return out;
}

// ---------------------------------------------------------------------------
// Checkpointed campaign (persistent store, resume, sharding)
// ---------------------------------------------------------------------------

store::GateRecord to_gate_record(const gate::FaultCharacterization& fc) {
  store::GateRecord r;
  r.net = static_cast<std::uint32_t>(fc.fault.net);
  r.stuck_high = fc.fault.stuck_high;
  r.activated = fc.activated;
  r.hang = fc.hang;
  r.error_counts = fc.error_counts;
  return r;
}

void apply_gate_record(const store::GateRecord& r,
                       gate::FaultCharacterization& fc) {
  fc.activated = r.activated;
  fc.hang = r.hang;
  fc.error_counts = r.error_counts;
}

store::CampaignMeta gate_campaign_meta(gate::UnitKind unit,
                                       std::size_t faults_per_unit,
                                       std::size_t max_issues, std::uint64_t seed,
                                       EngineKind engine,
                                       std::uint32_t shard_index,
                                       std::uint32_t shard_count) {
  const std::size_t full =
      gate::full_fault_list(*gate::unit_netlist(unit)).size();
  store::CampaignMeta meta;
  meta.kind = store::CampaignKind::Gate;
  meta.target = static_cast<std::uint8_t>(unit);
  meta.engine = static_cast<std::uint8_t>(engine);
  meta.seed = seed;
  meta.total = faults_per_unit ? std::min(faults_per_unit, full) : full;
  meta.shard_index = shard_index;
  meta.shard_count = shard_count;
  meta.param0 = faults_per_unit;
  meta.param1 = max_issues;
  return meta;
}

EngineKind gate_campaign_engine(const store::CampaignMeta& meta) {
  switch (meta.engine) {
    case static_cast<std::uint8_t>(EngineKind::Brute):
      return EngineKind::Brute;
    case static_cast<std::uint8_t>(EngineKind::Batch):
    case 0xFF:  // merged shards disagreed; every engine yields the same records
      return EngineKind::Batch;
  }
  throw std::runtime_error("gate campaign: unknown engine byte " +
                           std::to_string(meta.engine) +
                           " in campaign header (expected 0 = brute, "
                           "2 = batch or 255 = mixed)");
}

gate::UnitKind gate_campaign_unit(const store::CampaignMeta& meta) {
  if (meta.kind != store::CampaignKind::Gate)
    throw std::runtime_error("gate campaign: meta is not a gate campaign");
  switch (meta.target) {
    case static_cast<std::uint8_t>(gate::UnitKind::Decoder):
    case static_cast<std::uint8_t>(gate::UnitKind::Fetch):
    case static_cast<std::uint8_t>(gate::UnitKind::WSC):
      return static_cast<gate::UnitKind>(meta.target);
  }
  throw std::runtime_error("gate campaign: unknown unit byte " +
                           std::to_string(meta.target) +
                           " in campaign header (expected 0 = decoder, "
                           "1 = fetch or 2 = WSC)");
}

GateUnitRunner::GateUnitRunner(const std::vector<gate::UnitTraces>& traces,
                               const store::CampaignMeta& meta)
    : traces_(traces),
      engine_(gate_campaign_engine(meta)),
      replayer_(gate_campaign_unit(meta)) {
  faults_ = gate::sampled_fault_list(replayer_.netlist(), replayer_.kind(),
                                     meta.param0, meta.seed);
  if (faults_.size() != meta.total)
    throw std::runtime_error(
        "gate campaign: store fault-id space does not match the netlist "
        "(store built against different code?)");
  full_fault_list_size_ = gate::full_fault_list(replayer_.netlist()).size();
  goldens_ = replayer_.compute_goldens(traces);
  words_ = replayer_.word_diff_table(traces, goldens_);

  collapse_ = collapse_enabled();
  rep_count_ = faults_.size();
  if (collapse_) {
    const gate::FaultCollapse col(replayer_.netlist());
    rep_of_id_.reserve(faults_.size());
    std::unordered_map<std::uint32_t, std::uint32_t> seen;
    for (const gate::StuckFault& f : faults_) {
      const gate::StuckFault rep = col.representative(f);
      rep_of_id_.push_back(rep);
      seen.try_emplace(gate::FaultCollapse::node(rep), 0u);
    }
    rep_count_ = seen.size();
    act_ = gate::ActivationSummary(replayer_.netlist().num_nets());
    for (const gate::UnitReplayer::GoldenTrace& g : goldens_) act_.add(g);
  }
  static obs::Counter& members = obs::counter("gate.collapse_members");
  static obs::Counter& reps = obs::counter("gate.collapse_reps");
  members.add(faults_.size());
  reps.add(rep_count_);
  static obs::Histogram& setup_us = obs::histogram("gate.runner_setup_us");
  setup_us.record(static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - setup_start_)
          .count()));
}

std::size_t gate_campaign_representatives(const store::CampaignMeta& meta) {
  const gate::UnitKind unit = gate_campaign_unit(meta);
  if (!collapse_enabled()) return meta.total;
  const std::shared_ptr<const gate::Netlist> nl = gate::unit_netlist(unit);
  const std::vector<gate::StuckFault> faults =
      gate::sampled_fault_list(*nl, unit, meta.param0, meta.seed);
  if (faults.size() != meta.total) return meta.total;  // stale store: no map
  const gate::FaultCollapse col(*nl);
  std::unordered_map<std::uint32_t, std::uint32_t> seen;
  for (const gate::StuckFault& f : faults)
    seen.try_emplace(gate::FaultCollapse::node(col.representative(f)), 0u);
  return seen.size();
}

void GateUnitRunner::run(std::span<const std::uint64_t> ids, const Emit& emit,
                         ThreadPool* pool,
                         const std::function<bool()>& stop) const {
  // Jobs are the faults actually simulated. With collapsing on, the ids of
  // one equivalence class share a job (the class representative) and each
  // member's record is expanded from it; otherwise every id is its own job.
  std::vector<gate::StuckFault> jobs;
  std::vector<std::size_t> job_of(ids.size());
  if (collapse_) {
    std::unordered_map<std::uint32_t, std::size_t> job_of_node;
    for (std::size_t k = 0; k < ids.size(); ++k) {
      const gate::StuckFault rep = rep_of_id_.at(ids[k]);
      const auto [it, inserted] =
          job_of_node.try_emplace(gate::FaultCollapse::node(rep), jobs.size());
      if (inserted) jobs.push_back(rep);
      job_of[k] = it->second;
    }
  } else {
    jobs.reserve(ids.size());
    for (std::size_t k = 0; k < ids.size(); ++k) {
      jobs.push_back(faults_.at(ids[k]));
      job_of[k] = k;
    }
  }
  // The ids grouped by job (members[first[j]..first[j + 1]) are job j's),
  // so each finished batch emits exactly its own jobs' ids.
  std::vector<std::size_t> first(jobs.size() + 1, 0);
  for (const std::size_t j : job_of) ++first[j + 1];
  std::partial_sum(first.begin(), first.end(), first.begin());
  std::vector<std::uint64_t> members(ids.size());
  std::vector<std::size_t> fill(first.begin(), first.end() - 1);
  for (std::size_t k = 0; k < ids.size(); ++k)
    members[fill[job_of[k]]++] = ids[k];

  std::vector<gate::FaultCharacterization> out(jobs.size());
  for (std::size_t j = 0; j < jobs.size(); ++j) out[j].fault = jobs[j];
  static obs::Counter& retired = obs::counter("gate.faults_retired");
  gate::replay_faults(
      replayer_, engine_, jobs, traces_, goldens_, &words_, out, pool, stop,
      [&](std::size_t lo, std::size_t len) {
        for (std::size_t j = lo; j < lo + len; ++j)
          for (std::size_t m = first[j]; m < first[j + 1]; ++m) {
            const std::uint64_t id = members[m];
            emit(id, collapse_ ? gate::expand_collapsed(out[j], faults_[id], act_)
                               : out[j]);
          }
        retired.add(first[lo + len] - first[lo]);
      });
}

gate::UnitCampaignResult run_unit_campaign_store(
    const std::vector<gate::UnitTraces>& traces, store::CampaignCheckpoint& ckpt,
    ThreadPool* pool) {
  const store::CampaignMeta& meta = ckpt.meta();
  if (meta.kind != store::CampaignKind::Gate)
    throw std::runtime_error("gate campaign: store is not a gate store");
  const gate::UnitKind unit = gate_campaign_unit(meta);
  obs::TraceSpan unit_span("gate", std::string("unit ") + gate::unit_name(unit));
  const GateUnitRunner runner(traces, meta);

  // This shard's slice of the fault-id space, in id order.
  std::vector<std::uint64_t> owned;
  for (std::uint64_t id = 0; id < meta.total; ++id)
    if (meta.owns(id)) owned.push_back(id);

  gate::UnitCampaignResult result;
  result.unit = unit;
  result.full_fault_list_size = runner.full_fault_list_size();
  result.faults.resize(owned.size());
  for (std::size_t k = 0; k < owned.size(); ++k)
    result.faults[k].fault = runner.faults()[owned[k]];

  // Restore already-retired faults; collect the rest as pending work.
  std::vector<std::uint64_t> pending;
  for (std::size_t k = 0; k < owned.size(); ++k) {
    const auto it = ckpt.done().find(owned[k]);
    if (it == ckpt.done().end()) {
      pending.push_back(owned[k]);
      continue;
    }
    const store::GateRecord rec = store::decode_gate(it->second);
    if (rec.net != static_cast<std::uint32_t>(result.faults[k].fault.net) ||
        rec.stuck_high != result.faults[k].fault.stuck_high)
      throw std::runtime_error(
          "gate campaign: stored fault id " + std::to_string(owned[k]) +
          " names a different net — store/campaign mismatch");
    apply_gate_record(rec, result.faults[k]);
  }
  if (pending.empty()) return result;

  // owned[] is sorted, so a retiring id maps back to its slot by bisection.
  const auto slot_of = [&](std::uint64_t id) {
    return static_cast<std::size_t>(
        std::lower_bound(owned.begin(), owned.end(), id) - owned.begin());
  };
  runner.run(
      pending,
      [&](std::uint64_t id, const gate::FaultCharacterization& fc) {
        result.faults[slot_of(id)] = fc;
        ckpt.record(id, store::encode(to_gate_record(fc)));
      },
      pool, [&] { return ckpt.should_stop(); });
  ckpt.sync();  // unit boundary: everything recorded above is now durable
  return result;
}

}  // namespace gpf::report
