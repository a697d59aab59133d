// RTL fault-injection campaigns (Figs. 4-9, Tables 2): inject stuck-at
// faults into functional units / SFUs / pipeline registers / scheduler state
// while a micro-benchmark or the t-MxM mini-app runs, and classify each
// injection as Masked / single-thread SDC / multi-thread SDC / DUE, keeping
// the relative-error syndrome of every corrupted output element.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string_view>
#include <vector>

#include "common/rng.hpp"
#include "rtl/faults.hpp"
#include "rtl/microbench.hpp"
#include "store/checkpoint.hpp"
#include "store/records.hpp"
#include "workloads/tmxm.hpp"

namespace gpf::rtl {

enum class Site : std::uint8_t { FuLane, Sfu, Pipeline, Scheduler };
std::string_view site_name(Site s);

enum class Outcome : std::uint8_t { Masked, SdcSingle, SdcMultiple, Due };

struct FaultSpec {
  Site site = Site::FuLane;
  unsigned lane = 0;  ///< FU lane (0..31) or SFU index (0..1)
  sf::BusFault bus{};
  PipelineFault pipe{};
  SchedulerFault sched{};
  /// Temporal activation profile (Pipeline / Scheduler sites; FU bus faults
  /// are always permanent in this implementation).
  FaultTiming timing{};
};

/// Draw a uniformly random stuck-at fault from the site's bit population.
FaultSpec random_fault(Site site, bool float_op, Rng& rng);

struct InjectionResult {
  Outcome outcome = Outcome::Masked;
  unsigned corrupted = 0;                    ///< corrupted output elements
  double per_warp_corrupted = 0.0;           ///< mean corrupted per hit warp
  std::vector<double> rel_errors;            ///< per corrupted element
  std::vector<std::uint32_t> corrupted_idx;  ///< positions in the output
};

struct AvfSummary {
  std::size_t injections = 0, masked = 0, sdc_single = 0, sdc_multi = 0, due = 0;
  std::uint64_t corrupted_total = 0;  ///< corrupted elements over all SDCs
  double per_warp_sum = 0.0;          ///< sum of per-warp corruption means
  std::vector<double> rel_errors;

  void add(const InjectionResult& r);
  double avf_sdc() const;
  double avf_sdc_single() const;
  double avf_sdc_multi() const;
  double avf_due() const;
  /// Average corrupted output elements per SDC event.
  double avg_corrupted() const;
  /// Average corrupted parallel threads per warp (paper's metric).
  double avg_corrupted_per_warp() const;
};

/// A fault-injection target: anything that can run once and expose an output.
struct Target {
  std::function<void(arch::Gpu&)> setup;
  /// Runs every kernel; returns true when all completed without a trap.
  std::function<bool(arch::Gpu&, std::uint64_t max_cycles)> run;
  std::size_t out_addr = 0;
  std::size_t out_words = 0;
  bool is_float = true;
  bool use_soft_exec = false;   ///< run on the bit-accurate backend
  unsigned words_per_warp = 0;  ///< >0: output maps to warps (per-warp stats)
};

Target target_from_micro(const MicroBench& mb, bool use_soft_exec);
Target target_from_tmxm(workloads::TileType type, std::uint64_t value_seed);

/// Injects faults into a prepared target (golden computed on construction).
class Injector {
 public:
  explicit Injector(Target target);

  InjectionResult inject(const FaultSpec& fault);
  const std::vector<std::uint32_t>& golden() const { return golden_; }
  const arch::Gpu& gpu() const { return gpu_; }

 private:
  Target target_;
  arch::Gpu gpu_;
  std::vector<std::uint32_t> golden_;
  std::uint64_t budget_ = 0;
};

/// Fig. 4 campaign: one (instruction, range, site) cell. Injections are split
/// over the paper's 4 random value draws per range.
AvfSummary run_micro_campaign(MicroOp op, InputRange range, Site site,
                              std::size_t injections, std::uint64_t seed);

/// Figs. 7-9 / Table 2 campaign on the t-MxM mini-app. Per-injection details
/// (for spatial patterns and per-element syndromes) optionally collected.
AvfSummary run_tmxm_campaign(workloads::TileType type, Site site,
                             std::size_t injections, std::uint64_t seed,
                             std::vector<InjectionResult>* details = nullptr);

/// Store header for a t-MxM campaign (target = tile type, param0 = site).
store::CampaignMeta tmxm_campaign_meta(workloads::TileType type, Site site,
                                       std::size_t injections, std::uint64_t seed,
                                       std::uint32_t shard_index = 0,
                                       std::uint32_t shard_count = 1);

/// Durable variant of run_tmxm_campaign: injection i's fault is drawn from an
/// independent RNG stream forked on i, so every shard / resumed run computes
/// the identical fault for a given id regardless of which ids already
/// retired. Done ids are restored from the store; fresh ones are recorded as
/// they retire. The summary covers this shard's retired injections.
AvfSummary run_tmxm_campaign_store(store::CampaignCheckpoint& ckpt,
                                   std::vector<InjectionResult>* details = nullptr);

/// Conversions between the native injection result and the stored record
/// (shared by the checkpointed driver and the fleet worker).
store::RtlRecord to_rtl_record(const InjectionResult& r);
InjectionResult from_rtl_record(const store::RtlRecord& rec);

/// Work-unit adapter for lease-based dispatch: evaluates arbitrary
/// injection ids of one t-MxM campaign. Injection i's fault comes from an
/// RNG stream forked on i and its input tile from draw i % 4, so any
/// process evaluating id i produces the identical record. Injectors (one
/// golden run each) are built lazily per draw and reused across run()
/// calls, so a worker pays at most 4 golden runs per campaign.
class TmxmUnitRunner {
 public:
  using Emit = std::function<void(std::uint64_t, const InjectionResult&)>;

  explicit TmxmUnitRunner(const store::CampaignMeta& meta);

  /// Evaluates `ids` in order; emit(id, result) per retired injection.
  /// `stop`, when set, is polled before each injection.
  void run(std::span<const std::uint64_t> ids, const Emit& emit,
           const std::function<bool()>& stop = {});

  /// Global words stored by the injectors built so far.
  std::size_t resident_global_words() const;

 private:
  Injector& injector_for(std::uint64_t draw);

  store::CampaignMeta meta_;
  Rng base_;
  std::array<std::unique_ptr<Injector>, 4> injectors_;
};

}  // namespace gpf::rtl
