#include "rtl/campaign.hpp"

#include <array>
#include <cmath>
#include <memory>
#include <numeric>
#include <stdexcept>

#include "common/bitops.hpp"
#include "store/records.hpp"
#include "workloads/kernels.hpp"

namespace gpf::rtl {

std::string_view site_name(Site s) {
  switch (s) {
    case Site::FuLane: return "FU";
    case Site::Sfu: return "SFU";
    case Site::Pipeline: return "Pipeline";
    case Site::Scheduler: return "Scheduler";
  }
  return "?";
}

// ---------------------------------------------------------------------------
// Fault populations
// ---------------------------------------------------------------------------

namespace {

const sf::Bus kFloatBuses[] = {
    sf::Bus::SrcA, sf::Bus::SrcB, sf::Bus::SrcC, sf::Bus::Result,
    sf::Bus::AddExpDiff, sf::Bus::AddAlignedA, sf::Bus::AddAlignedB,
    sf::Bus::AddRawSum, sf::Bus::AddNormShift, sf::Bus::MulExpSum,
    sf::Bus::MulProduct, sf::Bus::FmaWideSum};
const sf::Bus kIntBuses[] = {sf::Bus::SrcA, sf::Bus::SrcB, sf::Bus::SrcC,
                             sf::Bus::Result, sf::Bus::IntSum, sf::Bus::IntProduct};
const sf::Bus kSfuBuses[] = {sf::Bus::SrcA, sf::Bus::Result, sf::Bus::SfuRange,
                             sf::Bus::SfuPolyT1, sf::Bus::SfuPolyT2,
                             sf::Bus::SfuOpSelect};

template <std::size_t N>
sf::BusFault random_bus_fault(const sf::Bus (&buses)[N], Rng& rng) {
  // Uniform over the bit population (buses weighted by width).
  unsigned total = 0;
  for (sf::Bus b : buses) total += sf::bus_width(b);
  auto pick = static_cast<unsigned>(rng.below(total));
  for (sf::Bus b : buses) {
    const unsigned w = sf::bus_width(b);
    if (pick < w)
      return sf::BusFault{b, static_cast<std::uint8_t>(pick), rng.chance(0.5)};
    pick -= w;
  }
  return sf::BusFault{buses[0], 0, true};
}

}  // namespace

FaultSpec random_fault(Site site, bool float_op, Rng& rng) {
  FaultSpec f;
  f.site = site;
  switch (site) {
    case Site::FuLane:
      f.lane = static_cast<unsigned>(rng.below(arch::kWarpSize));
      f.bus = float_op ? random_bus_fault(kFloatBuses, rng)
                       : random_bus_fault(kIntBuses, rng);
      break;
    case Site::Sfu:
      f.lane = static_cast<unsigned>(rng.below(2));
      f.bus = random_bus_fault(kSfuBuses, rng);
      break;
    case Site::Pipeline: {
      using PF = PipelineFault::Field;
      // Bit population: 8 latches x 32b x (3 operands + result) = 1024 data
      // bits; 64 + 32 + 16 + 3 = 115 control bits.
      struct Entry {
        PF field;
        unsigned width;
        bool per_lane;
      };
      static const Entry entries[] = {
          {PF::OperandA, 32, true}, {PF::OperandB, 32, true},
          {PF::OperandC, 32, true}, {PF::Result, 32, true},
          {PF::InstrWord, 64, false}, {PF::ExecMask, 32, false},
          {PF::PcLatch, 16, false}, {PF::WarpSel, 3, false}};
      unsigned total = 0;
      for (const Entry& e : entries) total += e.width * (e.per_lane ? kPipeLanes : 1);
      auto pick = static_cast<unsigned>(rng.below(total));
      for (const Entry& e : entries) {
        const unsigned span = e.width * (e.per_lane ? kPipeLanes : 1);
        if (pick < span) {
          f.pipe.field = e.field;
          f.pipe.lane = e.per_lane ? pick / e.width : 0;
          f.pipe.bit = pick % e.width;
          f.pipe.stuck_high = rng.chance(0.5);
          break;
        }
        pick -= span;
      }
      break;
    }
    case Site::Scheduler: {
      using SF = SchedulerFault::Field;
      struct Entry {
        SF field;
        unsigned width;
      };
      static const Entry entries[] = {{SF::ActiveMask, 32},
                                      {SF::DoneBit, 1},
                                      {SF::BarrierBit, 1},
                                      {SF::StoredPc, 16},
                                      {SF::SelSlot, 3},
                                      {SF::GroupEnable, 4},
                                      {SF::MaskOut, 32},
                                      {SF::MaskWordLine, 1}};
      auto shared = [](SF field) {
        return field == SF::SelSlot || field == SF::GroupEnable ||
               field == SF::MaskOut;
      };
      // Per-warp fields replicate over 8 slots; output signals are shared.
      unsigned total = 0;
      for (const Entry& e : entries) total += e.width * (shared(e.field) ? 1 : 8);
      auto pick = static_cast<unsigned>(rng.below(total));
      for (const Entry& e : entries) {
        const unsigned span = e.width * (shared(e.field) ? 1 : 8);
        if (pick < span) {
          f.sched.field = e.field;
          f.sched.slot = shared(e.field) ? 0 : pick / e.width;
          f.sched.bit = pick % e.width;
          f.sched.stuck_high = rng.chance(0.5);
          break;
        }
        pick -= span;
      }
      break;
    }
  }
  return f;
}

// ---------------------------------------------------------------------------
// AvfSummary
// ---------------------------------------------------------------------------

void AvfSummary::add(const InjectionResult& r) {
  ++injections;
  switch (r.outcome) {
    case Outcome::Masked: ++masked; break;
    case Outcome::SdcSingle: ++sdc_single; break;
    case Outcome::SdcMultiple: ++sdc_multi; break;
    case Outcome::Due: ++due; break;
  }
  if (r.outcome == Outcome::SdcSingle || r.outcome == Outcome::SdcMultiple) {
    corrupted_total += r.corrupted;
    per_warp_sum += r.per_warp_corrupted;
  }
  rel_errors.insert(rel_errors.end(), r.rel_errors.begin(), r.rel_errors.end());
}

double AvfSummary::avf_sdc() const {
  return injections ? static_cast<double>(sdc_single + sdc_multi) /
                          static_cast<double>(injections)
                    : 0.0;
}
double AvfSummary::avf_sdc_single() const {
  return injections ? static_cast<double>(sdc_single) / static_cast<double>(injections)
                    : 0.0;
}
double AvfSummary::avf_sdc_multi() const {
  return injections ? static_cast<double>(sdc_multi) / static_cast<double>(injections)
                    : 0.0;
}
double AvfSummary::avf_due() const {
  return injections ? static_cast<double>(due) / static_cast<double>(injections) : 0.0;
}
double AvfSummary::avg_corrupted() const {
  const std::size_t sdcs = sdc_single + sdc_multi;
  return sdcs ? static_cast<double>(corrupted_total) / static_cast<double>(sdcs) : 0.0;
}
double AvfSummary::avg_corrupted_per_warp() const {
  const std::size_t sdcs = sdc_single + sdc_multi;
  return sdcs ? per_warp_sum / static_cast<double>(sdcs) : 0.0;
}

// ---------------------------------------------------------------------------
// Targets
// ---------------------------------------------------------------------------

Target target_from_micro(const MicroBench& mb, bool use_soft_exec) {
  Target t;
  t.setup = [mb](arch::Gpu& gpu) { setup_micro(gpu, mb); };
  t.run = [prog = mb.prog](arch::Gpu& gpu, std::uint64_t mc) {
    return gpu.launch(prog, {1, 1, 1}, {64, 1, 1}, mc).ok;
  };
  t.out_addr = mb.out_addr;
  t.out_words = mb.out_words;
  t.is_float = mb.is_float;
  t.use_soft_exec = use_soft_exec;
  t.words_per_warp = 32;  // out[i] written by thread i; warp = i / 32
  return t;
}

Target target_from_tmxm(workloads::TileType type, std::uint64_t value_seed) {
  constexpr std::uint32_t kN = 16, kTile = 8;
  constexpr std::uint32_t kA = 0, kB = 1024, kC = 2048;
  Target t;
  t.setup = [type, value_seed](arch::Gpu& gpu) {
    gpu.clear_memories();
    gpu.write_global_f(kA, workloads::tmxm_input(type, value_seed, kN));
    gpu.write_global_f(kB, workloads::tmxm_input(type, value_seed + 7, kN));
    gpu.reserve_global(kC, kN * kN);
  };
  t.run = [prog = workloads::kernels::tiled_matmul(kA, kB, kC, kN, kTile)](
              arch::Gpu& gpu, std::uint64_t mc) {
    return gpu.launch(prog, {kN / kTile, kN / kTile, 1}, {kTile, kTile, 1}, mc).ok;
  };
  t.out_addr = kC;
  t.out_words = kN * kN;
  t.is_float = true;
  return t;
}

// ---------------------------------------------------------------------------
// Injector
// ---------------------------------------------------------------------------

Injector::Injector(Target target) : target_(std::move(target)) {
  // Golden run (fault-free, on the same execution backend as the campaign).
  arch::SoftExec soft;
  target_.setup(gpu_);
  gpu_.set_exec(target_.use_soft_exec ? &soft : nullptr);
  if (!target_.run(gpu_, 0)) throw std::runtime_error("golden RTL run failed");
  gpu_.set_exec(nullptr);
  const std::span<const std::uint32_t> out =
      gpu_.read_global(target_.out_addr, target_.out_words);
  golden_.assign(out.begin(), out.end());
  // A faulty run may legitimately take longer (divergence changes); hang
  // detection uses a padded multiple of a fixed per-launch allowance.
  budget_ = 400'000;
}

InjectionResult Injector::inject(const FaultSpec& fault) {
  InjectionResult res;

  arch::SoftExec soft;
  sf::BusFaultSet bus_set(fault.bus);
  PipelineFaultHook pipe_hook(fault.pipe, fault.timing);
  SchedulerFaultHook sched_hook(fault.sched, fault.timing);

  arch::MachineHooks* hooks = nullptr;
  arch::ExecUnit* exec = nullptr;
  switch (fault.site) {
    case Site::FuLane:
      soft.set_lane_fault(fault.lane, &bus_set);
      exec = &soft;
      break;
    case Site::Sfu:
      soft.set_sfu_fault(fault.lane, &bus_set);
      exec = &soft;
      break;
    case Site::Pipeline:
      hooks = &pipe_hook;
      if (target_.use_soft_exec) exec = &soft;
      break;
    case Site::Scheduler:
      hooks = &sched_hook;
      if (target_.use_soft_exec) exec = &soft;
      break;
  }

  target_.setup(gpu_);
  gpu_.set_hooks(hooks);
  gpu_.set_exec(exec);
  const bool ok = target_.run(gpu_, budget_);
  gpu_.set_hooks(nullptr);
  gpu_.set_exec(nullptr);

  if (!ok) {
    res.outcome = Outcome::Due;
    return res;
  }

  const std::span<const std::uint32_t> out =
      gpu_.read_global(target_.out_addr, target_.out_words);
  for (std::size_t i = 0; i < target_.out_words; ++i) {
    const std::uint32_t g = golden_[i];
    const std::uint32_t b = out[i];
    if (g == b) continue;
    ++res.corrupted;
    res.corrupted_idx.push_back(static_cast<std::uint32_t>(i));
    double rel;
    if (target_.is_float) {
      const float fg = bits_f32(g), fb = bits_f32(b);
      if (!std::isfinite(fg) || !std::isfinite(fb))
        rel = 1e30;  // lands in the >=1e2 overflow bin
      else if (fg == 0.0f)
        rel = std::fabs(static_cast<double>(fb));
      else
        rel = std::fabs((static_cast<double>(fb) - fg) / fg);
    } else {
      const auto ig = static_cast<double>(static_cast<std::int32_t>(g));
      const auto ib = static_cast<double>(static_cast<std::int32_t>(b));
      rel = ig == 0.0 ? std::fabs(ib) : std::fabs((ib - ig) / ig);
    }
    res.rel_errors.push_back(rel);
  }
  if (res.corrupted == 0) {
    res.outcome = Outcome::Masked;
  } else {
    res.outcome = res.corrupted == 1 ? Outcome::SdcSingle : Outcome::SdcMultiple;
    if (target_.words_per_warp > 0) {
      // Mean corrupted elements among warps with at least one corruption.
      std::vector<unsigned> per_warp;
      for (std::uint32_t idx : res.corrupted_idx) {
        const std::size_t w = idx / target_.words_per_warp;
        if (per_warp.size() <= w) per_warp.resize(w + 1, 0);
        ++per_warp[w];
      }
      unsigned warps_hit = 0, total = 0;
      for (unsigned c : per_warp)
        if (c) {
          ++warps_hit;
          total += c;
        }
      res.per_warp_corrupted =
          warps_hit ? static_cast<double>(total) / warps_hit : 0.0;
    } else {
      res.per_warp_corrupted = res.corrupted;
    }
  }
  return res;
}

// ---------------------------------------------------------------------------
// Campaigns
// ---------------------------------------------------------------------------

AvfSummary run_micro_campaign(MicroOp op, InputRange range, Site site,
                              std::size_t injections, std::uint64_t seed) {
  AvfSummary summary;
  const bool float_op = micro_op_is_float(op);
  Rng rng(seed ^ (static_cast<std::uint64_t>(op) << 8) ^
          (static_cast<std::uint64_t>(range) << 16) ^
          (static_cast<std::uint64_t>(site) << 24));

  // The paper averages 4 random value draws per input range.
  for (std::uint64_t draw = 0; draw < 4; ++draw) {
    const MicroBench mb = make_micro_bench(op, range, seed * 4 + draw);
    const bool soft = site == Site::FuLane || site == Site::Sfu;
    Injector injector(target_from_micro(mb, soft));
    const std::size_t n = injections / 4 + (draw < injections % 4 ? 1 : 0);
    for (std::size_t i = 0; i < n; ++i)
      summary.add(injector.inject(random_fault(site, float_op, rng)));
  }
  return summary;
}

store::CampaignMeta tmxm_campaign_meta(workloads::TileType type, Site site,
                                       std::size_t injections, std::uint64_t seed,
                                       std::uint32_t shard_index,
                                       std::uint32_t shard_count) {
  store::CampaignMeta meta;
  meta.kind = store::CampaignKind::Rtl;
  meta.target = static_cast<std::uint8_t>(type);
  meta.seed = seed;
  meta.total = injections;
  meta.shard_index = shard_index;
  meta.shard_count = shard_count;
  meta.param0 = static_cast<std::uint64_t>(site);
  return meta;
}

store::RtlRecord to_rtl_record(const InjectionResult& r) {
  store::RtlRecord rec;
  rec.outcome = static_cast<store::RtlOutcome>(r.outcome);
  rec.corrupted = r.corrupted;
  rec.per_warp_corrupted = r.per_warp_corrupted;
  rec.rel_errors = r.rel_errors;
  rec.corrupted_idx = r.corrupted_idx;
  return rec;
}

InjectionResult from_rtl_record(const store::RtlRecord& rec) {
  InjectionResult r;
  r.outcome = static_cast<Outcome>(rec.outcome);
  r.corrupted = rec.corrupted;
  r.per_warp_corrupted = rec.per_warp_corrupted;
  r.rel_errors = rec.rel_errors;
  r.corrupted_idx = rec.corrupted_idx;
  return r;
}

TmxmUnitRunner::TmxmUnitRunner(const store::CampaignMeta& meta)
    : meta_(meta),
      base_(meta.seed ^
            (static_cast<std::uint64_t>(
                 static_cast<workloads::TileType>(meta.target))
             << 8) ^
            (static_cast<std::uint64_t>(static_cast<Site>(meta.param0))
             << 16)) {
  if (meta.kind != store::CampaignKind::Rtl)
    throw std::runtime_error("tmxm campaign: meta is not an rtl campaign");
  // Header bytes come from a .gpfs file or a LeaseGrant: check, not cast.
  if (meta.target > static_cast<std::uint8_t>(workloads::TileType::Random))
    throw std::runtime_error("tmxm campaign: unknown tile byte " +
                             std::to_string(meta.target) +
                             " in campaign header (expected 0 = max, "
                             "1 = zero or 2 = random)");
  if (meta.param0 > static_cast<std::uint64_t>(Site::Scheduler))
    throw std::runtime_error("tmxm campaign: unknown site " +
                             std::to_string(meta.param0) +
                             " in campaign header (expected 0 = fu lane, "
                             "1 = sfu, 2 = pipeline or 3 = scheduler)");
}

Injector& TmxmUnitRunner::injector_for(std::uint64_t draw) {
  // Injections keep the legacy 4-value-draw split: id i belongs to draw
  // i % 4, each draw with its own input tile. Injectors are built lazily so
  // a short work unit pays one golden run, not four.
  if (!injectors_[draw])
    injectors_[draw] = std::make_unique<Injector>(target_from_tmxm(
        static_cast<workloads::TileType>(meta_.target),
        meta_.seed * 16 + draw));
  return *injectors_[draw];
}

void TmxmUnitRunner::run(std::span<const std::uint64_t> ids, const Emit& emit,
                         const std::function<bool()>& stop) {
  const auto site = static_cast<Site>(meta_.param0);
  for (const std::uint64_t i : ids) {
    if (stop && stop()) return;
    Rng rng = base_.fork(i);
    emit(i, injector_for(i % 4).inject(random_fault(site, true, rng)));
  }
}

std::size_t TmxmUnitRunner::resident_global_words() const {
  std::size_t words = 0;
  for (const auto& injector : injectors_)
    if (injector) words += injector->gpu().resident_global_words();
  return words;
}

AvfSummary run_tmxm_campaign_store(store::CampaignCheckpoint& ckpt,
                                   std::vector<InjectionResult>* details) {
  const store::CampaignMeta& meta = ckpt.meta();
  if (meta.kind != store::CampaignKind::Rtl)
    throw std::runtime_error("tmxm campaign: store is not an rtl store");
  TmxmUnitRunner runner(meta);

  // Retired and fresh results interleave in id order: evaluate pending ids
  // one at a time so the summary (and optional details) stay ordered.
  AvfSummary summary;
  for (std::uint64_t i = 0; i < meta.total; ++i) {
    if (!meta.owns(i)) continue;
    InjectionResult r;
    if (const auto it = ckpt.done().find(i); it != ckpt.done().end()) {
      r = from_rtl_record(store::decode_rtl(it->second));
    } else {
      if (ckpt.should_stop()) break;
      const std::uint64_t id[] = {i};
      runner.run(id, [&](std::uint64_t, const InjectionResult& res) { r = res; });
      ckpt.record(i, store::encode(to_rtl_record(r)));
    }
    summary.add(r);
    if (details) details->push_back(std::move(r));
  }
  ckpt.sync();  // campaign boundary: all recorded results are now durable
  return summary;
}

AvfSummary run_tmxm_campaign(workloads::TileType type, Site site,
                             std::size_t injections, std::uint64_t seed,
                             std::vector<InjectionResult>* details) {
  TmxmUnitRunner runner(tmxm_campaign_meta(type, site, injections, seed));
  std::vector<std::uint64_t> ids(injections);
  std::iota(ids.begin(), ids.end(), std::uint64_t{0});
  AvfSummary summary;
  runner.run(ids, [&](std::uint64_t, const InjectionResult& r) {
    summary.add(r);
    if (details) details->push_back(r);
  });
  return summary;
}

}  // namespace gpf::rtl
