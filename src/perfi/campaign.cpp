#include "perfi/campaign.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>

#include "store/records.hpp"

namespace gpf::perfi {

using errmodel::ErrorModel;

const char* outcome_name(AppOutcome o) {
  switch (o) {
    case AppOutcome::Masked: return "Masked";
    case AppOutcome::SDC: return "SDC";
    case AppOutcome::DUE: return "DUE";
  }
  return "?";
}

void EprCell::merge(const EprCell& other) {
  injections += other.injections;
  masked += other.masked;
  sdc += other.sdc;
  due += other.due;
  due_illegal_address += other.due_illegal_address;
  due_invalid_register += other.due_invalid_register;
  due_invalid_opcode += other.due_invalid_opcode;
  due_hang += other.due_hang;
  due_other += other.due_other;
}

AppInjectionRunner::AppInjectionRunner(const workloads::Workload& w) : w_(w) {
  gpu_.clear_memories();
  w_.setup(gpu_);
  const workloads::RunStats stats = w_.run(gpu_);
  if (!stats.ok)
    throw std::runtime_error("golden run failed for " + std::string(w.name()));
  golden_cycles_ = stats.cycles;
  const workloads::OutputSpec spec = w_.output();
  const std::span<const std::uint32_t> out = gpu_.read_global(spec.addr, spec.words);
  golden_.assign(out.begin(), out.end());
  // Per-launch hang budget: generous multiple of the whole golden run.
  budget_ = std::max<std::uint64_t>(golden_cycles_ * 30, 100'000);
}

AppOutcome AppInjectionRunner::inject(const errmodel::ErrorDescriptor& desc) {
  ErrorInjector injector(desc);
  gpu_.clear_memories();
  w_.setup(gpu_);
  gpu_.set_hooks(&injector);
  const workloads::RunStats stats = w_.run(gpu_, budget_);
  gpu_.set_hooks(nullptr);

  if (!stats.ok) {
    last_trap_ = stats.trap;
    return AppOutcome::DUE;
  }
  last_trap_ = arch::TrapKind::None;
  const workloads::OutputSpec spec = w_.output();
  const bool equal = std::ranges::equal(golden_, gpu_.read_global(spec.addr, spec.words));
  return equal ? AppOutcome::Masked : AppOutcome::SDC;
}

namespace {

store::PerfiOutcome to_perfi_outcome(AppOutcome out, arch::TrapKind trap) {
  switch (out) {
    case AppOutcome::Masked: return store::PerfiOutcome::Masked;
    case AppOutcome::SDC: return store::PerfiOutcome::Sdc;
    case AppOutcome::DUE: break;
  }
  switch (trap) {
    case arch::TrapKind::IllegalAddress:
    case arch::TrapKind::InvalidPC:
      return store::PerfiOutcome::DueIllegalAddress;
    case arch::TrapKind::InvalidRegister:
      return store::PerfiOutcome::DueInvalidRegister;
    case arch::TrapKind::InvalidOpcode: return store::PerfiOutcome::DueInvalidOpcode;
    case arch::TrapKind::Watchdog: return store::PerfiOutcome::DueHang;
    default: return store::PerfiOutcome::DueOther;
  }
}

}  // namespace

void add_record(EprCell& cell, const store::PerfiRecord& rec) {
  ++cell.injections;
  switch (rec.outcome) {
    case store::PerfiOutcome::Masked: ++cell.masked; break;
    case store::PerfiOutcome::Sdc: ++cell.sdc; break;
    case store::PerfiOutcome::DueIllegalAddress:
      ++cell.due;
      ++cell.due_illegal_address;
      break;
    case store::PerfiOutcome::DueInvalidRegister:
      ++cell.due;
      ++cell.due_invalid_register;
      break;
    case store::PerfiOutcome::DueInvalidOpcode:
      ++cell.due;
      ++cell.due_invalid_opcode;
      break;
    case store::PerfiOutcome::DueHang:
      ++cell.due;
      ++cell.due_hang;
      break;
    case store::PerfiOutcome::DueOther:
      ++cell.due;
      ++cell.due_other;
      break;
  }
}

store::CampaignMeta epr_campaign_meta(const workloads::Workload& w,
                                      ErrorModel model, std::size_t n,
                                      std::uint64_t seed,
                                      std::uint32_t shard_index,
                                      std::uint32_t shard_count) {
  store::CampaignMeta meta;
  meta.kind = store::CampaignKind::Perfi;
  meta.target = 0xFF;
  meta.model = static_cast<std::uint8_t>(model);
  meta.seed = seed;
  meta.total = n;
  meta.shard_index = shard_index;
  meta.shard_count = shard_count;
  meta.app = std::string(w.name());
  return meta;
}

EprUnitRunner::EprUnitRunner(const workloads::Workload& w,
                             const store::CampaignMeta& meta)
    : meta_(meta),
      runner_(w),
      base_(meta.seed ^
            (static_cast<std::uint64_t>(static_cast<ErrorModel>(meta.model)) *
             0x9E3779B9u)) {
  if (meta.kind != store::CampaignKind::Perfi)
    throw std::runtime_error("epr campaign: meta is not a perfi campaign");
  // The model byte comes from a .gpfs file or a LeaseGrant: check, not cast.
  if (meta.model >= static_cast<std::uint8_t>(ErrorModel::COUNT))
    throw std::runtime_error("epr campaign: unknown error-model byte " +
                             std::to_string(meta.model) +
                             " in campaign header (expected 0-" +
                             std::to_string(errmodel::kNumErrorModels - 1) +
                             ")");
  if (meta.app != w.name())
    throw std::runtime_error("epr campaign: store belongs to app '" + meta.app +
                             "', not '" + std::string(w.name()) + "'");
}

void EprUnitRunner::run(std::span<const std::uint64_t> ids, const Emit& emit,
                        const std::function<bool()>& stop) {
  const auto model = static_cast<ErrorModel>(meta_.model);
  for (const std::uint64_t i : ids) {
    if (stop && stop()) return;
    Rng rng = base_.fork(i);
    const errmodel::ErrorDescriptor desc = random_descriptor(model, rng);
    const AppOutcome out = runner_.inject(desc);
    store::PerfiRecord rec;
    rec.outcome = to_perfi_outcome(out, runner_.last_trap());
    emit(i, rec);
  }
}

EprCell run_epr_cell(const workloads::Workload& w, ErrorModel model, std::size_t n,
                     std::uint64_t seed) {
  EprUnitRunner runner(w, epr_campaign_meta(w, model, n, seed));
  std::vector<std::uint64_t> ids(n);
  std::iota(ids.begin(), ids.end(), std::uint64_t{0});
  EprCell cell;
  runner.run(ids, [&](std::uint64_t, const store::PerfiRecord& rec) {
    add_record(cell, rec);
  });
  return cell;
}

EprCell run_epr_cell_store(const workloads::Workload& w,
                           store::CampaignCheckpoint& ckpt) {
  const store::CampaignMeta& meta = ckpt.meta();
  EprUnitRunner runner(w, meta);

  EprCell cell;
  for (std::uint64_t i = 0; i < meta.total; ++i) {
    if (!meta.owns(i)) continue;
    if (const auto it = ckpt.done().find(i); it != ckpt.done().end()) {
      add_record(cell, store::decode_perfi(it->second));
      continue;
    }
    if (ckpt.should_stop()) break;
    const std::uint64_t id[] = {i};
    runner.run(id, [&](std::uint64_t, const store::PerfiRecord& rec) {
      ckpt.record(i, store::encode(rec));
      add_record(cell, rec);
    });
  }
  ckpt.sync();  // campaign boundary: all recorded results are now durable
  return cell;
}

std::vector<ErrorModel> software_models() {
  return {ErrorModel::IOC, ErrorModel::IRA, ErrorModel::IVRA, ErrorModel::IIO,
          ErrorModel::WV,  ErrorModel::IAT, ErrorModel::IAW,  ErrorModel::IAC,
          ErrorModel::IAL, ErrorModel::IMS, ErrorModel::IMD};
}

}  // namespace gpf::perfi
