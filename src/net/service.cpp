#include "net/service.hpp"

#include <cstdio>
#include <memory>
#include <stdexcept>

#include "common/threadpool.hpp"
#include "gate/batchsim.hpp"
#include "gate/jit.hpp"
#include "perfi/campaign.hpp"
#include "report/gate_experiments.hpp"
#include "rtl/campaign.hpp"
#include "store/records.hpp"
#include "workloads/workload.hpp"

namespace gpf::net {

UnitFn make_unit_fn(const store::CampaignMeta& meta) {
  switch (meta.kind) {
    case store::CampaignKind::Gate: {
      report::gate_campaign_unit(meta);  // refuse a bad header before profiling
      // The profiling memo keeps the traces alive for the process, which
      // outlives the runner that refers to them.
      auto runner = std::make_shared<report::GateUnitRunner>(
          report::collect_profiling_traces(meta.param1), meta);
      if (runner->collapsed())
        std::fprintf(stderr, "[worker] gate campaign: %zu faults collapse to %zu representatives\n",
                     runner->faults().size(), runner->representative_count());
      const std::size_t lanes = gate::batch_lane_width();
      std::fprintf(stderr, "[worker] gate campaign: batch lanes %zu (%s, %s)\n",
                   lanes, gate::batch_simd_path(lanes),
                   gate::batch_engine_tag());
      auto pool = std::make_shared<ThreadPool>();
      return [runner, pool](std::span<const std::uint64_t> ids,
                            const EmitBytes& emit,
                            const std::function<bool()>& stop) {
        runner->run(
            ids,
            [&](std::uint64_t id, const gate::FaultCharacterization& fc) {
              emit(id, store::encode(report::to_gate_record(fc)));
            },
            pool.get(), stop);
      };
    }
    case store::CampaignKind::Rtl: {
      auto runner = std::make_shared<rtl::TmxmUnitRunner>(meta);
      return [runner](std::span<const std::uint64_t> ids,
                      const EmitBytes& emit,
                      const std::function<bool()>& stop) {
        runner->run(
            ids,
            [&](std::uint64_t id, const rtl::InjectionResult& r) {
              emit(id, store::encode(rtl::to_rtl_record(r)));
            },
            stop);
      };
    }
    case store::CampaignKind::Perfi: {
      const workloads::Workload* w = workloads::find(meta.app);
      if (!w)
        throw std::runtime_error("worker: unknown workload: " + meta.app);
      auto runner = std::make_shared<perfi::EprUnitRunner>(*w, meta);
      return [runner](std::span<const std::uint64_t> ids,
                      const EmitBytes& emit,
                      const std::function<bool()>& stop) {
        runner->run(
            ids,
            [&](std::uint64_t id, const store::PerfiRecord& rec) {
              emit(id, store::encode(rec));
            },
            stop);
      };
    }
  }
  throw std::runtime_error("worker: unknown campaign kind");
}

}  // namespace gpf::net
