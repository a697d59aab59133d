// The per-injection reset is exact. clear_memories + setup on a Gpu that
// already ran faulty injections must leave the memory image of a fresh Gpu
// after setup. A runner's records must not depend on the order in which it
// evaluates ids, so each record stays a pure function of (meta, id).
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <numeric>
#include <ostream>
#include <string>
#include <vector>

#include "perfi/campaign.hpp"
#include "perfi/injector.hpp"
#include "rtl/campaign.hpp"
#include "store/records.hpp"
#include "workloads/workload.hpp"

namespace gpf {
namespace {

using errmodel::ErrorModel;

/// Stores into the issuing PPB's local memory after every instruction, as a
/// store whose space field a fault rewrote to Local would.
class LocalScribble final : public arch::MachineHooks {
 public:
  void post_execute(arch::ExecCtx& ctx) override {
    std::vector<std::uint32_t>& local = ctx.gpu().sm(ctx.sm_id).ppbs[ctx.ppb_id].local;
    local[(ctx.pc * 7919u) % local.size()] = 0xDEADBEEFu ^ ctx.pc;
  }
};

rtl::Target app_target(const workloads::Workload& w) {
  rtl::Target t;
  t.setup = [&w](arch::Gpu& gpu) { w.setup(gpu); };
  t.run = [&w](arch::Gpu& gpu, std::uint64_t mc) { return w.run(gpu, mc).ok; };
  return t;
}

// (a) Faulty injections dirty global memory inside the segments, local
// memory and (through traps and hangs) leave runs half done. The used Gpu
// must then store the same prefix as a fresh one, and hold the same global
// image (all global_words), constant memory and local memory.
void check_image(const rtl::Target& target) {
  // Per-launch budget: a fault that hangs costs this many cycles, not the
  // watchdog's millions.
  constexpr std::uint64_t kBudget = 100'000;
  Rng rng(0x5EED);
  LocalScribble scribble;
  perfi::ErrorInjector iat(perfi::random_descriptor(ErrorModel::IAT, rng));
  perfi::ErrorInjector ioc(perfi::random_descriptor(ErrorModel::IOC, rng));
  rtl::PipelineFaultHook pipe(rtl::random_fault(rtl::Site::Pipeline, true, rng).pipe);
  rtl::SchedulerFaultHook sched(rtl::random_fault(rtl::Site::Scheduler, true, rng).sched);
  arch::MachineHooks* const faults[] = {&scribble, &iat, &ioc, &pipe, &sched};
  arch::Gpu used;
  for (arch::MachineHooks* fault : faults) {
    used.clear_memories();
    target.setup(used);
    used.set_hooks(fault);
    (void)target.run(used, kBudget);
    used.set_hooks(nullptr);
  }
  used.clear_memories();
  target.setup(used);

  arch::Gpu fresh;
  target.setup(fresh);
  EXPECT_EQ(used.resident_global_words(), fresh.resident_global_words());
  EXPECT_TRUE(used.global() == fresh.global());
  EXPECT_TRUE(used.constm() == fresh.constm());
  for (unsigned s = 0; s < fresh.num_sms(); ++s)
    for (std::size_t p = 0; p < fresh.sm(s).ppbs.size(); ++p)
      EXPECT_TRUE(used.sm(s).ppbs[p].local == fresh.sm(s).ppbs[p].local)
          << "sm " << s << " ppb " << p;
}

using Records = std::map<std::uint64_t, std::vector<std::uint8_t>>;

// (b) One runner evaluates ids [0, n) forward, then again in reverse; each
// id's record must come out byte-identical. Returns the forward records.
template <class Runner, class Encode>
Records check_order(Runner& runner, std::uint64_t n, Encode encode_record) {
  std::vector<std::uint64_t> ids(n);
  std::iota(ids.begin(), ids.end(), 0);
  Records forward, reverse;
  runner.run(ids, [&](std::uint64_t id, const auto& r) { forward[id] = encode_record(r); });
  std::reverse(ids.begin(), ids.end());
  runner.run(ids, [&](std::uint64_t id, const auto& r) { reverse[id] = encode_record(r); });
  EXPECT_EQ(forward.size(), n);
  EXPECT_TRUE(forward == reverse);
  return forward;
}

void check_epr_order(const char* app, ErrorModel model, std::uint64_t n,
                     store::PerfiOutcome must_see) {
  const workloads::Workload& w = *workloads::find(app);
  perfi::EprUnitRunner runner(w, perfi::epr_campaign_meta(w, model, n, /*seed=*/0xC0FFEE));
  const Records records =
      check_order(runner, n, [](const store::PerfiRecord& r) { return store::encode(r); });
  // The case exercises the outcome it is chosen for (a trap or a hang).
  EXPECT_TRUE(std::ranges::any_of(records, [&](const auto& kv) {
    return store::decode_perfi(kv.second).outcome == must_see;
  }));
}

void check_tmxm_order(rtl::Site site, std::uint64_t n) {
  rtl::TmxmUnitRunner runner(
      rtl::tmxm_campaign_meta(workloads::TileType::Random, site, n, /*seed=*/0xC0FFEE));
  check_order(runner, n, [](const rtl::InjectionResult& r) {
    return store::encode(rtl::to_rtl_record(r));
  });
}

struct ResetCase {
  std::string name;
  std::function<void()> check;
};

void PrintTo(const ResetCase& c, std::ostream* os) { *os << c.name; }

std::vector<ResetCase> reset_cases() {
  std::vector<ResetCase> cases;
  for (const workloads::Workload* w : workloads::evaluation_set())
    cases.push_back({"image_" + std::string(w->name()), [w] { check_image(app_target(*w)); }});
  cases.push_back({"image_tmxm_random", [] {
                     check_image(rtl::target_from_tmxm(workloads::TileType::Random, 7));
                   }});
  cases.push_back({"image_tmxm_max", [] {
                     check_image(rtl::target_from_tmxm(workloads::TileType::Max, 7));
                   }});
  cases.push_back({"image_micro_ffma", [] {
                     check_image(rtl::target_from_micro(
                         rtl::make_micro_bench(rtl::MicroOp::FFMA, rtl::InputRange::Medium, 3),
                         /*use_soft_exec=*/true));
                   }});
  cases.push_back({"order_hotspot_IMS", [] {
                     check_epr_order("hotspot", ErrorModel::IMS, 16, store::PerfiOutcome::Sdc);
                   }});
  cases.push_back({"order_yolov3_IAT", [] {
                     check_epr_order("yolov3", ErrorModel::IAT, 8,
                                     store::PerfiOutcome::DueIllegalAddress);
                   }});
  cases.push_back({"order_gemm_IOC", [] {
                     check_epr_order("gemm", ErrorModel::IOC, 12, store::PerfiOutcome::DueHang);
                   }});
  cases.push_back({"order_tmxm_pipeline", [] { check_tmxm_order(rtl::Site::Pipeline, 32); }});
  return cases;
}

class ResetExact : public ::testing::TestWithParam<ResetCase> {};

TEST_P(ResetExact, Holds) { GetParam().check(); }

INSTANTIATE_TEST_SUITE_P(Cases, ResetExact, ::testing::ValuesIn(reset_cases()),
                         [](const auto& info) { return info.param.name; });

}  // namespace
}  // namespace gpf
