// Runtime SIMD dispatch for the batch engine. The per-width engines live in
// batchsim{64,256,512}.cpp (each compiled with its own target flags); this
// baseline TU decides which one a campaign gets:
//
//   set_batch_lanes_override(w)   tests/benches pin a width in-process
//   GPF_LANES=64|256|512          pin a width from the environment
//   (default, GPF_LANES=0)        widest path the CPU supports (cpuid)
//
// A pinned width that this build or CPU cannot run falls back to the widest
// supported width at or below the request, with a one-line stderr warning —
// never a crash. All widths classify identically and produce byte-identical
// campaign exports (asserted by test_batchsim / test_gate_experiments).
#include "gate/batchsim.hpp"

#include <atomic>
#include <cstdio>
#include <stdexcept>
#include <string>

#include "common/env.hpp"
#include "obs/metrics.hpp"

namespace gpf::gate {

std::unique_ptr<BatchSim> make_batch_sim_64(const Netlist& nl);
#ifdef GPF_HAVE_BATCH256
std::unique_ptr<BatchSim> make_batch_sim_256(const Netlist& nl);
#endif
#ifdef GPF_HAVE_BATCH512
std::unique_ptr<BatchSim> make_batch_sim_512(const Netlist& nl);
#endif

namespace {

std::atomic<std::size_t> g_lanes_override{0};

bool cpu_supports_avx2() {
#if defined(__x86_64__) || defined(__i386__)
  return __builtin_cpu_supports("avx2");
#else
  return false;
#endif
}

bool cpu_supports_avx512f() {
#if defined(__x86_64__) || defined(__i386__)
  return __builtin_cpu_supports("avx512f");
#else
  return false;
#endif
}

}  // namespace

bool batch_width_supported(std::size_t lanes) {
  switch (lanes) {
    case 64:
      return true;
#ifdef GPF_HAVE_BATCH256
    case 256:
      return cpu_supports_avx2();
#endif
#ifdef GPF_HAVE_BATCH512
    case 512:
      return cpu_supports_avx512f();
#endif
    default:
      return false;
  }
}

const char* batch_simd_path(std::size_t lanes) {
  switch (lanes) {
    case 64: return "scalar64";
    case 256: return "avx2x256";
    case 512: return "avx512x512";
  }
  return "?";
}

void set_batch_lanes_override(std::size_t lanes) {
  if (lanes != 0 && !batch_width_supported(lanes))
    throw std::invalid_argument("set_batch_lanes_override: width " +
                                std::to_string(lanes) +
                                " not supported by this build/CPU");
  g_lanes_override.store(lanes, std::memory_order_relaxed);
}

std::size_t batch_lane_width() {
  if (const std::size_t o = g_lanes_override.load(std::memory_order_relaxed))
    return o;
  static const std::size_t dispatched = [] {
    // GPF_LANES pins an exact width; otherwise take the widest path this
    // build and CPU support.
    const bool pinned = lanes_request() != 0;
    const std::size_t want = pinned ? lanes_request() : kWidestBatchLanes;
    std::size_t w = 64;
    if (want >= 256 && batch_width_supported(256)) w = 256;
    if (want >= 512 && batch_width_supported(512)) w = 512;
    if (pinned && w != want)
      std::fprintf(stderr,
                   "[gpf] requested batch lane width %zu unavailable on this "
                   "build/CPU; using %zu (%s)\n",
                   want, w, batch_simd_path(w));
    return w;
  }();
  return dispatched;
}

std::unique_ptr<BatchSim> make_batch_sim(const Netlist& nl, std::size_t lanes) {
  // Active width is observable: campaigns at any scale publish which SIMD
  // path their batches run on.
  static obs::Gauge& g = obs::gauge("gate.batch.lanes");
  g.set(static_cast<std::int64_t>(lanes));
  switch (lanes) {
    case 64:
      return make_batch_sim_64(nl);
#ifdef GPF_HAVE_BATCH256
    case 256:
      if (cpu_supports_avx2()) return make_batch_sim_256(nl);
      break;
#endif
#ifdef GPF_HAVE_BATCH512
    case 512:
      if (cpu_supports_avx512f()) return make_batch_sim_512(nl);
      break;
#endif
    default:
      break;
  }
  throw std::invalid_argument("make_batch_sim: lane width " +
                              std::to_string(lanes) +
                              " not supported by this build/CPU");
}

std::unique_ptr<BatchSim> make_batch_sim(const Netlist& nl) {
  return make_batch_sim(nl, batch_lane_width());
}

}  // namespace gpf::gate
