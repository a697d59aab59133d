// Sorting apps. Both are multi-kernel by nature (the paper highlights that
// quicksort/mergesort "instance many kernels"): mergesort launches one kernel
// per doubling pass; quicksort launches one partition kernel per round with
// host-side segment bookkeeping (mirroring CDP-style host orchestration).
#include <algorithm>
#include <memory>

#include "isa/builder.hpp"
#include "workloads/common.hpp"

namespace gpf::workloads {
namespace {

using isa::Cmp;
using isa::KernelBuilder;
using isa::SpecialReg;
using Reg = KernelBuilder::Reg;

// ---------------------------------------------------------------------------
// mergesort — bottom-up, one kernel launch per pass (INT32, 512 elements)
// ---------------------------------------------------------------------------

class MergeSort final : public AppBase {
 public:
  static constexpr std::uint32_t kN = 512;
  static constexpr std::uint32_t kBufA = 0, kBufB = 1024;

  MergeSort() : AppBase("mergesort", "INT32", "Sorting", "CUDA SDK") {
    for (std::uint32_t w = 1; w < kN; w *= 2) {
      const bool a2b = passes_.size() % 2 == 0;
      passes_.push_back(build_pass(a2b ? kBufA : kBufB, a2b ? kBufB : kBufA, w));
    }
  }

  static std::vector<std::uint32_t> input() {
    return AppBase::random_ints(kN, 0, 1000000, 1101);
  }

  void setup(arch::Gpu& gpu) const override {
    gpu.write_global(kBufA, input());
    gpu.reserve_global(kBufB, kN);
  }

  RunStats run(arch::Gpu& gpu, std::uint64_t mc) const override {
    RunStats s;
    for (const auto& prog : passes_) {
      const std::uint32_t width = 1u << (&prog - passes_.data());
      const std::uint32_t threads = kN / (2 * width);
      const std::uint32_t block = std::min(threads, 64u);
      if (!step(gpu, s, prog, {(threads + block - 1) / block, 1, 1}, {block, 1, 1},
                mc))
        return s;
    }
    return s;
  }

  OutputSpec output() const override {
    // 9 passes: final data lands in buffer B.
    return {kBufB, kN, false};
  }

  std::vector<std::uint32_t> host_reference_u() const override {
    auto v = input();
    std::sort(v.begin(), v.end());
    return v;
  }

 private:
  static isa::Program build_pass(std::uint32_t src, std::uint32_t dst,
                                 std::uint32_t width) {
    // Small-width passes stage their runs in shared memory first (the CUDA
    // SDK mergesort sorts short runs entirely in shared memory).
    const bool use_shared = width <= 4;
    KernelBuilder kb("mergesort_pass");
    if (use_shared) kb.set_shared_words(64 * 2 * 4 /*max staged words*/);
    Reg gid = kb.reg(), tid = kb.reg(), cta = kb.reg(), ntid = kb.reg();
    kb.s2r(tid, SpecialReg::TID_X);
    kb.s2r(cta, SpecialReg::CTAID_X);
    kb.s2r(ntid, SpecialReg::NTID_X);
    kb.imad(gid, cta, ntid, tid);
    auto pg = kb.pred();
    kb.isetpi(pg, Cmp::LT, gid, kN / (2 * width));
    kb.if_(pg, false, [&] {
      Reg lo = kb.reg(), mid = kb.reg(), hi = kb.reg();
      kb.imuli(lo, gid, 2 * width);
      kb.iaddi(mid, lo, width);
      kb.iaddi(hi, lo, 2 * width);
      Reg slo = kb.reg();
      if (use_shared) {
        // Stage this thread's 2*width source words into shared memory and
        // merge from there. Shared base = tid * 2*width; indices i/j/..
        // are rebased so the merge loop below reads shared via slo offset.
        kb.imuli(slo, tid, 2 * width);
        Reg cnt = kb.reg(), sidx = kb.reg(), gidx = kb.reg(), sv = kb.reg();
        Reg bound = kb.reg();
        kb.movi(bound, 2 * width);
        kb.for_lt(cnt, 0, bound, 1, [&] {
          kb.iadd(gidx, lo, cnt);
          kb.ldg(sv, gidx, src);
          kb.iadd(sidx, slo, cnt);
          kb.sts(sidx, 0, sv);
        });
      }
      Reg i = kb.reg(), j = kb.reg(), k = kb.reg();
      kb.mov(i, lo);
      kb.mov(j, mid);
      kb.mov(k, lo);
      Reg ai = kb.reg(), aj = kb.reg(), v = kb.reg(), flag = kb.reg();
      auto ploop = kb.pred();
      auto pi = kb.pred();
      auto pcmp = kb.pred();
      kb.while_(ploop, false, [&] { kb.isetp(ploop, Cmp::LT, k, hi); },
                [&] {
                  // pick-from-left flag: i < mid && (j >= hi || a[i] <= a[j]).
                  kb.movi(flag, 0);
                  kb.isetp(pi, Cmp::LT, i, mid);
                  kb.if_(pi, false, [&] {
                    kb.movi(flag, 1);
                    kb.isetp(pcmp, Cmp::LT, j, hi);
                    kb.if_(pcmp, false, [&] {
                      if (use_shared) {
                        Reg si = kb.reg(), sj = kb.reg();
                        kb.isub(si, i, lo);
                        kb.iadd(si, si, slo);
                        kb.lds(ai, si, 0);
                        kb.isub(sj, j, lo);
                        kb.iadd(sj, sj, slo);
                        kb.lds(aj, sj, 0);
                      } else {
                        kb.ldg(ai, i, src);
                        kb.ldg(aj, j, src);
                      }
                      kb.isetp(pcmp, Cmp::GT, ai, aj);
                      kb.on(pcmp).movi(flag, 0);
                    });
                  });
                  kb.isetpi(pi, Cmp::NE, flag, 0);
                  Reg sidx2 = kb.reg();
                  kb.if_(pi, false,
                         [&] {
                           if (use_shared) {
                             kb.isub(sidx2, i, lo);
                             kb.iadd(sidx2, sidx2, slo);
                             kb.lds(v, sidx2, 0);
                           } else {
                             kb.ldg(v, i, src);
                           }
                           kb.iaddi(i, i, 1);
                         },
                         [&] {
                           if (use_shared) {
                             kb.isub(sidx2, j, lo);
                             kb.iadd(sidx2, sidx2, slo);
                             kb.lds(v, sidx2, 0);
                           } else {
                             kb.ldg(v, j, src);
                           }
                           kb.iaddi(j, j, 1);
                         });
                  kb.stg(k, dst, v);
                  kb.iaddi(k, k, 1);
                });
    });
    return kb.build();
  }

  std::vector<isa::Program> passes_;
};

// ---------------------------------------------------------------------------
// quicksort — host-orchestrated rounds of parallel segment partitions
// ---------------------------------------------------------------------------

class QuickSort final : public AppBase {
 public:
  static constexpr std::uint32_t kN = 256;
  static constexpr std::uint32_t kData = 0, kSegs = 1024, kPivotPos = 2048;
  static constexpr std::uint32_t kMaxSegs = 256;

  QuickSort() : AppBase("quicksort", "INT32", "Sorting", "CUDA SDK"),
                partition_(build_partition()) {}

  static std::vector<std::uint32_t> input() {
    return AppBase::random_ints(kN, 0, 1000000, 1201);
  }

  void setup(arch::Gpu& gpu) const override {
    gpu.write_global(kData, input());
    gpu.reserve_global(kSegs, 2 * kMaxSegs + 1);
    gpu.reserve_global(kPivotPos, kMaxSegs);
  }

  RunStats run(arch::Gpu& gpu, std::uint64_t mc) const override {
    RunStats s;
    std::vector<std::pair<std::uint32_t, std::uint32_t>> segs{{0, kN}};
    for (int round = 0; round < 64 && !segs.empty(); ++round) {
      const auto nsegs = static_cast<std::uint32_t>(std::min<std::size_t>(
          segs.size(), kMaxSegs));
      std::vector<std::uint32_t> seg_words;
      seg_words.reserve(2 * nsegs + 1);
      seg_words.push_back(nsegs);
      for (std::uint32_t t = 0; t < nsegs; ++t) {
        seg_words.push_back(segs[t].first);
        seg_words.push_back(segs[t].second);
      }
      gpu.write_global(kSegs, seg_words);
      const std::uint32_t block = std::min(nsegs, 64u);
      if (!step(gpu, s, partition_, {(nsegs + block - 1) / block, 1, 1},
                {block, 1, 1}, mc))
        return s;
      // Host bookkeeping: read pivot positions, emit child segments.
      std::vector<std::pair<std::uint32_t, std::uint32_t>> next(
          segs.begin() + nsegs, segs.end());
      const std::span<const std::uint32_t> pivots = gpu.read_global(kPivotPos, nsegs);
      for (std::uint32_t t = 0; t < nsegs; ++t) {
        const std::uint32_t lo = segs[t].first, hi = segs[t].second;
        const std::uint32_t p = pivots[t];
        if (p > lo + 1) next.emplace_back(lo, p);
        if (hi > p + 2) next.emplace_back(p + 1, hi);
      }
      segs = std::move(next);
    }
    return s;
  }

  OutputSpec output() const override { return {kData, kN, false}; }

  std::vector<std::uint32_t> host_reference_u() const override {
    auto v = input();
    std::sort(v.begin(), v.end());
    return v;
  }

 private:
  /// Lomuto partition of segment [lo, hi) around a[hi-1]; one thread per
  /// segment, pivot's final index written to kPivotPos[t].
  static isa::Program build_partition() {
    KernelBuilder kb("quicksort_partition");
    Reg gid = kb.reg(), tid = kb.reg(), cta = kb.reg(), ntid = kb.reg();
    kb.s2r(tid, SpecialReg::TID_X);
    kb.s2r(cta, SpecialReg::CTAID_X);
    kb.s2r(ntid, SpecialReg::NTID_X);
    kb.imad(gid, cta, ntid, tid);
    Reg nsegs = kb.reg();
    kb.movi(nsegs, 0);
    kb.ldg(nsegs, nsegs, kSegs);
    auto pg = kb.pred();
    kb.isetp(pg, Cmp::LT, gid, nsegs);
    kb.if_(pg, false, [&] {
      Reg lo = kb.reg(), hi = kb.reg(), sidx = kb.reg();
      kb.shl(sidx, gid, 1);
      kb.ldg(lo, sidx, kSegs + 1);
      kb.ldg(hi, sidx, kSegs + 2);
      Reg last = kb.reg(), pivot = kb.reg();
      kb.iaddi(last, hi, 0xFFFFFFFFu);  // hi - 1
      kb.ldg(pivot, last, kData);
      Reg i = kb.reg(), j = kb.reg(), vj = kb.reg(), vi = kb.reg();
      kb.mov(i, lo);
      kb.mov(j, lo);
      auto ploop = kb.pred();
      auto pless = kb.pred();
      kb.while_(ploop, false, [&] { kb.isetp(ploop, Cmp::LT, j, last); },
                [&] {
                  kb.ldg(vj, j, kData);
                  kb.isetp(pless, Cmp::LT, vj, pivot);
                  kb.if_(pless, false, [&] {
                    kb.ldg(vi, i, kData);
                    kb.stg(i, kData, vj);
                    kb.stg(j, kData, vi);
                    kb.iaddi(i, i, 1);
                  });
                  kb.iaddi(j, j, 1);
                });
      // Swap pivot into place.
      kb.ldg(vi, i, kData);
      kb.stg(i, kData, pivot);
      kb.stg(last, kData, vi);
      kb.stg(gid, kPivotPos, i);
    });
    return kb.build();
  }

  isa::Program partition_;
};

}  // namespace

namespace detail {
std::vector<std::unique_ptr<Workload>> make_sort_apps() {
  std::vector<std::unique_ptr<Workload>> v;
  v.push_back(std::make_unique<QuickSort>());
  v.push_back(std::make_unique<MergeSort>());
  return v;
}
}  // namespace detail

}  // namespace gpf::workloads
