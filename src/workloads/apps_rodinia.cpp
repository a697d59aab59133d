// Rodinia-style evaluation apps: lava (N-body), hotspot (structured grid),
// gaussian (elimination), bfs (graphs), lud (LU decomposition), nw (dynamic
// programming), cfd (unstructured grid). Multi-kernel structure mirrors the
// originals: gaussian/lud launch two kernels per elimination step, nw one
// kernel per anti-diagonal wave, bfs one pair of kernels per level.
#include <algorithm>
#include <array>
#include <cmath>
#include <memory>

#include "common/bitops.hpp"
#include "isa/builder.hpp"
#include "softfloat/sfu.hpp"
#include "workloads/common.hpp"
#include "workloads/kernels.hpp"

namespace gpf::workloads {
namespace {

using isa::Cmp;
using isa::KernelBuilder;
using isa::SpecialReg;
using Reg = KernelBuilder::Reg;

float host_exp2(float x) { return bits_f32(sf::sfu_eval(sf::SfuFunc::Exp2, f32_bits(x))); }
float host_rcp(float x) { return bits_f32(sf::sfu_eval(sf::SfuFunc::Rcp, f32_bits(x))); }
float host_sqrt(float x) { return bits_f32(sf::sfu_eval(sf::SfuFunc::Sqrt, f32_bits(x))); }

// ---------------------------------------------------------------------------
// lava — N-body with exponential kernel (FP32, SFU-heavy)
// ---------------------------------------------------------------------------

class Lava final : public AppBase {
 public:
  static constexpr std::uint32_t kN = 128;
  static constexpr std::uint32_t kX = 0, kY = 128, kZ = 256, kQ = 384, kOut = 512;

  Lava() : AppBase("lava", "FP32", "N-body", "Rodinia"), prog_(build()) {}

  void setup(arch::Gpu& gpu) const override {
    gpu.write_global_f(kX, random_floats(kN, 0.0, 2.0, 401));
    gpu.write_global_f(kY, random_floats(kN, 0.0, 2.0, 402));
    gpu.write_global_f(kZ, random_floats(kN, 0.0, 2.0, 403));
    gpu.write_global_f(kQ, random_floats(kN, 0.1, 1.0, 404));
    gpu.reserve_global(kOut, kN);
  }

  RunStats run(arch::Gpu& gpu, std::uint64_t mc) const override {
    RunStats s;
    step(gpu, s, prog_, {2, 1, 1}, {64, 1, 1}, mc);
    return s;
  }

  OutputSpec output() const override { return {kOut, kN, true, 1e-4}; }

  std::vector<float> host_reference_f() const override {
    const auto x = random_floats(kN, 0.0, 2.0, 401);
    const auto y = random_floats(kN, 0.0, 2.0, 402);
    const auto z = random_floats(kN, 0.0, 2.0, 403);
    const auto q = random_floats(kN, 0.1, 1.0, 404);
    std::vector<float> out(kN);
    for (std::uint32_t i = 0; i < kN; ++i) {
      float acc = 0.0f;
      for (std::uint32_t j = 0; j < kN; ++j) {
        const float dx = std::fmaf(x[i], -1.0f, x[j]);
        const float dy = std::fmaf(y[i], -1.0f, y[j]);
        const float dz = std::fmaf(z[i], -1.0f, z[j]);
        float d2 = dx * dx;
        d2 = std::fmaf(dy, dy, d2);
        d2 = std::fmaf(dz, dz, d2);
        const float e = host_exp2(d2 * -1.0f);
        acc = std::fmaf(q[j], e, acc);
      }
      out[i] = acc;
    }
    return out;
  }

 private:
  static isa::Program build() {
    KernelBuilder kb("lava");
    Reg gid = kb.reg(), tid = kb.reg(), cta = kb.reg(), ntid = kb.reg();
    kb.s2r(tid, SpecialReg::TID_X);
    kb.s2r(cta, SpecialReg::CTAID_X);
    kb.s2r(ntid, SpecialReg::NTID_X);
    kb.imad(gid, cta, ntid, tid);

    Reg xi = kb.reg(), yi = kb.reg(), zi = kb.reg();
    kb.ldg(xi, gid, kX);
    kb.ldg(yi, gid, kY);
    kb.ldg(zi, gid, kZ);

    Reg acc = kb.reg(), j = kb.reg(), nreg = kb.reg(), cn1 = kb.reg();
    kb.movf(acc, 0.0f);
    kb.movi(nreg, kN);
    kb.movf(cn1, -1.0f);
    Reg xj = kb.reg(), d = kb.reg(), d2 = kb.reg(), qj = kb.reg(), e = kb.reg();
    kb.for_lt(j, 0, nreg, 1, [&] {
      kb.ldg(xj, j, kX);
      kb.ffma(d, xi, cn1, xj);  // dx = xj - xi
      kb.fmul(d2, d, d);
      kb.ldg(xj, j, kY);
      kb.ffma(d, yi, cn1, xj);
      kb.ffma(d2, d, d, d2);
      kb.ldg(xj, j, kZ);
      kb.ffma(d, zi, cn1, xj);
      kb.ffma(d2, d, d, d2);
      kb.fmulf(d2, d2, -1.0f);
      kb.fexp(e, d2);
      kb.ldg(qj, j, kQ);
      kb.ffma(acc, qj, e, acc);
    });
    kb.stg(gid, kOut, acc);
    return kb.build();
  }

  isa::Program prog_;
};

// ---------------------------------------------------------------------------
// hotspot — 5-point stencil, 4 ping-pong iterations (16x16)
// ---------------------------------------------------------------------------

class Hotspot final : public AppBase {
 public:
  static constexpr std::uint32_t kW = 16, kH = 16, kIters = 4;
  static constexpr std::uint32_t kPower = 512, kBufA = 1024, kBufB = 2048;
  static constexpr float kK = 0.1f;

  Hotspot() : AppBase("hotspot", "FP32", "Structured Grid", "Rodinia"),
              a2b_(kernels::stencil5_shared(kBufA, kPower, kBufB, kW, kH, kK)),
              b2a_(kernels::stencil5_shared(kBufB, kPower, kBufA, kW, kH, kK)) {}

  void setup(arch::Gpu& gpu) const override {
    gpu.write_global_f(kBufA, random_floats(kW * kH, 20.0, 90.0, 501));
    gpu.write_global_f(kPower, random_floats(kW * kH, 0.0, 2.0, 502));
    gpu.reserve_global(kBufB, kW * kH);
  }

  RunStats run(arch::Gpu& gpu, std::uint64_t mc) const override {
    RunStats s;
    for (std::uint32_t it = 0; it < kIters; ++it)
      if (!step(gpu, s, it % 2 == 0 ? a2b_ : b2a_, {1, 1, 1}, {kW, kH, 1}, mc))
        return s;
    return s;
  }

  OutputSpec output() const override { return {kBufA, kW * kH, true, 1e-4}; }

  std::vector<float> host_reference_f() const override {
    auto cur = random_floats(kW * kH, 20.0, 90.0, 501);
    const auto power = random_floats(kW * kH, 0.0, 2.0, 502);
    std::vector<float> nxt(kW * kH);
    for (std::uint32_t it = 0; it < kIters; ++it) {
      for (std::uint32_t y = 0; y < kH; ++y)
        for (std::uint32_t x = 0; x < kW; ++x) {
          const std::uint32_t i = y * kW + x;
          if (x == 0 || x == kW - 1 || y == 0 || y == kH - 1) {
            nxt[i] = cur[i];
            continue;
          }
          float nsum = cur[i - kW] + cur[i + kW];
          nsum += cur[i - 1];
          nsum += cur[i + 1];
          nsum = std::fmaf(cur[i], -4.0f, nsum);
          nxt[i] = cur[i] + (nsum * kK + power[i]);
        }
      std::swap(cur, nxt);
    }
    return cur;
  }

 private:
  isa::Program a2b_, b2a_;
};

// ---------------------------------------------------------------------------
// gaussian — elimination with FRCP, two kernels per step (n=16)
// ---------------------------------------------------------------------------

class Gaussian final : public AppBase {
 public:
  static constexpr std::uint32_t kN = 16;
  static constexpr std::uint32_t kA = 0, kB = 512, kM = 768;

  Gaussian() : AppBase("gaussian", "FP32", "Linear algebra", "Rodinia") {
    for (std::uint32_t k = 0; k + 1 < kN; ++k) {
      fan1_.push_back(build_fan1(k));
      fan2_.push_back(build_fan2(k));
    }
  }

  static std::vector<float> input_matrix() {
    auto a = AppBase::random_floats(kN * kN, -1.0, 1.0, 601);
    for (std::uint32_t i = 0; i < kN; ++i) a[i * kN + i] += 8.0f;  // dominance
    return a;
  }

  void setup(arch::Gpu& gpu) const override {
    gpu.write_global_f(kA, input_matrix());
    gpu.write_global_f(kB, random_floats(kN, -2.0, 2.0, 602));
    gpu.reserve_global(kM, kN);
  }

  RunStats run(arch::Gpu& gpu, std::uint64_t mc) const override {
    RunStats s;
    for (std::uint32_t k = 0; k + 1 < kN; ++k) {
      if (!step(gpu, s, fan1_[k], {1, 1, 1}, {kN, 1, 1}, mc)) return s;
      if (!step(gpu, s, fan2_[k], {1, 1, 1}, {kN, kN, 1}, mc)) return s;
    }
    return s;
  }

  OutputSpec output() const override { return {kA, kN * kN, true, 2e-3}; }

  std::vector<float> host_reference_f() const override {
    auto a = input_matrix();
    auto b = random_floats(kN, -2.0, 2.0, 602);
    for (std::uint32_t k = 0; k + 1 < kN; ++k) {
      const float rk = host_rcp(a[k * kN + k]);
      std::vector<float> m(kN, 0.0f);
      for (std::uint32_t i = k + 1; i < kN; ++i) m[i] = a[i * kN + k] * rk;
      for (std::uint32_t i = k + 1; i < kN; ++i) {
        const float nm = m[i] * -1.0f;
        for (std::uint32_t j = k; j < kN; ++j)
          a[i * kN + j] = std::fmaf(nm, a[k * kN + j], a[i * kN + j]);
        b[i] = std::fmaf(nm, b[k], b[i]);
      }
    }
    return a;
  }

 private:
  static isa::Program build_fan1(std::uint32_t k) {
    KernelBuilder kb("gaussian_fan1");
    Reg i = kb.reg(), piv = kb.reg(), v = kb.reg(), r = kb.reg();
    kb.s2r(i, SpecialReg::TID_X);
    auto p = kb.pred();
    kb.isetpi(p, Cmp::GT, i, k);
    kb.if_(p, false, [&] {
      kb.movi(piv, 0);
      kb.ldg(piv, piv, kA + k * kN + k);  // pivot
      kb.frcp(r, piv);
      Reg ai = kb.reg(), nreg = kb.reg();
      kb.movi(nreg, kN);
      kb.imad(ai, i, nreg, KernelBuilder::RZ);
      kb.ldg(v, ai, kA + k);  // a[i][k]
      kb.fmul(v, v, r);
      kb.stg(i, kM, v);
    });
    return kb.build();
  }

  static isa::Program build_fan2(std::uint32_t k) {
    KernelBuilder kb("gaussian_fan2");
    Reg j = kb.reg(), i = kb.reg();
    kb.s2r(j, SpecialReg::TID_X);
    kb.s2r(i, SpecialReg::TID_Y);
    auto pi = kb.pred();
    auto pj = kb.pred();
    kb.isetpi(pi, Cmp::GT, i, k);
    kb.if_(pi, false, [&] {
      Reg m = kb.reg(), nm = kb.reg(), nreg = kb.reg();
      kb.ldg(m, i, kM);
      kb.fmulf(nm, m, -1.0f);
      kb.movi(nreg, kN);
      kb.isetpi(pj, Cmp::GE, j, k);
      kb.if_(pj, false, [&] {
        Reg aij = kb.reg(), akj = kb.reg(), idx = kb.reg();
        kb.imad(idx, i, nreg, j);
        kb.ldg(aij, idx, kA);
        Reg kidx = kb.reg();
        kb.movi(kidx, k * kN);
        kb.iadd(kidx, kidx, j);
        kb.ldg(akj, kidx, kA);
        kb.ffma(aij, nm, akj, aij);
        kb.stg(idx, kA, aij);
      });
      auto pz = kb.pred();
      kb.isetpi(pz, Cmp::EQ, j, 0);
      kb.if_(pz, false, [&] {
        Reg bi = kb.reg(), bk = kb.reg();
        kb.ldg(bi, i, kB);
        kb.movi(bk, k);
        kb.ldg(bk, bk, kB);
        kb.ffma(bi, nm, bk, bi);
        kb.stg(i, kB, bi);
      });
    });
    return kb.build();
  }

  std::vector<isa::Program> fan1_, fan2_;
};

// ---------------------------------------------------------------------------
// bfs — frontier BFS with per-level kernel pairs (INT32, 256 nodes)
// ---------------------------------------------------------------------------

class Bfs final : public AppBase {
 public:
  static constexpr std::uint32_t kNodes = 256, kDegree = 4;
  static constexpr std::uint32_t kRowOff = 0, kCols = 1024, kCost = 4096,
                                 kMask = 6144, kNextMask = 8192, kFlag = 10240;

  Bfs() : AppBase("bfs", "INT32", "Graphs", "Rodinia"),
          expand_(build_expand()), swap_(build_swap()) {}

  struct Graph {
    std::vector<std::uint32_t> row_off, cols;
  };

  static Graph make_graph() {
    // Ring + random extra edges: connected and deterministic.
    Rng rng(701);
    Graph g;
    g.row_off.resize(kNodes + 1);
    for (std::uint32_t i = 0; i < kNodes; ++i) {
      g.row_off[i] = static_cast<std::uint32_t>(g.cols.size());
      g.cols.push_back((i + 1) % kNodes);
      g.cols.push_back((i + kNodes - 1) % kNodes);
      for (std::uint32_t e = 2; e < kDegree; ++e)
        g.cols.push_back(static_cast<std::uint32_t>(rng.below(kNodes)));
    }
    g.row_off[kNodes] = static_cast<std::uint32_t>(g.cols.size());
    return g;
  }

  void setup(arch::Gpu& gpu) const override {
    const Graph g = make_graph();
    gpu.write_global(kRowOff, g.row_off);
    gpu.write_global(kCols, g.cols);
    std::vector<std::uint32_t> cost(kNodes, 0xFFFFFFFFu);
    cost[0] = 0;
    gpu.write_global(kCost, cost);
    std::vector<std::uint32_t> mask(kNodes, 0);
    mask[0] = 1;
    gpu.write_global(kMask, mask);
    gpu.write_global(kNextMask, std::vector<std::uint32_t>(kNodes, 0));
    gpu.reserve_global(kFlag, 1);
  }

  RunStats run(arch::Gpu& gpu, std::uint64_t mc) const override {
    RunStats s;
    for (int level = 0; level < 64; ++level) {
      gpu.write_global(kFlag, std::array<std::uint32_t, 1>{0});
      if (!step(gpu, s, expand_, {kNodes / 64, 1, 1}, {64, 1, 1}, mc)) return s;
      if (!step(gpu, s, swap_, {kNodes / 64, 1, 1}, {64, 1, 1}, mc)) return s;
      if (gpu.read_global(kFlag, 1)[0] == 0) break;
    }
    return s;
  }

  OutputSpec output() const override { return {kCost, kNodes, false}; }

  std::vector<std::uint32_t> host_reference_u() const override {
    const Graph g = make_graph();
    std::vector<std::uint32_t> cost(kNodes, 0xFFFFFFFFu);
    cost[0] = 0;
    std::vector<std::uint32_t> frontier{0};
    while (!frontier.empty()) {
      std::vector<std::uint32_t> next;
      for (std::uint32_t u : frontier)
        for (std::uint32_t e = g.row_off[u]; e < g.row_off[u + 1]; ++e) {
          const std::uint32_t v = g.cols[e];
          if (cost[v] == 0xFFFFFFFFu) {
            cost[v] = cost[u] + 1;
            next.push_back(v);
          }
        }
      frontier = std::move(next);
    }
    return cost;
  }

 private:
  static isa::Program build_expand() {
    KernelBuilder kb("bfs_expand");
    Reg gid = kb.reg(), tid = kb.reg(), cta = kb.reg(), ntid = kb.reg();
    kb.s2r(tid, SpecialReg::TID_X);
    kb.s2r(cta, SpecialReg::CTAID_X);
    kb.s2r(ntid, SpecialReg::NTID_X);
    kb.imad(gid, cta, ntid, tid);
    auto pm = kb.pred();
    Reg m = kb.reg();
    kb.ldg(m, gid, kMask);
    kb.isetpi(pm, Cmp::NE, m, 0);
    kb.if_(pm, false, [&] {
      Reg zero = kb.reg();
      kb.movi(zero, 0);
      kb.stg(gid, kMask, zero);
      Reg my_cost = kb.reg(), e = kb.reg(), end = kb.reg(), nb = kb.reg();
      Reg nb_cost = kb.reg(), one = kb.reg();
      kb.ldg(my_cost, gid, kCost);
      kb.iaddi(my_cost, my_cost, 1);  // cost for neighbours
      kb.ldg(e, gid, kRowOff);
      kb.ldg(end, gid, kRowOff + 1);
      kb.movi(one, 1);
      auto ploop = kb.pred();
      auto pnew = kb.pred();
      kb.while_(ploop, false, [&] { kb.isetp(ploop, Cmp::LT, e, end); },
                [&] {
                  kb.ldg(nb, e, kCols);
                  kb.ldg(nb_cost, nb, kCost);
                  kb.isetpi(pnew, Cmp::EQ, nb_cost, 0xFFFFFFFFu);
                  kb.if_(pnew, false, [&] {
                    kb.stg(nb, kCost, my_cost);
                    kb.stg(nb, kNextMask, one);
                    kb.st(isa::MemSpace::Global, KernelBuilder::RZ, kFlag, one);
                  });
                  kb.iaddi(e, e, 1);
                });
    });
    return kb.build();
  }

  static isa::Program build_swap() {
    KernelBuilder kb("bfs_swap");
    Reg gid = kb.reg(), tid = kb.reg(), cta = kb.reg(), ntid = kb.reg();
    kb.s2r(tid, SpecialReg::TID_X);
    kb.s2r(cta, SpecialReg::CTAID_X);
    kb.s2r(ntid, SpecialReg::NTID_X);
    kb.imad(gid, cta, ntid, tid);
    Reg v = kb.reg(), zero = kb.reg();
    kb.ldg(v, gid, kNextMask);
    kb.stg(gid, kMask, v);
    kb.movi(zero, 0);
    kb.stg(gid, kNextMask, zero);
    return kb.build();
  }

  isa::Program expand_, swap_;
};

// ---------------------------------------------------------------------------
// lud — LU decomposition, two kernels per step (n=16)
// ---------------------------------------------------------------------------

class Lud final : public AppBase {
 public:
  static constexpr std::uint32_t kN = 16;
  static constexpr std::uint32_t kA = 0;

  Lud() : AppBase("lud", "FP32", "Linear algebra", "Rodinia") {
    for (std::uint32_t k = 0; k + 1 < kN; ++k) {
      scale_.push_back(build_scale(k));
      update_.push_back(build_update(k));
    }
  }

  static std::vector<float> input_matrix() {
    auto a = AppBase::random_floats(kN * kN, -1.0, 1.0, 801);
    for (std::uint32_t i = 0; i < kN; ++i) a[i * kN + i] += 6.0f;
    return a;
  }

  void setup(arch::Gpu& gpu) const override { gpu.write_global_f(kA, input_matrix()); }

  RunStats run(arch::Gpu& gpu, std::uint64_t mc) const override {
    RunStats s;
    for (std::uint32_t k = 0; k + 1 < kN; ++k) {
      if (!step(gpu, s, scale_[k], {1, 1, 1}, {kN, 1, 1}, mc)) return s;
      if (!step(gpu, s, update_[k], {1, 1, 1}, {kN, kN, 1}, mc)) return s;
    }
    return s;
  }

  OutputSpec output() const override { return {kA, kN * kN, true, 2e-3}; }

  std::vector<float> host_reference_f() const override {
    auto a = input_matrix();
    for (std::uint32_t k = 0; k + 1 < kN; ++k) {
      const float rk = host_rcp(a[k * kN + k]);
      for (std::uint32_t i = k + 1; i < kN; ++i) a[i * kN + k] *= rk;
      for (std::uint32_t i = k + 1; i < kN; ++i) {
        const float nm = a[i * kN + k] * -1.0f;
        for (std::uint32_t j = k + 1; j < kN; ++j)
          a[i * kN + j] = std::fmaf(nm, a[k * kN + j], a[i * kN + j]);
      }
    }
    return a;
  }

 private:
  static isa::Program build_scale(std::uint32_t k) {
    KernelBuilder kb("lud_scale");
    Reg i = kb.reg();
    kb.s2r(i, SpecialReg::TID_X);
    auto p = kb.pred();
    kb.isetpi(p, Cmp::GT, i, k);
    kb.if_(p, false, [&] {
      Reg piv = kb.reg(), r = kb.reg(), v = kb.reg(), idx = kb.reg(), nreg = kb.reg();
      kb.movi(piv, 0);
      kb.ldg(piv, piv, kA + k * kN + k);
      kb.frcp(r, piv);
      kb.movi(nreg, kN);
      kb.imad(idx, i, nreg, KernelBuilder::RZ);
      kb.ldg(v, idx, kA + k);
      kb.fmul(v, v, r);
      kb.stg(idx, kA + k, v);
    });
    return kb.build();
  }

  static isa::Program build_update(std::uint32_t k) {
    // Rodinia's LUD stages the pivot row and column in shared memory.
    KernelBuilder kb("lud_update");
    kb.set_shared_words(2 * kN);
    Reg j = kb.reg(), i = kb.reg();
    kb.s2r(j, SpecialReg::TID_X);
    kb.s2r(i, SpecialReg::TID_Y);
    Reg nreg = kb.reg(), tmp = kb.reg(), v = kb.reg();
    kb.movi(nreg, kN);
    auto ps = kb.pred();
    // sh[j] = a[k][j] (row), sh[kN + i] = a[i][k] (column).
    kb.isetpi(ps, Cmp::EQ, i, 0);
    kb.if_(ps, false, [&] {
      kb.movi(tmp, k * kN);
      kb.iadd(tmp, tmp, j);
      kb.ldg(v, tmp, kA);
      kb.sts(j, 0, v);
    });
    kb.isetpi(ps, Cmp::EQ, j, 0);
    kb.if_(ps, false, [&] {
      kb.imad(tmp, i, nreg, KernelBuilder::RZ);
      kb.ldg(v, tmp, kA + k);
      kb.iaddi(tmp, i, kN);
      kb.sts(tmp, 0, v);
    });
    kb.bar();
    auto pi = kb.pred();
    auto pj = kb.pred();
    kb.isetpi(pi, Cmp::GT, i, k);
    kb.if_(pi, false, [&] {
      kb.isetpi(pj, Cmp::GT, j, k);
      kb.if_(pj, false, [&] {
        Reg lik = kb.reg(), ukj = kb.reg(), aij = kb.reg(), idx = kb.reg();
        kb.iaddi(idx, i, kN);
        kb.lds(lik, idx, 0);  // a[i][k] from shared
        kb.fmulf(lik, lik, -1.0f);
        kb.lds(ukj, j, 0);    // a[k][j] from shared
        kb.imad(idx, i, nreg, j);
        kb.ldg(aij, idx, kA);
        kb.ffma(aij, lik, ukj, aij);
        kb.stg(idx, kA, aij);
      });
    });
    return kb.build();
  }

  std::vector<isa::Program> scale_, update_;
};

// ---------------------------------------------------------------------------
// nw — Needleman-Wunsch anti-diagonal waves (INT32, 32x32 alignment)
// ---------------------------------------------------------------------------

class Nw final : public AppBase {
 public:
  static constexpr std::uint32_t kN = 32;        // sequence length
  static constexpr std::uint32_t kDim = kN + 1;  // score matrix dimension
  static constexpr std::uint32_t kRef = 0, kScore = 2048;
  static constexpr std::int32_t kPenalty = 10;

  Nw() : AppBase("nw", "INT32", "Dyn. Programming", "Rodinia") {
    for (std::uint32_t d = 2; d <= 2 * kN; ++d) wave_.push_back(build_wave(d));
  }

  static std::vector<std::uint32_t> reference_matrix() {
    // Substitution scores in [-6, 6].
    auto r = AppBase::random_ints(kDim * kDim, 0, 13, 901);
    for (auto& v : r) v = static_cast<std::uint32_t>(static_cast<std::int32_t>(v) - 6);
    return r;
  }

  void setup(arch::Gpu& gpu) const override {
    gpu.write_global(kRef, reference_matrix());
    std::vector<std::uint32_t> score(kDim * kDim, 0);
    for (std::uint32_t i = 0; i < kDim; ++i) {
      score[i * kDim] = static_cast<std::uint32_t>(-static_cast<std::int32_t>(i) * kPenalty);
      score[i] = static_cast<std::uint32_t>(-static_cast<std::int32_t>(i) * kPenalty);
    }
    gpu.write_global(kScore, score);
  }

  RunStats run(arch::Gpu& gpu, std::uint64_t mc) const override {
    RunStats s;
    for (const auto& prog : wave_)
      if (!step(gpu, s, prog, {1, 1, 1}, {kN, 1, 1}, mc)) return s;
    return s;
  }

  OutputSpec output() const override { return {kScore, kDim * kDim, false}; }

  std::vector<std::uint32_t> host_reference_u() const override {
    const auto ref = reference_matrix();
    std::vector<std::int32_t> s(kDim * kDim, 0);
    for (std::uint32_t i = 0; i < kDim; ++i) {
      s[i * kDim] = -static_cast<std::int32_t>(i) * kPenalty;
      s[i] = -static_cast<std::int32_t>(i) * kPenalty;
    }
    for (std::uint32_t i = 1; i < kDim; ++i)
      for (std::uint32_t j = 1; j < kDim; ++j) {
        const std::int32_t diag =
            s[(i - 1) * kDim + j - 1] + static_cast<std::int32_t>(ref[i * kDim + j]);
        const std::int32_t up = s[(i - 1) * kDim + j] - kPenalty;
        const std::int32_t left = s[i * kDim + j - 1] - kPenalty;
        s[i * kDim + j] = std::max({diag, up, left});
      }
    std::vector<std::uint32_t> out(s.size());
    for (std::size_t i = 0; i < s.size(); ++i) out[i] = static_cast<std::uint32_t>(s[i]);
    return out;
  }

 private:
  static isa::Program build_wave(std::uint32_t d) {
    KernelBuilder kb("nw_wave");
    const std::uint32_t lo = d > kN ? d - kN : 1;
    const std::uint32_t hi = std::min(kN, d - 1);
    const std::uint32_t count = hi - lo + 1;

    kb.set_shared_words(kN);
    Reg t = kb.reg();
    kb.s2r(t, SpecialReg::TID_X);
    auto p = kb.pred();
    kb.isetpi(p, Cmp::LT, t, count);
    kb.if_(p, false, [&] {
      Reg i = kb.reg(), j = kb.reg(), idx = kb.reg(), dim = kb.reg();
      kb.iaddi(i, t, lo);
      Reg dreg = kb.reg();
      kb.movi(dreg, d);
      kb.isub(j, dreg, i);
      kb.movi(dim, kDim);
      kb.imad(idx, i, dim, j);
      Reg diag = kb.reg(), up = kb.reg(), left = kb.reg(), rv = kb.reg();
      kb.ldg(diag, idx, kScore - kDim - 1);
      // Substitution scores are staged through shared memory (the Rodinia
      // kernel tiles both matrices in shared memory).
      kb.ldg(rv, idx, kRef);
      kb.sts(t, 0, rv);
      kb.lds(rv, t, 0);
      kb.iadd(diag, diag, rv);
      kb.ldg(up, idx, kScore - kDim);
      kb.iaddi(up, up, static_cast<std::uint32_t>(-kPenalty));
      kb.ldg(left, idx, kScore - 1);
      kb.iaddi(left, left, static_cast<std::uint32_t>(-kPenalty));
      kb.imax(diag, diag, up);
      kb.imax(diag, diag, left);
      kb.stg(idx, kScore, diag);
    });
    return kb.build();
  }

  std::vector<isa::Program> wave_;
};

// ---------------------------------------------------------------------------
// cfd — simplified unstructured-grid Euler step with FSQRT (256 cells)
// ---------------------------------------------------------------------------

class Cfd final : public AppBase {
 public:
  static constexpr std::uint32_t kCells = 256, kNbPerCell = 4, kIters = 3;
  static constexpr std::uint32_t kNb = 0, kRhoA = 2048, kEA = 2560,
                                 kRhoB = 3072, kEB = 3584;
  static constexpr float kDt = 0.05f;

  Cfd() : AppBase("cfd", "FP32", "Unstructured Grid", "Rodinia"),
          a2b_(build_step(kRhoA, kEA, kRhoB, kEB)),
          b2a_(build_step(kRhoB, kEB, kRhoA, kEA)) {}

  static std::vector<std::uint32_t> neighbors() {
    Rng rng(1001);
    std::vector<std::uint32_t> nb(kCells * kNbPerCell);
    for (std::uint32_t i = 0; i < kCells; ++i) {
      nb[i * kNbPerCell + 0] = (i + 1) % kCells;
      nb[i * kNbPerCell + 1] = (i + kCells - 1) % kCells;
      nb[i * kNbPerCell + 2] = static_cast<std::uint32_t>(rng.below(kCells));
      nb[i * kNbPerCell + 3] = static_cast<std::uint32_t>(rng.below(kCells));
    }
    return nb;
  }

  void setup(arch::Gpu& gpu) const override {
    gpu.write_global(kNb, neighbors());
    gpu.write_global_f(kRhoA, random_floats(kCells, 0.5, 2.0, 1002));
    gpu.write_global_f(kEA, random_floats(kCells, 1.0, 4.0, 1003));
    gpu.reserve_global(kRhoB, kCells);
    gpu.reserve_global(kEB, kCells);
  }

  RunStats run(arch::Gpu& gpu, std::uint64_t mc) const override {
    RunStats s;
    for (std::uint32_t it = 0; it < kIters; ++it)
      if (!step(gpu, s, it % 2 == 0 ? a2b_ : b2a_, {kCells / 64, 1, 1},
                {64, 1, 1}, mc))
        return s;
    return s;
  }

  OutputSpec output() const override { return {kRhoB, kCells, true, 1e-3}; }

  std::vector<float> host_reference_f() const override {
    const auto nb = neighbors();
    auto rho = random_floats(kCells, 0.5, 2.0, 1002);
    auto en = random_floats(kCells, 1.0, 4.0, 1003);
    std::vector<float> rho2(kCells), en2(kCells);
    for (std::uint32_t it = 0; it < kIters; ++it) {
      for (std::uint32_t i = 0; i < kCells; ++i) {
        const float c = host_sqrt(en[i]);
        float ar = 0.0f, ae = 0.0f;
        for (std::uint32_t k = 0; k < kNbPerCell; ++k) {
          const std::uint32_t n = nb[i * kNbPerCell + k];
          ar = std::fmaf(rho[i], -1.0f, rho[n]) + ar;
          ae = std::fmaf(en[i], -1.0f, en[n]) + ae;
        }
        rho2[i] = std::fmaf(ar * c, kDt, rho[i]);
        en2[i] = std::fmaf(ae * c, kDt, en[i]);
      }
      std::swap(rho, rho2);
      std::swap(en, en2);
    }
    // After 3 iterations the current state lives in rho (swapped); the device
    // writes its final state into buffer B on the last (a->b) iteration.
    return rho;
  }

 private:
  static isa::Program build_step(std::uint32_t rho_in, std::uint32_t e_in,
                                 std::uint32_t rho_out, std::uint32_t e_out) {
    KernelBuilder kb("cfd_step");
    Reg gid = kb.reg(), tid = kb.reg(), cta = kb.reg(), ntid = kb.reg();
    kb.s2r(tid, SpecialReg::TID_X);
    kb.s2r(cta, SpecialReg::CTAID_X);
    kb.s2r(ntid, SpecialReg::NTID_X);
    kb.imad(gid, cta, ntid, tid);

    Reg rho = kb.reg(), en = kb.reg(), c = kb.reg();
    kb.ldg(rho, gid, rho_in);
    kb.ldg(en, gid, e_in);
    kb.fsqrt(c, en);

    Reg ar = kb.reg(), ae = kb.reg(), nbi = kb.reg(), nv = kb.reg();
    Reg cn1 = kb.reg(), base = kb.reg(), k = kb.reg(), four = kb.reg();
    kb.movf(ar, 0.0f);
    kb.movf(ae, 0.0f);
    kb.movf(cn1, -1.0f);
    kb.shl(base, gid, 2);  // gid * 4 neighbours
    kb.movi(four, 4);
    Reg t = kb.reg();
    kb.for_lt(k, 0, four, 1, [&] {
      kb.iadd(t, base, k);
      kb.ldg(nbi, t, kNb);
      kb.ldg(nv, nbi, rho_in);
      kb.ffma(nv, rho, cn1, nv);  // rho[n] - rho[i]
      kb.fadd(ar, ar, nv);
      kb.ldg(nv, nbi, e_in);
      kb.ffma(nv, en, cn1, nv);
      kb.fadd(ae, ae, nv);
    });
    Reg dt = kb.reg();
    kb.movf(dt, kDt);
    kb.fmul(ar, ar, c);
    kb.ffma(rho, ar, dt, rho);
    kb.fmul(ae, ae, c);
    kb.ffma(en, ae, dt, en);
    kb.stg(gid, rho_out, rho);
    kb.stg(gid, e_out, en);
    return kb.build();
  }

  isa::Program a2b_, b2a_;
};

}  // namespace

namespace detail {
std::vector<std::unique_ptr<Workload>> make_rodinia_apps() {
  std::vector<std::unique_ptr<Workload>> v;
  v.push_back(std::make_unique<Lava>());
  v.push_back(std::make_unique<Hotspot>());
  v.push_back(std::make_unique<Gaussian>());
  v.push_back(std::make_unique<Bfs>());
  v.push_back(std::make_unique<Lud>());
  v.push_back(std::make_unique<Nw>());
  v.push_back(std::make_unique<Cfd>());
  return v;
}
}  // namespace detail

}  // namespace gpf::workloads
