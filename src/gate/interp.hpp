// The batch engine's interpreter. A batch's instruction stream (its eval
// code or its cone program, gateprog.hpp) is cut once, when the batch plans
// it, into maximal runs of same-opcode ops; each cycle then walks the runs
// with one switch per run and one tight loop per opcode. The optimizer
// schedules each level's ops opcode-major and the engine groups a level's
// force ops into one run, so a run averages several ops and the dispatch
// cost is paid once per run instead of once per op.
//
// W is LaneWord<N> (laneword.hpp). The header is included by the per-width
// engine translation units, each instantiating W at its own width.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "gate/gateprog.hpp"
#include "gate/sim.hpp"

namespace gpf::gate {

/// Ops [begin, end) of a stream, all with opcode `op`.
struct OpRun {
  std::uint32_t op = 0;
  std::uint32_t begin = 0, end = 0;
};

/// Cuts `code` into its maximal same-opcode runs, in stream order.
inline void op_runs(std::span<const Instr> code, std::vector<OpRun>& runs) {
  runs.clear();
  const auto n = static_cast<std::uint32_t>(code.size());
  for (std::uint32_t i = 0; i < n;) {
    std::uint32_t end = i + 1;
    while (end < n && code[end].op == code[i].op) ++end;
    runs.push_back({code[i].op, i, end});
    i = end;
  }
}

/// Executes `runs` of `code` over the value array `v`. `golden` feeds the
/// cone program's Mat ops; streams without them may pass an empty row.
template <class W>
void exec_runs(W* v, const Instr* code, std::span<const OpRun> runs,
               GoldenRow golden) {
  for (const OpRun& r : runs) {
    const Instr* const end = code + r.end;
#define GPF_RUN(opcode, expr)                                        \
  case Op::opcode:                                                   \
    for (const Instr* p = code + r.begin; p != end; ++p) {           \
      const Instr& q = *p;                                           \
      v[q.out] = (expr);                                             \
    }                                                                \
    break
    switch (static_cast<Op>(r.op)) {
      GPF_RUN(Const0, W::zero());
      GPF_RUN(Const1, W::ones());
      GPF_RUN(Copy, v[q.a]);
      GPF_RUN(NCopy, ~v[q.a]);
      GPF_RUN(And, v[q.a] & v[q.b]);
      GPF_RUN(Or, v[q.a] | v[q.b]);
      GPF_RUN(Nand, ~(v[q.a] & v[q.b]));
      GPF_RUN(Nor, ~(v[q.a] | v[q.b]));
      GPF_RUN(Xor, v[q.a] ^ v[q.b]);
      GPF_RUN(Xnor, ~(v[q.a] ^ v[q.b]));
      GPF_RUN(Mux, (v[q.a] & v[q.c]) | (~v[q.a] & v[q.b]));
      GPF_RUN(Mat, W::broadcast(golden[q.a]));
      GPF_RUN(Fuse2_0, (v[q.a] & v[q.b]) & v[q.c]);
      GPF_RUN(Fuse2_1, (v[q.a] | v[q.b]) & v[q.c]);
      GPF_RUN(Fuse2_2, (v[q.a] & v[q.b]) | v[q.c]);
      GPF_RUN(Fuse2_3, (v[q.a] | v[q.b]) | v[q.c]);
      GPF_RUN(Fuse2_4, ~(v[q.a] & v[q.b]) & v[q.c]);
      GPF_RUN(Fuse2_5, ~(v[q.a] | v[q.b]) & v[q.c]);
      GPF_RUN(Fuse2_6, ~(v[q.a] & v[q.b]) | v[q.c]);
      GPF_RUN(Fuse2_7, ~(v[q.a] | v[q.b]) | v[q.c]);
      GPF_RUN(Fuse2_8, ~((v[q.a] & v[q.b]) & v[q.c]));
      GPF_RUN(Fuse2_9, ~((v[q.a] | v[q.b]) & v[q.c]));
      GPF_RUN(Fuse2_10, ~((v[q.a] & v[q.b]) | v[q.c]));
      GPF_RUN(Fuse2_11, ~((v[q.a] | v[q.b]) | v[q.c]));
      GPF_RUN(Fuse2_12, ~(~(v[q.a] & v[q.b]) & v[q.c]));
      GPF_RUN(Fuse2_13, ~(~(v[q.a] | v[q.b]) & v[q.c]));
      GPF_RUN(Fuse2_14, ~(~(v[q.a] & v[q.b]) | v[q.c]));
      GPF_RUN(Fuse2_15, ~(~(v[q.a] | v[q.b]) | v[q.c]));
      GPF_RUN(Xor3, v[q.a] ^ v[q.b] ^ v[q.c]);
      GPF_RUN(Xnor3, ~(v[q.a] ^ v[q.b] ^ v[q.c]));
    }
#undef GPF_RUN
  }
}

}  // namespace gpf::gate
