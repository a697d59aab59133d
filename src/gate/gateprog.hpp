// Optimized gate program ("GateProg") lowered from a CompiledNetlist.
//
// CompiledNetlist (PR 4) is a faithful 1:1 translation of the netlist: one
// slot per gate, every net materialized, an opcode switch per gate. This
// module lowers it once more into an executable instruction stream tuned for
// the inner loops of the simulators, in two variants:
//
//   full   one Instr per compiled slot, same order, same semantics — every
//          net written, no folding. The scalar Simulator (the oracle), the
//          golden pass (UnitReplayer::compute_goldens, which needs every
//          net's value because every net is a fault site) and the
//          GPF_FUSE=0 batch path run this stream; it is the exact reference
//          the optimized stream must match on every materialized net.
//
//   fused  the optimizer pipeline's output:
//            1. constant folding — operands driven by Const0/Const1 nets (and
//               values derived from them) are folded into the opcode, e.g.
//               And(x, c1) -> Copy(x), Nor(x, c1) -> Const0;
//            2. buf/not-chain fusion — fanout-1 chains of Buf/Not collapse
//               into one Copy/NCopy carrying the chain parity;
//            3. AND-OR-INVERT fusion — a fanout-1 {And,Or,Nand,Nor,Not,Buf}
//               feeding an {And,Or,Nand,Nor} is absorbed into one two-level
//               superop (Fuse2) covering both gates (AOI21/OAI21/AND3/... in
//               standard-cell terms); the interior net is never written;
//               likewise a fanout-1 Xor/Xnor feeding an Xor/Xnor fuses into
//               Xor3/Xnor3 (inversions compose by parity), and a fanout-1
//               Copy/NCopy producer is forwarded into Mux and Xor-family
//               consumers (an NCopy flips Xor<->Xnor; on a Mux select it
//               swaps the data operands instead — Mux(~s,b,c) == Mux(s,c,b));
//            4. dead-gate elimination — gates that cannot reach an output
//               bus or a DFF D/enable pin are dropped;
//            5. virtual-register allocation — short-lived fanout-1 nets are
//               renamed into a small register file stored at the TAIL of the
//               value array (storage index num_nets()+r), so hot
//               intermediates recycle a few cache lines instead of streaming
//               through the big per-net arrays.
//
// Exactness under fault injection: any net can carry a stuck-at overlay, but
// the fused stream deliberately stops materializing some nets. The batch
// engine handles this per batch (see batchsim_impl.hpp): a fault site that
// the fused stream does not write at a fixup-able storage index triggers
// either a patched copy of the stream (interior and folded sites re-expand to
// their original slots) or is provably classification-neutral (dead sites).
// Nets that classification reads — every output-bus net and every DFF D/EN
// pin — are *protected*: never fused through, never dead, never renamed, so
// diff/observe/clock paths need no awareness of the optimizer.
//
// Forces are applied as SPARSE FIXUPS rather than a per-store overlay: the
// stream is levelized, so every consumer of a slot's output executes strictly
// later, and applying the overlay right after the writing instruction is
// exact. That removes two mask loads and three bitwise ops from every gate of
// every eval — most of the interpreter's win over the earlier per-slot
// engine. The batch engine places each fixup in its per-batch copy of the
// stream as an ordinary And-Or op over two mask words, so a cycle is still
// one interpreter run.
#pragma once

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <type_traits>
#include <vector>

#include "gate/compiled.hpp"
#include "gate/netlist.hpp"

namespace gpf::gate {

/// Opcodes of the optimized gate program. Fuse2 variants encode
///   mid = f1(a, b); if (neg_mid) mid = ~mid;
///   v = f2(mid, c); if (neg_out) v = ~v;
/// with f1/f2 in {And, Or}, packed into the low 4 opcode bits:
///   bit0 = f1 is Or, bit1 = f2 is Or, bit2 = neg_mid, bit3 = neg_out.
/// A one-input producer (Buf/Not or a folded Copy/NCopy) is absorbed as
/// f1 = And with a == b (And(x, x) == x), neg_mid = the chain parity.
enum class Op : std::uint8_t {
  Const0,  ///< v = 0
  Const1,  ///< v = ~0
  Copy,    ///< v = a
  NCopy,   ///< v = ~a
  And,     ///< v = a & b
  Or,      ///< v = a | b
  Nand,    ///< v = ~(a & b)
  Nor,     ///< v = ~(a | b)
  Xor,     ///< v = a ^ b
  Xnor,    ///< v = ~(a ^ b)
  Mux,     ///< v = (a & c) | (~a & b)   (a = select, b = when-0, c = when-1)
  Mat,     ///< v = broadcast(golden[a]); cone-program materialization of an
           ///< out-of-cone virtual register (never emitted by the builder;
           ///< inserted per batch by the engine's cone construction)
  Fuse2_0,  // And  And
  Fuse2_1,  // Or   And
  Fuse2_2,  // And  Or
  Fuse2_3,  // Or   Or
  Fuse2_4,  // ~And And
  Fuse2_5,  // ~Or  And
  Fuse2_6,  // ~And Or
  Fuse2_7,  // ~Or  Or
  Fuse2_8,  // And  Nand
  Fuse2_9,  // Or   Nand
  Fuse2_10,  // And Nor
  Fuse2_11,  // Or  Nor
  Fuse2_12,  // ~And Nand
  Fuse2_13,  // ~Or  Nand
  Fuse2_14,  // ~And Nor
  Fuse2_15,  // ~Or  Nor
  Xor3,      ///< v = a ^ b ^ c          (fused xor pair; parity-composed)
  Xnor3,     ///< v = ~(a ^ b ^ c)
};
inline constexpr std::uint8_t kNumOps =
    static_cast<std::uint8_t>(Op::Xnor3) + 1;

inline constexpr Op fuse2_op(bool f1_or, bool f2_or, bool neg_mid,
                             bool neg_out) {
  return static_cast<Op>(static_cast<std::uint8_t>(Op::Fuse2_0) +
                         (f1_or ? 1 : 0) + (f2_or ? 2 : 0) +
                         (neg_mid ? 4 : 0) + (neg_out ? 8 : 0));
}

/// One instruction. Operands and destination are STORAGE indices into the
/// engine's value array: a plain net id, or num_nets()+r for virtual
/// register r. Unused operands are 0 (never read by the opcode).
struct Instr {
  std::uint32_t op = 0;  ///< Op, widened for cheap indexed dispatch
  std::uint32_t a = 0, b = 0, c = 0;
  std::uint32_t out = 0;
};

inline constexpr std::uint32_t kNoOp = 0xFFFFFFFFu;

/// Builder/debug metadata carried next to each Instr (not read by the hot
/// interpreter loop): the original nets behind the storage indices, the
/// compiled slots the op covers (for per-batch patching), and flags.
struct OpMeta {
  Net out_net = kNoNet;                ///< net this op computes
  Net src_a = kNoNet, src_b = kNoNet;  ///< original operand nets (kNoNet if
  Net src_c = kNoNet;                  ///<   unused by the opcode)
  std::uint32_t cover_begin = 0;       ///< range into Stream::cover: the
  std::uint32_t cover_count = 0;       ///<   compiled slots this op replaces
  bool folded = false;  ///< emitted form dropped a constant-valued operand
  std::int32_t level = 0;  ///< levelization depth of out_net (JIT grouping)
};

/// An executable instruction stream plus the net -> storage maps the engine
/// needs to install force overlays and build fanout-cone programs.
struct Stream {
  std::vector<Instr> code;
  std::vector<OpMeta> meta;           ///< parallel to code
  std::vector<std::uint32_t> cover;   ///< concatenated covered slot lists
  std::vector<std::uint32_t> write_op;  ///< net -> op index writing it, or
                                        ///<   kNoOp (sources, interiors, dead)
  std::vector<std::uint32_t> storage_of;  ///< net -> storage index (identity
                                          ///<   unless vreg-renamed)
  std::uint32_t num_vregs = 0;
  std::size_t num_ops() const { return code.size(); }
};

/// Per-net optimizer facts (fused stream only). A net with none of these
/// flags is materialized at its own index, exactly like the full stream.
enum NetFlag : std::uint8_t {
  kNetInterior = 1,   ///< absorbed into a Fuse2/Copy superop; never written
  kNetDead = 2,       ///< eliminated; never written, cannot reach observables
  kNetVreg = 4,       ///< written to a virtual-register storage slot
  kNetFoldedUse = 8,  ///< some op folded this net's constant value away
};

struct GateProgram {
  /// Builds both streams. `cn` must outlive the program (Netlist keeps both
  /// behind shared_ptr).
  GateProgram(const Netlist& nl, std::shared_ptr<const CompiledNetlist> cn);

  std::shared_ptr<const CompiledNetlist> cn;
  Stream full;   ///< 1:1 with compiled slots; full.code[s] <-> slot s
  Stream fused;  ///< optimized stream
  std::vector<std::uint8_t> net_flags;  ///< NetFlag bits per net
  std::vector<std::uint32_t> head_of;   ///< interior net -> fused op index
  std::size_t num_nets = 0;
  std::size_t storage_size = 0;  ///< num_nets + fused.num_vregs

  // Optimizer stats (also published as gate.fused_gates / gate.dead_gates /
  // gate.vreg_nets counters at build time).
  std::size_t fused_gates = 0;  ///< gates absorbed into superops
  std::size_t dead_gates = 0;   ///< gates eliminated as unobservable
  std::size_t folded_ops = 0;   ///< ops strength-reduced by constant folding
  std::size_t vreg_nets = 0;    ///< nets renamed into virtual registers

  /// FNV-1a over the compiled structure + codegen version; the JIT cache key.
  std::uint64_t struct_hash = 0;

  /// The fused stream computes this net's value somewhere (its own index or
  /// a vreg slot) — a force overlay can be fixed up after the writing op.
  bool materialized(Net n) const {
    return (net_flags[static_cast<std::size_t>(n)] &
            (kNetInterior | kNetDead)) == 0;
  }
  /// val_[n] itself holds the exact value after a fused eval — required for
  /// nets read positionally (value()/set_observed()); vreg slots are reused
  /// within a pass, so renamed nets are materialized but not value-exact.
  bool value_exact(Net n) const {
    return (net_flags[static_cast<std::size_t>(n)] &
            (kNetInterior | kNetDead | kNetVreg)) == 0;
  }

  /// Evaluation of one instruction over value type V: 0/1 bytes (the scalar
  /// Simulator) or std::uint64_t words carrying one pattern per bit (the
  /// golden pass, UnitReplayer::compute_goldens). Both run these opcode
  /// semantics, so the oracle, the golden pass and the batch engine execute
  /// the same program.
  template <class V>
  static V eval(const Instr& in, const V* v);
};

template <class V>
V GateProgram::eval(const Instr& in, const V* v) {
  static_assert(std::is_same_v<V, std::uint8_t> ||
                    std::is_same_v<V, std::uint64_t>,
                "0/1 bytes or 64-pattern words");
  // All-true value: 1 for a 0/1 byte, every bit for a pattern word; x ^ one
  // is NOT in both.
  constexpr V one = std::is_same_v<V, std::uint8_t> ? V{1} : static_cast<V>(~V{0});
  const V a = v[in.a], b = v[in.b];
  switch (static_cast<Op>(in.op)) {
    case Op::Const0: return 0;
    case Op::Const1: return one;
    case Op::Copy: return a;
    case Op::NCopy: return a ^ one;
    case Op::And: return a & b;
    case Op::Or: return a | b;
    case Op::Nand: return (a & b) ^ one;
    case Op::Nor: return (a | b) ^ one;
    case Op::Xor: return a ^ b;
    case Op::Xnor: return a ^ b ^ one;
    case Op::Mux: return (a & v[in.c]) | ((a ^ one) & b);
    case Op::Xor3: return a ^ b ^ v[in.c];
    case Op::Xnor3: return a ^ b ^ v[in.c] ^ one;
    case Op::Mat:
      throw std::logic_error("Mat is a cone-program pseudo-op");
    default: {
      const auto bits = in.op - static_cast<std::uint32_t>(Op::Fuse2_0);
      V mid = (bits & 1) ? (a | b) : (a & b);
      if (bits & 4) mid ^= one;
      const V cc = v[in.c];
      const V r = (bits & 2) ? (mid | cc) : (mid & cc);
      return (bits & 8) ? r ^ one : r;
    }
  }
}

/// Appends `in` re-expanded into its covered original slots (operands
/// remapped through `st.storage_of`) — the per-batch patch used when a fault
/// site is not materialized by the fused stream. `out_code`/`out_meta`
/// receive one entry per covered slot.
void expand_op(const GateProgram& gp, const Stream& st, std::uint32_t op_index,
               std::vector<Instr>& out_code, std::vector<OpMeta>& out_meta);

}  // namespace gpf::gate
