#include "gate/gateprog.hpp"

#include <algorithm>
#include <stdexcept>

#include "obs/metrics.hpp"

namespace gpf::gate {

namespace {

// Bump when the Instr encoding or Fuse2 semantics change: it feeds
// struct_hash, which keys the on-disk JIT cache.
constexpr std::uint64_t kCodegenVersion = 2;

constexpr std::uint32_t kMaxVRegs = 64;

Op plain_op(GateKind k) {
  switch (k) {
    case GateKind::Buf: return Op::Copy;
    case GateKind::Not: return Op::NCopy;
    case GateKind::And: return Op::And;
    case GateKind::Or: return Op::Or;
    case GateKind::Nand: return Op::Nand;
    case GateKind::Nor: return Op::Nor;
    case GateKind::Xor: return Op::Xor;
    case GateKind::Xnor: return Op::Xnor;
    case GateKind::Mux: return Op::Mux;
    default: throw std::logic_error("plain_op: not a combinational gate");
  }
}

/// Folded form of one gate: opcode plus the (at most 3) nets it still reads.
struct Folded {
  Op op;
  Net a = kNoNet, b = kNoNet, c = kNoNet;
  bool folded = false;  ///< differs from the 1:1 translation
};

struct Fnv {
  std::uint64_t h = 1469598103934665603ull;
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xFF;
      h *= 1099511628211ull;
    }
  }
};

}  // namespace

GateProgram::GateProgram(const Netlist& nl,
                         std::shared_ptr<const CompiledNetlist> cn_in)
    : cn(std::move(cn_in)) {
  const CompiledNetlist& c = *cn;
  num_nets = c.num_nets();
  const std::size_t num_slots = c.num_slots();

  // ---- full stream: 1:1 with compiled slots, storage == net -------------
  full.code.resize(num_slots);
  full.meta.resize(num_slots);
  full.write_op.assign(num_nets, kNoOp);
  full.storage_of.resize(num_nets);
  for (std::size_t n = 0; n < num_nets; ++n)
    full.storage_of[n] = static_cast<std::uint32_t>(n);
  full.cover.resize(num_slots);
  for (std::size_t s = 0; s < num_slots; ++s) {
    Instr& in = full.code[s];
    in.op = static_cast<std::uint32_t>(plain_op(c.kind[s]));
    in.a = c.a[s] == kNoNet ? 0 : static_cast<std::uint32_t>(c.a[s]);
    in.b = c.b[s] == kNoNet ? 0 : static_cast<std::uint32_t>(c.b[s]);
    in.c = c.c[s] == kNoNet ? 0 : static_cast<std::uint32_t>(c.c[s]);
    in.out = static_cast<std::uint32_t>(c.out[s]);
    OpMeta& m = full.meta[s];
    m.out_net = c.out[s];
    m.src_a = c.a[s];
    m.src_b = c.b[s];
    m.src_c = c.kind[s] == GateKind::Mux ? c.c[s] : kNoNet;
    m.cover_begin = static_cast<std::uint32_t>(s);
    m.cover_count = 1;
    m.level = c.level[static_cast<std::size_t>(c.out[s])];
    full.cover[s] = static_cast<std::uint32_t>(s);
    full.write_op[static_cast<std::size_t>(c.out[s])] =
        static_cast<std::uint32_t>(s);
  }

  net_flags.assign(num_nets, 0);
  head_of.assign(num_nets, kNoOp);

  // ---- pass 1: constant folding over derived values ---------------------
  // cval[n] = 0/1 when n's value is a compile-time constant, -1 otherwise.
  // Folding is exact for fault-free nets; a fault forced onto a net whose
  // constant value some op consumed (kNetFoldedUse) makes the engine patch
  // every folded op back to its original slots for that batch.
  std::vector<std::int8_t> cval(num_nets, -1);
  for (const auto& [n, v] : nl.constants()) cval[static_cast<std::size_t>(n)] = static_cast<std::int8_t>(v);

  std::vector<Folded> fold(num_slots);
  const auto mark_folded_use = [&](Net n) {
    if (n != kNoNet) net_flags[static_cast<std::size_t>(n)] |= kNetFoldedUse;
  };
  for (std::size_t s = 0; s < num_slots; ++s) {
    const GateKind k = c.kind[s];
    const Net a = c.a[s], b = c.b[s], cc = c.c[s];
    const auto cv = [&](Net n) -> int {
      return n == kNoNet ? -1 : cval[static_cast<std::size_t>(n)];
    };
    Folded f;
    f.op = plain_op(k);
    f.a = a;
    f.b = (k == GateKind::Buf || k == GateKind::Not) ? kNoNet : b;
    f.c = k == GateKind::Mux ? cc : kNoNet;
    // const_of / copy_of / ncopy_of collapse the folded form; every original
    // operand not read by the new form gets kNetFoldedUse.
    const auto finish = [&](Folded nf) {
      nf.folded = true;
      for (const Net orig : {a, f.b, f.c})
        if (orig != kNoNet && orig != nf.a && orig != nf.b && orig != nf.c)
          mark_folded_use(orig);
      fold[s] = nf;
    };
    const auto const_of = [&](bool v) {
      finish(Folded{v ? Op::Const1 : Op::Const0});
      cval[static_cast<std::size_t>(c.out[s])] = v ? 1 : 0;
    };
    const auto copy_of = [&](Net n, bool neg) {
      if (cv(n) >= 0) {
        const_of((cv(n) != 0) != neg ? true : false);
        return;
      }
      Folded nf{neg ? Op::NCopy : Op::Copy};
      nf.a = n;
      finish(nf);
    };
    const auto two_of = [&](Op op, Net x, Net y) {
      Folded nf{op};
      nf.a = x;
      nf.b = y;
      finish(nf);
    };
    switch (k) {
      case GateKind::Buf:
        if (cv(a) >= 0) const_of(cv(a) != 0);
        else fold[s] = f;
        break;
      case GateKind::Not:
        if (cv(a) >= 0) const_of(cv(a) == 0);
        else fold[s] = f;
        break;
      case GateKind::And:
      case GateKind::Nand: {
        const bool neg = k == GateKind::Nand;
        if (cv(a) == 0 || cv(b) == 0) const_of(neg);
        else if (cv(a) == 1) copy_of(b, neg);
        else if (cv(b) == 1) copy_of(a, neg);
        else fold[s] = f;
        break;
      }
      case GateKind::Or:
      case GateKind::Nor: {
        const bool neg = k == GateKind::Nor;
        if (cv(a) == 1 || cv(b) == 1) const_of(!neg);
        else if (cv(a) == 0) copy_of(b, neg);
        else if (cv(b) == 0) copy_of(a, neg);
        else fold[s] = f;
        break;
      }
      case GateKind::Xor:
      case GateKind::Xnor: {
        const bool neg = k == GateKind::Xnor;
        if (cv(a) >= 0 && cv(b) >= 0) const_of(((cv(a) ^ cv(b)) != 0) != neg);
        else if (cv(a) >= 0) copy_of(b, (cv(a) != 0) != neg);
        else if (cv(b) >= 0) copy_of(a, (cv(b) != 0) != neg);
        else fold[s] = f;
        break;
      }
      case GateKind::Mux: {
        if (cv(a) == 0) copy_of(b, false);
        else if (cv(a) == 1) copy_of(cc, false);
        else if (cv(b) >= 0 && cv(c.c[s]) >= 0 && cv(b) == cv(cc))
          const_of(cv(b) != 0);
        else if (cv(b) == 0) two_of(Op::And, a, cc);  // (s&c) | (~s&0)
        else if (cv(cc) == 1) two_of(Op::Or, a, b);   // (s&1) | (~s&b)
        else fold[s] = f;
        break;
      }
      default:
        throw std::logic_error("GateProgram: unexpected slot kind");
    }
  }

  // ---- protected nets: classification/clock read these from val_ --------
  std::vector<std::uint8_t> prot(num_nets, 0);
  for (const PortBus& bus : nl.outputs())
    for (const Net n : bus.nets) prot[static_cast<std::size_t>(n)] = 1;
  for (std::size_t i = 0; i < c.dff_d.size(); ++i) {
    if (c.dff_d[i] != kNoNet) prot[static_cast<std::size_t>(c.dff_d[i])] = 1;
    if (c.dff_en[i] != kNoNet) prot[static_cast<std::size_t>(c.dff_en[i])] = 1;
  }

  // ---- pass 2: liveness over ORIGINAL operand edges ---------------------
  // Roots are the protected nets. Original (not folded) edges keep
  // derived-constant producers alive so per-batch patching can always
  // re-expand a folded op and find its operands materialized.
  std::vector<std::uint8_t> live = prot;
  for (std::size_t si = num_slots; si-- > 0;) {
    if (!live[static_cast<std::size_t>(c.out[si])]) continue;
    for (const Net n : {c.a[si], c.b[si], c.c[si]})
      if (n != kNoNet) live[static_cast<std::size_t>(n)] = 1;
  }

  // ---- pass 3: superop fusion (buf/not chains + two-level AND/OR) -------
  // eff[] starts as the folded form and is mutated in place as heads absorb
  // fanout-1 producers; absorbed[] accumulates each head's covered slots.
  std::vector<Folded> eff = fold;
  enum Role : std::uint8_t { kPlain, kInterior, kFuse2Head };
  std::vector<std::uint8_t> role(num_slots, kPlain);
  std::vector<std::vector<std::uint32_t>> absorbed(num_slots);
  struct Fuse2Parts {
    bool f1_or, f2_or, neg_mid, neg_out;
    Net pa, pb, c;
  };
  std::vector<Fuse2Parts> f2parts(num_slots);
  std::vector<std::uint32_t> interior_head(num_nets, kNoOp);  // net -> head slot

  const auto interior_slot = [&](Net n, auto&& op_ok) -> std::int64_t {
    // Returns the producing slot when `n` may be absorbed, else -1. Fanout
    // is counted per pin USE, so a fanout-1 net is read by exactly one pin
    // anywhere — absorbing it can never leave another operand dangling.
    if (n == kNoNet || prot[static_cast<std::size_t>(n)]) return -1;
    if (c.fanout_count(n) != 1) return -1;
    const std::uint32_t ps = c.slot_of[static_cast<std::size_t>(n)];
    if (ps == kNoSlot) return -1;  // source net
    if (role[ps] != kPlain) return -1;
    return op_ok(eff[ps].op) ? static_cast<std::int64_t>(ps) : -1;
  };
  const auto slot_ok_as_interior = [&](Net n) -> std::int64_t {
    return interior_slot(n, [](Op op) {
      switch (op) {
        case Op::Copy:
        case Op::NCopy:
        case Op::And:
        case Op::Or:
        case Op::Nand:
        case Op::Nor:
          return true;
        default:
          return false;  // Const/Xor/Xnor/Mux producers stay materialized
      }
    });
  };
  const auto absorb_cover = [&](std::size_t head, std::uint32_t ps) {
    // Re-point interiors of a swallowed chain head at their final head, so
    // head_of stays correct for per-batch patching of deep-chain fault sites.
    for (const std::uint32_t x : absorbed[ps]) {
      absorbed[head].push_back(x);
      interior_head[static_cast<std::size_t>(c.out[x])] =
          static_cast<std::uint32_t>(head);
    }
    absorbed[ps].clear();
    absorbed[head].push_back(ps);
    role[ps] = kInterior;
    interior_head[static_cast<std::size_t>(c.out[ps])] =
        static_cast<std::uint32_t>(head);
  };
  // Copy operand forwarding: absorb a fanout-1 Copy (or, when the consumer
  // can fold the inversion, NCopy) producer feeding operand `n` of `head`,
  // returning {source net, inverted?}. {n, false} when nothing to forward.
  const auto forward_operand = [&](std::size_t head, Net n,
                                   bool allow_neg) -> std::pair<Net, bool> {
    const std::int64_t psi = interior_slot(n, [&](Op op) {
      return op == Op::Copy || (allow_neg && op == Op::NCopy);
    });
    if (psi < 0) return {n, false};
    const auto ps = static_cast<std::size_t>(psi);
    const Folded& p = eff[ps];
    const bool neg = p.op == Op::NCopy;
    eff[head].folded = eff[head].folded || p.folded;
    absorb_cover(head, static_cast<std::uint32_t>(ps));
    return {p.a, neg};
  };

  for (std::size_t s = 0; s < num_slots; ++s) {
    if (!live[static_cast<std::size_t>(c.out[s])]) continue;
    Folded& e = eff[s];
    if (e.op == Op::Copy || e.op == Op::NCopy) {
      // Chain fusion: swallow a fanout-1 Copy/NCopy producer, accumulating
      // the inversion parity. Transitive because producers were processed
      // (and collapsed) first.
      const std::int64_t ps = slot_ok_as_interior(e.a);
      if (ps >= 0 && (eff[static_cast<std::size_t>(ps)].op == Op::Copy ||
                      eff[static_cast<std::size_t>(ps)].op == Op::NCopy)) {
        const Folded& p = eff[static_cast<std::size_t>(ps)];
        if (p.op == Op::NCopy) e.op = e.op == Op::Copy ? Op::NCopy : Op::Copy;
        e.a = p.a;
        e.folded = e.folded || p.folded;
        absorb_cover(s, static_cast<std::uint32_t>(ps));
      }
      continue;
    }
    if (e.op == Op::Xor || e.op == Op::Xnor) {
      // Xor-pair fusion: swallow one fanout-1 Xor/Xnor producer into
      // Xor3/Xnor3. Inversions compose by parity, so an Xnor at either
      // level only flips the fused opcode.
      for (const bool first : {true, false}) {
        const Net cand = first ? e.a : e.b;
        const std::int64_t psi = interior_slot(
            cand, [](Op op) { return op == Op::Xor || op == Op::Xnor; });
        if (psi < 0) continue;
        const auto ps = static_cast<std::size_t>(psi);
        const Folded& p = eff[ps];
        const bool neg = (e.op == Op::Xnor) != (p.op == Op::Xnor);
        const Net other = first ? e.b : e.a;
        e.op = neg ? Op::Xnor3 : Op::Xor3;
        e.a = p.a;
        e.b = p.b;
        e.c = other;
        e.folded = e.folded || p.folded;
        absorb_cover(s, static_cast<std::uint32_t>(ps));
        break;
      }
      // Copy/NCopy forwarding over whatever operands remain: an NCopy
      // folds into the opcode's parity, flipping Xor<->Xnor (or the 3-ary
      // forms).
      for (Net* n : {&e.a, &e.b, &e.c}) {
        if (*n == kNoNet) continue;
        const auto [src, neg] = forward_operand(s, *n, true);
        *n = src;
        if (neg) {
          switch (e.op) {
            case Op::Xor: e.op = Op::Xnor; break;
            case Op::Xnor: e.op = Op::Xor; break;
            case Op::Xor3: e.op = Op::Xnor3; break;
            default: e.op = Op::Xor3; break;  // Xnor3
          }
        }
      }
      continue;
    }
    if (e.op == Op::Mux) {
      // Select forwarding: a Copy forwards its source; an NCopy is folded
      // by swapping the data operands — Mux(~s, b, c) == Mux(s, c, b).
      {
        const auto [src, neg] = forward_operand(s, e.a, true);
        e.a = src;
        if (neg) std::swap(e.b, e.c);
      }
      // Data operands only absorb plain Copy chains (no inversion sink).
      for (Net* n : {&e.b, &e.c}) {
        const auto [src, neg] = forward_operand(s, *n, false);
        *n = src;
        (void)neg;
      }
      continue;
    }
    if (e.op != Op::And && e.op != Op::Or && e.op != Op::Nand &&
        e.op != Op::Nor)
      continue;
    // Two-level fusion: absorb one fanout-1 producer into a Fuse2 superop.
    for (const bool first : {true, false}) {
      const Net cand = first ? e.a : e.b;
      const std::int64_t psi = slot_ok_as_interior(cand);
      if (psi < 0) continue;
      const auto ps = static_cast<std::size_t>(psi);
      const Folded& p = eff[ps];
      Fuse2Parts parts{};
      switch (p.op) {
        case Op::And: parts = {false, false, false, false, p.a, p.b, kNoNet}; break;
        case Op::Or: parts = {true, false, false, false, p.a, p.b, kNoNet}; break;
        case Op::Nand: parts = {false, false, true, false, p.a, p.b, kNoNet}; break;
        case Op::Nor: parts = {true, false, true, false, p.a, p.b, kNoNet}; break;
        // And(x, x) == x carries a one-input producer through f1.
        case Op::Copy: parts = {false, false, false, false, p.a, p.a, kNoNet}; break;
        case Op::NCopy: parts = {false, false, true, false, p.a, p.a, kNoNet}; break;
        default: continue;
      }
      parts.f2_or = e.op == Op::Or || e.op == Op::Nor;
      parts.neg_out = e.op == Op::Nand || e.op == Op::Nor;
      parts.c = first ? e.b : e.a;
      e.op = fuse2_op(parts.f1_or, parts.f2_or, parts.neg_mid, parts.neg_out);
      e.folded = e.folded || p.folded;
      f2parts[s] = parts;
      role[s] = kFuse2Head;
      absorb_cover(s, static_cast<std::uint32_t>(ps));
      break;
    }
  }

  // ---- pass 4: emission -------------------------------------------------
  std::vector<std::uint32_t> op_of_slot(num_slots, kNoOp);
  fused.write_op.assign(num_nets, kNoOp);
  fused.storage_of.resize(num_nets);
  for (std::size_t n = 0; n < num_nets; ++n)
    fused.storage_of[n] = static_cast<std::uint32_t>(n);
  for (std::size_t s = 0; s < num_slots; ++s) {
    const Net out = c.out[s];
    if (role[s] == kInterior) {
      net_flags[static_cast<std::size_t>(out)] |= kNetInterior;
      ++fused_gates;
      continue;
    }
    if (!live[static_cast<std::size_t>(out)]) {
      net_flags[static_cast<std::size_t>(out)] |= kNetDead;
      ++dead_gates;
      continue;
    }
    const Folded& e = eff[s];
    Instr in;
    in.op = static_cast<std::uint32_t>(e.op);
    in.out = static_cast<std::uint32_t>(out);
    OpMeta m;
    m.out_net = out;
    m.level = c.level[static_cast<std::size_t>(out)];
    m.folded = e.folded;
    if (e.folded) ++folded_ops;
    if (role[s] == kFuse2Head) {
      const Fuse2Parts& parts = f2parts[s];
      m.src_a = parts.pa;
      m.src_b = parts.pb;
      m.src_c = parts.c;
    } else {
      m.src_a = e.a;
      m.src_b = e.b;
      m.src_c = e.c;
    }
    m.cover_begin = static_cast<std::uint32_t>(fused.cover.size());
    std::sort(absorbed[s].begin(), absorbed[s].end());
    for (const std::uint32_t x : absorbed[s]) fused.cover.push_back(x);
    fused.cover.push_back(static_cast<std::uint32_t>(s));
    m.cover_count = static_cast<std::uint32_t>(absorbed[s].size() + 1);
    op_of_slot[s] = static_cast<std::uint32_t>(fused.code.size());
    fused.write_op[static_cast<std::size_t>(out)] = op_of_slot[s];
    fused.code.push_back(in);
    fused.meta.push_back(std::move(m));
  }
  // ---- pass 4.5: opcode-major scheduling within levels -------------------
  // Ops of one level are independent by construction (every operand lives at
  // a strictly lower level), so they can execute in any order. Sorting each
  // level by opcode turns the interpreter's indirect dispatch into long
  // same-target runs the branch predictor resolves for free; ties keep
  // emission order, so the stream stays levelized and deterministic.
  {
    const std::size_t nops = fused.code.size();
    std::vector<std::uint32_t> perm(nops);
    for (std::size_t i = 0; i < nops; ++i)
      perm[i] = static_cast<std::uint32_t>(i);
    std::stable_sort(perm.begin(), perm.end(),
                     [&](std::uint32_t x, std::uint32_t y) {
                       if (fused.meta[x].level != fused.meta[y].level)
                         return fused.meta[x].level < fused.meta[y].level;
                       return fused.code[x].op < fused.code[y].op;
                     });
    std::vector<std::uint32_t> newpos(nops);
    for (std::size_t i = 0; i < nops; ++i) newpos[perm[i]] = static_cast<std::uint32_t>(i);
    std::vector<Instr> code2(nops);
    std::vector<OpMeta> meta2(nops);
    for (std::size_t i = 0; i < nops; ++i) {
      code2[i] = fused.code[perm[i]];
      meta2[i] = std::move(fused.meta[perm[i]]);
    }
    fused.code = std::move(code2);
    fused.meta = std::move(meta2);
    for (std::size_t n = 0; n < num_nets; ++n)
      if (fused.write_op[n] != kNoOp)
        fused.write_op[n] = newpos[fused.write_op[n]];
    for (std::size_t s = 0; s < num_slots; ++s)
      if (op_of_slot[s] != kNoOp) op_of_slot[s] = newpos[op_of_slot[s]];
  }

  // interior_head points at head SLOTS; resolve to op indices.
  for (std::size_t n = 0; n < num_nets; ++n)
    if (interior_head[n] != kNoOp) head_of[n] = op_of_slot[interior_head[n]];

  // ---- pass 5: virtual-register allocation ------------------------------
  // A fanout-1, unprotected net whose single consumer is a combinational op
  // is renamed to a register slot stored past the real nets, freeing its
  // cache line for reuse the moment the consumer has read it.
  {
    const std::size_t nops = fused.code.size();
    std::vector<std::uint32_t> consumer(nops, kNoOp);
    for (std::size_t i = 0; i < nops; ++i) {
      const Net n = fused.meta[i].out_net;
      if (prot[static_cast<std::size_t>(n)] || c.fanout_count(n) != 1)
        continue;
      const Net t = c.fanout(n)[0];
      if (c.dff_index[static_cast<std::size_t>(t)] >= 0) continue;
      std::uint32_t ts = c.slot_of[static_cast<std::size_t>(t)];
      if (ts == kNoSlot) continue;
      if (role[ts] == kInterior) ts = interior_head[static_cast<std::size_t>(t)];
      const std::uint32_t cop = op_of_slot[ts];
      if (cop == kNoOp || cop <= i) continue;
      consumer[i] = cop;
    }
    std::vector<std::vector<std::uint32_t>> free_at(nops);
    std::vector<std::uint32_t> free_regs;
    std::uint32_t next_reg = 0;
    for (std::size_t i = 0; i < nops; ++i) {
      for (const std::uint32_t r : free_at[i]) free_regs.push_back(r);
      if (consumer[i] == kNoOp) continue;
      std::uint32_t r;
      if (!free_regs.empty()) {
        r = free_regs.back();
        free_regs.pop_back();
      } else if (next_reg < kMaxVRegs) {
        r = next_reg++;
      } else {
        continue;
      }
      const Net n = fused.meta[i].out_net;
      fused.storage_of[static_cast<std::size_t>(n)] =
          static_cast<std::uint32_t>(num_nets) + r;
      net_flags[static_cast<std::size_t>(n)] |= kNetVreg;
      ++vreg_nets;
      free_at[consumer[i]].push_back(r);
    }
    fused.num_vregs = next_reg;
  }
  // Rewrite every instruction's storage indices through the final renaming.
  for (std::size_t i = 0; i < fused.code.size(); ++i) {
    Instr& in = fused.code[i];
    const OpMeta& m = fused.meta[i];
    const auto st = [&](Net n) -> std::uint32_t {
      return n == kNoNet ? 0 : fused.storage_of[static_cast<std::size_t>(n)];
    };
    in.a = st(m.src_a);
    in.b = st(m.src_b);
    in.c = st(m.src_c);
    in.out = st(m.out_net);
  }

  storage_size = num_nets + fused.num_vregs;

  // ---- stats + structure hash ------------------------------------------
  static obs::Counter& fused_ctr = obs::counter("gate.fused_gates");
  static obs::Counter& dead_ctr = obs::counter("gate.dead_gates");
  static obs::Counter& vreg_ctr = obs::counter("gate.vreg_nets");
  fused_ctr.add(fused_gates);
  dead_ctr.add(dead_gates);
  vreg_ctr.add(vreg_nets);

  Fnv h;
  h.add(kCodegenVersion);
  h.add(num_nets);
  h.add(num_slots);
  for (std::size_t s = 0; s < num_slots; ++s) {
    h.add(static_cast<std::uint64_t>(c.kind[s]));
    h.add(static_cast<std::uint64_t>(static_cast<std::uint32_t>(c.a[s])));
    h.add(static_cast<std::uint64_t>(static_cast<std::uint32_t>(c.b[s])));
    h.add(static_cast<std::uint64_t>(static_cast<std::uint32_t>(c.c[s])));
    h.add(static_cast<std::uint64_t>(static_cast<std::uint32_t>(c.out[s])));
  }
  for (std::size_t i = 0; i < c.dff_out.size(); ++i) {
    h.add(static_cast<std::uint64_t>(static_cast<std::uint32_t>(c.dff_out[i])));
    h.add(static_cast<std::uint64_t>(static_cast<std::uint32_t>(c.dff_d[i])));
    h.add(static_cast<std::uint64_t>(static_cast<std::uint32_t>(c.dff_en[i])));
  }
  for (const PortBus& bus : nl.outputs())
    for (const Net n : bus.nets)
      h.add(static_cast<std::uint64_t>(static_cast<std::uint32_t>(n)));
  struct_hash = h.h;
}

void expand_op(const GateProgram& gp, const Stream& st, std::uint32_t op_index,
               std::vector<Instr>& out_code, std::vector<OpMeta>& out_meta) {
  const OpMeta& m = st.meta[op_index];
  for (std::uint32_t i = 0; i < m.cover_count; ++i) {
    const std::uint32_t s = st.cover[m.cover_begin + i];
    Instr in = gp.full.code[s];
    const auto remap = [&](std::uint32_t net_idx) {
      return st.storage_of[net_idx];
    };
    // Interior nets of the covered cluster keep identity storage, so the
    // re-expanded chain wires up through val_ exactly like the full stream;
    // cluster inputs renamed to vregs elsewhere are followed to their slot.
    in.a = remap(in.a);
    in.b = remap(in.b);
    in.c = remap(in.c);
    in.out = remap(in.out);
    out_code.push_back(in);
    OpMeta em = gp.full.meta[s];
    out_meta.push_back(em);
  }
}

}  // namespace gpf::gate
