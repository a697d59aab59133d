#include "gate/units.hpp"

#include <mutex>
#include <stdexcept>

#include "gate/wordops.hpp"
#include "isa/encoding.hpp"

namespace gpf::gate {

const char* unit_name(UnitKind u) {
  switch (u) {
    case UnitKind::Decoder: return "Decoder";
    case UnitKind::Fetch: return "Fetch";
    case UnitKind::WSC: return "WSC";
  }
  return "?";
}

namespace {

Word bufs(WordOps& w, const Word& in) {
  Word out(in.size());
  for (std::size_t i = 0; i < in.size(); ++i) out[i] = w.netlist().buf(in[i]);
  return out;
}

/// OR of eq-comparators against each opcode in `ops`.
Net any_opcode(WordOps& w, const Word& opcode, std::initializer_list<isa::Op> ops) {
  Net acc = w.netlist().constant(false);
  for (isa::Op op : ops)
    acc = w.netlist().or_(acc, w.eq_const(opcode, static_cast<std::uint64_t>(op)));
  return acc;
}

}  // namespace

std::unique_ptr<Netlist> build_decoder_unit() {
  auto nl = std::make_unique<Netlist>();
  WordOps w(*nl);
  using isa::Op;
  namespace fld = isa::field;

  Word instr = w.inputs(64);
  Net fetch_valid = nl->input();
  nl->add_input_bus("instr", instr);
  nl->add_input_bus("fetch_valid", {fetch_valid});

  // Field extraction runs through buffer cells: the wiring fabric whose
  // stuck-at faults corrupt individual decoded field bits.
  const Word opcode = bufs(w, w.slice(instr, fld::kOpcodeLo, fld::kOpcodeW));
  const Word guard = bufs(w, w.slice(instr, fld::kPredLo, fld::kPredW));
  const Net guard_neg = nl->buf(instr[fld::kPredNeg]);
  const Net use_imm = nl->buf(instr[fld::kFlagImm]);
  const Word space = bufs(w, w.slice(instr, fld::kFlagSpaceLo, fld::kFlagSpaceW));
  const Word rd = bufs(w, w.slice(instr, fld::kRdLo, fld::kRdW));
  const Word rs1 = bufs(w, w.slice(instr, fld::kRs1Lo, fld::kRs1W));
  const Net not_imm = nl->not_(use_imm);
  const Word rs2 = w.and_bit(bufs(w, w.slice(instr, fld::kRs2Lo, fld::kRs2W)), not_imm);
  const Word rs3 = w.and_bit(bufs(w, w.slice(instr, fld::kRs3Lo, fld::kRs3W)), not_imm);
  const Word imm = w.and_bit(bufs(w, w.slice(instr, fld::kImmLo, fld::kImmW)), use_imm);

  // Opcode validity: one comparator per defined opcode, OR-reduced — this is
  // the structure a synthesized opcode ROM/decode PLA collapses to.
  Net known = nl->constant(false);
  for (int raw = 0; raw < 256; ++raw)
    if (isa::is_valid_opcode(static_cast<std::uint8_t>(raw)))
      known = nl->or_(known, w.eq_const(opcode, static_cast<std::uint64_t>(raw)));
  const Net valid = nl->and_(fetch_valid, known);

  const Net is_int = any_opcode(w, opcode,
      {Op::IADD, Op::ISUB, Op::IMUL, Op::IMAD, Op::IMIN, Op::IMAX, Op::IABS,
       Op::SHL, Op::SHR, Op::SHRA, Op::LOP_AND, Op::LOP_OR, Op::LOP_XOR,
       Op::LOP_NOT, Op::ISETP_LT, Op::ISETP_LE, Op::ISETP_GT, Op::ISETP_GE,
       Op::ISETP_EQ, Op::ISETP_NE, Op::ISETP_LTU, Op::ISETP_GEU});
  const Net is_fp32 = any_opcode(w, opcode,
      {Op::FADD, Op::FMUL, Op::FFMA, Op::FMIN, Op::FMAX, Op::F2I, Op::I2F,
       Op::FSETP_LT, Op::FSETP_LE, Op::FSETP_GT, Op::FSETP_GE, Op::FSETP_EQ,
       Op::FSETP_NE});
  const Net is_sfu =
      any_opcode(w, opcode, {Op::FSIN, Op::FEXP, Op::FRCP, Op::FSQRT, Op::FLG2});
  const Net is_load = any_opcode(w, opcode, {Op::LD});
  const Net is_store = any_opcode(w, opcode, {Op::ST});
  const Net is_mem = nl->or_(is_load, is_store);

  // Memory-resource selection stage: the decoder resolves the space field
  // into per-space read/write enables (global / shared / const / local),
  // a bank of gates whose faults misdirect operand loads (IMS) and result
  // stores (IMD) — a large decoder error class in the paper.
  const Word space_onehot = w.decode_onehot(space);
  Word rd_en(4), wr_en(4);
  for (unsigned sp = 0; sp < 4; ++sp) {
    rd_en[sp] = nl->buf(nl->and_(nl->and_(space_onehot[sp], is_load),
                                 nl->buf(space_onehot[sp])));
    wr_en[sp] = nl->buf(nl->and_(nl->and_(space_onehot[sp], is_store),
                                 nl->buf(space_onehot[sp])));
  }
  const Net is_branch = any_opcode(w, opcode, {Op::BRA});
  const Net is_ssy = any_opcode(w, opcode, {Op::SSY});
  const Net is_bar = any_opcode(w, opcode, {Op::BAR});
  const Net is_exit = any_opcode(w, opcode, {Op::EXIT});
  const Net is_s2r = any_opcode(w, opcode, {Op::S2R});
  const Net writes_pred = any_opcode(w, opcode,
      {Op::ISETP_LT, Op::ISETP_LE, Op::ISETP_GT, Op::ISETP_GE, Op::ISETP_EQ,
       Op::ISETP_NE, Op::ISETP_LTU, Op::ISETP_GEU, Op::FSETP_LT, Op::FSETP_LE,
       Op::FSETP_GT, Op::FSETP_GE, Op::FSETP_EQ, Op::FSETP_NE});

  nl->add_output_bus("valid", {valid});
  nl->add_output_bus("opcode", opcode);
  nl->add_output_bus("guard_pred", guard);
  nl->add_output_bus("guard_neg", {guard_neg});
  nl->add_output_bus("use_imm", {use_imm});
  nl->add_output_bus("space", space);
  nl->add_output_bus("rd", rd);
  nl->add_output_bus("rs1", rs1);
  nl->add_output_bus("rs2", rs2);
  nl->add_output_bus("rs3", rs3);
  nl->add_output_bus("imm", imm);
  nl->add_output_bus("is_int", {is_int});
  nl->add_output_bus("is_fp32", {is_fp32});
  nl->add_output_bus("is_sfu", {is_sfu});
  nl->add_output_bus("is_mem", {is_mem});
  nl->add_output_bus("is_store", {is_store});
  nl->add_output_bus("is_branch", {is_branch});
  nl->add_output_bus("is_ssy", {is_ssy});
  nl->add_output_bus("is_bar", {is_bar});
  nl->add_output_bus("is_exit", {is_exit});
  nl->add_output_bus("writes_pred", {writes_pred});
  nl->add_output_bus("is_s2r", {is_s2r});
  nl->add_output_bus("mem_rd_en", rd_en);
  nl->add_output_bus("mem_wr_en", wr_en);
  nl->finalize();
  return nl;
}

std::unique_ptr<Netlist> build_fetch_unit() {
  auto nl = std::make_unique<Netlist>();
  WordOps w(*nl);

  Word sel_slot = w.inputs(3);
  Net sel_valid = nl->input();
  Word instr_in = w.inputs(64);
  Net redirect_en = nl->input();
  Word redirect_pc = w.inputs(kPcBits);
  Net pc_wr_en = nl->input();
  Net init_en = nl->input();
  Word init_slot = w.inputs(3);
  Word init_pc = w.inputs(kPcBits);
  nl->add_input_bus("sel_slot", sel_slot);
  nl->add_input_bus("sel_valid", {sel_valid});
  nl->add_input_bus("instr_in", instr_in);
  nl->add_input_bus("redirect_en", {redirect_en});
  nl->add_input_bus("redirect_pc", redirect_pc);
  nl->add_input_bus("pc_wr_en", {pc_wr_en});
  nl->add_input_bus("init_en", {init_en});
  nl->add_input_bus("init_slot", init_slot);
  nl->add_input_bus("init_pc", init_pc);

  // Warp-select lines travel through buffers (internal wiring fault sites —
  // a stuck select bit fetches another warp's PC: the IAW mechanism).
  const Word sel_buf = bufs(w, sel_slot);

  // Per-warp PC register bank with late-bound D inputs (feedback loop).
  std::vector<Word> pcs(kUnitWarps);
  for (unsigned i = 0; i < kUnitWarps; ++i) {
    pcs[i].resize(kPcBits);
    for (unsigned b = 0; b < kPcBits; ++b) pcs[i][b] = nl->dff();
  }

  const Word pc_out = bufs(w, w.mux_tree(sel_buf, pcs));
  const Word inc = w.increment(pc_out);
  const Word next_pc = w.mux(redirect_en, inc, redirect_pc);
  const Word wr_data = w.mux(init_en, next_pc, init_pc);
  const Word wr_slot = w.mux(init_en, sel_buf, init_slot);
  const Word wr_onehot = w.decode_onehot(wr_slot);
  const Net wr_en = nl->or_(nl->and_(sel_valid, pc_wr_en), init_en);
  for (unsigned i = 0; i < kUnitWarps; ++i) {
    const Net en_i = nl->and_(wr_en, wr_onehot[i]);
    for (unsigned b = 0; b < kPcBits; ++b)
      nl->set_dff_input(pcs[i][b], wr_data[b], en_i);
  }

  // Instruction bus: the fetched word passes through the instruction buffer
  // fabric (buffer cells) — faults here corrupt the machine word itself.
  const Word instr_out = bufs(w, instr_in);
  const Net fetch_valid = nl->buf(sel_valid);

  nl->add_output_bus("pc_out", pc_out);
  nl->add_output_bus("instr_out", instr_out);
  nl->add_output_bus("fetch_valid", {fetch_valid});
  nl->finalize();
  return nl;
}

std::unique_ptr<Netlist> build_wsc_unit() {
  auto nl = std::make_unique<Netlist>();
  WordOps w(*nl);

  Word wr_slot = w.inputs(3);
  Net wr_state_en = nl->input();
  Net wr_valid = nl->input();
  Net wr_done = nl->input();
  Net wr_barrier = nl->input();
  Net wr_mask_en = nl->input();
  Word wr_mask = w.inputs(32);
  Net wr_base_en = nl->input();
  Word wr_base = w.inputs(8);
  Net wr_cta_en = nl->input();
  Word wr_cta = w.inputs(4);
  Net lane_cfg_en = nl->input();
  Word lane_cfg_in = w.inputs(32);
  Net barrier_release = nl->input();
  Net ibuf_en = nl->input();
  Word ibuf_in = w.inputs(64);
  Net issue_en = nl->input();
  nl->add_input_bus("wr_slot", wr_slot);
  nl->add_input_bus("wr_state_en", {wr_state_en});
  nl->add_input_bus("wr_valid", {wr_valid});
  nl->add_input_bus("wr_done", {wr_done});
  nl->add_input_bus("wr_barrier", {wr_barrier});
  nl->add_input_bus("wr_mask_en", {wr_mask_en});
  nl->add_input_bus("wr_mask", wr_mask);
  nl->add_input_bus("wr_base_en", {wr_base_en});
  nl->add_input_bus("wr_base", wr_base);
  nl->add_input_bus("wr_cta_en", {wr_cta_en});
  nl->add_input_bus("wr_cta", wr_cta);
  nl->add_input_bus("lane_cfg_en", {lane_cfg_en});
  nl->add_input_bus("lane_cfg", lane_cfg_in);
  nl->add_input_bus("barrier_release", {barrier_release});
  nl->add_input_bus("ibuf_en", {ibuf_en});
  nl->add_input_bus("ibuf_in", ibuf_in);
  nl->add_input_bus("issue_en", {issue_en});

  const Word wr_onehot = w.decode_onehot(wr_slot);

  // Warp state table.
  std::vector<Net> valid_q(kUnitWarps), done_q(kUnitWarps), barrier_q(kUnitWarps);
  std::vector<Word> mask_q(kUnitWarps), base_q(kUnitWarps), cta_q(kUnitWarps);
  for (unsigned i = 0; i < kUnitWarps; ++i) {
    const Net wr_i = nl->and_(wr_state_en, wr_onehot[i]);
    valid_q[i] = nl->dff(wr_valid, wr_i);
    done_q[i] = nl->dff(wr_done, wr_i);
    // Barrier bit: set/cleared by state writes, force-cleared on release.
    const Net bar_d = nl->mux(barrier_release, wr_barrier, nl->constant(false));
    barrier_q[i] = nl->dff(bar_d, nl->or_(wr_i, barrier_release));

    const Net wm_i = nl->and_(wr_mask_en, wr_onehot[i]);
    mask_q[i].resize(32);
    for (unsigned b = 0; b < 32; ++b) mask_q[i][b] = nl->dff(wr_mask[b], wm_i);

    const Net wb_i = nl->and_(wr_base_en, wr_onehot[i]);
    base_q[i].resize(8);
    for (unsigned b = 0; b < 8; ++b) base_q[i][b] = nl->dff(wr_base[b], wb_i);

    const Net wc_i = nl->and_(wr_cta_en, wr_onehot[i]);
    cta_q[i].resize(4);
    for (unsigned b = 0; b < 4; ++b) cta_q[i][b] = nl->dff(wr_cta[b], wc_i);
  }

  // Lane-enable configuration register (normally all ones).
  Word lane_cfg(32);
  for (unsigned b = 0; b < 32; ++b) lane_cfg[b] = nl->dff(lane_cfg_in[b], lane_cfg_en);

  // Ready lines and the rotating-priority arbiter.
  Word ready(kUnitWarps);
  for (unsigned i = 0; i < kUnitWarps; ++i)
    ready[i] = nl->and_(valid_q[i], nl->and_(nl->not_(done_q[i]), nl->not_(barrier_q[i])));

  Word rr_ptr(3);
  for (unsigned b = 0; b < 3; ++b) rr_ptr[b] = nl->dff();
  const WordOps::Arbiter arb = w.rr_arbiter(ready, rr_ptr);
  const Word sel_slot = w.encode_priority(arb.grant_onehot, 3);
  const Net sel_valid = arb.any;

  // Pointer advances past the granted slot on every issue cycle.
  const Word ptr_next = w.increment(sel_slot);
  const Net ptr_en = nl->and_(sel_valid, issue_en);
  for (unsigned b = 0; b < 3; ++b) nl->set_dff_input(rr_ptr[b], ptr_next[b], ptr_en);

  // Output muxes for the selected warp's state.
  const Word mask_out = bufs(w, w.mux_tree(sel_slot, mask_q));
  const Word lane_en = bufs(w, lane_cfg);
  const Word active_lanes = w.and_(mask_out, lane_en);
  const Word base_out = bufs(w, w.mux_tree(sel_slot, base_q));
  const Word cta_out = bufs(w, w.mux_tree(sel_slot, cta_q));

  // Dispatch instruction buffer: the instruction the WSC is issuing travels
  // through this stage (flow-through register with bypass). Faults here give
  // the scheduler its IOC/IRA/IVRA error population, exactly as the paper
  // observes for the WSC.
  Word ibuf_q(64);
  for (unsigned b = 0; b < 64; ++b) ibuf_q[b] = nl->dff(ibuf_in[b], ibuf_en);
  const Word dispatch = bufs(w, w.mux(ibuf_en, ibuf_q, ibuf_in));

  nl->add_output_bus("sel_slot", sel_slot);
  nl->add_output_bus("sel_valid", {sel_valid});
  nl->add_output_bus("mask_out", mask_out);
  nl->add_output_bus("lane_en", lane_en);
  nl->add_output_bus("active_lanes", active_lanes);
  nl->add_output_bus("base_out", base_out);
  nl->add_output_bus("cta_out", cta_out);
  nl->add_output_bus("dispatch", dispatch);
  nl->finalize();
  return nl;
}

std::unique_ptr<Netlist> build_fp32_core() {
  auto nl = std::make_unique<Netlist>();
  WordOps w(*nl);

  Word a = w.inputs(32), b = w.inputs(32), c = w.inputs(32);
  nl->add_input_bus("a", a);
  nl->add_input_bus("b", b);
  nl->add_input_bus("c", c);

  // Unpack mantissas with hidden bits.
  Word ma = w.slice(a, 0, 23);
  ma.push_back(nl->constant(true));
  Word mb = w.slice(b, 0, 23);
  mb.push_back(nl->constant(true));
  Word mc = w.slice(c, 0, 23);
  mc.push_back(nl->constant(true));
  const Word ea = w.slice(a, 23, 8), eb = w.slice(b, 23, 8), ec = w.slice(c, 23, 8);

  // 24x24 multiplier as a shift-add array (the structure a synthesized
  // array multiplier flattens to).
  Word prod = w.constant(0, 48);
  for (unsigned i = 0; i < 24; ++i) {
    Word partial = w.constant(0, 48);
    for (unsigned j = 0; j < 24; ++j)
      partial[i + j] = nl->and_(ma[j], mb[i]);
    prod = w.add(prod, partial);
  }

  // Exponent datapath: ea + eb and alignment distance vs ec.
  const Word esum = w.add(ea, eb, kNoNet, true);
  Word ecx = ec;
  ecx.push_back(nl->constant(false));
  const Word ediff = w.add(esum, w.not_(ecx), nl->constant(true));

  // Alignment barrel shifter for the addend (6 mux stages over 48 bits).
  Word addend = mc;
  addend.resize(48, nl->constant(false));
  for (unsigned s = 0; s < 6; ++s) {
    Word shifted(48);
    const unsigned k = 1u << s;
    for (unsigned i = 0; i < 48; ++i)
      shifted[i] = i + k < 48 ? addend[i + k] : nl->constant(false);
    addend = w.mux(ediff[s], addend, shifted);
  }

  // Wide significand adder and normalization (priority select + shifter).
  const Word sum = w.add(prod, addend, kNoNet, true);
  Word norm = w.slice(sum, 0, 48);
  for (unsigned s = 0; s < 6; ++s) {
    Word shifted(48);
    const unsigned k = 1u << s;
    for (unsigned i = 0; i < 48; ++i)
      shifted[i] = i >= k ? norm[i - k] : nl->constant(false);
    norm = w.mux(norm[47 - (1u << s) % 48], norm, shifted);
  }

  // Round-to-nearest incrementer and result pack.
  const Word mant = w.slice(norm, 24, 24);
  const Word rounded = w.add(mant, w.constant(0, 23), norm[23], true);
  Word result(32);
  for (unsigned i = 0; i < 23; ++i) result[i] = nl->buf(rounded[i]);
  for (unsigned i = 0; i < 8; ++i) result[23 + i] = nl->buf(esum[i]);
  result[31] = nl->xor_(a[31], b[31]);
  nl->add_output_bus("result", result);
  nl->finalize();
  return nl;
}

std::unique_ptr<Netlist> build_unit(UnitKind u) {
  switch (u) {
    case UnitKind::Decoder: return build_decoder_unit();
    case UnitKind::Fetch: return build_fetch_unit();
    case UnitKind::WSC: return build_wsc_unit();
  }
  return nullptr;
}

std::shared_ptr<const Netlist> unit_netlist(UnitKind u) {
  static std::once_flag once[3];
  static std::shared_ptr<const Netlist> nl[3];
  const auto i = static_cast<std::size_t>(u);
  if (i >= 3) throw std::invalid_argument("unit_netlist: unknown unit");
  std::call_once(once[i], [&] { nl[i] = build_unit(u); });
  return nl[i];
}

}  // namespace gpf::gate
