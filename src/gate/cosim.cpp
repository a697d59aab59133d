#include "gate/cosim.hpp"

namespace gpf::gate {

// ---------------------------------------------------------------------------
// DecoderCosim
// ---------------------------------------------------------------------------

struct DecoderCosim::Ports {
  const PortBus* instr;
  const PortBus* fetch_valid;
  const PortBus* valid;
  const PortBus* opcode;
  const PortBus* guard;
  const PortBus* guard_neg;
  const PortBus* use_imm;
  const PortBus* space;
  const PortBus* rd;
  const PortBus* rs1;
  const PortBus* rs2;
  const PortBus* rs3;
  const PortBus* imm;
};

DecoderCosim::DecoderCosim(unsigned sm, unsigned ppb)
    : sm_(sm), ppb_(ppb), nl_(build_decoder_unit()), sim_(*nl_),
      p_(std::make_unique<Ports>()) {
  p_->instr = nl_->find_input("instr");
  p_->fetch_valid = nl_->find_input("fetch_valid");
  p_->valid = nl_->find_output("valid");
  p_->opcode = nl_->find_output("opcode");
  p_->guard = nl_->find_output("guard_pred");
  p_->guard_neg = nl_->find_output("guard_neg");
  p_->use_imm = nl_->find_output("use_imm");
  p_->space = nl_->find_output("space");
  p_->rd = nl_->find_output("rd");
  p_->rs1 = nl_->find_output("rs1");
  p_->rs2 = nl_->find_output("rs2");
  p_->rs3 = nl_->find_output("rs3");
  p_->imm = nl_->find_output("imm");
}

DecoderCosim::~DecoderCosim() = default;

std::uint64_t DecoderCosim::post_fetch_word(arch::Gpu&, unsigned sm, unsigned ppb,
                                            unsigned, std::uint64_t word) {
  if (sm == sm_ && ppb == ppb_) {
    word_ = word;
    have_word_ = true;
  }
  return word;
}

void DecoderCosim::post_decode(arch::Gpu&, unsigned sm, unsigned ppb,
                               isa::Instruction& in, bool& ok) {
  if (sm != sm_ || ppb != ppb_ || !have_word_) return;
  have_word_ = false;
  sim_.set_bus(*p_->instr, word_);
  sim_.set_bus(*p_->fetch_valid, 1);
  sim_.eval();
  ++evals_;

  ok = sim_.bus_value(*p_->valid) != 0;
  if (!ok) return;
  in.op = static_cast<isa::Op>(sim_.bus_value(*p_->opcode));
  in.guard_pred = static_cast<std::uint8_t>(sim_.bus_value(*p_->guard));
  in.guard_neg = sim_.bus_value(*p_->guard_neg) != 0;
  in.use_imm = sim_.bus_value(*p_->use_imm) != 0;
  in.space = static_cast<isa::MemSpace>(sim_.bus_value(*p_->space));
  in.rd = static_cast<std::uint8_t>(sim_.bus_value(*p_->rd));
  in.rs1 = static_cast<std::uint8_t>(sim_.bus_value(*p_->rs1));
  if (in.use_imm) {
    in.imm = static_cast<std::uint32_t>(sim_.bus_value(*p_->imm));
    in.rs2 = 0;
    in.rs3 = 0;
  } else {
    in.rs2 = static_cast<std::uint8_t>(sim_.bus_value(*p_->rs2));
    in.rs3 = static_cast<std::uint8_t>(sim_.bus_value(*p_->rs3));
    in.imm = 0;
  }
  // A fault may fabricate a "valid" bundle from an invalid opcode pattern:
  // re-check the opcode against the ISA (the dispatcher would reject it).
  if (!isa::is_valid_opcode(static_cast<std::uint8_t>(in.op))) ok = false;
}

// ---------------------------------------------------------------------------
// FetchCosim
// ---------------------------------------------------------------------------

struct FetchCosim::Ports {
  const PortBus* sel_slot;
  const PortBus* sel_valid;
  const PortBus* instr_in;
  const PortBus* redirect_en;
  const PortBus* redirect_pc;
  const PortBus* pc_wr_en;
  const PortBus* init_en;
  const PortBus* init_slot;
  const PortBus* init_pc;
  const PortBus* pc_out;
  const PortBus* instr_out;
};

FetchCosim::FetchCosim(unsigned sm, unsigned ppb)
    : sm_(sm), ppb_(ppb), nl_(build_fetch_unit()), sim_(*nl_),
      p_(std::make_unique<Ports>()) {
  p_->sel_slot = nl_->find_input("sel_slot");
  p_->sel_valid = nl_->find_input("sel_valid");
  p_->instr_in = nl_->find_input("instr_in");
  p_->redirect_en = nl_->find_input("redirect_en");
  p_->redirect_pc = nl_->find_input("redirect_pc");
  p_->pc_wr_en = nl_->find_input("pc_wr_en");
  p_->init_en = nl_->find_input("init_en");
  p_->init_slot = nl_->find_input("init_slot");
  p_->init_pc = nl_->find_input("init_pc");
  p_->pc_out = nl_->find_output("pc_out");
  p_->instr_out = nl_->find_output("instr_out");
  sim_.reset();
}

FetchCosim::~FetchCosim() = default;

void FetchCosim::drive_write(std::uint8_t sel_slot, bool sel_valid,
                             bool redirect_en, std::uint32_t redirect_pc,
                             bool init_en, std::uint8_t init_slot,
                             std::uint32_t init_pc) {
  sim_.set_bus(*p_->sel_slot, sel_slot);
  sim_.set_bus(*p_->sel_valid, sel_valid);
  sim_.set_bus(*p_->redirect_en, redirect_en);
  sim_.set_bus(*p_->redirect_pc, redirect_pc);
  sim_.set_bus(*p_->pc_wr_en, sel_valid);
  sim_.set_bus(*p_->init_en, init_en);
  sim_.set_bus(*p_->init_slot, init_slot);
  sim_.set_bus(*p_->init_pc, init_pc);
  sim_.eval();
  sim_.clock();
}

int FetchCosim::post_select(arch::Gpu&, unsigned sm, unsigned ppb, int slot) {
  if (sm == sm_ && ppb == ppb_) cur_slot_ = slot;
  return slot;
}

std::uint32_t FetchCosim::post_fetch_pc(arch::Gpu&, unsigned sm, unsigned ppb,
                                        unsigned slot, std::uint32_t pc) {
  if (sm != sm_ || ppb != ppb_ || static_cast<int>(slot) != cur_slot_) return pc;
  // External redirect (CTA init / reconvergence pop): write the PC register.
  if (pc_shadow_[slot & 7] != pc) {
    drive_write(0, false, false, 0, true, static_cast<std::uint8_t>(slot & 7), pc);
    pc_shadow_[slot & 7] = pc;
  }
  // Combinational read of the (possibly faulty) PC bank.
  sim_.set_bus(*p_->sel_slot, slot & 7);
  sim_.set_bus(*p_->sel_valid, 1);
  sim_.set_bus(*p_->init_en, 0);
  sim_.set_bus(*p_->pc_wr_en, 0);
  sim_.eval();
  cur_pc_ = static_cast<std::uint32_t>(sim_.bus_value(*p_->pc_out));
  return cur_pc_;
}

std::uint64_t FetchCosim::post_fetch_word(arch::Gpu&, unsigned sm, unsigned ppb,
                                          unsigned slot, std::uint64_t word) {
  if (sm != sm_ || ppb != ppb_ || static_cast<int>(slot) != cur_slot_) return word;
  // The fetched word travels through the instruction bus fabric.
  sim_.set_bus(*p_->instr_in, word);
  sim_.eval();
  return sim_.bus_value(*p_->instr_out);
}

void FetchCosim::post_execute(arch::ExecCtx& ctx) {
  if (ctx.sm_id != sm_ || ctx.ppb_id != ppb_) return;
  if (static_cast<int>(ctx.warp().slot) != cur_slot_ || cur_slot_ < 0) return;
  const arch::Warp& w = ctx.warp();
  const std::uint32_t next = w.done ? cur_pc_ + 1 : w.pc();
  const bool redirect = next != cur_pc_ + 1;
  drive_write(static_cast<std::uint8_t>(cur_slot_ & 7), true, redirect, next,
              false, 0, 0);
  pc_shadow_[cur_slot_ & 7] = static_cast<std::uint32_t>(
      [&] {
        // What the netlist actually latched (the fault may corrupt it).
        sim_.set_bus(*p_->sel_slot, cur_slot_ & 7);
        sim_.set_bus(*p_->sel_valid, 1);
        sim_.set_bus(*p_->pc_wr_en, 0);
        sim_.eval();
        return sim_.bus_value(*p_->pc_out);
      }());
  cur_slot_ = -1;
}

}  // namespace gpf::gate

namespace gpf::gate {

// ---------------------------------------------------------------------------
// WscCosim
// ---------------------------------------------------------------------------

struct WscCosim::Ports {
  const PortBus* wr_slot;
  const PortBus* wr_state_en;
  const PortBus* wr_valid;
  const PortBus* wr_done;
  const PortBus* wr_barrier;
  const PortBus* wr_mask_en;
  const PortBus* wr_mask;
  const PortBus* wr_base_en;
  const PortBus* wr_base;
  const PortBus* wr_cta_en;
  const PortBus* wr_cta;
  const PortBus* lane_cfg_en;
  const PortBus* lane_cfg;
  const PortBus* barrier_release;
  const PortBus* ibuf_en;
  const PortBus* ibuf_in;
  const PortBus* issue_en;
  const PortBus* sel_slot;
  const PortBus* sel_valid;
  const PortBus* active_lanes;
  const PortBus* dispatch;
};

WscCosim::WscCosim(unsigned sm, unsigned ppb)
    : sm_(sm), ppb_(ppb), nl_(build_wsc_unit()), sim_(*nl_),
      p_(std::make_unique<Ports>()) {
  p_->wr_slot = nl_->find_input("wr_slot");
  p_->wr_state_en = nl_->find_input("wr_state_en");
  p_->wr_valid = nl_->find_input("wr_valid");
  p_->wr_done = nl_->find_input("wr_done");
  p_->wr_barrier = nl_->find_input("wr_barrier");
  p_->wr_mask_en = nl_->find_input("wr_mask_en");
  p_->wr_mask = nl_->find_input("wr_mask");
  p_->wr_base_en = nl_->find_input("wr_base_en");
  p_->wr_base = nl_->find_input("wr_base");
  p_->wr_cta_en = nl_->find_input("wr_cta_en");
  p_->wr_cta = nl_->find_input("wr_cta");
  p_->lane_cfg_en = nl_->find_input("lane_cfg_en");
  p_->lane_cfg = nl_->find_input("lane_cfg");
  p_->barrier_release = nl_->find_input("barrier_release");
  p_->ibuf_en = nl_->find_input("ibuf_en");
  p_->ibuf_in = nl_->find_input("ibuf_in");
  p_->issue_en = nl_->find_input("issue_en");
  p_->sel_slot = nl_->find_output("sel_slot");
  p_->sel_valid = nl_->find_output("sel_valid");
  p_->active_lanes = nl_->find_output("active_lanes");
  p_->dispatch = nl_->find_output("dispatch");
  sim_.reset();
}

WscCosim::~WscCosim() = default;

void WscCosim::drive_defaults() {
  sim_.set_bus(*p_->wr_slot, 0);
  sim_.set_bus(*p_->wr_state_en, 0);
  sim_.set_bus(*p_->wr_valid, 0);
  sim_.set_bus(*p_->wr_done, 0);
  sim_.set_bus(*p_->wr_barrier, 0);
  sim_.set_bus(*p_->wr_mask_en, 0);
  sim_.set_bus(*p_->wr_mask, 0);
  sim_.set_bus(*p_->wr_base_en, 0);
  sim_.set_bus(*p_->wr_base, 0);
  sim_.set_bus(*p_->wr_cta_en, 0);
  sim_.set_bus(*p_->wr_cta, 0);
  sim_.set_bus(*p_->lane_cfg_en, 0);
  sim_.set_bus(*p_->lane_cfg, 0);
  sim_.set_bus(*p_->barrier_release, 0);
  sim_.set_bus(*p_->ibuf_en, 0);
  sim_.set_bus(*p_->ibuf_in, 0);
  sim_.set_bus(*p_->issue_en, 0);
}

void WscCosim::write_cycle(const std::function<void()>& set_fields) {
  drive_defaults();
  set_fields();
  sim_.eval();
  sim_.clock();
}

void WscCosim::sync_state(arch::Gpu& gpu, unsigned sm, unsigned ppb) {
  if (!lane_cfg_written_) {
    write_cycle([&] {
      sim_.set_bus(*p_->lane_cfg_en, 1);
      sim_.set_bus(*p_->lane_cfg, 0xFFFFFFFFu);
    });
    lane_cfg_written_ = true;
  }
  arch::Ppb& pb = gpu.sm(sm).ppbs[ppb];
  for (unsigned s = 0; s < 8 && s < pb.warps.size(); ++s) {
    const arch::Warp& w = pb.warps[s];
    WarpShadow& sh = shadow_[s];
    const bool valid = w.valid;
    const bool done = w.done || !w.valid;
    const bool barrier = w.at_barrier;
    const std::uint32_t mask = w.active_mask();
    if (sh.valid != valid || sh.done != done || sh.barrier != barrier) {
      write_cycle([&] {
        sim_.set_bus(*p_->wr_slot, s);
        sim_.set_bus(*p_->wr_state_en, 1);
        sim_.set_bus(*p_->wr_valid, valid);
        sim_.set_bus(*p_->wr_done, done);
        sim_.set_bus(*p_->wr_barrier, barrier);
      });
      sh.valid = valid;
      sh.done = done;
      sh.barrier = barrier;
    }
    if (valid && sh.mask != mask) {
      write_cycle([&] {
        sim_.set_bus(*p_->wr_slot, s);
        sim_.set_bus(*p_->wr_mask_en, 1);
        sim_.set_bus(*p_->wr_mask, mask);
      });
      sh.mask = mask;
    }
  }
}

void WscCosim::on_launch_begin(arch::Gpu&, const isa::Program&) {
  // The functional launcher resets its scheduler state per launch; mirror
  // that (a fresh kernel reinitializes the warp table and pointer).
  sim_.reset();
  shadow_ = {};
  lane_cfg_written_ = false;
  issue_slot_ = -1;
  issued_ = false;
}

void WscCosim::pre_cycle(arch::Gpu& gpu, unsigned sm, unsigned ppb) {
  if (sm != sm_ || ppb != ppb_) return;
  sync_state(gpu, sm, ppb);
}

int WscCosim::post_select(arch::Gpu&, unsigned sm, unsigned ppb, int slot) {
  if (sm != sm_ || ppb != ppb_) return slot;
  issued_ = false;
  issue_slot_ = -1;
  // Issue read: the netlist's arbiter decides (combinational; the pointer is
  // clocked at post_execute once the issue completes).
  drive_defaults();
  sim_.set_bus(*p_->issue_en, 1);
  sim_.eval();
  const bool sel_valid = sim_.bus_value(*p_->sel_valid) != 0;
  if (!sel_valid) return -1;
  const int netlist_slot = static_cast<int>(sim_.bus_value(*p_->sel_slot));
  issue_active_ = static_cast<std::uint32_t>(sim_.bus_value(*p_->active_lanes));
  issue_slot_ = netlist_slot;
  (void)slot;
  return netlist_slot;
}

std::uint64_t WscCosim::post_fetch_word(arch::Gpu&, unsigned sm, unsigned ppb,
                                        unsigned slot, std::uint64_t word) {
  if (sm != sm_ || ppb != ppb_ || static_cast<int>(slot) != issue_slot_) return word;
  // The instruction flows through the dispatch buffer (combinational bypass).
  sim_.set_bus(*p_->ibuf_en, 1);
  sim_.set_bus(*p_->ibuf_in, word);
  sim_.eval();
  return sim_.bus_value(*p_->dispatch);
}

void WscCosim::pre_execute(arch::ExecCtx& ctx) {
  if (ctx.sm_id != sm_ || ctx.ppb_id != ppb_) return;
  if (static_cast<int>(ctx.warp().slot) != issue_slot_) return;
  // Reconvergence pops between scheduling and execution update the WSC's
  // stored mask (the stack unit writes it back); resynchronize and re-read.
  const std::uint32_t active = ctx.warp().active_mask();
  const unsigned s = ctx.warp().slot & 7;
  if (shadow_[s].mask != active) {
    write_cycle([&] {
      sim_.set_bus(*p_->wr_slot, s);
      sim_.set_bus(*p_->wr_mask_en, 1);
      sim_.set_bus(*p_->wr_mask, active);
    });
    shadow_[s].mask = active;
    drive_defaults();
    sim_.set_bus(*p_->issue_en, 1);
    sim_.eval();
    issue_active_ = static_cast<std::uint32_t>(sim_.bus_value(*p_->active_lanes));
  }
  // Dispatch mask: lanes the (possibly faulty) WSC actually enables. Lanes
  // the netlist enables beyond the architectural active set execute too.
  ctx.exec_mask = (ctx.exec_mask & issue_active_) | (issue_active_ & ~active);
  issued_ = true;
}

void WscCosim::post_execute(arch::ExecCtx& ctx) {
  if (ctx.sm_id != sm_ || ctx.ppb_id != ppb_ || !issued_) return;
  if (static_cast<int>(ctx.warp().slot) != issue_slot_) return;
  // Commit the issue: advance the rotating pointer (and latch the ibuf).
  drive_defaults();
  sim_.set_bus(*p_->issue_en, 1);
  sim_.set_bus(*p_->ibuf_en, 1);
  sim_.eval();
  sim_.clock();
  issued_ = false;
  issue_slot_ = -1;
}

}  // namespace gpf::gate
