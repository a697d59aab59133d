#include "gate/replay.hpp"

#include <algorithm>
#include <bit>
#include <numeric>
#include <stdexcept>

#include "common/rng.hpp"
#include "gate/batchsim.hpp"
#include "gate/compiled.hpp"
#include "gate/gateprog.hpp"
#include "isa/encoding.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace gpf::gate {

using errmodel::ErrorModel;

const char* fault_class_name(FaultClass c) {
  switch (c) {
    case FaultClass::Uncontrollable: return "uncontrollable";
    case FaultClass::Masked: return "hw-masked";
    case FaultClass::Hang: return "hw-hang";
    case FaultClass::SwError: return "sw-error";
  }
  return "?";
}

std::size_t UnitCampaignResult::count_class(FaultClass c) const {
  std::size_t n = 0;
  for (const auto& f : faults)
    if (f.cls() == c) ++n;
  return n;
}

std::size_t UnitCampaignResult::faults_with_model(ErrorModel m) const {
  std::size_t n = 0;
  for (const auto& f : faults)
    if (f.error_counts[static_cast<unsigned>(m)]) ++n;
  return n;
}

std::uint64_t UnitCampaignResult::occurrences_of_model(ErrorModel m) const {
  std::uint64_t n = 0;
  for (const auto& f : faults) n += f.error_counts[static_cast<unsigned>(m)];
  return n;
}

// ---------------------------------------------------------------------------
// Instruction-diff classification (shared across the three units)
// ---------------------------------------------------------------------------

namespace {

void add(std::array<std::uint32_t, errmodel::kNumErrorModels>& counts, ErrorModel m,
         std::uint32_t n = 1) {
  counts[static_cast<unsigned>(m)] += n;
}

bool reg_valid(std::uint8_t r, std::uint32_t regs) { return r == isa::kRZ || r < regs; }

/// Classify a corrupted decoded instruction relative to the golden one.
bool classify_instr_diff(const isa::Instruction& g, const isa::Instruction& f,
                         bool f_ok, std::uint32_t regs,
                         std::array<std::uint32_t, errmodel::kNumErrorModels>& counts,
                         bool& hang) {
  bool any = false;
  if (!f_ok) {
    add(counts, ErrorModel::IVOC);
    return true;
  }
  if (f.op != g.op) {
    add(counts, ErrorModel::IOC);
    any = true;
  }
  if (f.guard_pred != g.guard_pred || f.guard_neg != g.guard_neg) {
    add(counts, ErrorModel::WV);
    any = true;
  }
  if (f.use_imm != g.use_imm) {
    add(counts, ErrorModel::IIO);
    any = true;
  }

  const int srcs = isa::num_sources(g.op);
  const bool rd_matters = isa::writes_register(g.op) || isa::writes_predicate(g.op) ||
                          isa::is_store(g.op);
  if (rd_matters && f.rd != g.rd) {
    if (isa::writes_predicate(g.op))
      add(counts, ErrorModel::WV);  // destination predicate corrupted
    else if (reg_valid(f.rd, regs))
      add(counts, ErrorModel::IRA);
    else
      add(counts, ErrorModel::IVRA);
    any = true;
  }
  if ((srcs >= 1 || g.op == isa::Op::S2R) && f.rs1 != g.rs1) {
    if (g.op == isa::Op::S2R)
      add(counts, ErrorModel::IAT);  // thread-index source corrupted
    else if (reg_valid(f.rs1, regs))
      add(counts, ErrorModel::IRA);
    else
      add(counts, ErrorModel::IVRA);
    any = true;
  }
  const bool rs2_used = srcs >= 2 && !(g.use_imm && srcs == 2);
  if (rs2_used && f.rs2 != g.rs2) {
    add(counts, reg_valid(f.rs2, regs) ? ErrorModel::IRA : ErrorModel::IVRA);
    any = true;
  }
  const bool rs3_used = (srcs >= 3 && !g.use_imm) || g.op == isa::Op::SEL;
  if (rs3_used && f.rs3 != g.rs3) {
    if (g.op == isa::Op::SEL)
      add(counts, ErrorModel::WV);  // select predicate corrupted
    else
      add(counts, reg_valid(f.rs3, regs) ? ErrorModel::IRA : ErrorModel::IVRA);
    any = true;
  }
  if (g.use_imm && f.use_imm && f.imm != g.imm) {
    add(counts, ErrorModel::IIO);
    any = true;
  }
  if ((isa::is_load(g.op) || isa::is_store(g.op)) && f.space != g.space) {
    add(counts, isa::is_store(g.op) ? ErrorModel::IMD : ErrorModel::IMS);
    any = true;
  }
  (void)hang;
  return any;
}

}  // namespace

bool classify_word_diff(std::uint64_t golden_word, std::uint64_t faulty_word,
                        std::uint32_t regs,
                        std::array<std::uint32_t, errmodel::kNumErrorModels>& counts,
                        bool& hang) {
  if (golden_word == faulty_word) return false;
  const isa::DecodeResult g = isa::decode(golden_word);
  const isa::DecodeResult f = isa::decode(faulty_word);
  if (!g.ok) return false;  // traces never carry invalid golden words
  return classify_instr_diff(g.instr, f.instr, f.ok, regs, counts, hang);
}

// ---------------------------------------------------------------------------
// UnitReplayer
// ---------------------------------------------------------------------------

struct UnitReplayer::Ports {
  // Decoder.
  const PortBus* d_instr = nullptr;
  const PortBus* d_fetch_valid = nullptr;
  const PortBus* d_valid = nullptr;
  const PortBus* d_opcode = nullptr;
  const PortBus* d_guard = nullptr;
  const PortBus* d_guard_neg = nullptr;
  const PortBus* d_use_imm = nullptr;
  const PortBus* d_space = nullptr;
  const PortBus* d_rd = nullptr;
  const PortBus* d_rs1 = nullptr;
  const PortBus* d_rs2 = nullptr;
  const PortBus* d_rs3 = nullptr;
  const PortBus* d_imm = nullptr;
  const PortBus* d_mem_rd_en = nullptr;
  const PortBus* d_mem_wr_en = nullptr;
  std::vector<const PortBus*> d_class;
  // Fetch.
  const PortBus* f_sel_slot = nullptr;
  const PortBus* f_sel_valid = nullptr;
  const PortBus* f_instr_in = nullptr;
  const PortBus* f_redirect_en = nullptr;
  const PortBus* f_redirect_pc = nullptr;
  const PortBus* f_pc_wr_en = nullptr;
  const PortBus* f_init_en = nullptr;
  const PortBus* f_init_slot = nullptr;
  const PortBus* f_init_pc = nullptr;
  const PortBus* f_pc_out = nullptr;
  const PortBus* f_instr_out = nullptr;
  const PortBus* f_fetch_valid = nullptr;
  // WSC.
  const PortBus* w_wr_slot = nullptr;
  const PortBus* w_wr_state_en = nullptr;
  const PortBus* w_wr_valid = nullptr;
  const PortBus* w_wr_done = nullptr;
  const PortBus* w_wr_barrier = nullptr;
  const PortBus* w_wr_mask_en = nullptr;
  const PortBus* w_wr_mask = nullptr;
  const PortBus* w_wr_base_en = nullptr;
  const PortBus* w_wr_base = nullptr;
  const PortBus* w_wr_cta_en = nullptr;
  const PortBus* w_wr_cta = nullptr;
  const PortBus* w_lane_cfg_en = nullptr;
  const PortBus* w_lane_cfg = nullptr;
  const PortBus* w_barrier_release = nullptr;
  const PortBus* w_ibuf_en = nullptr;
  const PortBus* w_ibuf_in = nullptr;
  const PortBus* w_issue_en = nullptr;
  const PortBus* w_sel_slot = nullptr;
  const PortBus* w_sel_valid = nullptr;
  const PortBus* w_mask_out = nullptr;
  const PortBus* w_lane_en = nullptr;
  const PortBus* w_base_out = nullptr;
  const PortBus* w_cta_out = nullptr;
  const PortBus* w_dispatch = nullptr;
  /// Union of all nets compare_outputs reads for this unit. A fault lane can
  /// only contribute errors on a cycle when one of these nets diverges, so
  /// the batch engine screens lanes against this set before paying the
  /// per-lane classification cost.
  std::vector<Net> observed;
};

UnitReplayer::UnitReplayer(UnitKind kind)
    : kind_(kind), nl_(unit_netlist(kind)), ports_(std::make_unique<Ports>()) {
  Ports& p = *ports_;
  const Netlist& nl = *nl_;
  switch (kind) {
    case UnitKind::Decoder:
      p.d_instr = nl.find_input("instr");
      p.d_fetch_valid = nl.find_input("fetch_valid");
      p.d_valid = nl.find_output("valid");
      p.d_opcode = nl.find_output("opcode");
      p.d_guard = nl.find_output("guard_pred");
      p.d_guard_neg = nl.find_output("guard_neg");
      p.d_use_imm = nl.find_output("use_imm");
      p.d_space = nl.find_output("space");
      p.d_rd = nl.find_output("rd");
      p.d_rs1 = nl.find_output("rs1");
      p.d_rs2 = nl.find_output("rs2");
      p.d_rs3 = nl.find_output("rs3");
      p.d_imm = nl.find_output("imm");
      p.d_mem_rd_en = nl.find_output("mem_rd_en");
      p.d_mem_wr_en = nl.find_output("mem_wr_en");
      for (const char* name : {"is_int", "is_fp32", "is_sfu", "is_mem", "is_store",
                               "is_branch", "is_ssy", "is_bar", "is_exit",
                               "writes_pred", "is_s2r"})
        p.d_class.push_back(nl.find_output(name));
      break;
    case UnitKind::Fetch:
      p.f_sel_slot = nl.find_input("sel_slot");
      p.f_sel_valid = nl.find_input("sel_valid");
      p.f_instr_in = nl.find_input("instr_in");
      p.f_redirect_en = nl.find_input("redirect_en");
      p.f_redirect_pc = nl.find_input("redirect_pc");
      p.f_pc_wr_en = nl.find_input("pc_wr_en");
      p.f_init_en = nl.find_input("init_en");
      p.f_init_slot = nl.find_input("init_slot");
      p.f_init_pc = nl.find_input("init_pc");
      p.f_pc_out = nl.find_output("pc_out");
      p.f_instr_out = nl.find_output("instr_out");
      p.f_fetch_valid = nl.find_output("fetch_valid");
      break;
    case UnitKind::WSC:
      p.w_wr_slot = nl.find_input("wr_slot");
      p.w_wr_state_en = nl.find_input("wr_state_en");
      p.w_wr_valid = nl.find_input("wr_valid");
      p.w_wr_done = nl.find_input("wr_done");
      p.w_wr_barrier = nl.find_input("wr_barrier");
      p.w_wr_mask_en = nl.find_input("wr_mask_en");
      p.w_wr_mask = nl.find_input("wr_mask");
      p.w_wr_base_en = nl.find_input("wr_base_en");
      p.w_wr_base = nl.find_input("wr_base");
      p.w_wr_cta_en = nl.find_input("wr_cta_en");
      p.w_wr_cta = nl.find_input("wr_cta");
      p.w_lane_cfg_en = nl.find_input("lane_cfg_en");
      p.w_lane_cfg = nl.find_input("lane_cfg");
      p.w_barrier_release = nl.find_input("barrier_release");
      p.w_ibuf_en = nl.find_input("ibuf_en");
      p.w_ibuf_in = nl.find_input("ibuf_in");
      p.w_issue_en = nl.find_input("issue_en");
      p.w_sel_slot = nl.find_output("sel_slot");
      p.w_sel_valid = nl.find_output("sel_valid");
      p.w_mask_out = nl.find_output("mask_out");
      p.w_lane_en = nl.find_output("lane_en");
      p.w_base_out = nl.find_output("base_out");
      p.w_cta_out = nl.find_output("cta_out");
      p.w_dispatch = nl.find_output("dispatch");
      break;
  }

  auto observe = [&p](const PortBus* bus) {
    if (bus) p.observed.insert(p.observed.end(), bus->nets.begin(), bus->nets.end());
  };
  switch (kind) {
    case UnitKind::Decoder:
      for (const PortBus* bus :
           {p.d_valid, p.d_opcode, p.d_guard, p.d_guard_neg, p.d_use_imm,
            p.d_space, p.d_rd, p.d_rs1, p.d_rs2, p.d_rs3, p.d_imm,
            p.d_mem_rd_en, p.d_mem_wr_en})
        observe(bus);
      for (const PortBus* bus : p.d_class) observe(bus);
      break;
    case UnitKind::Fetch:
      for (const PortBus* bus : {p.f_fetch_valid, p.f_pc_out, p.f_instr_out})
        observe(bus);
      break;
    case UnitKind::WSC:
      for (const PortBus* bus :
           {p.w_sel_valid, p.w_sel_slot, p.w_mask_out, p.w_lane_en,
            p.w_base_out, p.w_cta_out, p.w_dispatch})
        observe(bus);
      break;
  }
}

UnitReplayer::~UnitReplayer() = default;

std::size_t UnitReplayer::num_cycles(const UnitTraces& t) const {
  switch (kind_) {
    case UnitKind::Decoder: return t.decoder.size();
    case UnitKind::Fetch: return t.fetch.size();
    case UnitKind::WSC: return t.wsc.size();
  }
  return 0;
}

bool UnitReplayer::cycle_is_issue(const UnitTraces& t, std::size_t c) const {
  switch (kind_) {
    case UnitKind::Decoder: return true;
    case UnitKind::Fetch: return t.fetch[c].is_issue;
    case UnitKind::WSC: return t.wsc[c].is_issue;
  }
  return false;
}

template <class Sim>
void UnitReplayer::drive_inputs(Sim& sim, const UnitTraces& t,
                                std::size_t c) const {
  const Ports& p = *ports_;
  switch (kind_) {
    case UnitKind::Decoder: {
      const DecoderPattern& pat = t.decoder[c];
      sim.set_bus(*p.d_instr, pat.word);
      sim.set_bus(*p.d_fetch_valid, 1);
      break;
    }
    case UnitKind::Fetch: {
      const FetchCycle& fc = t.fetch[c];
      sim.set_bus(*p.f_sel_slot, fc.sel_slot);
      sim.set_bus(*p.f_sel_valid, fc.sel_valid);
      sim.set_bus(*p.f_instr_in, fc.instr_in);
      sim.set_bus(*p.f_redirect_en, fc.redirect_en);
      sim.set_bus(*p.f_redirect_pc, fc.redirect_pc);
      sim.set_bus(*p.f_pc_wr_en, fc.pc_wr_en);
      sim.set_bus(*p.f_init_en, fc.init_en);
      sim.set_bus(*p.f_init_slot, fc.init_slot);
      sim.set_bus(*p.f_init_pc, fc.init_pc);
      break;
    }
    case UnitKind::WSC: {
      const WscCycle& wc = t.wsc[c];
      sim.set_bus(*p.w_wr_slot, wc.wr_slot);
      sim.set_bus(*p.w_wr_state_en, wc.wr_state_en);
      sim.set_bus(*p.w_wr_valid, wc.wr_valid);
      sim.set_bus(*p.w_wr_done, wc.wr_done);
      sim.set_bus(*p.w_wr_barrier, wc.wr_barrier);
      sim.set_bus(*p.w_wr_mask_en, wc.wr_mask_en);
      sim.set_bus(*p.w_wr_mask, wc.wr_mask);
      sim.set_bus(*p.w_wr_base_en, wc.wr_base_en);
      sim.set_bus(*p.w_wr_base, wc.wr_base);
      sim.set_bus(*p.w_wr_cta_en, wc.wr_cta_en);
      sim.set_bus(*p.w_wr_cta, wc.wr_cta);
      sim.set_bus(*p.w_lane_cfg_en, wc.lane_cfg_en);
      sim.set_bus(*p.w_lane_cfg, wc.lane_cfg);
      sim.set_bus(*p.w_barrier_release, wc.barrier_release);
      sim.set_bus(*p.w_ibuf_en, wc.ibuf_en);
      sim.set_bus(*p.w_ibuf_in, wc.ibuf_in);
      sim.set_bus(*p.w_issue_en, wc.is_issue);
      break;
    }
  }
}

namespace {

/// Lane-to-row transpose of one 64-net block for lanes [0, P), P a power of
/// two: a[j] holds net j of the block in every lane (bit k = lane k), and
/// out[k] receives lane k's values of the 64 nets (bit j = net j). Bits
/// [0, P) of the 64 words are packed into P words first (64 / P groups of P
/// bits), then every P x P sub-block is transposed in place by log2(P)
/// rounds of masked swaps (Hacker's Delight, sec. 7-3), so the cost follows
/// the live lanes rather than the word width.
template <unsigned P>
void lanes_to_rows(const std::uint64_t* a, std::uint64_t* out) {
  constexpr std::uint64_t low =
      P == 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << P) - 1;
  std::uint64_t m[P];
  for (unsigned r = 0; r < P; ++r) {
    std::uint64_t w = 0;
    for (unsigned g = 0; g < 64 / P; ++g) w |= (a[g * P + r] & low) << (g * P);
    m[r] = w;  // bit g*P + k = lane k of net g*P + r
  }
  for (unsigned s = P / 2; s > 0; s /= 2) {
    // Swap bit c + s of row r with bit c of row r + s, for every r and c
    // with bit s clear: the off-diagonal s x s blocks of each 2s x 2s block.
    const std::uint64_t mask = ~std::uint64_t{0} / ((std::uint64_t{1} << s) + 1);
    for (unsigned r = 0; r < P; ++r) {
      if (r & s) continue;
      const std::uint64_t t = ((m[r] >> s) ^ m[r + s]) & mask;
      m[r] ^= t << s;
      m[r + s] ^= t;
    }
  }
  for (unsigned k = 0; k < P; ++k) out[k] = m[k];  // bit j = lane k of net j
}

using RowPack = void (*)(const std::uint64_t*, std::uint64_t*);
constexpr RowPack kRowPack[] = {lanes_to_rows<1>,  lanes_to_rows<2>,
                                lanes_to_rows<4>,  lanes_to_rows<8>,
                                lanes_to_rows<16>, lanes_to_rows<32>,
                                lanes_to_rows<64>};

/// Net values of the golden pass: one word per net whose bit k is the value
/// under pattern k, padded to whole 64-net blocks so the row pack can read
/// any block in full.
class PatternWords {
 public:
  explicit PatternWords(const Netlist& nl)
      : nl_(nl),
        blocks_((nl.num_nets() + 63) / 64),
        v_(blocks_ * 64, 0),
        next_(nl.compiled().dff_out.size(), 0) {}

  void reset() { std::fill(v_.begin(), v_.end(), 0); }

  /// One lane of the words, driven by UnitReplayer::drive_inputs the way it
  /// drives a Simulator.
  struct Lane {
    PatternWords& w;
    unsigned k;
    void set_bus(const PortBus& bus, std::uint64_t value) {
      for (std::size_t i = 0; i < bus.nets.size(); ++i) {
        std::uint64_t& x = w.v_[static_cast<std::size_t>(bus.nets[i])];
        x = (x & ~(std::uint64_t{1} << k)) | (((value >> i) & 1) << k);
      }
    }
  };
  Lane lane(unsigned k) { return {*this, k}; }

  /// Simulator::eval over 64 patterns: constants, then the full stream.
  void eval() {
    for (const auto& [n, c] : nl_.constants())
      v_[static_cast<std::size_t>(n)] = c ? ~std::uint64_t{0} : 0;
    std::uint64_t* const v = v_.data();
    for (const Instr& in : nl_.program().full.code)
      v[in.out] = GateProgram::eval(in, v);
  }

  /// Simulator::clock over 64 patterns: sample every D input, then commit.
  void clock() {
    const CompiledNetlist& cn = nl_.compiled();
    for (std::size_t i = 0; i < cn.dff_out.size(); ++i) {
      const std::uint64_t cur = v_[static_cast<std::size_t>(cn.dff_out[i])];
      const std::uint64_t en =
          cn.dff_en[i] == kNoNet ? ~std::uint64_t{0}
                                 : v_[static_cast<std::size_t>(cn.dff_en[i])];
      const std::uint64_t d =
          cn.dff_d[i] == kNoNet ? cur : v_[static_cast<std::size_t>(cn.dff_d[i])];
      next_[i] = (en & d) | (~en & cur);
    }
    for (std::size_t i = 0; i < cn.dff_out.size(); ++i)
      v_[static_cast<std::size_t>(cn.dff_out[i])] = next_[i];
  }

  /// Writes lanes [0, rows.size()) as packed rows: rows[k] receives lane k.
  void store(std::span<std::uint64_t* const> rows) const {
    if (rows.empty()) return;
    const RowPack pack = kRowPack[std::bit_width(std::bit_ceil(rows.size())) - 1];
    std::uint64_t lane_words[64] = {};
    for (std::size_t b = 0; b < blocks_; ++b) {
      pack(v_.data() + 64 * b, lane_words);
      for (std::size_t k = 0; k < rows.size(); ++k) rows[k][b] = lane_words[k];
    }
  }

 private:
  const Netlist& nl_;
  std::size_t blocks_;
  std::vector<std::uint64_t> v_;
  std::vector<std::uint64_t> next_;
};

/// Activation windows from packed rows, 64 nets per word operation: the
/// first cycle (forward pass) and the last cycle (backward pass) on which
/// each net carries each value. Only the bits of newly seen nets are
/// visited, so the scalar work is O(nets).
void derive_windows(UnitReplayer::GoldenTrace& g, std::size_t nets) {
  using Window = UnitReplayer::GoldenTrace::Window;
  g.windows.assign(nets, Window{});
  const std::size_t rw = g.row_words;
  std::vector<std::uint64_t> valid(rw, ~std::uint64_t{0});
  if (nets % 64) valid[rw - 1] = (std::uint64_t{1} << (nets % 64)) - 1;
  std::vector<std::uint64_t> seen0(rw, 0), seen1(rw, 0);
  const auto scan = [&](std::size_t c, std::uint32_t Window::*at0,
                        std::uint32_t Window::*at1) {
    const std::uint64_t* row = g.bits.data() + c * rw;
    for (std::size_t b = 0; b < rw; ++b) {
      const std::uint64_t w = row[b];
      for (std::uint64_t f = w & ~seen1[b] & valid[b]; f; f &= f - 1)
        g.windows[b * 64 + std::countr_zero(f)].*at1 = static_cast<std::uint32_t>(c);
      for (std::uint64_t f = ~w & ~seen0[b] & valid[b]; f; f &= f - 1)
        g.windows[b * 64 + std::countr_zero(f)].*at0 = static_cast<std::uint32_t>(c);
      seen1[b] |= w;
      seen0[b] |= ~w;
    }
  };
  for (std::size_t c = 0; c < g.cycles; ++c)
    scan(c, &Window::first0, &Window::first1);
  std::fill(seen0.begin(), seen0.end(), 0);
  std::fill(seen1.begin(), seen1.end(), 0);
  for (std::size_t c = g.cycles; c-- > 0;)
    scan(c, &Window::last0, &Window::last1);
}

}  // namespace

std::vector<UnitReplayer::GoldenTrace> UnitReplayer::compute_goldens(
    std::span<const UnitTraces> traces) const {
  obs::TraceSpan span("gate", "golden");
  static obs::Histogram& golden_us = obs::histogram("gate.golden_us");
  obs::ScopedTimerUs timer(golden_us);

  const std::size_t nets = nl_->num_nets();
  std::vector<GoldenTrace> out(traces.size());
  for (std::size_t i = 0; i < traces.size(); ++i) {
    GoldenTrace& g = out[i];
    g.cycles = num_cycles(traces[i]);
    g.row_words = (nets + 63) / 64;
    g.bits.assign(g.cycles * g.row_words, 0);
  }
  const auto row = [&](std::size_t ti, std::size_t c) {
    return out[ti].bits.data() + c * out[ti].row_words;
  };

  PatternWords words(*nl_);
  std::array<std::uint64_t*, 64> rows{};
  if (kind_ == UnitKind::Decoder) {
    // Combinational, reset per pattern: any 64 (trace, pattern) pairs share
    // one evaluation.
    std::vector<std::pair<std::size_t, std::size_t>> pairs;
    for (std::size_t ti = 0; ti < traces.size(); ++ti)
      for (std::size_t c = 0; c < out[ti].cycles; ++c) pairs.emplace_back(ti, c);
    for (std::size_t lo = 0; lo < pairs.size(); lo += 64) {
      const std::size_t n = std::min<std::size_t>(64, pairs.size() - lo);
      words.reset();
      for (std::size_t k = 0; k < n; ++k) {
        const auto [ti, c] = pairs[lo + k];
        auto lane = words.lane(static_cast<unsigned>(k));
        drive_inputs(lane, traces[ti], c);
        rows[k] = row(ti, c);
      }
      words.eval();
      words.store(std::span(rows.data(), n));
    }
  } else {
    // Sequential: trace k steps in lane k. Lanes are assigned longest trace
    // first, so the lanes still recording on a cycle are always a prefix and
    // the row pack transposes only those.
    std::vector<std::size_t> order(traces.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::stable_sort(order.begin(), order.end(), [&](std::size_t x, std::size_t y) {
      return out[x].cycles > out[y].cycles;
    });
    for (std::size_t lo = 0; lo < order.size(); lo += 64) {
      const std::size_t n = std::min<std::size_t>(64, order.size() - lo);
      const std::span<const std::size_t> group(order.data() + lo, n);
      words.reset();
      std::size_t live = n;
      for (std::size_t c = 0; c < out[group[0]].cycles; ++c) {
        while (out[group[live - 1]].cycles <= c) --live;
        for (std::size_t k = 0; k < live; ++k) {
          auto lane = words.lane(static_cast<unsigned>(k));
          drive_inputs(lane, traces[group[k]], c);
          rows[k] = row(group[k], c);
        }
        words.eval();
        words.store(std::span(rows.data(), live));
        words.clock();
      }
    }
  }
  for (GoldenTrace& g : out) derive_windows(g, nets);
  return out;
}

UnitReplayer::GoldenTrace UnitReplayer::golden_oracle(const UnitTraces& t) const {
  const std::size_t nets = nl_->num_nets();
  GoldenTrace g;
  g.cycles = num_cycles(t);
  g.row_words = (nets + 63) / 64;
  g.bits.assign(g.cycles * g.row_words, 0);
  g.windows.assign(nets, GoldenTrace::Window{});
  Simulator sim(*nl_);
  sim.reset();
  for (std::size_t c = 0; c < g.cycles; ++c) {
    drive_inputs(sim, t, c);
    sim.eval();
    const std::vector<std::uint8_t>& vals = sim.values();
    std::uint64_t* row = g.bits.data() + c * g.row_words;
    const auto cyc = static_cast<std::uint32_t>(c);
    for (std::size_t i = 0; i < nets; ++i) {
      GoldenTrace::Window& w = g.windows[i];
      if (vals[i]) {
        row[i >> 6] |= std::uint64_t{1} << (i & 63);
        if (w.first1 == GoldenTrace::kNoCycle) w.first1 = cyc;
        w.last1 = cyc;
      } else {
        if (w.first0 == GoldenTrace::kNoCycle) w.first0 = cyc;
        w.last0 = cyc;
      }
    }
    if (kind_ == UnitKind::Decoder)
      sim.reset();
    else
      sim.clock();
  }
  return g;
}

std::uint64_t UnitReplayer::golden_bus(GoldenRow vals, const PortBus& bus) const {
  // Branch-free: golden bits are data, and a data-dependent branch per bit
  // mispredicts about half the time.
  std::uint64_t v = 0;
  for (std::size_t i = 0; i < bus.nets.size(); ++i)
    v |= std::uint64_t{vals[static_cast<std::size_t>(bus.nets[i])]} << i;
  return v;
}

const std::uint32_t* WordDiffTable::find(std::uint64_t word,
                                         std::uint32_t regs) const {
  const std::pair<std::uint64_t, std::uint32_t> key{word, regs};
  const auto it = std::lower_bound(keys_.begin(), keys_.end(), key);
  if (it == keys_.end() || *it != key) return nullptr;
  return entries_.data() + 64 * static_cast<std::size_t>(it - keys_.begin());
}

WordDiffTable UnitReplayer::word_diff_table(
    std::span<const UnitTraces> traces,
    std::span<const GoldenTrace> goldens) const {
  WordDiffTable tab;
  const PortBus* bus = kind_ == UnitKind::Fetch ? ports_->f_instr_out
                       : kind_ == UnitKind::WSC ? ports_->w_dispatch
                                                : nullptr;
  if (!bus) return tab;
  for (std::size_t ti = 0; ti < traces.size(); ++ti) {
    const UnitTraces& t = traces[ti];
    for (std::size_t c = 0; c < goldens[ti].cycles; ++c) {
      if (!cycle_is_issue(t, c)) continue;
      const std::uint32_t regs = kind_ == UnitKind::Fetch
                                     ? t.fetch[c].regs_per_thread
                                     : t.wsc[c].regs_per_thread;
      tab.keys_.emplace_back(golden_bus(goldens[ti].row(c), *bus), regs);
    }
  }
  std::sort(tab.keys_.begin(), tab.keys_.end());
  tab.keys_.erase(std::unique(tab.keys_.begin(), tab.keys_.end()),
                  tab.keys_.end());
  // Each entry is what classify_batch's per-lane path would add for that
  // one-bit word: nothing when the golden word does not decode, else
  // classify_instr_diff of the two decodes.
  tab.entries_.assign(64 * tab.keys_.size(), WordDiffTable::kPerLane);
  for (std::size_t k = 0; k < tab.keys_.size(); ++k) {
    const auto [word, regs] = tab.keys_[k];
    const isa::DecodeResult gd = isa::decode(word);
    for (std::size_t b = 0; b < bus->nets.size(); ++b) {
      std::uint32_t& e = tab.entries_[64 * k + b];
      if (!gd.ok) {
        e = 0;
        continue;
      }
      const isa::DecodeResult fd = isa::decode(word ^ (std::uint64_t{1} << b));
      if (fd.ok && fd.instr == gd.instr) {  // a bit no field decodes
        e = 0;
        continue;
      }
      std::array<std::uint32_t, errmodel::kNumErrorModels> counts{};
      bool hang = false;
      classify_instr_diff(gd.instr, fd.instr, fd.ok, regs, counts, hang);
      e = hang ? WordDiffTable::kPerLane : 0;
      for (unsigned m = 0; m < errmodel::kNumErrorModels && !hang; ++m) {
        if (counts[m] > 3) {
          e = WordDiffTable::kPerLane;
          break;
        }
        e |= counts[m] << (2 * m);
      }
    }
  }
  return tab;
}

namespace {

/// Reassemble an instruction word from decoder output fields so the shared
/// word classifier can be reused.
std::uint64_t word_from_decoder_fields(std::uint64_t opcode, std::uint64_t guard,
                                       std::uint64_t guard_neg, std::uint64_t use_imm,
                                       std::uint64_t space, std::uint64_t rd,
                                       std::uint64_t rs1, std::uint64_t rs2,
                                       std::uint64_t rs3, std::uint64_t imm) {
  isa::Instruction in;
  in.op = static_cast<isa::Op>(opcode);
  in.guard_pred = static_cast<std::uint8_t>(guard);
  in.guard_neg = guard_neg != 0;
  in.use_imm = use_imm != 0;
  in.space = static_cast<isa::MemSpace>(space);
  in.rd = static_cast<std::uint8_t>(rd);
  in.rs1 = static_cast<std::uint8_t>(rs1);
  if (in.use_imm) {
    in.imm = static_cast<std::uint32_t>(imm);
  } else {
    in.rs2 = static_cast<std::uint8_t>(rs2);
    in.rs3 = static_cast<std::uint8_t>(rs3);
  }
  return isa::encode(in);
}

}  // namespace

void UnitReplayer::compare_outputs(const UnitTraces& t, std::size_t c,
                                   GoldenRow gv, const BusReader& fbus,
                                   FaultCharacterization& out) const {
  const Ports& p = *ports_;
  switch (kind_) {
    case UnitKind::Decoder: {
      const DecoderPattern& pat = t.decoder[c];
      const auto n = static_cast<std::uint32_t>(pat.count);

      const bool g_valid = golden_bus(gv, *p.d_valid) != 0;
      const bool f_valid = fbus(*p.d_valid) != 0;
      if (g_valid && !f_valid) {
        // The decoder silently drops a valid instruction: execution stalls.
        out.hang = true;
        return;
      }
      const std::uint64_t gw = word_from_decoder_fields(
          golden_bus(gv, *p.d_opcode), golden_bus(gv, *p.d_guard),
          golden_bus(gv, *p.d_guard_neg), golden_bus(gv, *p.d_use_imm),
          golden_bus(gv, *p.d_space), golden_bus(gv, *p.d_rd),
          golden_bus(gv, *p.d_rs1), golden_bus(gv, *p.d_rs2),
          golden_bus(gv, *p.d_rs3), golden_bus(gv, *p.d_imm));
      const bool f_op_valid = isa::is_valid_opcode(
          static_cast<std::uint8_t>(fbus(*p.d_opcode)));
      if (!f_op_valid) {
        add(out.error_counts, ErrorModel::IVOC, n);
        return;
      }
      const std::uint64_t fw = word_from_decoder_fields(
          fbus(*p.d_opcode), fbus(*p.d_guard),
          fbus(*p.d_guard_neg), fbus(*p.d_use_imm),
          fbus(*p.d_space), fbus(*p.d_rd), fbus(*p.d_rs1),
          fbus(*p.d_rs2), fbus(*p.d_rs3), fbus(*p.d_imm));
      std::array<std::uint32_t, errmodel::kNumErrorModels> local{};
      bool hang = false;
      bool any = classify_word_diff(gw, fw, pat.regs_per_thread, local, hang);
      // Memory-resource enables: a corrupted read enable misdirects operand
      // loading (IMS); a corrupted write enable misdirects result storing
      // (IMD). Only meaningful when the golden instruction uses that port.
      const std::uint64_t g_rd_en = golden_bus(gv, *p.d_mem_rd_en);
      const std::uint64_t g_wr_en = golden_bus(gv, *p.d_mem_wr_en);
      if (g_rd_en != 0 && fbus(*p.d_mem_rd_en) != g_rd_en) {
        add(local, ErrorModel::IMS);
        any = true;
      }
      if (g_wr_en != 0 && fbus(*p.d_mem_wr_en) != g_wr_en) {
        add(local, ErrorModel::IMD);
        any = true;
      }
      // Dispatch-class signal corruption without a field diff still routes
      // the instruction to the wrong unit: an operation error.
      if (!any) {
        for (const PortBus* cls : p.d_class) {
          if (golden_bus(gv, *cls) != fbus(*cls)) {
            add(local, ErrorModel::IOC);
            any = true;
            break;
          }
        }
      }
      if (any)
        for (unsigned m = 0; m < errmodel::kNumErrorModels; ++m)
          out.error_counts[m] += local[m] * n;
      out.hang |= hang;
      break;
    }
    case UnitKind::Fetch: {
      const FetchCycle& fc = t.fetch[c];
      const bool g_fv = golden_bus(gv, *p.f_fetch_valid) != 0;
      const bool f_fv = fbus(*p.f_fetch_valid) != 0;
      if (g_fv && !f_fv) {
        out.hang = true;
        return;
      }
      const std::uint64_t g_pc = golden_bus(gv, *p.f_pc_out);
      const std::uint64_t f_pc = fbus(*p.f_pc_out);
      if (g_pc != f_pc) {
        if (f_pc >= fc.prog_size) {
          // Fetch wanders outside instruction memory: the unit returns
          // garbage bits, which decode as an invalid operation.
          add(out.error_counts, ErrorModel::IVOC);
        } else {
          bool other_warp = false;
          for (unsigned s = 0; s < 8; ++s)
            if (s != fc.sel_slot && fc.resident_pcs[s] == f_pc) other_warp = true;
          add(out.error_counts, other_warp ? ErrorModel::IAW : ErrorModel::IOC);
        }
      }
      classify_word_diff(golden_bus(gv, *p.f_instr_out),
                         fbus(*p.f_instr_out), fc.regs_per_thread,
                         out.error_counts, out.hang);
      break;
    }
    case UnitKind::WSC: {
      const WscCycle& wc = t.wsc[c];
      const bool g_sv = golden_bus(gv, *p.w_sel_valid) != 0;
      const bool f_sv = fbus(*p.w_sel_valid) != 0;
      if (g_sv && !f_sv) {
        out.hang = true;  // scheduler stops issuing
        return;
      }
      if (!g_sv && f_sv) add(out.error_counts, ErrorModel::IAW);
      if (golden_bus(gv, *p.w_sel_slot) != fbus(*p.w_sel_slot))
        add(out.error_counts, ErrorModel::IAW);
      if (golden_bus(gv, *p.w_mask_out) != fbus(*p.w_mask_out))
        add(out.error_counts, ErrorModel::IAT);
      if (golden_bus(gv, *p.w_lane_en) != fbus(*p.w_lane_en))
        add(out.error_counts, ErrorModel::IAL);
      if (golden_bus(gv, *p.w_base_out) != fbus(*p.w_base_out))
        add(out.error_counts, ErrorModel::IPP);
      if (golden_bus(gv, *p.w_cta_out) != fbus(*p.w_cta_out))
        add(out.error_counts, ErrorModel::IAC);
      classify_word_diff(golden_bus(gv, *p.w_dispatch), fbus(*p.w_dispatch),
                         wc.regs_per_thread, out.error_counts, out.hang);
      break;
    }
  }
}

/// What classify_batch keeps across the cycles of one replay: the lane
/// tallies run_fault_batch publishes.
struct UnitReplayer::ClassifyScratch {
  std::uint64_t lanes = 0;        ///< diverged lanes classified
  std::uint64_t table_lanes = 0;  ///< of which by table lookup
};

void UnitReplayer::classify_batch(BatchSim& sim, const UnitTraces& t,
                                  std::size_t c, GoldenRow gv,
                                  const LaneMask& diff, LaneMask& live,
                                  std::span<FaultCharacterization> out,
                                  const WordDiffTable* table,
                                  ClassifyScratch& scratch) const {
  const Ports& p = *ports_;
  scratch.lanes += diff.count();
  // A diverged lane is retired the moment it hangs: the unit makes no further
  // progress there, so later trace cycles are unreachable (same contract as
  // the brute oracle). Lanes entering here always have hang == false.
  const auto retire = [&](unsigned k) {
    live.clear(k);
    sim.retire_lane(k);
  };
  // Per-lane faulty bus words, indexed by lane (bus_values fills only the
  // requested lanes).
  std::array<std::uint64_t, LaneMask::kMaxLanes> words;
  // Instruction-word bus: each lane whose word differs from golden in
  // exactly one bit adds that bit's table entry; the others (and any the
  // table cannot answer) decode their faulty word against the golden
  // decode, once per cycle.
  const auto classify_word_bus = [&](const PortBus& bus, std::uint32_t regs,
                                     const LaneMask& alive) {
    const std::uint64_t gw = golden_bus(gv, bus);
    const LaneMask diverged = sim.bus_values(bus, gv, alive, gw, words);
    if (!diverged.any()) return;
    const std::uint32_t* entries = table ? table->find(gw, regs) : nullptr;
    LaneMask decode;
    for_each_lane(diverged, [&](unsigned k) {
      const std::uint64_t x = words[k] ^ gw;
      if (entries && std::has_single_bit(x)) {
        const std::uint32_t e = entries[std::countr_zero(x)];
        if (e != WordDiffTable::kPerLane) {
          WordDiffTable::add(e, out[k].error_counts);
          ++scratch.table_lanes;
          return;
        }
      }
      decode.set(k);
    });
    if (!decode.any()) return;
    const isa::DecodeResult gd = isa::decode(gw);
    if (!gd.ok) return;  // traces never carry invalid golden words
    for_each_lane(decode, [&](unsigned k) {
      const isa::DecodeResult fd = isa::decode(words[k]);
      classify_instr_diff(gd.instr, fd.instr, fd.ok, regs,
                          out[k].error_counts, out[k].hang);
      if (out[k].hang) retire(k);
    });
  };
  switch (kind_) {
    case UnitKind::Decoder: {
      // Word-wide mirror of compare_outputs's decoder case: each bus is read
      // once per cycle with a vector pass (bus_values/diff_lanes) instead of
      // a scalar bus walk per diverged lane, and only lanes whose bits
      // actually differ pay the faulty-word reassembly + decode.
      const DecoderPattern& pat = t.decoder[c];
      const auto n = static_cast<std::uint32_t>(pat.count);
      LaneMask alive = diff;
      // Valid drop first: a lane that silently swallows a valid instruction
      // hangs, and nothing else about its outputs counts.
      const std::uint64_t g_valid = golden_bus(gv, *p.d_valid);
      const LaneMask d_valid =
          sim.bus_values(*p.d_valid, gv, alive, g_valid, words);
      if (g_valid != 0) {
        for_each_lane(d_valid, [&](unsigned k) {
          if (words[k] == 0) {
            out[k].hang = true;
            alive.clear(k);
            retire(k);
          }
        });
        if (!alive.any()) return;
      }
      const PortBus* const fields[10] = {
          p.d_opcode, p.d_guard, p.d_guard_neg, p.d_use_imm, p.d_space,
          p.d_rd,     p.d_rs1,   p.d_rs2,       p.d_rs3,     p.d_imm};
      std::uint64_t gf[10];
      std::array<std::array<std::uint64_t, LaneMask::kMaxLanes>, 10> fw;
      LaneMask d_fields;
      for (int i = 0; i < 10; ++i) {
        gf[i] = golden_bus(gv, *fields[i]);
        d_fields |= sim.bus_values(*fields[i], gv, alive, gf[i], fw[i]);
      }
      const std::uint64_t gw = word_from_decoder_fields(
          gf[0], gf[1], gf[2], gf[3], gf[4], gf[5], gf[6], gf[7], gf[8],
          gf[9]);
      const isa::DecodeResult gd = isa::decode(gw);
      // Memory-resource enables: a corrupted read enable misdirects operand
      // loading (IMS); a corrupted write enable misdirects result storing
      // (IMD). Only meaningful when the golden instruction uses that port.
      const LaneMask d_rd_en =
          golden_bus(gv, *p.d_mem_rd_en) != 0
              ? sim.diff_lanes(p.d_mem_rd_en->nets, gv) & alive
              : LaneMask{};
      const LaneMask d_wr_en =
          golden_bus(gv, *p.d_mem_wr_en) != 0
              ? sim.diff_lanes(p.d_mem_wr_en->nets, gv) & alive
              : LaneMask{};
      // Dispatch-class signal corruption without a field diff still routes
      // the instruction to the wrong unit: an operation error.
      LaneMask d_class;
      for (const PortBus* cls : p.d_class)
        d_class |= sim.diff_lanes(cls->nets, gv);
      d_class &= alive;
      const LaneMask todo = (d_fields | d_rd_en | d_wr_en | d_class) & alive;
      for_each_lane(todo, [&](unsigned k) {
        if (!isa::is_valid_opcode(static_cast<std::uint8_t>(fw[0][k]))) {
          add(out[k].error_counts, ErrorModel::IVOC, n);
          return;
        }
        const std::uint64_t fwk = word_from_decoder_fields(
            fw[0][k], fw[1][k], fw[2][k], fw[3][k], fw[4][k], fw[5][k],
            fw[6][k], fw[7][k], fw[8][k], fw[9][k]);
        std::array<std::uint32_t, errmodel::kNumErrorModels> local{};
        bool hang = false;
        bool any = false;
        if (fwk != gw && gd.ok) {
          const isa::DecodeResult fd = isa::decode(fwk);
          any = classify_instr_diff(gd.instr, fd.instr, fd.ok,
                                    pat.regs_per_thread, local, hang);
        }
        if (d_rd_en.test(k)) {
          add(local, ErrorModel::IMS);
          any = true;
        }
        if (d_wr_en.test(k)) {
          add(local, ErrorModel::IMD);
          any = true;
        }
        if (!any && d_class.test(k)) add(local, ErrorModel::IOC);
        for (unsigned m = 0; m < errmodel::kNumErrorModels; ++m)
          out[k].error_counts[m] += local[m] * n;
        out[k].hang |= hang;
        if (out[k].hang) retire(k);
      });
      return;
    }
    case UnitKind::Fetch: {
      const FetchCycle& fc = t.fetch[c];
      LaneMask alive = diff;
      // Golden fetch_valid high + lane diff => the lane dropped the fetch.
      if (golden_bus(gv, *p.f_fetch_valid) != 0) {
        const LaneMask d_fv = sim.diff_lanes(p.f_fetch_valid->nets, gv) & diff;
        for_each_lane(d_fv, [&](unsigned k) {
          out[k].hang = true;
          alive.clear(k);
          retire(k);
        });
      }
      const std::uint64_t g_pc = golden_bus(gv, *p.f_pc_out);
      const LaneMask d_pc = sim.bus_values(*p.f_pc_out, gv, alive, g_pc, words);
      for_each_lane(d_pc, [&](unsigned k) {
        const std::uint64_t f_pc = words[k];
        if (f_pc >= fc.prog_size) {
          // Fetch wanders outside instruction memory: the unit returns
          // garbage bits, which decode as an invalid operation.
          add(out[k].error_counts, ErrorModel::IVOC);
        } else {
          bool other_warp = false;
          for (unsigned s = 0; s < 8; ++s)
            if (s != fc.sel_slot && fc.resident_pcs[s] == f_pc)
              other_warp = true;
          add(out[k].error_counts,
              other_warp ? ErrorModel::IAW : ErrorModel::IOC);
        }
      });
      classify_word_bus(*p.f_instr_out, fc.regs_per_thread, alive);
      return;
    }
    case UnitKind::WSC: {
      const WscCycle& wc = t.wsc[c];
      LaneMask alive = diff;
      const LaneMask d_sv = sim.diff_lanes(p.w_sel_valid->nets, gv) & diff;
      if (golden_bus(gv, *p.w_sel_valid) != 0) {
        // The scheduler stops issuing: hang, and nothing else counts.
        for_each_lane(d_sv, [&](unsigned k) {
          out[k].hang = true;
          alive.clear(k);
          retire(k);
        });
      } else {
        for_each_lane(d_sv, [&](unsigned k) {
          add(out[k].error_counts, ErrorModel::IAW);
        });
      }
      // Control buses carry their verdict in the diff mask alone: a lane
      // whose bus nets all match the golden machine has the golden value.
      const auto bus_model = [&](const PortBus& bus, ErrorModel m) {
        const LaneMask d = sim.diff_lanes(bus.nets, gv) & alive;
        for_each_lane(d,
                      [&](unsigned k) { add(out[k].error_counts, m); });
      };
      bus_model(*p.w_sel_slot, ErrorModel::IAW);
      bus_model(*p.w_mask_out, ErrorModel::IAT);
      bus_model(*p.w_lane_en, ErrorModel::IAL);
      bus_model(*p.w_base_out, ErrorModel::IPP);
      bus_model(*p.w_cta_out, ErrorModel::IAC);
      classify_word_bus(*p.w_dispatch, wc.regs_per_thread, alive);
      return;
    }
  }
}

void UnitReplayer::run_fault(const StuckFault& fault, const UnitTraces& t,
                             const GoldenTrace& g,
                             FaultCharacterization& out) const {
  if (out.hang) return;  // hung in an earlier trace: the unit is already dead
  const std::size_t n = num_cycles(t);
  const auto site = static_cast<std::size_t>(fault.net);
  const std::uint8_t stuck = fault.stuck_high ? 1 : 0;

  if (kind_ == UnitKind::Decoder) {
    // Combinational: each pattern is independent; skip non-activating ones.
    Simulator sim(*nl_);
    for (std::size_t c = 0; c < n; ++c) {
      if (g.row(c)[site] == stuck) continue;  // not activated by this pattern
      out.activated = true;
      sim.reset();
      sim.set_fault(fault);
      drive_inputs(sim, t, c);
      sim.eval();
      compare_outputs(t, c, g.row(c),
                      [&](const PortBus& b) { return sim.bus_value(b); }, out);
      if (out.hang) return;  // hang retire: no further patterns are decoded
    }
    return;
  }

  // Sequential: the activation window comes precomputed with the golden
  // trace (a stuck-at-v site activates exactly where the golden value is !v).
  const GoldenTrace::Window& win = g.windows[site];
  const std::uint32_t first = stuck ? win.first0 : win.first1;
  if (first == GoldenTrace::kNoCycle) return;  // never activated
  out.activated = true;

  Simulator sim(*nl_);
  sim.load_values(g.row(first));
  sim.set_fault(fault);
  for (std::size_t c = first; c < n; ++c) {
    drive_inputs(sim, t, c);
    sim.eval();
    if (cycle_is_issue(t, c)) {
      compare_outputs(t, c, g.row(c),
                      [&](const PortBus& b) { return sim.bus_value(b); }, out);
      if (out.hang) return;  // hang retire
    }
    sim.clock();
  }
}

void UnitReplayer::run_fault_batch(BatchSim& sim,
                                   std::span<const StuckFault> faults,
                                   const UnitTraces& t, const GoldenTrace& g,
                                   std::span<FaultCharacterization> out,
                                   const WordDiffTable* words) const {
  const std::size_t n = num_cycles(t);
  const std::size_t lanes = faults.size();
  if (n == 0 || lanes == 0) return;

  if (lanes > sim.width())
    throw std::invalid_argument("run_fault_batch: more faults than lanes");
  sim.set_observed(ports_->observed);
  sim.begin(faults);

  // Lane-cycles advanced by the word engine: together with wall time this is
  // the lanes-simulated-per-second rate of the active SIMD path.
  static obs::Counter& lane_cycles = obs::counter("gate.lane_cycles");

  // Lanes hung by an earlier trace are retired before the replay starts;
  // from here on `live` mirrors sim.lane_mask().
  LaneMask live;
  for (std::size_t k = 0; k < lanes; ++k) {
    if (out[k].hang)
      sim.retire_lane(static_cast<unsigned>(k));
    else
      live.set(static_cast<unsigned>(k));
  }
  if (!live.any()) return;

  // With cone pruning on, only gates downstream of the batch's fault sites
  // are word-evaluated; every other net tracks the golden trace exactly, so
  // diff_observed/state_diff restrict themselves to the cone too.
  const bool cone = sim.cone_active();

  // Diverged lanes are classified by classify_batch: per-bus diff masks come
  // word-wide from the engine (they scale with the SIMD width), and only
  // instruction-word decodes remain scalar per lane. gate.classify_lanes
  // counts the diverged lanes, gate.classify_table_lanes those whose
  // one-bit word diff came from the table instead of a decode; both are
  // published once per replay.
  static obs::Counter& classify_lanes = obs::counter("gate.classify_lanes");
  static obs::Counter& table_lanes = obs::counter("gate.classify_table_lanes");
  ClassifyScratch scratch;
  const auto classify_diverged = [&](const LaneMask& diff, std::size_t c) {
    if (!diff.any()) return;
    classify_batch(sim, t, c, g.row(c), diff, live, out, words, scratch);
  };
  const auto publish = [&] {
    classify_lanes.add(scratch.lanes);
    table_lanes.add(scratch.table_lanes);
  };

  // Inputs come from the golden rows: compute_goldens drives each row's
  // input nets exactly as drive_inputs drives a Simulator, and set_inputs
  // rewrites only the inputs that change.
  if (kind_ == UnitKind::Decoder) {
    // Combinational: one word evaluation covers all live lanes per pattern.
    LaneMask activated;
    for (std::size_t c = 0; c < n && live.any(); ++c) {
      const LaneMask act = sim.activated_lanes(g.row(c));
      if (!act.any()) continue;
      activated |= act;
      sim.set_inputs(g.row(c));
      if (cone)
        sim.eval_cone(g.row(c));
      else
        sim.eval();
      lane_cycles.add(lanes);
      classify_diverged(sim.diff_observed(g.row(c)) & act, c);
    }
    for_each_lane(activated, [&](unsigned k) { out[k].activated = true; });
    publish();
    return;
  }

  // Sequential: activation is a property of the golden trace alone, read
  // from the precomputed per-net windows. Before `first_any` every lane's
  // overlay is a no-op, so the replay can start from the golden snapshot.
  std::size_t first_any = n, last_any = 0;
  for_each_lane(live, [&](unsigned k) {
    const GoldenTrace::Window& win =
        g.windows[static_cast<std::size_t>(faults[k].net)];
    const bool stuck = faults[k].stuck_high;
    const std::uint32_t first = stuck ? win.first0 : win.first1;
    if (first == GoldenTrace::kNoCycle) return;
    out[k].activated = true;
    first_any = std::min<std::size_t>(first_any, first);
    last_any = std::max<std::size_t>(last_any, stuck ? win.last0 : win.last1);
  });
  if (first_any == n) return;  // no live lane ever activates

  sim.load_broadcast(g.row(first_any));
  for (std::size_t c = first_any; c < n; ++c) {
    sim.set_inputs(g.row(c));
    if (cone)
      sim.eval_cone(g.row(c));
    else
      sim.eval();
    lane_cycles.add(lanes);
    if (cycle_is_issue(t, c))
      classify_diverged(sim.diff_observed(g.row(c)), c);
    if (!live.any()) break;
    if (c + 1 < n) {
      sim.clock();
      // All-quiet early exit: past the last activating cycle, lanes whose
      // DFF state matches the golden machine can never diverge again.
      if (c >= last_any && !sim.state_diff_lanes(g.row(c + 1)).any()) break;
    }
  }
  publish();
}

// ---------------------------------------------------------------------------
// Campaign driver
// ---------------------------------------------------------------------------

void replay_faults(const UnitReplayer& replayer, EngineKind engine,
                   std::span<const StuckFault> faults,
                   std::span<const UnitTraces> traces,
                   std::span<const UnitReplayer::GoldenTrace> goldens,
                   const WordDiffTable* words,
                   std::span<FaultCharacterization> out, ThreadPool* pool,
                   const std::function<bool()>& stop,
                   const std::function<void(std::size_t, std::size_t)>& done) {
  const bool batch = engine == EngineKind::Batch;
  const std::size_t width = batch ? batch_lane_width() : 1;
  const std::size_t units = (faults.size() + width - 1) / width;
  const auto work = [&](std::size_t u) {
    if (stop && stop()) return;
    const std::size_t lo = u * width;
    const std::size_t len = std::min(width, faults.size() - lo);
    const auto f = faults.subspan(lo, len);
    const auto o = out.subspan(lo, len);
    if (batch) {
      obs::TraceSpan batch_span("gate", "batch");
      batch_span.arg("lanes", len);
      const std::unique_ptr<BatchSim> sim =
          make_batch_sim(replayer.netlist(), width);
      for (std::size_t ti = 0; ti < traces.size(); ++ti)
        replayer.run_fault_batch(*sim, f, traces[ti], goldens[ti], o, words);
      if (done) done(lo, len);
      return;
    }
    for (std::size_t ti = 0; ti < traces.size(); ++ti)
      replayer.run_fault(f[0], traces[ti], goldens[ti], o[0]);
    if (done) done(lo, len);
  };
  if (pool)
    pool->parallel_for(units, work);
  else
    for (std::size_t u = 0; u < units; ++u) work(u);
}

std::vector<StuckFault> sampled_fault_list(const Netlist& nl, UnitKind unit,
                                           std::size_t max_faults,
                                           std::uint64_t seed) {
  std::vector<StuckFault> faults = full_fault_list(nl);
  if (max_faults && faults.size() > max_faults) {
    Rng rng(seed ^ (static_cast<std::uint64_t>(unit) << 32));
    for (std::size_t i = 0; i < max_faults; ++i) {
      const std::size_t j = i + rng.below(faults.size() - i);
      std::swap(faults[i], faults[j]);
    }
    faults.resize(max_faults);
  }
  // Topological order keeps the fanout cones of each lane-width batch tight
  // and overlapping, which is what makes cone pruning (GPF_CONE) pay off.
  // The sort key is a strict total order, so the resulting id space is as
  // deterministic as the sample itself.
  const CompiledNetlist& cn = nl.compiled();
  std::sort(faults.begin(), faults.end(),
            [&](const StuckFault& a, const StuckFault& b) {
              const std::uint32_t ta = cn.topo_index[static_cast<std::size_t>(a.net)];
              const std::uint32_t tb = cn.topo_index[static_cast<std::size_t>(b.net)];
              if (ta != tb) return ta < tb;
              return a.stuck_high < b.stuck_high;
            });
  return faults;
}

void ActivationSummary::add(const UnitReplayer::GoldenTrace& g) {
  using GT = UnitReplayer::GoldenTrace;
  for (std::size_t i = 0; i < g.windows.size(); ++i) {
    ever0[i] |= g.windows[i].first0 != GT::kNoCycle;
    ever1[i] |= g.windows[i].first1 != GT::kNoCycle;
  }
}

FaultCharacterization expand_collapsed(const FaultCharacterization& rep,
                                       const StuckFault& member,
                                       const ActivationSummary& act) {
  FaultCharacterization out;
  out.fault = member;
  out.error_counts = rep.error_counts;
  out.hang = rep.hang;
  // A hang proves the class diverged at the outputs, and divergence requires
  // activation of every member's site (an unactivated member is the golden
  // machine). Without a hang, the replay scanned every cycle of every trace,
  // so the engine's activated bit reduces to "the golden value ever differed
  // from the stuck value" — exactly the summary bits.
  out.activated = rep.hang ? true : act.activated(member);
  return out;
}

}  // namespace gpf::gate
