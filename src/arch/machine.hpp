// The functional GPU model: SMs containing PPBs; each PPB has a functional
// warp-scheduler (WSC), fetch and decode stage, 32 SP lanes, and shared SFUs.
// Every pipeline stage is exposed through MachineHooks so the RTL fault
// layer, the gate-level co-simulation, and the PERfi software injector can
// observe or override it.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "arch/exec.hpp"
#include "arch/types.hpp"
#include "isa/program.hpp"

namespace gpf::arch {

inline constexpr std::uint32_t kNoReconv = 0xFFFFFFFFu;
inline constexpr unsigned kMaxStackDepth = 64;

/// One SIMT reconvergence-stack entry. The top entry is the running state;
/// it pops when its PC reaches its reconvergence PC.
struct SimtEntry {
  std::uint32_t pc = 0;
  std::uint32_t reconv_pc = kNoReconv;
  std::uint32_t mask = 0;
};

/// Resident warp state (one scheduler slot).
struct Warp {
  bool valid = false;
  bool done = false;
  bool at_barrier = false;
  unsigned slot = 0;
  unsigned warp_in_cta = 0;
  unsigned cta_x = 0, cta_y = 0;
  std::uint32_t exist_mask = 0;  ///< lanes holding real threads
  std::vector<SimtEntry> stack;
  std::array<std::uint8_t, kWarpSize> preds{};  ///< bit i of lane byte = Pi
  std::array<std::uint16_t, kWarpSize> tid_x{}, tid_y{}, tid_z{};

  std::uint32_t active_mask() const { return stack.empty() ? 0 : stack.back().mask; }
  std::uint32_t pc() const { return stack.empty() ? 0 : stack.back().pc; }
  bool ready() const { return valid && !done && !at_barrier && !stack.empty(); }
};

class Gpu;

/// Per-issue context handed to hooks. Mutations (instruction fields, the
/// execution mask, register/predicate contents) take effect immediately —
/// this is the software surface PERfi's error functions operate on.
class ExecCtx {
 public:
  ExecCtx(Gpu& gpu, unsigned sm, unsigned ppb, Warp& warp, std::uint32_t pc,
          isa::Instruction instr);

  isa::Instruction instr;     ///< decoded instruction (mutable)
  std::uint32_t pc;
  unsigned sm_id, ppb_id;
  std::uint32_t exec_mask = 0;  ///< lanes that will execute (active & guard)
  bool skip = false;            ///< set true to suppress execution entirely

  Warp& warp() { return warp_; }
  const Warp& warp() const { return warp_; }
  Gpu& gpu() { return gpu_; }

  /// Architectural register access for this warp (RZ reads 0 / discards).
  /// Out-of-bounds indices set the pending trap, mirroring hardware.
  std::uint32_t read_reg(unsigned lane, std::uint8_t r);
  void write_reg(unsigned lane, std::uint8_t r, std::uint32_t v);
  bool read_pred(unsigned lane, std::uint8_t p) const;
  void write_pred(unsigned lane, std::uint8_t p, bool v);

  TrapKind pending_trap = TrapKind::None;

 private:
  friend class Gpu;
  /// Register `r`'s row in the window: 32 lane-contiguous words.
  std::uint32_t* row(std::uint8_t r) const { return regs_ + std::size_t{r} * kWarpSize; }

  Gpu& gpu_;
  Warp& warp_;
  std::uint32_t* regs_;        ///< the warp's register window, [reg][lane]
  unsigned regs_per_thread_;   ///< the running program's IVRA boundary
};

/// Stage-override hooks. Default implementations are transparent.
class MachineHooks {
 public:
  virtual ~MachineHooks() = default;
  virtual void on_launch_begin(Gpu&, const isa::Program&) {}
  /// Called once per PPB cycle before scheduling; may corrupt warp state.
  virtual void pre_cycle(Gpu&, unsigned /*sm*/, unsigned /*ppb*/) {}
  /// WSC output: the selected warp slot (-1 = none). May be overridden.
  virtual int post_select(Gpu&, unsigned /*sm*/, unsigned /*ppb*/, int slot) {
    return slot;
  }
  /// Fetch outputs: the program counter and the fetched instruction word.
  virtual std::uint32_t post_fetch_pc(Gpu&, unsigned, unsigned, unsigned /*slot*/,
                                      std::uint32_t pc) {
    return pc;
  }
  virtual std::uint64_t post_fetch_word(Gpu&, unsigned, unsigned, unsigned /*slot*/,
                                        std::uint64_t word) {
    return word;
  }
  /// Decoder output: the decoded field bundle plus its validity.
  virtual void post_decode(Gpu&, unsigned, unsigned, isa::Instruction&, bool& /*ok*/) {}
  /// Instruction-level instrumentation (PERfi's error functions).
  virtual void pre_execute(ExecCtx&) {}
  virtual void post_execute(ExecCtx&) {}
};

/// CTA (thread block) resident on an SM.
struct CtaState {
  bool active = false;
  unsigned cta_x = 0, cta_y = 0;
  unsigned expected_warps = 0;  ///< barrier releases only when ALL arrive
  std::vector<std::uint32_t> shared;
};

/// A parallel processing block: warp slots + register file + local memory.
struct Ppb {
  std::vector<Warp> warps;
  std::vector<std::uint32_t> regfile;  ///< [slot][reg][lane]
  std::vector<std::uint32_t> local;    ///< [slot][lane][word]
  unsigned rr_next = 0;                ///< round-robin scheduler pointer
};

struct Sm {
  std::vector<Ppb> ppbs;
  CtaState cta;
};

class Gpu {
 public:
  explicit Gpu(GpuConfig cfg = {});

  const GpuConfig& config() const { return cfg_; }

  // -- memory ------------------------------------------------------------
  // Global memory spans GpuConfig::global_words words, but only a prefix of
  // it is stored: logical memory is the stored prefix followed by zeros up
  // to global_words. The prefix grows to the end of the highest registered
  // segment; a bare-metal launch or a global() call stores all of it.

  /// The whole of global memory, for bare-metal tests. Stores all
  /// global_words words (8 MiB by default) until the next clear_memories();
  /// host code reads through read_global instead.
  std::vector<std::uint32_t>& global();
  std::vector<std::uint32_t>& constm() { return const_; }
  void write_global(std::size_t addr, std::span<const std::uint32_t> data);
  void write_global_f(std::size_t addr, std::span<const float> data);
  /// Words [addr, addr + n), which must lie in the stored prefix (every
  /// registered segment does); throws std::out_of_range otherwise. The view
  /// lasts until the prefix next grows or is cleared.
  std::span<const std::uint32_t> read_global(std::size_t addr, std::size_t n) const;
  std::vector<float> read_global_f(std::size_t addr, std::size_t n) const;
  /// Number of global words stored (the prefix length).
  std::size_t resident_global_words() const { return global_.size(); }
  /// Zeroes global, constant and local memory and drops every segment. The
  /// stored prefix drops to zero length but keeps its capacity, so the cost
  /// is O(stored words), paid by the next setup's zero-fill.
  void clear_memories();

  /// Allocation map: like CUDA allocations, only registered segments are
  /// addressable by kernels; anything else raises IllegalAddress. With no
  /// segments registered the whole global memory is valid (bare-metal mode,
  /// used by unit tests). write_global/write_global_f register implicitly.
  void reserve_global(std::size_t addr, std::size_t words);
  bool global_addr_valid(std::uint64_t addr) const;

  // -- plumbing ------------------------------------------------------
  void set_exec(ExecUnit* unit) { exec_ = unit; }  ///< nullptr = builtin FastExec
  void set_hooks(MachineHooks* hooks) { hooks_ = hooks; }

  // -- execution -----------------------------------------------------------
  /// Run a kernel to completion (or trap). `max_cycles` of 0 uses the config
  /// watchdog.
  LaunchResult launch(const isa::Program& prog, Dim3 grid, Dim3 block,
                      std::uint64_t max_cycles = 0);

  // -- introspection (used by hooks / fault layers) -----------------------
  Sm& sm(unsigned i) { return sms_[i]; }
  unsigned num_sms() const { return static_cast<unsigned>(sms_.size()); }
  const isa::Program* running_program() const { return prog_; }
  std::uint64_t cycle() const { return cycle_; }

  std::uint32_t& reg_at(unsigned sm, unsigned ppb, unsigned slot, unsigned lane,
                        unsigned reg);

  /// Raise a trap from hook code (aborts the current launch).
  void raise_trap(TrapKind kind, std::uint32_t pc);

 private:
  friend class ExecCtx;

  int select_warp(unsigned sm, unsigned ppb);
  bool step_ppb(unsigned sm, unsigned ppb, LaunchResult& res);
  void execute(ExecCtx& ctx);
  void execute_warp(ExecCtx& ctx);
  void execute_mem(ExecCtx& ctx);
  void init_cta(unsigned sm, unsigned cta_x, unsigned cta_y);
  /// Stamps the cycle count, ends the launch and adds it to the arch.* counters.
  LaunchResult finish_launch(LaunchResult res);
  void release_barriers(unsigned sm);
  bool sm_idle(unsigned sm) const;

  std::uint32_t mem_read(ExecCtx& ctx, isa::MemSpace space, unsigned lane,
                         std::uint64_t addr);
  void mem_write(ExecCtx& ctx, isa::MemSpace space, unsigned lane,
                 std::uint64_t addr, std::uint32_t value);
  std::uint32_t special_value(const ExecCtx& ctx, unsigned lane,
                              std::uint8_t sr) const;

  bool global_in_bounds(std::size_t addr, std::size_t n) const {
    return n <= cfg_.global_words && addr <= cfg_.global_words - n;
  }

  GpuConfig cfg_;
  std::vector<std::uint32_t> global_;  // the stored prefix of global memory
  std::vector<std::uint32_t> const_;
  std::vector<std::pair<std::size_t, std::size_t>> segments_;  // (base, words)
  std::vector<Sm> sms_;
  FastExec builtin_exec_;
  ExecUnit* exec_ = nullptr;
  MachineHooks* hooks_ = nullptr;

  // Launch-scoped state.
  const isa::Program* prog_ = nullptr;
  Dim3 grid_{}, block_{};
  std::uint64_t cycle_ = 0;
  TrapKind trap_ = TrapKind::None;
  std::uint32_t trap_pc_ = 0;
};

}  // namespace gpf::arch
