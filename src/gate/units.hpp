// Gate-level netlists of the three units the paper characterizes: the
// instruction decoder, the fetch unit, and the Warp Scheduler Controller.
// Port names form the contract between the builders, the trace profiler, and
// the replay campaign.
#pragma once

#include <memory>

#include "gate/netlist.hpp"

namespace gpf::gate {

inline constexpr unsigned kUnitWarps = 8;   ///< warp slots per PPB
inline constexpr unsigned kPcBits = 16;

/// Which unit a netlist models.
enum class UnitKind : std::uint8_t { Decoder, Fetch, WSC };
const char* unit_name(UnitKind u);

/// Decoder (combinational).
///   in : instr[64], fetch_valid[1]
///   out: valid, opcode[8], guard_pred[3], guard_neg, use_imm, space[2],
///        rd[8], rs1[8], rs2[8], rs3[8], imm[32],
///        class signals: is_int is_fp32 is_sfu is_mem is_store is_branch
///        is_ssy is_bar is_exit writes_pred is_s2r
std::unique_ptr<Netlist> build_decoder_unit();

/// Fetch (sequential: per-warp PC bank + instruction bus).
///   in : sel_slot[3], sel_valid, instr_in[64], redirect_en, redirect_pc[16],
///        pc_wr_en, init_en, init_slot[3], init_pc[16]
///   out: pc_out[16], instr_out[64], fetch_valid
std::unique_ptr<Netlist> build_fetch_unit();

/// Warp Scheduler Controller (sequential: warp state table + rotating
/// priority arbiter + lane-enable configuration).
///   in : wr_slot[3], wr_state_en, wr_valid, wr_done, wr_barrier,
///        wr_mask_en, wr_mask[32], wr_base_en, wr_base[8],
///        wr_cta_en, wr_cta[4], lane_cfg_en, lane_cfg[32], barrier_release
///   out: sel_slot[3], sel_valid, mask_out[32], lane_en[32],
///        active_lanes[32], base_out[8], cta_out[4]
std::unique_ptr<Netlist> build_wsc_unit();

/// Structural FP32 FMA core (unpackers, 24x24 shift-add multiplier array,
/// alignment barrel shifter, 48-bit adder, normalization shifter, rounding
/// incrementer). Used as the area yardstick of Table 3 — the paper compares
/// each control unit's area against one FP32 functional-unit core.
std::unique_ptr<Netlist> build_fp32_core();

std::unique_ptr<Netlist> build_unit(UnitKind u);

/// The unit's netlist, built once per process and shared read-only by every
/// campaign (replayers, fault-list sizing, collapse maps). Thread-safe.
std::shared_ptr<const Netlist> unit_netlist(UnitKind u);

}  // namespace gpf::gate
