// True JIT backend for the optimized gate program (gate/gateprog.hpp).
//
// jit_module() emits a self-contained C++ translation unit for one
// (program stream, lane width) pair — one function per netlist LEVEL, each a
// straight line of vector-extension bitwise ops over the engine's value
// array — compiles it with the system C++ compiler (-shared -fPIC plus the
// width's -m flags), dlopen()s the result and returns the per-level function
// table. Emitting per level rather than one giant function keeps every
// function compiler-friendly AND lets the host engine apply its sparse
// stuck-at force fixups between level calls, which is exact because the
// stream is levelized: every consumer of a level-L net runs at level > L.
//
// The shared object is cached under GPF_JIT_CACHE_DIR keyed by an FNV hash
// of the emitted source (which embeds the program's structure hash, the
// width and a codegen version), so a process, a fleet worker, or the next
// run of the same campaign reuses the compile. A corrupt or stale cache
// entry fails dlopen/validation, is unlinked, and is recompiled once.
//
// Everything degrades to nullptr — GPF_JIT=off, no compiler on the host
// (one warning, then the interpreter), compile failure,
// auto mode on a netlist too small to amortize the compile. Callers treat
// nullptr as "interpret".
#pragma once

#include <cstdint>
#include <memory>

#include "gate/gateprog.hpp"

namespace gpf::gate {

struct JitModule {
  /// One function per level; levels[l] evaluates every op whose output net
  /// is at levelization depth l. Index 0 (sources) and empty levels are
  /// null. `vals` is the engine's value array (LaneWord<N>*, storage_size
  /// entries: nets then vreg slots).
  using LevelFn = void (*)(void* vals);
  std::vector<LevelFn> levels;
  std::size_t width = 0;
  void* handle = nullptr;
  ~JitModule();
};

/// Compiled module for `stream` of `gp` at `lanes` lanes, or nullptr when
/// the JIT is off/unavailable/not worth it (see file comment). Memoized
/// in-process and disk-cached across processes; thread-safe.
std::shared_ptr<const JitModule> jit_module(const GateProgram& gp,
                                            const Stream& stream,
                                            std::size_t lanes);

/// True when a working system C++ compiler was found (probed once).
bool jit_compiler_available();

/// Effective engine tag for status lines and logs: "jit" when GPF_JIT
/// resolves to a usable JIT (mode != off and a compiler exists), else
/// "interp".
const char* batch_engine_tag();

/// Drops the in-process module memo and re-probes the compiler on next use.
/// Tests use this to exercise stale-cache recovery paths.
void jit_reset_for_tests();

}  // namespace gpf::gate
