// Deleted: the gate JIT. The batch engine interprets the fused gate program
// (gate/batchsim_impl.hpp) and compiles nothing at run time. These names
// stay only because the campaign benchmark (campaignbench/) still calls
// them; they go with ROADMAP item 2's benchmark revision. Nothing outside
// campaignbench/ includes this header.
#pragma once

#include <cstdint>
#include <string>

namespace gpf {

enum class JitMode : std::uint8_t { Off, On, Auto };
inline JitMode jit_mode() { return JitMode::Off; }
inline const char* jit_mode_name(JitMode m) {
  return m == JitMode::Off ? "off" : m == JitMode::On ? "on" : "auto";
}
inline void set_jit_cache_dir_override(const std::string&) {}

namespace gate {
inline void jit_reset_for_tests() {}
inline const char* batch_engine_tag() { return "interp"; }
}  // namespace gate

}  // namespace gpf
