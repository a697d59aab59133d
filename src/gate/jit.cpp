#include "gate/jit.hpp"

#include <dlfcn.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <mutex>
#include <string>
#include <tuple>

#include "common/env.hpp"
#include "obs/metrics.hpp"

namespace gpf::gate {

namespace {

// Netlists below this op count interpret faster than they compile; auto mode
// skips them (GPF_JIT=on compiles regardless, which is what the tests use).
constexpr std::size_t kJitAutoMinOps = 192;

std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 1469598103934665603ull;
  for (const unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

std::mutex g_mu;
std::map<std::string, std::shared_ptr<const JitModule>> g_modules;
/// Fast in-process memo keyed by (structure hash, lanes, op count): engines
/// are constructed once per BATCH, so the repeat path must not re-emit the
/// source text just to compute the cache filename.
std::map<std::tuple<std::uint64_t, std::size_t, std::size_t>,
         std::shared_ptr<const JitModule>>
    g_by_key;
int g_compiler_probed = 0;  // 0 = not yet, 1 = found, -1 = absent
std::string g_compiler;
bool g_warned_no_compiler = false;

// All guarded by g_mu.
const char* find_compiler_locked() {
  if (g_compiler_probed != 0) return g_compiler_probed > 0 ? g_compiler.c_str() : nullptr;
  const char* env_cxx = std::getenv("CXX");
  const char* candidates[] = {env_cxx, "c++", "g++", "clang++"};
  for (const char* c : candidates) {
    if (!c || !*c) continue;
    std::string probe = "command -v ";
    probe += c;
    probe += " >/dev/null 2>&1";
    if (std::system(probe.c_str()) == 0) {
      g_compiler = c;
      g_compiler_probed = 1;
      return g_compiler.c_str();
    }
  }
  g_compiler_probed = -1;
  return nullptr;
}

/// Concatenates `parts` by appending each to one string. GCC 12 at -O3
/// reports a false -Wrestrict on `"literal" + std::string&&`, which this
/// form never builds.
template <class... Parts>
std::string cat(const Parts&... parts) {
  std::string s;
  (s += ... += parts);
  return s;
}

void emit_op(std::string& src, const Instr& in) {
  char buf[160];
  const auto v = [](std::uint32_t i) {
    return cat("v[", std::to_string(i), "]");
  };
  std::string rhs;
  switch (static_cast<Op>(in.op)) {
    case Op::Const0: rhs = "Z"; break;
    case Op::Const1: rhs = "O"; break;
    case Op::Copy: rhs = v(in.a); break;
    case Op::NCopy: rhs = cat("~", v(in.a)); break;
    case Op::And: rhs = cat(v(in.a), " & ", v(in.b)); break;
    case Op::Or: rhs = cat(v(in.a), " | ", v(in.b)); break;
    case Op::Nand: rhs = cat("~(", v(in.a), " & ", v(in.b), ")"); break;
    case Op::Nor: rhs = cat("~(", v(in.a), " | ", v(in.b), ")"); break;
    case Op::Xor: rhs = cat(v(in.a), " ^ ", v(in.b)); break;
    case Op::Xnor: rhs = cat("~(", v(in.a), " ^ ", v(in.b), ")"); break;
    case Op::Mux:
      rhs = cat("(", v(in.a), " & ", v(in.c), ") | (~", v(in.a), " & ",
                v(in.b), ")");
      break;
    case Op::Xor3: rhs = cat(v(in.a), " ^ ", v(in.b), " ^ ", v(in.c)); break;
    case Op::Xnor3:
      rhs = cat("~(", v(in.a), " ^ ", v(in.b), " ^ ", v(in.c), ")");
      break;
    default: {
      const std::uint32_t bits =
          in.op - static_cast<std::uint32_t>(Op::Fuse2_0);
      std::string mid =
          cat("(", v(in.a), (bits & 1) ? " | " : " & ", v(in.b), ")");
      if (bits & 4) mid = cat("~", mid);
      rhs = cat("(", mid, (bits & 2) ? " | " : " & ", v(in.c), ")");
      if (bits & 8) rhs = cat("~", rhs);
      break;
    }
  }
  std::snprintf(buf, sizeof buf, "  v[%u] = ", in.out);
  src += buf;
  src += rhs;
  src += ";\n";
}

std::string emit_source(const GateProgram& gp, const Stream& stream,
                        std::size_t lanes) {
  std::string src;
  src.reserve(64 * stream.code.size() + 1024);
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "// gpf jit codegen: struct=%016llx lanes=%zu ops=%zu\n",
                static_cast<unsigned long long>(gp.struct_hash), lanes,
                stream.code.size());
  src += buf;
  src += "typedef unsigned long long u64;\n";
  if (lanes == 64) {
    src += "typedef u64 W;\n";
  } else {
    std::snprintf(buf, sizeof buf,
                  "typedef u64 W __attribute__((vector_size(%zu)));\n",
                  lanes / 8);
    src += buf;
  }
  src += "static const W Z = {};\nstatic const W O = ~Z;\n";

  const std::size_t num_levels = gp.cn->num_levels();
  std::vector<bool> has_level(num_levels + 1, false);
  std::size_t i = 0;
  while (i < stream.code.size()) {
    const std::int32_t lvl = stream.meta[i].level;
    has_level[static_cast<std::size_t>(lvl)] = true;
    std::snprintf(buf, sizeof buf, "static void lvl%d(W* v) {\n", lvl);
    src += buf;
    // The stream is in slot order, which is levelized, so each level is one
    // contiguous run of ops.
    while (i < stream.code.size() && stream.meta[i].level == lvl) {
      emit_op(src, stream.code[i]);
      ++i;
    }
    src += "}\n";
  }

  src += "extern \"C\" {\n";
  std::snprintf(buf, sizeof buf,
                "unsigned long long gpf_jit_hash = 0x%016llxull;\n",
                static_cast<unsigned long long>(gp.struct_hash));
  src += buf;
  std::snprintf(buf, sizeof buf, "unsigned gpf_jit_width = %zu;\n", lanes);
  src += buf;
  std::snprintf(buf, sizeof buf, "unsigned gpf_jit_num_levels = %zu;\n",
                num_levels);
  src += buf;
  src += "typedef void (*Fn)(W*);\nFn gpf_jit_levels[] = {\n";
  for (std::size_t l = 0; l <= num_levels; ++l) {
    if (has_level[l])
      src += "  lvl" + std::to_string(l) + ",\n";
    else
      src += "  0,\n";
  }
  src += "};\n}\n";
  return src;
}

std::shared_ptr<const JitModule> try_load(const std::string& so_path,
                                          const GateProgram& gp,
                                          std::size_t lanes) {
  void* h = dlopen(so_path.c_str(), RTLD_NOW | RTLD_LOCAL);
  if (!h) return nullptr;
  const auto sym = [&](const char* name) { return dlsym(h, name); };
  auto* hash = static_cast<unsigned long long*>(sym("gpf_jit_hash"));
  auto* width = static_cast<unsigned*>(sym("gpf_jit_width"));
  auto* nlev = static_cast<unsigned*>(sym("gpf_jit_num_levels"));
  auto* table = static_cast<JitModule::LevelFn*>(sym("gpf_jit_levels"));
  if (!hash || !width || !nlev || !table || *hash != gp.struct_hash ||
      *width != lanes || *nlev != gp.cn->num_levels()) {
    dlclose(h);
    return nullptr;
  }
  auto mod = std::make_shared<JitModule>();
  mod->handle = h;
  mod->width = lanes;
  mod->levels.assign(table, table + *nlev + 1);
  return mod;
}

bool compile_so(const std::string& cxx, const std::string& src_text,
                const std::string& dir, const std::string& so_path,
                std::size_t lanes) {
  namespace fs = std::filesystem;
  std::error_code ec;
  fs::create_directories(dir, ec);
  const std::string tag = std::to_string(static_cast<long>(::getpid()));
  const std::string cpp = so_path + "." + tag + ".cpp";
  const std::string tmp_so = so_path + "." + tag + ".tmp";
  {
    std::ofstream out(cpp, std::ios::trunc);
    if (!out) return false;
    out << src_text;
  }
  const char* mflags = lanes == 512 ? " -mavx512f"
                       : lanes == 256 ? " -mavx2"
                                      : "";
  const std::string cmd = cxx + " -O1 -shared -fPIC" + mflags + " -o '" +
                          tmp_so + "' '" + cpp + "' >/dev/null 2>&1";
  bool ok;
  {
    static obs::Histogram& compile_us = obs::histogram("gate.jit.compile_us");
    obs::ScopedTimerUs t(compile_us);
    ok = std::system(cmd.c_str()) == 0;
  }
  if (ok) {
    // rename() is atomic, so concurrent fleet workers compiling the same
    // hash race harmlessly: both produce identical bytes.
    ok = std::rename(tmp_so.c_str(), so_path.c_str()) == 0;
  }
  fs::remove(cpp, ec);
  fs::remove(tmp_so, ec);
  return ok;
}

}  // namespace

JitModule::~JitModule() {
  if (handle) dlclose(handle);
}

std::shared_ptr<const JitModule> jit_module(const GateProgram& gp,
                                            const Stream& stream,
                                            std::size_t lanes) {
  const JitMode mode = jit_mode();
  if (mode == JitMode::Off) return nullptr;
  if (mode == JitMode::Auto && stream.code.size() < kJitAutoMinOps)
    return nullptr;

  const auto key = std::make_tuple(gp.struct_hash, lanes, stream.code.size());
  {
    std::lock_guard<std::mutex> lk(g_mu);
    if (const auto it = g_by_key.find(key); it != g_by_key.end())
      return it->second;
  }

  const std::string src = emit_source(gp, stream, lanes);
  const std::string dir = jit_cache_dir();
  char name[96];
  std::snprintf(name, sizeof name, "/gpf-%016llx-w%zu.so",
                static_cast<unsigned long long>(fnv1a(src)), lanes);
  const std::string so_path = dir + name;

  std::lock_guard<std::mutex> lk(g_mu);
  if (const auto it = g_modules.find(so_path); it != g_modules.end()) {
    g_by_key[key] = it->second;
    return it->second;
  }

  const char* cxx = find_compiler_locked();
  if (!cxx) {
    if (!g_warned_no_compiler) {
      g_warned_no_compiler = true;
      std::fprintf(stderr,
                   "[gpf] GPF_JIT=%s: no system C++ compiler found; using "
                   "the interpreter\n",
                   jit_mode_name(mode));
    }
    g_by_key[key] = nullptr;
    return nullptr;
  }

  static obs::Counter& hits = obs::counter("gate.jit.cache_hits");
  static obs::Counter& compiles = obs::counter("gate.jit.compiles");
  static obs::Counter& fallbacks = obs::counter("gate.jit.fallbacks");

  std::shared_ptr<const JitModule> mod = try_load(so_path, gp, lanes);
  if (mod) {
    hits.add(1);
  } else {
    // Cache miss, or a stale/corrupt entry: drop it and compile fresh once.
    std::error_code ec;
    std::filesystem::remove(so_path, ec);
    if (compile_so(cxx, src, dir, so_path, lanes)) {
      compiles.add(1);
      mod = try_load(so_path, gp, lanes);
    }
    if (!mod) {
      fallbacks.add(1);
      std::fprintf(stderr,
                   "[gpf] GPF_JIT=%s: native compile/load failed for %s; "
                   "using the interpreter\n",
                   jit_mode_name(mode), so_path.c_str());
    }
  }
  g_modules[so_path] = mod;  // negative results memoized too
  g_by_key[key] = mod;
  return mod;
}

bool jit_compiler_available() {
  std::lock_guard<std::mutex> lk(g_mu);
  return find_compiler_locked() != nullptr;
}

const char* batch_engine_tag() {
  if (jit_mode() == JitMode::Off) return "interp";
  return jit_compiler_available() ? "jit" : "interp";
}

void jit_reset_for_tests() {
  std::lock_guard<std::mutex> lk(g_mu);
  g_modules.clear();
  g_by_key.clear();
  g_compiler_probed = 0;
  g_warned_no_compiler = false;
}

}  // namespace gpf::gate
