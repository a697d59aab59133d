#include "common/env.hpp"

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <optional>
#include <ostream>
#include <string>
#include <string_view>

namespace gpf {

namespace {

// Skips leading whitespace and rejects a leading '-': all GPF_* numeric
// knobs are unsigned, and strtoull would otherwise wrap -3 to a huge value.
const char* numeric_start(const char* s) {
  while (std::isspace(static_cast<unsigned char>(*s))) ++s;
  return *s == '-' ? nullptr : s;
}

bool only_trailing_space(const char* end) {
  while (std::isspace(static_cast<unsigned char>(*end))) ++end;
  return *end == '\0';
}

}  // namespace

unsigned long long parse_env_u64(const char* var, const char* value,
                                 unsigned long long fallback) {
  if (!value) return fallback;
  const char* start = numeric_start(value);
  if (start && *start) {
    errno = 0;
    char* end = nullptr;
    const unsigned long long v = std::strtoull(start, &end, 0);
    if (end != start && errno != ERANGE && only_trailing_space(end)) return v;
  }
  std::fprintf(stderr,
               "[gpf] ignoring %s=\"%s\": not an unsigned integer; "
               "using default %llu\n",
               var, value, fallback);
  return fallback;
}

double parse_env_double(const char* var, const char* value, double fallback) {
  if (!value) return fallback;
  const char* start = numeric_start(value);
  if (start && *start) {
    errno = 0;
    char* end = nullptr;
    const double v = std::strtod(start, &end);
    if (end != start && errno != ERANGE && only_trailing_space(end) &&
        std::isfinite(v))
      return v;
  }
  std::fprintf(stderr,
               "[gpf] ignoring %s=\"%s\": not a number; using default %g\n",
               var, value, fallback);
  return fallback;
}

double campaign_scale() {
  static const double scale = [] {
    const double v = parse_env_double("GPF_SCALE", std::getenv("GPF_SCALE"), 1.0);
    return v > 0.01 ? v : 0.01;
  }();
  return scale;
}

std::size_t scaled(std::size_t n, std::size_t min_n) {
  const auto v = static_cast<std::size_t>(static_cast<double>(n) * campaign_scale());
  return std::clamp(v, std::min(min_n, n), std::max(n, v));
}

unsigned long long campaign_seed() {
  static const unsigned long long seed =
      parse_env_u64("GPF_SEED", std::getenv("GPF_SEED"), 0xC0FFEEULL);
  return seed;
}

const char* engine_name(EngineKind e) {
  switch (e) {
    case EngineKind::Brute: return "brute";
    case EngineKind::Batch: return "batch";
  }
  return "?";
}

std::optional<EngineKind> engine_from_name(std::string_view name) {
  for (const EngineKind e : {EngineKind::Brute, EngineKind::Batch})
    if (name == engine_name(e)) return e;
  return std::nullopt;
}

EngineKind parse_env_engine(const char* value) {
  if (!value || !*value) return EngineKind::Batch;
  if (const std::optional<EngineKind> e = engine_from_name(value)) return *e;
  std::fprintf(stderr,
               "[gpf] ignoring GPF_ENGINE=\"%s\": expected brute|batch; "
               "using batch\n",
               value);
  return EngineKind::Batch;
}

EngineKind campaign_engine() {
  static const EngineKind engine = parse_env_engine(std::getenv("GPF_ENGINE"));
  return engine;
}

namespace {
std::atomic<std::size_t> g_threads_override{0};
std::atomic<int> g_collapse_override{-1};
std::atomic<int> g_cone_override{-1};

bool env_flag(const char* var, bool dflt) {
  const char* s = std::getenv(var);
  if (!s || !*s) return dflt;
  const std::string v(s);
  return !(v == "0" || v == "off" || v == "false" || v == "no");
}
}  // namespace

bool collapse_enabled() {
  const int o = g_collapse_override.load();
  if (o >= 0) return o != 0;
  static const bool on = env_flag("GPF_COLLAPSE", true);
  return on;
}

bool cone_enabled() {
  const int o = g_cone_override.load();
  if (o >= 0) return o != 0;
  static const bool on = env_flag("GPF_CONE", true);
  return on;
}

void set_collapse_override(int v) { g_collapse_override = v < 0 ? -1 : (v ? 1 : 0); }
void set_cone_override(int v) { g_cone_override = v < 0 ? -1 : (v ? 1 : 0); }

namespace {
std::atomic<int> g_fuse_override{-1};
std::atomic<int> g_jit_override{-1};  // -1 defer, else JitMode value
std::mutex g_jit_cache_dir_mu;
std::string g_jit_cache_dir_override;  // guarded by g_jit_cache_dir_mu
}  // namespace

bool fuse_enabled() {
  const int o = g_fuse_override.load();
  if (o >= 0) return o != 0;
  static const bool on = env_flag("GPF_FUSE", true);
  return on;
}

void set_fuse_override(int v) { g_fuse_override = v < 0 ? -1 : (v ? 1 : 0); }

const char* jit_mode_name(JitMode m) {
  switch (m) {
    case JitMode::Off: return "off";
    case JitMode::On: return "on";
    case JitMode::Auto: return "auto";
  }
  return "?";
}

JitMode jit_mode() {
  const int o = g_jit_override.load();
  if (o >= 0) return static_cast<JitMode>(o);
  static const JitMode mode = [] {
    const char* s = std::getenv("GPF_JIT");
    if (!s || !*s) return JitMode::Auto;
    const std::string v(s);
    if (v == "off" || v == "0" || v == "false" || v == "no") return JitMode::Off;
    if (v == "on" || v == "1" || v == "true" || v == "yes") return JitMode::On;
    if (v == "auto") return JitMode::Auto;
    std::fprintf(stderr,
                 "[gpf] ignoring GPF_JIT=\"%s\": expected on|off|auto; "
                 "using auto\n",
                 s);
    return JitMode::Auto;
  }();
  return mode;
}

void set_jit_override(int v) {
  g_jit_override = (v < 0 || v > 2) ? -1 : v;
}

std::string jit_cache_dir() {
  {
    std::lock_guard<std::mutex> lk(g_jit_cache_dir_mu);
    if (!g_jit_cache_dir_override.empty()) return g_jit_cache_dir_override;
  }
  const char* s = std::getenv("GPF_JIT_CACHE_DIR");
  if (s && *s) return std::string(s);
  const char* tmp = std::getenv("TMPDIR");
  return std::string(tmp && *tmp ? tmp : "/tmp") + "/gpf-jit";
}

void set_jit_cache_dir_override(const std::string& dir) {
  std::lock_guard<std::mutex> lk(g_jit_cache_dir_mu);
  g_jit_cache_dir_override = dir;
}

std::size_t lanes_request() {
  static const std::size_t lanes = [] {
    const unsigned long long v =
        parse_env_u64("GPF_LANES", std::getenv("GPF_LANES"), 0);
    if (v == 0 || v == 64 || v == 256 || v == 512)
      return static_cast<std::size_t>(v);
    std::fprintf(stderr,
                 "[gpf] ignoring GPF_LANES=%llu: expected 64, 256 or 512; "
                 "using 0 (widest width this CPU supports)\n",
                 v);
    return std::size_t{0};
  }();
  return lanes;
}

std::size_t campaign_threads() {
  if (const std::size_t o = g_threads_override.load()) return o;
  static const std::size_t threads = static_cast<std::size_t>(
      parse_env_u64("GPF_THREADS", std::getenv("GPF_THREADS"), 0));
  return threads;
}

void set_campaign_threads_override(std::size_t n) { g_threads_override = n; }

std::string store_dir() {
  static const std::string dir = [] {
    const char* s = std::getenv("GPF_STORE_DIR");
    return std::string(s && *s ? s : ".");
  }();
  return dir;
}

std::string coord_addr() {
  static const std::string addr = [] {
    const char* s = std::getenv("GPF_COORD_ADDR");
    return std::string(s && *s ? s : "127.0.0.1:9777");
  }();
  return addr;
}

std::uint32_t lease_duration_ms() {
  static const std::uint32_t ms = [] {
    const unsigned long long v =
        parse_env_u64("GPF_LEASE_MS", std::getenv("GPF_LEASE_MS"), 10000);
    return static_cast<std::uint32_t>(std::clamp(v, 50ull, 0xFFFFFFFFull));
  }();
  return ms;
}

std::uint32_t worker_backoff_ms() {
  static const std::uint32_t ms = [] {
    const unsigned long long v = parse_env_u64(
        "GPF_WORKER_BACKOFF_MS", std::getenv("GPF_WORKER_BACKOFF_MS"), 500);
    return static_cast<std::uint32_t>(std::clamp(v, 1ull, 0xFFFFFFFFull));
  }();
  return ms;
}

namespace {
std::atomic<int> g_fsync_override{-1};
std::atomic<int> g_metrics_override{-1};
}  // namespace

bool fsync_enabled() {
  const int o = g_fsync_override.load();
  if (o >= 0) return o != 0;
  static const bool on = env_flag("GPF_FSYNC", true);
  return on;
}

void set_fsync_override(int v) { g_fsync_override = v < 0 ? -1 : (v ? 1 : 0); }

bool metrics_enabled() {
  const int o = g_metrics_override.load();
  if (o >= 0) return o != 0;
  static const bool on = env_flag("GPF_METRICS", true);
  return on;
}

void set_metrics_override(int v) {
  g_metrics_override = v < 0 ? -1 : (v ? 1 : 0);
}

std::string trace_path() {
  static const std::string path = [] {
    const char* s = std::getenv("GPF_TRACE");
    return std::string(s ? s : "");
  }();
  return path;
}

std::uint32_t status_interval_ms() {
  static const std::uint32_t ms = [] {
    const unsigned long long v =
        parse_env_u64("GPF_STATUS_MS", std::getenv("GPF_STATUS_MS"), 5000);
    return static_cast<std::uint32_t>(std::min(v, 0xFFFFFFFFull));
  }();
  return ms;
}

namespace {
std::atomic<int> g_warehouse_override{-1};
}  // namespace

bool warehouse_enabled() {
  const int o = g_warehouse_override.load();
  if (o >= 0) return o != 0;
  static const bool on = env_flag("GPF_WAREHOUSE", true);
  return on;
}

void set_warehouse_override(int v) {
  g_warehouse_override = v < 0 ? -1 : (v ? 1 : 0);
}

std::uint32_t compact_interval_ms() {
  static const std::uint32_t ms = [] {
    const unsigned long long v =
        parse_env_u64("GPF_COMPACT_MS", std::getenv("GPF_COMPACT_MS"), 5000);
    return static_cast<std::uint32_t>(std::min(v, 0xFFFFFFFFull));
  }();
  return ms;
}

std::string http_addr() {
  static const std::string addr = [] {
    const char* s = std::getenv("GPF_HTTP_ADDR");
    return std::string(s ? s : "");
  }();
  return addr;
}

void dump_env(std::ostream& os) {
  const auto line = [&os](const char* var, const std::string& value) {
    os << "# " << var << "=" << value
       << (std::getenv(var) ? "" : " (default)") << "\n";
  };
  line("GPF_SCALE", std::to_string(campaign_scale()));
  line("GPF_SEED", std::to_string(campaign_seed()));
  line("GPF_ENGINE", engine_name(campaign_engine()));
  if (g_collapse_override.load() >= 0)
    os << "# GPF_COLLAPSE=" << (collapse_enabled() ? "1" : "0") << " (override)\n";
  else
    line("GPF_COLLAPSE", collapse_enabled() ? "1" : "0");
  if (g_cone_override.load() >= 0)
    os << "# GPF_CONE=" << (cone_enabled() ? "1" : "0") << " (override)\n";
  else
    line("GPF_CONE", cone_enabled() ? "1" : "0");
  if (g_fuse_override.load() >= 0)
    os << "# GPF_FUSE=" << (fuse_enabled() ? "1" : "0") << " (override)\n";
  else
    line("GPF_FUSE", fuse_enabled() ? "1" : "0");
  if (g_jit_override.load() >= 0)
    os << "# GPF_JIT=" << jit_mode_name(jit_mode()) << " (override)\n";
  else
    line("GPF_JIT", jit_mode_name(jit_mode()));
  const bool cache_overridden = [] {
    std::lock_guard<std::mutex> lk(g_jit_cache_dir_mu);
    return !g_jit_cache_dir_override.empty();
  }();
  if (cache_overridden)
    os << "# GPF_JIT_CACHE_DIR=" << jit_cache_dir() << " (override)\n";
  else
    line("GPF_JIT_CACHE_DIR", jit_cache_dir());
  line("GPF_LANES", lanes_request() ? std::to_string(lanes_request())
                                    : "0 (auto: widest cpuid width)");
  if (const std::size_t o = g_threads_override.load())
    os << "# GPF_THREADS=" << o << " (--jobs override)\n";
  else
    line("GPF_THREADS", campaign_threads()
                            ? std::to_string(campaign_threads())
                            : "0 (hardware threads)");
  line("GPF_STORE_DIR", store_dir());
  line("GPF_COORD_ADDR", coord_addr());
  line("GPF_LEASE_MS", std::to_string(lease_duration_ms()));
  line("GPF_WORKER_BACKOFF_MS", std::to_string(worker_backoff_ms()));
  if (g_fsync_override.load() >= 0)
    os << "# GPF_FSYNC=" << (fsync_enabled() ? "1" : "0") << " (override)\n";
  else
    line("GPF_FSYNC", fsync_enabled() ? "1" : "0");
  if (g_metrics_override.load() >= 0)
    os << "# GPF_METRICS=" << (metrics_enabled() ? "1" : "0") << " (override)\n";
  else
    line("GPF_METRICS", metrics_enabled() ? "1" : "0");
  line("GPF_TRACE", trace_path().empty() ? "(off)" : trace_path());
  line("GPF_STATUS_MS", std::to_string(status_interval_ms()));
  if (g_warehouse_override.load() >= 0)
    os << "# GPF_WAREHOUSE=" << (warehouse_enabled() ? "1" : "0")
       << " (override)\n";
  else
    line("GPF_WAREHOUSE", warehouse_enabled() ? "1" : "0");
  line("GPF_COMPACT_MS", std::to_string(compact_interval_ms()));
  line("GPF_HTTP_ADDR", http_addr().empty() ? "(off)" : http_addr());
}

}  // namespace gpf
