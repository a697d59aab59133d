// Central registry of the GPF_* environment knobs. The paper's full
// campaigns (5.8e5 gate faults, 1.65e5 software injections) take hundreds of
// hours; bench binaries default to a statistically sampled slice and scale up
// via GPF_SCALE. Every knob is read here (and only here) so dump_env() can
// print the complete effective configuration at campaign start.
//
//   GPF_SCALE             campaign size multiplier (default 1.0)
//   GPF_SEED              base RNG seed (default 0xC0FFEE)
//   GPF_ENGINE            gate fault-simulation engine: brute | batch (default batch)
//   GPF_COLLAPSE          structural stuck-at fault collapsing: 1 | 0 (default 1)
//   GPF_CONE              batch-engine fanout-cone pruning: 1 | 0 (default 1)
//   GPF_LANES             batch-engine lane width: 64 | 256 | 512 (0 = widest the CPU runs)
//   GPF_THREADS           campaign thread-pool width (0 = hardware threads)
//   GPF_STORE_DIR         directory for persistent campaign stores (default ".")
//   GPF_COORD_ADDR        gpfd coordinator host:port (default 127.0.0.1:9777)
//   GPF_LEASE_MS          coordinator lease duration in ms (default 10000)
//   GPF_WORKER_BACKOFF_MS worker reconnect backoff base in ms (default 500)
//   GPF_FSYNC             fdatasync stores at checkpoint boundaries: 1 | 0 (default 1)
//   GPF_METRICS           process-wide metrics registry: 1 | 0 (default 1)
//   GPF_TRACE             Chrome trace-event JSON output path (default off)
//   GPF_STATUS_MS         campaign progress-line period in ms (default 5000, 0 = off)
//   GPF_HTTP_ADDR         gpfd HTTP/JSON endpoint host:port (default "" = off)
//
// Knobs are parsed strictly: a value that is not entirely a number (e.g.
// GPF_THREADS=max) or not one of the listed names (e.g. GPF_ENGINE=fast) is
// rejected with a warning on stderr and the documented default is used — it
// never silently becomes 0 or some other setting. Likewise a GPF_* variable
// that is set but read by nothing (a retired knob such as GPF_JIT, or a
// typo) is named in a warning by dump_env(), not silently ignored.
// GPF_BENCH_JSON_DIR, where the benches write their BENCH_*.json, is the one
// GPF_* variable read outside this registry.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace gpf {

/// Strictly parses `value` (the contents of environment variable `var`) as an
/// unsigned integer (decimal, or 0x/0-prefixed hex/octal). Leading/trailing
/// whitespace is allowed; anything else non-numeric — including a leading
/// minus sign, trailing garbage, or an empty string — rejects the whole
/// value: a warning naming `var` is printed on stderr and `fallback` is
/// returned. `value == nullptr` (unset variable) returns `fallback` silently.
unsigned long long parse_env_u64(const char* var, const char* value,
                                 unsigned long long fallback);

/// Same contract as parse_env_u64 for floating-point knobs (strtod grammar;
/// non-finite results are rejected too).
double parse_env_double(const char* var, const char* value, double fallback);

/// GPF_SCALE environment variable as a multiplier (default 1.0, min 0.01).
double campaign_scale();

/// n scaled by campaign_scale(), clamped to [min_n, n].
std::size_t scaled(std::size_t n, std::size_t min_n = 8);

/// GPF_SEED environment variable (default 0xC0FFEE).
unsigned long long campaign_seed();

/// Gate-campaign fault-simulation engine (see gate/replay.hpp). Selected per
/// process by GPF_ENGINE. The values are the engine byte of every gate store
/// header and lease grant, so they are pinned: 1 belonged to a removed
/// engine and must never be reused.
enum class EngineKind : std::uint8_t {
  Brute = 0,  ///< scalar resimulation of every (fault, cycle): the oracle
  Batch = 2,  ///< bit-parallel (PPSFP) word simulation, 64-512 lanes (GPF_LANES)
};
const char* engine_name(EngineKind e);

/// The engine called `name` ("brute" | "batch"), or nullopt for any other
/// string. GPF_ENGINE and the --engine flags of gpfctl/gpfd both resolve
/// names here, so this is the one list of engine names.
std::optional<EngineKind> engine_from_name(std::string_view name);

/// Parses a GPF_ENGINE value with the parse_env_u64 contract: unset or empty
/// means batch silently; an unknown name warns on stderr and means batch.
EngineKind parse_env_engine(const char* value);

/// GPF_ENGINE environment variable: "brute" | "batch" (default batch, the
/// production engine; brute is the oracle it must match).
EngineKind campaign_engine();

/// GPF_COLLAPSE environment variable: when on (the default), gate campaigns
/// simulate one representative per structural stuck-at equivalence class
/// (see gate/collapse.hpp) and expand results to the full per-fault record
/// stream — stores and exports stay byte-identical to an uncollapsed run.
/// "0" / "off" / "false" / "no" disable.
bool collapse_enabled();

/// GPF_CONE environment variable: when on (the default), the batch engine
/// word-evaluates only the union fanout cone of each fault batch and copies
/// golden values into out-of-cone nets. Same off-spellings as GPF_COLLAPSE.
bool cone_enabled();

/// Process-wide overrides for the two knobs above (tests toggle them without
/// re-execing): -1 = defer to the environment, 0 = off, 1 = on.
void set_collapse_override(int v);
void set_cone_override(int v);

/// GPF_LANES environment variable: an exact batch lane width (64, 256 or
/// 512). 0 / unset means the widest width this build and CPU support, which
/// gate::batch_lane_width() resolves against cpuid; other values warn on
/// stderr and mean 0.
std::size_t lanes_request();

/// GPF_THREADS environment variable: worker count for campaign thread pools
/// (0 = one per hardware thread). A process-wide override (the `--jobs N`
/// flag of gpfctl/gpfd) takes precedence over the environment.
std::size_t campaign_threads();

/// Overrides GPF_THREADS for the rest of the process (0 = clear the
/// override and fall back to the environment). Backs the `--jobs N` flag so
/// one invocation can size its pools without touching the environment.
void set_campaign_threads_override(std::size_t n);

/// GPF_STORE_DIR environment variable: where `gpfctl` and the checkpointed
/// campaign drivers place their .gpfs result logs (default ".").
std::string store_dir();

/// GPF_COORD_ADDR environment variable: the gpfd coordinator address a
/// worker connects to, as "host:port" (default "127.0.0.1:9777").
std::string coord_addr();

/// GPF_LEASE_MS environment variable: how long a leased work unit stays
/// assigned to a worker without a heartbeat/result before the coordinator
/// reassigns it (default 10000, min 50).
std::uint32_t lease_duration_ms();

/// GPF_WORKER_BACKOFF_MS environment variable: base delay of the worker's
/// exponential reconnect backoff (doubles per failed attempt, capped at
/// 64x; default 500, min 1).
std::uint32_t worker_backoff_ms();

/// GPF_FSYNC environment variable: when on (the default), the campaign store
/// issues fdatasync at checkpoint/lease-retire boundaries so acknowledged
/// work survives a host crash or power loss, not just a process kill. Same
/// off-spellings as GPF_COLLAPSE. Override: -1 = defer to environment.
bool fsync_enabled();
void set_fsync_override(int v);

/// GPF_METRICS environment variable: when on (the default), the process-wide
/// obs:: metrics registry records counters/gauges/histograms on the hot
/// paths; when off every record call is a single relaxed load + untaken
/// branch. Override: -1 = defer to environment (benches toggle this to
/// measure instrumentation overhead in one process).
bool metrics_enabled();
void set_metrics_override(int v);

/// GPF_TRACE environment variable: path of a Chrome trace-event JSON file to
/// write campaign -> unit -> batch spans into (viewable in chrome://tracing
/// or Perfetto). Empty string (the default) disables tracing.
std::string trace_path();

/// GPF_STATUS_MS environment variable: how often the single-process campaign
/// drivers print a progress/ETA line (default 5000 ms, 0 = off). The gpfd
/// coordinator's equivalent is its --status-ms flag.
std::uint32_t status_interval_ms();

/// GPF_HTTP_ADDR environment variable: "host:port" of gpfd's HTTP/1.1 JSON
/// endpoint (GET /v1/stats, /v1/campaigns, /v1/query), served from the
/// coordinator's event loop. Empty string (the default) disables
/// it; the gpfd --http flag overrides.
std::string http_addr();

/// The GPF_* variables set in `envp` (a null-terminated "NAME=value" array
/// like `environ`) that no code reads, in `envp` order.
std::vector<std::string> unread_env_knobs(char** envp);

/// Print every GPF_* knob with its effective value and whether it came from
/// the environment or a default, and warn on stderr once for each GPF_*
/// variable of the environment that no code reads. Campaign entry points
/// call this once at start so logs record the exact configuration.
void dump_env(std::ostream& os);

}  // namespace gpf
