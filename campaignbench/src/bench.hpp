// Shared pieces of the campaign benchmark: clocks, the statistics rules,
// the in-memory span tracer and its self-time arithmetic, export digests,
// and the Workload interface the four workloads implement.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "store/result_log.hpp"

namespace cb {

using Clock = std::chrono::steady_clock;

/// gpfctl's default --seed. The committed reference digests are those of
/// campaigns made with it, and the rtl pipeline and scheduler campaigns
/// always use it (see workloads.cpp).
constexpr std::uint64_t kReferenceSeed = 0xC0FFEE;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
inline double seconds_since(Clock::time_point a) {
  return seconds_between(a, Clock::now());
}

/// CPU seconds this process has used, over all its threads. The kernel
/// leaves out time a thread waited for a CPU, including time the hypervisor
/// gave this machine's CPUs to other guests, so unlike wall time it does
/// not grow when other programs or guests take the CPUs.
double cpu_seconds();

/// Wall and CPU seconds of a stretch of calls.
struct Times {
  double wall = 0, cpu = 0;
  Times& operator+=(const Times& o) {
    wall += o.wall;
    cpu += o.cpu;
    return *this;
  }
};

/// Start of a stretch measured in Times.
struct Stamp {
  Clock::time_point wall = Clock::now();
  double cpu = cpu_seconds();
  Times elapsed() const { return {seconds_since(wall), cpu_seconds() - cpu}; }
};

// ---------------------------------------------------------------------------
// Statistics
// ---------------------------------------------------------------------------

/// Median (mean of the two middle values for an even count); 0 when empty.
double median(std::vector<double> v);

/// A tail percentile chosen by the benchmark's rule: the highest entry of
/// {99.9, 99, 95, 90, 75, 50} that leaves at least ten samples above the
/// nearest-rank value. Fewer than 20 samples fall back to the median, with
/// `pct` = 50 so the report says so.
struct Tail {
  double pct = 0;
  double value = 0;
  std::size_t samples = 0;
};
Tail tail_percentile(std::vector<double> v);

/// appended / (appended + duplicates): the share of records a fleet sent
/// that were new. 1 when nothing was sent.
double useful_ratio(std::uint64_t appended, std::uint64_t duplicates);

/// Peak resident set of this process (VmHWM), in MiB.
double peak_rss_mb();

/// Resets the peak resident set to the current one (Linux clear_refs), so
/// that peak_rss_mb() then reads the peak since this call. False where the
/// kernel refuses; peak_rss_mb() then keeps reading the process peak.
bool reset_peak_rss();

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

/// One timed call into a layer. Times are seconds since the tracer epoch.
/// `parent` is the index of the causing span (-1 = top level); `thread` is a
/// small per-thread index. `store_s` is time the store spent inside this
/// call on the calling thread, read from the store's own obs histograms; the
/// layer table moves it from this span's layer to `store`.
struct Span {
  std::string name;
  std::string layer;
  double t0 = 0, t1 = 0;
  int parent = -1;
  int run = 0;
  unsigned thread = 0;
  double store_s = 0;
};

/// Records spans in memory (thread-safe); written out once by the caller.
class Tracer {
 public:
  explicit Tracer(Clock::time_point epoch) : epoch_(epoch) {}

  /// Opens a span under the innermost open span of this thread, or under
  /// `parent` when this thread has none open (a worker thread's first span
  /// names the span that started it).
  int open(std::string name, std::string layer, int parent = -1);
  void close(int id, double store_s = 0);
  void set_run(int run) { run_.store(run); }
  int run() const { return run_.load(); }
  double now() const { return seconds_since(epoch_); }
  std::vector<Span> spans() const;

  /// RAII span. A null tracer makes it a no-op, so the untraced and traced
  /// repetitions share one code path.
  class Scope {
   public:
    Scope(Tracer* tr, std::string name, std::string layer, int parent = -1);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    int id() const { return id_; }
    /// Marks store time spent inside this call (see Span::store_s).
    void set_store_s(double s) { store_s_ = s; }

   private:
    Tracer* tr_;
    int id_ = -1;
    double store_s_ = 0;
  };

 private:
  Clock::time_point epoch_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  std::atomic<int> run_{0};
};

/// Length of the union of intervals, clipped to [lo, hi].
double covered(std::vector<std::pair<double, double>> iv, double lo, double hi);

/// Per-span self time: duration minus the part covered by its children on
/// the same thread (work handed to other threads shows up as their spans).
std::vector<double> self_times(const std::vector<Span>& spans);

/// Self time summed per layer, with each span's store_s moved to `store`
/// (capped at the span's self time).
std::map<std::string, double> layer_self_times(const std::vector<Span>& spans);

/// Share of [t0, t1] on `thread` not covered by a top-level span.
double untracked_share(const std::vector<Span>& spans, unsigned thread,
                       double t0, double t1);

/// Small index of the calling thread (0 for the first thread that asks).
unsigned thread_index();

/// Writes spans as a JSON array (name, layer, start/end seconds, parent,
/// run id, thread, store seconds).
void write_spans_json(const std::vector<Span>& spans, const std::string& path);

/// Sum of the durations (microseconds) of the GPF_TRACE events called
/// `name` in a trace-event file written by obs::flush_trace. Missing file:
/// 0.
double trace_event_seconds(const std::string& path, const std::string& name);

// ---------------------------------------------------------------------------
// Store helpers
// ---------------------------------------------------------------------------

/// FNV-1a 64 of a store's JSON export (store::export_store), as 16 hex
/// digits.
std::string export_digest(const gpf::store::LoadedStore& s);

/// Store time (append + fdatasync) recorded by the obs registry so far, s.
double store_busy_s();

/// Histogram view of one obs instrument from a snapshot (zeros if absent).
gpf::obs::HistogramSnapshot find_histogram(const gpf::obs::Snapshot& s,
                                           const std::string& name);

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

/// One campaign a repetition ran: its label, meta and store path.
struct CampaignRun {
  std::string label;
  gpf::store::CampaignMeta meta;
  std::string store_path;
};

/// What one repetition measured.
struct RepResult {
  Times setup;  ///< calls before evaluation
  Times eval;   ///< the run_*_store drivers, or Coordinator::serve
  Times total;  ///< first call to last durable store and segment
  std::uint64_t appended = 0;  ///< records appended during evaluation
  std::uint64_t warehouse_rows = 0;  ///< rows in the segments compacted
  std::vector<CampaignRun> campaigns;
  /// Campaigns that threw or timed out: label -> message.
  std::map<std::string, std::string> failures;
};

/// Per-layer figures of a traced run, by metric name.
using LayerMetrics = std::map<std::string, double>;

/// What a workload's traced extras get to look at: the last traced
/// repetition (its stores are still on disk), its spans (run id =
/// tr.run()), the obs registry over it and its GPF_TRACE file.
struct TracedContext {
  std::string dir;  ///< scratch directory for the extras
  Tracer& tr;
  const RepResult& rep;
  const std::vector<Span>& spans;
  const gpf::obs::Snapshot& snap;
  std::string gpf_trace_path;
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Untimed: fills the benchmark's JIT cache and lazy state, and builds
  /// any reference stores the output check needs.
  virtual void warm_up(const std::string& dir) = 0;
  /// One repetition of the campaign set into fresh stores under `dir`.
  /// A non-null tracer wraps every call in a span.
  virtual RepResult run_rep(const std::string& dir, Tracer* tr) = 0;
  /// Digests a repetition's stores must match on every seed (the fleet's
  /// single-process references), by label; empty when none.
  virtual std::map<std::string, std::string> expected_digests() const {
    return {};
  }
  /// Traced run only: the workload's per-layer metrics, including the calls
  /// behind the drivers (public runners on the same ids, simulator speed,
  /// cold JIT compile). Records a failure per campaign whose runner records
  /// differ from the driver's store.
  virtual void traced_extras(const TracedContext& ctx, LayerMetrics& out,
                             std::map<std::string, std::string>& failures) = 0;
};

/// One-line summary of a campaign's store (Table 4 classes per unit, Fig. 12
/// EPR with the DUE-cause split, rtl AVF per site), printed so result drift
/// is visible.
std::string campaign_summary(const std::string& label,
                             const gpf::store::LoadedStore& s);

/// Output check of one campaign's store: exactly meta.total records, and
/// an export digest equal to each non-empty entry of `expected` (what ->
/// digest, e.g. "committed reference" -> ...). Sets `digest`; returns "" or
/// what failed.
std::string check_store(const gpf::store::LoadedStore& s,
                        const gpf::store::CampaignMeta& meta,
                        const std::map<std::string, std::string>& expected,
                        std::string& digest);

/// Builds the named workload for `seed` (nullptr for an unknown name).
std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed,
                                        const std::string& jit_dir);

/// Runs the benchmark's arithmetic self-tests; prints failures, returns the
/// number that failed.
int run_self_tests(const std::string& scratch_dir);

}  // namespace cb
