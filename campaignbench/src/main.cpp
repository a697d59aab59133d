// campaign_bench: runs one workload of the campaign benchmark in this process
// and prints its metrics. The last line of stdout is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: value}}
// with the end-to-end metrics (--trace 0) or the per-layer ones that apply to
// the workload (--trace 1). ../run.py builds this binary, adds the units from
// BENCHMARK.json and is the command to run; ../README.md describes the
// workloads and every metric.
//
//   campaign_bench --workload NAME --seed N --seconds S --trace 0|1
//                  --work DIR --jit-cache DIR --results DIR
//                  [--reference FILE] [--commit ID] [--cpu MODEL]
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <thread>

#include "bench.hpp"
#include "common/env.hpp"
#include "common/threadpool.hpp"
#include "gate/batchsim.hpp"
#include "gate/jit.hpp"
#include "obs/trace.hpp"

namespace fs = std::filesystem;
using namespace cb;

namespace {

/// Repetitions (untraced) or untraced/traced pairs (traced) per run, at least.
constexpr std::size_t kMinReps = 3;
constexpr std::size_t kMinPairs = 2;

struct Options {
  std::string workload;
  std::uint64_t seed = kReferenceSeed;
  double seconds = 10;
  int trace = 0;
  std::string work = ".bench_build/work";
  std::string jit_cache = ".bench_build/jit";
  std::string results = ".bench_build/results";
  std::string reference;
  std::string commit = "unknown";
  std::string cpu = "unknown";
};

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) throw std::runtime_error("missing value for " + a);
    const std::string v = argv[++i];
    if (a == "--workload") o.workload = v;
    else if (a == "--seed") o.seed = std::stoull(v, nullptr, 0);
    else if (a == "--seconds") o.seconds = std::stod(v);
    else if (a == "--trace") o.trace = std::stoi(v);
    else if (a == "--work") o.work = v;
    else if (a == "--jit-cache") o.jit_cache = v;
    else if (a == "--results") o.results = v;
    else if (a == "--reference") o.reference = v;
    else if (a == "--commit") o.commit = v;
    else if (a == "--cpu") o.cpu = v;
    else throw std::runtime_error("unknown argument " + a);
  }
  return o;
}

std::map<std::string, std::string> load_reference(const std::string& path) {
  std::map<std::string, std::string> ref;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ls(line);
    std::string label, digest;
    if (ls >> label >> digest) ref[label] = digest;
  }
  return ref;
}

/// Output check across a run: every repetition's stores are checked (record
/// count and export digest) and then deleted. A campaign made with the
/// reference seed must match its committed digest; on any seed, every
/// repetition must match the first.
class OutputCheck {
 public:
  OutputCheck(const Workload& w, std::map<std::string, std::string> reference)
      : w_(w), reference_(std::move(reference)) {}

  void check(const RepResult& r, const std::string& what) {
    std::map<std::string, std::string> bad = r.failures;
    const std::map<std::string, std::string> fleet_ref = w_.expected_digests();
    for (const CampaignRun& c : r.campaigns) {
      if (bad.count(c.label)) continue;
      try {
        const gpf::store::LoadedStore s = gpf::store::load_store(c.store_path);
        std::map<std::string, std::string> expected;
        if (const auto it = first_.find(c.label); it != first_.end())
          expected["first repetition"] = it->second;
        if (const auto it = fleet_ref.find(c.label); it != fleet_ref.end())
          expected["single-process run"] = it->second;
        const bool reference_seed = c.meta.seed == kReferenceSeed;
        const auto ref = reference_.find(c.label);
        const bool missing_ref = reference_seed && ref == reference_.end();
        if (reference_seed && !missing_ref)
          expected["committed reference"] = ref->second;
        std::string digest;
        std::string msg = check_store(s, c.meta, expected, digest);
        if (!first_.count(c.label)) {
          first_[c.label] = digest;
          summaries.push_back(campaign_summary(c.label, s));
          digests.push_back(c.label + " " + digest);
        }
        if (msg.empty() && missing_ref) msg = "no committed reference digest";
        if (!msg.empty()) bad[c.label] = msg;
      } catch (const std::exception& e) {
        bad[c.label] = e.what();
      }
    }
    attempted += std::max(r.campaigns.size(), bad.size());
    failed += bad.size();
    for (const auto& [label, msg] : bad)
      messages.push_back(what + ": " + label + ": " + msg);
  }

  /// Failures found outside a repetition (traced extras, self-tests).
  void add(const std::map<std::string, std::string>& bad,
           const std::string& what) {
    attempted += bad.size();
    failed += bad.size();
    for (const auto& [label, msg] : bad)
      messages.push_back(what + ": " + label + ": " + msg);
  }

  std::size_t attempted = 0, failed = 0;
  std::vector<std::string> messages, summaries, digests;

 private:
  const Workload& w_;
  std::map<std::string, std::string> reference_;
  std::map<std::string, std::string> first_;
};

std::string json_number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

std::string samples_json(const std::map<std::string, std::vector<double>>& s) {
  std::string out = "{";
  for (const auto& [name, v] : s) {
    out += (out.size() > 1 ? ", \"" : "\"") + name + "\": [";
    for (std::size_t i = 0; i < v.size(); ++i)
      out += (i ? ", " : "") + json_number(v[i]);
    out += "]";
  }
  return out + "}";
}

std::string config_json(const Options& o) {
  const std::size_t lanes = gpf::gate::batch_lane_width();
  std::ostringstream os;
  os << "{\"workload\": \"" << o.workload << "\", \"seed\": " << o.seed
     << ", \"seconds\": " << json_number(o.seconds)
     << ", \"trace\": " << o.trace << ", \"lanes\": " << lanes
     << ", \"simd\": \"" << gpf::gate::batch_simd_path(lanes)
     << "\", \"engine_tag\": \"" << gpf::gate::batch_engine_tag()
     << "\", \"jit_mode\": \"" << gpf::jit_mode_name(gpf::jit_mode())
     << "\", \"pool_threads\": " << gpf::ThreadPool().size()
     << ", \"fsync\": " << (gpf::fsync_enabled() ? "true" : "false")
     << ", \"nproc\": " << std::thread::hardware_concurrency()
     << ", \"cpu\": \"" << o.cpu << "\", \"commit\": \"" << o.commit << "\"}";
  return os.str();
}

/// Per-repetition figures behind a run's medians, by metric name; written
/// beside the result.
using Samples = std::map<std::string, std::vector<double>>;

double per_second(std::uint64_t n, double s) {
  return s > 0 ? static_cast<double>(n) / s : 0;
}

/// Times of one untraced run: per-repetition medians of CPU seconds. Peak
/// memory is the peak during each repetition (reset before it), so it reads
/// the same whatever the repetitions before it left in the allocator. The
/// wall-clock figures go only to the samples and one printed line: on a
/// shared host they follow the neighbours more than the program.
LayerMetrics run_untraced(const Options& o, Workload& w, OutputCheck& check,
                          std::size_t& reps, Samples& samples) {
  Samples& s = samples;
  std::vector<double> iter;
  const auto start = Clock::now();
  for (std::size_t k = 0;; ++k) {
    if (k >= kMinReps && seconds_since(start) + median(iter) > o.seconds) break;
    const auto t0 = Clock::now();
    const std::string dir = o.work + "/rep" + std::to_string(k);
    reset_peak_rss();
    const RepResult r = w.run_rep(dir, nullptr);
    s["peak_rss_mb"].push_back(peak_rss_mb());
    s["results_per_cpu_s"].push_back(per_second(r.appended, r.eval.cpu));
    s["setup_s"].push_back(r.setup.cpu);
    s["cpu_s"].push_back(r.total.cpu);
    s["wall.results_per_s"].push_back(per_second(r.appended, r.eval.wall));
    s["wall.setup_s"].push_back(r.setup.wall);
    s["wall.wall_s"].push_back(r.total.wall);
    check.check(r, "repetition " + std::to_string(k));
    fs::remove_all(dir);
    iter.push_back(seconds_since(t0));
    reps = k + 1;
  }
  std::cout << "[campaignbench] wall clock, medians (not judged): results_per_s "
            << median(s["wall.results_per_s"]) << " 1/s, setup_s "
            << median(s["wall.setup_s"]) << " s, wall_s "
            << median(s["wall.wall_s"]) << " s\n";
  LayerMetrics m;
  for (const char* name : {"results_per_cpu_s", "setup_s", "cpu_s", "peak_rss_mb"})
    m[name] = median(s[name]);
  return m;
}

/// The traced run: untraced and traced repetitions alternate (their CPU
/// times give the tracing overhead); the per-layer figures are medians over
/// the traced ones, plus the workload's extras on the last.
LayerMetrics run_traced(const Options& o, Workload& w, OutputCheck& check,
                        std::size_t& reps, Samples& samples) {
  const std::string stem = o.results + "/" + o.workload + "-seed" +
                           std::to_string(o.seed);
  const std::string gpf_trace = stem + ".gpf_trace.json";
  Tracer tr(Clock::now());
  std::vector<double> cpu_u, cpu_t, iter;
  std::map<std::string, std::vector<double>> per_rep;
  std::optional<RepResult> last;
  std::string last_dir;
  gpf::obs::Snapshot last_snap;
  std::optional<std::uint64_t> appends;
  const auto start = Clock::now();
  for (std::size_t k = 0;; ++k) {
    if (k >= kMinPairs && seconds_since(start) + median(iter) > o.seconds) break;
    const auto t0 = Clock::now();
    const std::string udir = o.work + "/untraced" + std::to_string(k);
    const RepResult u = w.run_rep(udir, nullptr);
    cpu_u.push_back(u.total.cpu);
    check.check(u, "untraced repetition " + std::to_string(k));
    fs::remove_all(udir);

    const int run = static_cast<int>(10 * k);
    tr.set_run(run);
    gpf::obs::set_trace_path_override(gpf_trace);
    gpf::obs::reset_all();
    const std::string tdir = o.work + "/traced" + std::to_string(k);
    const double r0 = tr.now();
    RepResult r = w.run_rep(tdir, &tr);
    const double r1 = tr.now();
    const gpf::obs::Snapshot snap = gpf::obs::snapshot();
    gpf::obs::flush_trace();
    gpf::obs::set_trace_path_override("");
    cpu_t.push_back(r.total.cpu);
    check.check(r, "traced repetition " + std::to_string(k));

    std::vector<Span> spans;
    for (const Span& s : tr.spans())
      if (s.run == run) spans.push_back(s);
    std::vector<double> opens;
    for (const Span& s : spans)
      if (s.name == "store.open") opens.push_back(1e3 * (s.t1 - s.t0));
    const auto append = find_histogram(snap, "store.append_us");
    const auto fsync = find_histogram(snap, "store.fsync_us");
    double compact_s = 0;
    for (const Span& s : spans)
      if (s.name == "warehouse.compact_stores") compact_s += s.t1 - s.t0;
    auto& m = per_rep;
    m["store.open_ms"].push_back(median(opens));
    m["store.appends"].push_back(static_cast<double>(snap.counter("store.appends")));
    m["store.append_us.p50"].push_back(static_cast<double>(append.quantile(0.5)));
    m["store.append_us.p99"].push_back(static_cast<double>(append.quantile(0.99)));
    m["store.fsyncs"].push_back(static_cast<double>(snap.counter("store.fsyncs")));
    m["store.fsync_us.p50"].push_back(static_cast<double>(fsync.quantile(0.5)));
    m["store.sync_ms"].push_back(static_cast<double>(fsync.sum) / 1e3);
    m["warehouse.compact_s"].push_back(compact_s);
    m["warehouse.rows"].push_back(static_cast<double>(r.warehouse_rows));
    m["warehouse.segment_bytes"].push_back(
        static_cast<double>(snap.counter("warehouse.segment_bytes")));
    for (const auto& [layer, self_s] : layer_self_times(spans))
      m["layer." + layer + ".self_s"].push_back(self_s);
    m["trace.untracked_share"].push_back(
        untracked_share(spans, thread_index(), r0, r1));
    // Records appended must repeat exactly between repetitions.
    const std::uint64_t n = snap.counter("store.appends");
    if (appends && *appends != n)
      check.add({{"store.appends", std::to_string(n) + " vs " +
                                       std::to_string(*appends)}},
                "traced repetition " + std::to_string(k));
    appends = n;

    if (!last_dir.empty()) fs::remove_all(last_dir);
    last = std::move(r);
    last_dir = tdir;
    last_snap = snap;
    iter.push_back(seconds_since(t0));
    reps = k + 1;
  }

  LayerMetrics out;
  for (const auto& [name, v] : per_rep) out[name] = median(v);
  samples = {{"cpu_s.untraced", cpu_u}, {"cpu_s.traced", cpu_t}};
  out["trace.overhead_pct"] =
      100.0 * (median(cpu_t) - median(cpu_u)) / median(cpu_u);

  const int last_run = static_cast<int>(10 * (reps - 1));
  tr.set_run(last_run);
  std::vector<Span> last_spans;
  for (const Span& s : tr.spans())
    if (s.run == last_run) last_spans.push_back(s);
  std::map<std::string, std::string> bad;
  w.traced_extras(TracedContext{o.work + "/extras", tr, *last, last_spans,
                                last_snap, gpf_trace},
                  out, bad);
  check.add(bad, "traced extras");
  fs::remove_all(last_dir);
  write_spans_json(tr.spans(), stem + ".spans.json");
  std::cout << "spans -> " << stem << ".spans.json, GPF_TRACE events -> "
            << gpf_trace << "\n";
  return out;
}

/// The result line: the metrics this run computed, without units (run.py
/// adds them from BENCHMARK.json and checks that none is missing).
std::string result_json(bool correct, std::size_t attempted,
                        std::size_t failed, const LayerMetrics& m) {
  std::ostringstream os;
  os << "{\"correct\": " << (correct ? "true" : "false")
     << ", \"attempted\": " << attempted << ", \"failed\": " << failed
     << ", \"metrics\": {";
  const char* sep = "";
  for (const auto& [name, value] : m) {
    os << sep << "\"" << name << "\": " << json_number(value);
    sep = ", ";
  }
  os << "}}";
  return os.str();
}

int run(const Options& o) {
  fs::create_directories(o.work);
  fs::create_directories(o.results);
  gpf::set_jit_cache_dir_override(o.jit_cache);

  const int self_failures = run_self_tests(o.work + "/selftest");
  std::unique_ptr<Workload> w = make_workload(o.workload, o.seed, o.jit_cache);
  if (!w) throw std::runtime_error("unknown workload " + o.workload);

  OutputCheck check(*w, load_reference(o.reference));
  if (self_failures)
    check.add({{"self-test", std::to_string(self_failures) + " failed"}},
              "benchmark");

  w->warm_up(o.work + "/warm");
  fs::remove_all(o.work + "/warm");

  const auto t0 = Clock::now();
  std::size_t reps = 0;
  Samples samples;
  const LayerMetrics m = o.trace ? run_traced(o, *w, check, reps, samples)
                                 : run_untraced(o, *w, check, reps, samples);

  const std::string config = config_json(o);
  std::cout << "[campaignbench] " << o.workload << " seed " << o.seed << ": "
            << reps << (o.trace ? " traced/untraced pairs" : " repetitions")
            << " in " << seconds_since(t0) << " s\n";
  for (const std::string& s : check.summaries) std::cout << "  " << s << "\n";
  for (const std::string& d : check.digests) std::cout << "digest " << d << "\n";
  for (const std::string& msg : check.messages)
    std::cout << "FAILED " << msg << "\n";
  std::cout << "config " << config << "\n";

  const bool correct = check.failed == 0 && check.attempted > 0;
  const std::string result =
      result_json(correct, check.attempted, check.failed, m);
  std::ofstream(o.results + "/" + o.workload + "-seed" + std::to_string(o.seed) +
                "-trace" + std::to_string(o.trace) + ".json")
      << "{\"config\": " << config << ", \"samples\": " << samples_json(samples)
      << ", \"result\": " << result << "}\n";
  fs::remove_all(o.work);
  std::cout << result << std::endl;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse(argc, argv));
  } catch (const std::exception& e) {
    std::cerr << "campaign_bench: " << e.what() << "\n";
    return 1;
  }
}
