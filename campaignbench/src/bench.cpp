#include "bench.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <sstream>

#include "store/export.hpp"

namespace cb {

double cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

namespace {
/// 1-based nearest rank of percentile p among n samples (the epsilon keeps
/// 99.9% of 1000 from rounding up to 1000).
double rank_of(double p, double n) {
  return std::max(1.0, std::ceil(p / 100.0 * n - 1e-9));
}

/// Nearest-rank percentile of an ascending vector (p in (0, 100]).
double nearest_rank(const std::vector<double>& sorted, double p) {
  const auto k = static_cast<std::size_t>(
      rank_of(p, static_cast<double>(sorted.size())));
  return sorted[std::min(k, sorted.size()) - 1];
}
}  // namespace

Tail tail_percentile(std::vector<double> v) {
  Tail t;
  t.samples = v.size();
  if (v.empty()) return t;
  std::sort(v.begin(), v.end());
  const double n = static_cast<double>(v.size());
  for (const double p : {99.9, 99.0, 95.0, 90.0, 75.0, 50.0}) {
    // Nearest rank k (1-based) leaves n - k samples above the value.
    if (n - rank_of(p, n) >= 10.0) {
      t.pct = p;
      t.value = nearest_rank(v, p);
      return t;
    }
  }
  t.pct = 50;
  t.value = median(v);
  return t;
}

double useful_ratio(std::uint64_t appended, std::uint64_t duplicates) {
  const std::uint64_t sent = appended + duplicates;
  return sent ? static_cast<double>(appended) / static_cast<double>(sent) : 1.0;
}

double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line))
    if (line.rfind("VmHWM:", 0) == 0)
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MiB
  return 0;
}

bool reset_peak_rss() {
  std::ofstream out("/proc/self/clear_refs");
  out << "5" << std::flush;
  return static_cast<bool>(out);
}

// ---------------------------------------------------------------------------
// Tracer
// ---------------------------------------------------------------------------

namespace {
thread_local std::vector<int> t_open;  // this thread's open spans, innermost last
}

unsigned thread_index() {
  static std::atomic<unsigned> next{0};
  thread_local const unsigned idx = next.fetch_add(1);
  return idx;
}

int Tracer::open(std::string name, std::string layer, int parent) {
  Span s;
  s.name = std::move(name);
  s.layer = std::move(layer);
  s.parent = t_open.empty() ? parent : t_open.back();
  s.run = run_.load();
  s.thread = thread_index();
  s.t0 = now();
  std::lock_guard lock(mu_);
  spans_.push_back(std::move(s));
  const int id = static_cast<int>(spans_.size()) - 1;
  t_open.push_back(id);
  return id;
}

void Tracer::close(int id, double store_s) {
  const double t = now();
  if (!t_open.empty() && t_open.back() == id) t_open.pop_back();
  std::lock_guard lock(mu_);
  spans_[static_cast<std::size_t>(id)].t1 = t;
  spans_[static_cast<std::size_t>(id)].store_s = store_s;
}

std::vector<Span> Tracer::spans() const {
  std::lock_guard lock(mu_);
  return spans_;
}

Tracer::Scope::Scope(Tracer* tr, std::string name, std::string layer,
                     int parent)
    : tr_(tr) {
  if (tr_) id_ = tr_->open(std::move(name), std::move(layer), parent);
}

Tracer::Scope::~Scope() {
  if (tr_) tr_->close(id_, store_s_);
}

double covered(std::vector<std::pair<double, double>> iv, double lo,
               double hi) {
  std::sort(iv.begin(), iv.end());
  double total = 0, cur_lo = 0, cur_hi = 0;
  bool open = false;
  for (auto [a, b] : iv) {
    a = std::max(a, lo);
    b = std::min(b, hi);
    if (b <= a) continue;
    if (open && a <= cur_hi) {
      cur_hi = std::max(cur_hi, b);
      continue;
    }
    if (open) total += cur_hi - cur_lo;
    cur_lo = a;
    cur_hi = b;
    open = true;
  }
  if (open) total += cur_hi - cur_lo;
  return total;
}

std::vector<double> self_times(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<double, double>>> kids(spans.size());
  for (const Span& s : spans)
    if (s.parent >= 0 && spans[static_cast<std::size_t>(s.parent)].thread ==
                             s.thread)
      kids[static_cast<std::size_t>(s.parent)].emplace_back(s.t0, s.t1);
  std::vector<double> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i)
    self[i] = (spans[i].t1 - spans[i].t0) -
              covered(kids[i], spans[i].t0, spans[i].t1);
  return self;
}

std::map<std::string, double> layer_self_times(const std::vector<Span>& spans) {
  const std::vector<double> self = self_times(spans);
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const double moved = std::min(spans[i].store_s, self[i]);
    out[spans[i].layer] += self[i] - moved;
    if (moved > 0) out["store"] += moved;
  }
  return out;
}

double untracked_share(const std::vector<Span>& spans, unsigned thread,
                       double t0, double t1) {
  if (t1 <= t0) return 0;
  std::vector<std::pair<double, double>> top;
  for (const Span& s : spans)
    if (s.parent < 0 && s.thread == thread) top.emplace_back(s.t0, s.t1);
  return 1.0 - covered(std::move(top), t0, t1) / (t1 - t0);
}

namespace {
std::string json_str(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}
}  // namespace

void write_spans_json(const std::vector<Span>& spans, const std::string& path) {
  std::ofstream os(path, std::ios::trunc);
  os << "[\n";
  char buf[256];
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::snprintf(buf, sizeof buf,
                  ", \"start_s\": %.6f, \"end_s\": %.6f, \"parent\": %d, "
                  "\"run\": %d, \"thread\": %u, \"store_s\": %.6f}",
                  s.t0, s.t1, s.parent, s.run, s.thread, s.store_s);
    os << (i ? ",\n" : "") << "{\"id\": " << i << ", \"name\": "
       << json_str(s.name) << ", \"layer\": " << json_str(s.layer) << buf;
  }
  os << "\n]\n";
}

double trace_event_seconds(const std::string& path, const std::string& name) {
  std::ifstream in(path);
  const std::string want = "{\"name\": " + json_str(name) + ",";
  std::string line;
  double us = 0;
  while (std::getline(in, line)) {
    if (line.rfind(want, 0) != 0) continue;
    const auto d = line.find("\"dur\": ");
    if (d != std::string::npos) us += std::strtod(line.c_str() + d + 7, nullptr);
  }
  return us / 1e6;
}

// ---------------------------------------------------------------------------
// Store helpers
// ---------------------------------------------------------------------------

namespace {
std::string fnv1a_hex(const std::string& bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
  return buf;
}
}  // namespace

std::string export_digest(const gpf::store::LoadedStore& s) {
  std::ostringstream os;
  gpf::store::export_store(s, gpf::store::ExportFormat::Json, os);
  return fnv1a_hex(os.str());
}

std::string check_store(const gpf::store::LoadedStore& s,
                        const gpf::store::CampaignMeta& meta,
                        const std::map<std::string, std::string>& expected,
                        std::string& digest) {
  digest = export_digest(s);
  if (s.records.size() != meta.total)
    return std::to_string(s.records.size()) + " of " +
           std::to_string(meta.total) + " records";
  for (const auto& [what, want] : expected)
    if (!want.empty() && want != digest)
      return "export digest " + digest + " differs from the " + what + " " +
             want;
  return "";
}

double store_busy_s() {
  static gpf::obs::Histogram& append = gpf::obs::histogram("store.append_us");
  static gpf::obs::Histogram& sync = gpf::obs::histogram("store.fsync_us");
  return static_cast<double>(append.sum() + sync.sum()) / 1e6;
}

gpf::obs::HistogramSnapshot find_histogram(const gpf::obs::Snapshot& s,
                                           const std::string& name) {
  for (const auto& h : s.histograms)
    if (h.name == name) return h;
  gpf::obs::HistogramSnapshot empty;
  empty.name = name;
  return empty;
}

}  // namespace cb
