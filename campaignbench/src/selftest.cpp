// Self-tests of the benchmark's own arithmetic: span self time, the tail
// percentile rule, untracked share, the useful ratio, and the output check
// rejecting a store with one altered record. Every run executes them first;
// a failure makes the run incorrect.
#include <cmath>
#include <cstdio>
#include <filesystem>

#include "bench.hpp"
#include "store/checkpoint.hpp"
#include "store/records.hpp"

namespace cb {

namespace {

int g_failed = 0;

void expect(bool ok, const char* what) {
  if (ok) return;
  ++g_failed;
  std::fprintf(stderr, "campaignbench self-test failed: %s\n", what);
}

bool near(double a, double b) { return std::fabs(a - b) < 1e-9; }

Span span(const char* name, const char* layer, double t0, double t1,
          int parent, unsigned thread = 0, double store_s = 0) {
  Span s;
  s.name = name;
  s.layer = layer;
  s.t0 = t0;
  s.t1 = t1;
  s.parent = parent;
  s.thread = thread;
  s.store_s = store_s;
  return s;
}

void test_self_time() {
  // A [0,10] has children B [1,4] and C [3,6] (overlapping) on its thread,
  // B has child D [2,3], and E [0,10] on another thread names A as parent.
  const std::vector<Span> spans = {
      span("A", "gate", 0, 10, -1),  span("B", "perfi", 1, 4, 0, 0, 0.5),
      span("C", "gate", 3, 6, 0),    span("D", "arch", 2, 3, 1),
      span("E", "net", 0, 10, 0, 1),
  };
  const std::vector<double> self = self_times(spans);
  expect(near(self[0], 5), "self time subtracts the union of children");
  expect(near(self[1], 2), "self time of a nested span");
  expect(near(self[2], 3) && near(self[3], 1), "self time of leaves");
  expect(near(self[4], 10), "children on other threads are not subtracted");
  const auto layers = layer_self_times(spans);
  expect(near(layers.at("gate"), 8) && near(layers.at("perfi"), 1.5) &&
             near(layers.at("store"), 0.5) && near(layers.at("arch"), 1),
         "layer self time moves store time out of its span's layer");
}

void test_tail_rule() {
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(i);
  Tail t = tail_percentile(v);
  expect(t.pct == 90 && t.value == 90 && t.samples == 100,
         "100 samples: p90 is the highest with ten beyond");
  v.clear();
  for (int i = 1; i <= 1000; ++i) v.push_back(i);
  t = tail_percentile(v);
  expect(t.pct == 99 && t.value == 990, "1000 samples: p99");
  v.clear();
  for (int i = 1; i <= 20; ++i) v.push_back(i);
  t = tail_percentile(v);
  expect(t.pct == 50 && t.value == 10, "20 samples: p50 leaves ten beyond");
  v.pop_back();
  t = tail_percentile(v);
  expect(t.pct == 50 && t.value == 10, "19 samples fall back to the median");
  expect(near(median({4, 1, 3, 2}), 2.5) && near(median({3, 1, 2}), 2),
         "median of even and odd counts");
}

void test_untracked_share() {
  const std::vector<Span> spans = {
      span("a", "gate", 0, 2, -1), span("a.child", "gate", 0.5, 1, 0),
      span("b", "store", 3, 5, -1), span("other-thread", "net", 2, 3, -1, 1),
  };
  expect(near(untracked_share(spans, 0, 0, 6), 2.0 / 6),
         "untracked share counts only top-level spans of the thread");
  expect(near(untracked_share(spans, 0, 0, 5), 1.0 / 5),
         "untracked share over a sub-window");
}

void test_useful_ratio() {
  expect(near(useful_ratio(90, 10), 0.9), "useful ratio with duplicates");
  expect(near(useful_ratio(0, 0), 1.0), "useful ratio with nothing sent");
}

/// Writes a small perfi store; `altered` flips one record's outcome.
std::string write_store(const std::string& dir, const std::string& name,
                        const gpf::store::CampaignMeta& meta, bool altered) {
  const std::string path = dir + "/" + name + ".gpfs";
  gpf::store::CampaignCheckpoint ckpt(path, meta);
  for (std::uint64_t id = 0; id < meta.total; ++id) {
    gpf::store::PerfiRecord r;
    r.outcome = id % 3 ? gpf::store::PerfiOutcome::Masked
                       : gpf::store::PerfiOutcome::Sdc;
    if (altered && id == 5) r.outcome = gpf::store::PerfiOutcome::DueHang;
    ckpt.record(id, gpf::store::encode(r));
  }
  return path;
}

void test_digest_check(const std::string& dir) {
  std::filesystem::create_directories(dir);
  gpf::store::CampaignMeta meta;
  meta.kind = gpf::store::CampaignKind::Perfi;
  meta.target = 0xFF;
  meta.model = 0;
  meta.seed = 7;
  meta.total = 8;
  meta.app = "gemm";
  const auto good = gpf::store::load_store(write_store(dir, "good", meta, false));
  const auto bad = gpf::store::load_store(write_store(dir, "bad", meta, true));
  std::string ref, digest;
  expect(check_store(good, meta, {}, ref).empty(), "a complete store passes");
  expect(check_store(good, meta, {{"reference", ref}}, digest).empty() &&
             digest == ref,
         "the digest is stable");
  expect(!check_store(bad, meta, {{"reference", ref}}, digest).empty(),
         "one altered record fails the digest check");
  gpf::store::CampaignMeta bigger = meta;
  bigger.total = 9;
  expect(!check_store(good, bigger, {}, digest).empty(),
         "a store short of meta.total records fails");
  std::filesystem::remove_all(dir);
}

}  // namespace

int run_self_tests(const std::string& scratch_dir) {
  g_failed = 0;
  test_self_time();
  test_tail_rule();
  test_untracked_share();
  test_useful_ratio();
  test_digest_check(scratch_dir);
  return g_failed;
}

}  // namespace cb
