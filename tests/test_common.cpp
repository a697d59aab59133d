#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/bitops.hpp"
#include "common/env.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"
#include "common/threadpool.hpp"

namespace gpf {
namespace {

TEST(BitOps, ExtractAndSet) {
  const std::uint64_t w = 0xABCD'1234'5678'9EF0ull;
  EXPECT_EQ(bits(w, 0, 4), 0x0ull);
  EXPECT_EQ(bits(w, 4, 8), 0xEFull);
  EXPECT_EQ(bits(w, 56, 8), 0xABull);
  EXPECT_EQ(set_bits<std::uint64_t>(0, 8, 8, 0xFF), 0xFF00ull);
  EXPECT_EQ(bits(set_bits(w, 20, 12, std::uint64_t{0x123}), 20, 12), 0x123ull);
}

TEST(BitOps, SingleBit) {
  EXPECT_TRUE(bit(0b100u, 2));
  EXPECT_FALSE(bit(0b100u, 1));
  EXPECT_EQ(with_bit(0u, 5, true), 32u);
  EXPECT_EQ(with_bit(0xFFu, 0, false), 0xFEu);
}

TEST(BitOps, SignExtend) {
  EXPECT_EQ(sign_extend(0x3F, 6), -1);
  EXPECT_EQ(sign_extend(0x1F, 6), 31);
  EXPECT_EQ(sign_extend(0x20, 6), -32);
}

TEST(BitOps, FloatBitcastRoundTrip) {
  EXPECT_EQ(bits_f32(f32_bits(3.14f)), 3.14f);
  EXPECT_EQ(f32_bits(1.0f), 0x3F800000u);
}

TEST(Rng, DeterministicPerSeed) {
  Rng a(42), b(42), c(43);
  EXPECT_EQ(a(), b());
  Rng a2(42);
  EXPECT_NE(a2(), c());
}

TEST(Rng, UniformInRange) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    const auto v = rng.below(17);
    ASSERT_LT(v, 17u);
    const auto r = rng.range(-5, 5);
    ASSERT_GE(r, -5);
    ASSERT_LE(r, 5);
  }
}

TEST(Rng, BelowCoversAllValues) {
  Rng rng(11);
  std::array<int, 8> seen{};
  for (int i = 0; i < 1000; ++i) ++seen[rng.below(8)];
  for (int c : seen) EXPECT_GT(c, 50);
}

TEST(Rng, ForkedStreamsDiffer) {
  Rng base(5);
  Rng f1 = base.fork(1);
  Rng f2 = base.fork(2);
  EXPECT_NE(f1(), f2());
}

TEST(Table, RendersAligned) {
  Table t("demo");
  t.header({"name", "value"});
  t.row({"alpha", "1"});
  t.row({"bb", "22"});
  std::ostringstream os;
  t.print(os);
  const std::string s = os.str();
  EXPECT_NE(s.find("demo"), std::string::npos);
  EXPECT_NE(s.find("alpha"), std::string::npos);
  EXPECT_NE(s.find("| bb"), std::string::npos);
}

TEST(Table, CsvOutput) {
  Table t("csv");
  t.header({"a", "b"});
  t.row({"1", "2"});
  std::ostringstream os;
  t.print_csv(os);
  EXPECT_NE(os.str().find("1,2"), std::string::npos);
}

TEST(Table, NumberFormatting) {
  EXPECT_EQ(Table::num(3.14159, 2), "3.14");
  EXPECT_EQ(Table::pct(0.4567, 1), "45.7%");
}

TEST(ThreadPool, ParallelForCoversAll) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for(1000, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, SubmitAndWait) {
  ThreadPool pool(2);
  std::atomic<int> count{0};
  for (int i = 0; i < 50; ++i) pool.submit([&] { count.fetch_add(1); });
  pool.wait_idle();
  EXPECT_EQ(count.load(), 50);
}

TEST(ThreadPool, EmptyRangeIsNoop) {
  ThreadPool pool(2);
  pool.parallel_for(0, [](std::size_t) { FAIL(); });
}

TEST(ThreadPool, DestructorRunsQueuedWork) {
  std::atomic<int> count{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 100; ++i)
      pool.submit([&] { count.fetch_add(1); });
    // No wait_idle(): destruction must still drain the queue.
  }
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPool, ThrowingTaskRethrownFromWaitIdle) {
  ThreadPool pool(2);
  std::atomic<int> survivors{0};
  pool.submit([] { throw std::runtime_error("task failed"); });
  for (int i = 0; i < 20; ++i) pool.submit([&] { survivors.fetch_add(1); });
  EXPECT_THROW(pool.wait_idle(), std::runtime_error);
  // The throwing task killed neither its worker nor the queued tasks.
  EXPECT_EQ(survivors.load(), 20);
  // The pool stays usable and the error is not re-reported.
  pool.submit([&] { survivors.fetch_add(1); });
  pool.wait_idle();
  EXPECT_EQ(survivors.load(), 21);
}

TEST(ThreadPool, ThrowingTaskSwallowedByDestructor) {
  ThreadPool pool(2);
  pool.submit([] { throw std::runtime_error("unobserved"); });
  // Destruction without wait_idle() must not terminate.
}

TEST(ThreadPool, ParallelForPropagatesException) {
  ThreadPool pool(4);
  EXPECT_THROW(pool.parallel_for(100,
                                 [](std::size_t i) {
                                   if (i == 57)
                                     throw std::runtime_error("iteration 57");
                                 }),
               std::runtime_error);
}

TEST(ThreadPool, ZeroWorkersFallsBackToAtLeastOne) {
  ThreadPool pool(0);  // GPF_THREADS / hardware_concurrency fallback
  EXPECT_GE(pool.size(), 1u);
  std::atomic<int> count{0};
  pool.parallel_for(10, [&](std::size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 10);
}

TEST(ThreadPool, SingleWorkerRunsInline) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.size(), 1u);
  std::vector<std::size_t> order;
  pool.parallel_for(8, [&](std::size_t i) { order.push_back(i); });
  ASSERT_EQ(order.size(), 8u);
  for (std::size_t i = 0; i < 8; ++i) EXPECT_EQ(order[i], i);  // inline = in order
}

TEST(Env, ScaledClampsToMinimum) {
  EXPECT_GE(scaled(1000, 8), 8u);
  EXPECT_EQ(scaled(4, 8), 4u);  // min capped at n itself
}

TEST(Env, ParseU64AcceptsWellFormedValues) {
  EXPECT_EQ(parse_env_u64("GPF_TEST", "42", 7), 42ull);
  EXPECT_EQ(parse_env_u64("GPF_TEST", "0", 7), 0ull);
  EXPECT_EQ(parse_env_u64("GPF_TEST", "0x10", 7), 16ull);  // strtoull base 0
  EXPECT_EQ(parse_env_u64("GPF_TEST", " 8 ", 7), 8ull);  // surrounding ws ok
  EXPECT_EQ(parse_env_u64("GPF_TEST", "18446744073709551615", 7),
            ~0ull);  // full u64 range
}

TEST(Env, ParseU64UnsetReturnsFallbackSilently) {
  EXPECT_EQ(parse_env_u64("GPF_TEST", nullptr, 123), 123ull);
}

TEST(Env, ParseU64RejectsMalformedValues) {
  // The old atol/strtoull paths silently turned all of these into 0 (or a
  // truncated prefix); strict parsing must fall back to the default instead.
  EXPECT_EQ(parse_env_u64("GPF_TEST", "max", 7), 7ull);
  EXPECT_EQ(parse_env_u64("GPF_TEST", "12abc", 7), 7ull);
  EXPECT_EQ(parse_env_u64("GPF_TEST", "", 7), 7ull);
  EXPECT_EQ(parse_env_u64("GPF_TEST", "   ", 7), 7ull);
  EXPECT_EQ(parse_env_u64("GPF_TEST", "-3", 7), 7ull);  // no unsigned wrap
  EXPECT_EQ(parse_env_u64("GPF_TEST", "12 34", 7), 7ull);
  EXPECT_EQ(parse_env_u64("GPF_TEST", "99999999999999999999999", 7),
            7ull);  // ERANGE
}

TEST(Env, ParseDoubleStrictGrammar) {
  EXPECT_DOUBLE_EQ(parse_env_double("GPF_TEST", "1.5", 2.0), 1.5);
  EXPECT_DOUBLE_EQ(parse_env_double("GPF_TEST", "2e3", 2.0), 2000.0);
  // Same contract as parse_env_u64: all GPF_* knobs are non-negative, so a
  // leading minus is rejected rather than parsed.
  EXPECT_DOUBLE_EQ(parse_env_double("GPF_TEST", "-0.25", 2.0), 2.0);
  EXPECT_DOUBLE_EQ(parse_env_double("GPF_TEST", nullptr, 2.0), 2.0);
  EXPECT_DOUBLE_EQ(parse_env_double("GPF_TEST", "huge", 2.0), 2.0);
  EXPECT_DOUBLE_EQ(parse_env_double("GPF_TEST", "1.5x", 2.0), 2.0);
  EXPECT_DOUBLE_EQ(parse_env_double("GPF_TEST", "", 2.0), 2.0);
  EXPECT_DOUBLE_EQ(parse_env_double("GPF_TEST", "inf", 2.0), 2.0);  // finite only
  EXPECT_DOUBLE_EQ(parse_env_double("GPF_TEST", "1e999", 2.0), 2.0);  // ERANGE
}

TEST(Env, EngineNamesComeFromOneTable) {
  for (const EngineKind e : {EngineKind::Brute, EngineKind::Batch})
    EXPECT_TRUE(engine_from_name(engine_name(e)) == e) << engine_name(e);
  // The values are the engine byte of store headers and lease grants.
  EXPECT_EQ(static_cast<int>(EngineKind::Brute), 0);
  EXPECT_EQ(static_cast<int>(EngineKind::Batch), 2);
  for (const char* bad : {"event", "", "Batch", " brute", "batch2"})
    EXPECT_FALSE(engine_from_name(bad).has_value()) << '"' << bad << '"';
}

TEST(Env, UnknownEngineValueWarnsAndMeansBatch) {
  EXPECT_EQ(parse_env_engine(nullptr), EngineKind::Batch);
  EXPECT_EQ(parse_env_engine(""), EngineKind::Batch);

  ::testing::internal::CaptureStderr();
  EXPECT_EQ(parse_env_engine("brute"), EngineKind::Brute);
  EXPECT_EQ(parse_env_engine("batch"), EngineKind::Batch);
  EXPECT_EQ(::testing::internal::GetCapturedStderr(), "");

  // The removed event engine is an unknown name like any other: it must
  // warn, not silently run some engine the user did not ask for.
  for (const char* bad : {"event", "fast"}) {
    ::testing::internal::CaptureStderr();
    EXPECT_EQ(parse_env_engine(bad), EngineKind::Batch);
    const std::string err = ::testing::internal::GetCapturedStderr();
    EXPECT_NE(err.find("GPF_ENGINE=\"" + std::string(bad) + "\""),
              std::string::npos)
        << err;
  }
}

// A GPF_* variable that no code reads — a retired knob left in an old
// script, or a typo — is named on stderr by dump_env, once, not silently
// ignored. The registry's knobs, the benches' GPF_BENCH_JSON_DIR and
// variables outside the GPF_ prefix stay quiet.
TEST(Env, UnreadKnobsAreNamed) {
  char scale[] = "GPF_SCALE=0.5";
  char jit[] = "GPF_JIT=off";
  char other[] = "XGPF_JIT=1";
  char json_dir[] = "GPF_BENCH_JSON_DIR=out";
  char warehouse[] = "GPF_WAREHOUSE=1";
  char* envp[] = {scale, jit, other, json_dir, warehouse, nullptr};
  EXPECT_EQ(unread_env_knobs(envp),
            (std::vector<std::string>{"GPF_JIT", "GPF_WAREHOUSE"}));
  EXPECT_TRUE(unread_env_knobs(nullptr).empty());

  ::setenv("GPF_JIT", "off", 1);
  ::setenv("GPF_WAREHOUSE", "1", 1);
  std::ostringstream out;
  ::testing::internal::CaptureStderr();
  dump_env(out);
  const std::string err = ::testing::internal::GetCapturedStderr();
  ::unsetenv("GPF_JIT");
  ::unsetenv("GPF_WAREHOUSE");
  for (const char* var : {"GPF_JIT", "GPF_WAREHOUSE"}) {
    const std::string warning = "[gpf] ignoring " + std::string(var) + ":";
    const std::size_t at = err.find(warning);
    EXPECT_NE(at, std::string::npos) << err;
    EXPECT_EQ(err.find(warning, at + 1), std::string::npos) << err;
  }
  // The configuration dump lists knobs only.
  EXPECT_EQ(out.str().find("GPF_JIT"), std::string::npos) << out.str();
  EXPECT_NE(out.str().find("GPF_SCALE"), std::string::npos) << out.str();
}

TEST(Env, FsyncAndMetricsOverrides) {
  set_fsync_override(0);
  EXPECT_FALSE(fsync_enabled());
  set_fsync_override(1);
  EXPECT_TRUE(fsync_enabled());
  set_fsync_override(-1);  // back to environment (default on)
  EXPECT_TRUE(fsync_enabled());

  set_metrics_override(0);
  EXPECT_FALSE(metrics_enabled());
  set_metrics_override(1);
  EXPECT_TRUE(metrics_enabled());
  set_metrics_override(-1);
  EXPECT_TRUE(metrics_enabled());
}

TEST(Env, ThreadsOverrideTakesPrecedence) {
  set_campaign_threads_override(3);
  EXPECT_EQ(campaign_threads(), 3u);
  ThreadPool pool;  // default-constructed pool picks up the override
  EXPECT_EQ(pool.size(), 3u);
  set_campaign_threads_override(0);  // clear: back to the environment
}

}  // namespace
}  // namespace gpf
