// gpfctl — unified entry point for long fault-injection campaigns.
//
// Campaigns run through the persistent store (src/store): every retired
// fault/injection is durably appended, so a killed run loses nothing and
// `gpfctl resume` continues exactly where it stopped. Shards of one campaign
// (disjoint fault-id slices, e.g. across machines) merge into a single store
// whose export is identical to an unsharded run. `gpfctl worker` joins a
// gpfd coordinator fleet instead of running locally: it leases work units
// over TCP and streams results back (see src/net/).
//
//   gpfctl run --campaign gate  --unit decoder|fetch|wsc|all [--faults N]
//              [--max-issues N] [--engine brute|batch]
//   gpfctl run --campaign rtl   --tile max|zero|random
//              --site fu|sfu|pipeline|scheduler --injections N
//   gpfctl run --campaign perfi --app NAME --model IOC|IRA|... --injections N
//     common run flags: [--seed S] [--store DIR] [--shard-index I]
//                       [--shard-count K] [--limit N] [--jobs N]
//   gpfctl worker [--addr HOST:PORT] [--name NAME] [--jobs N]
//                 [--campaign NAME] [--backoff-ms N] [--max-failures N]
//                 [--verbose]
//   gpfctl submit --campaign ... [--addr HOST:PORT] [--priority N]
//                                    register campaign(s) on a running gpfd
//   gpfctl campaigns [--addr HOST:PORT] [--remove NAME]
//                                    list (or drain) a gpfd's campaigns
//   gpfctl resume FILE...            continue killed/paused campaigns
//   gpfctl merge -o OUT FILE...      combine shard stores (conflict-checked)
//   gpfctl export FILE [--format json|csv] [-o FILE]
//   gpfctl status [FILE...]          no files: scan the store dir, aggregate
//   gpfctl compact [FILE...|DIR]     roll store(s) into .gpfw warehouse
//                                    segments (one full read-only scan)
//   gpfctl query STORE|SEGMENT|DIR   answer from pre-aggregated rollups in
//                                    O(ms), recompacting a stale or unreadable
//                                    segment; --verify cross-checks against
//                                    a full log scan
//   gpfctl top [--addr HOST:PORT] [--campaign NAME] [--interval-ms N]
//              [--count N]          live fleet/worker view of a running gpfd
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "campaign_flags.hpp"
#include "common/env.hpp"
#include "common/threadpool.hpp"
#include "gate/batchsim.hpp"
#include "gate/jit.hpp"
#include "net/framing.hpp"
#include "net/protocol.hpp"
#include "net/service.hpp"
#include "net/worker.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "perfi/campaign.hpp"
#include "report/gate_experiments.hpp"
#include "rtl/campaign.hpp"
#include "store/checkpoint.hpp"
#include "store/export.hpp"
#include "store/merge.hpp"
#include "warehouse/compact.hpp"
#include "warehouse/query.hpp"
#include "warehouse/rollups.hpp"
#include "workloads/workload.hpp"

using namespace gpf;
using gpfcli::Args;
using gpfcli::UsageError;

namespace {

int usage(const char* msg = nullptr) {
  if (msg) std::cerr << "gpfctl: " << msg << "\n\n";
  std::cerr <<
      "usage:\n"
      "  gpfctl run --campaign gate --unit decoder|fetch|wsc|all [--faults N]\n"
      "             [--max-issues N] [--engine brute|batch]\n"
      "  gpfctl run --campaign rtl --tile max|zero|random\n"
      "             --site fu|sfu|pipeline|scheduler --injections N\n"
      "  gpfctl run --campaign perfi --app NAME --model IOC|... --injections N\n"
      "    common:  [--seed S] [--store DIR] [--shard-index I] [--shard-count K]\n"
      "             [--limit N] [--jobs N]\n"
      "  gpfctl worker [--addr HOST:PORT] [--name NAME] [--jobs N]\n"
      "                [--campaign NAME] [--backoff-ms N] [--max-failures N]\n"
      "                [--verbose]\n"
      "  gpfctl submit --campaign ... [--addr HOST:PORT] [--priority N]\n"
      "  gpfctl campaigns [--addr HOST:PORT] [--remove NAME]\n"
      "  gpfctl resume FILE...\n"
      "  gpfctl merge -o OUT FILE...\n"
      "  gpfctl export FILE [--format json|csv] [-o FILE]\n"
      "  gpfctl status [FILE...]\n"
      "  gpfctl compact [FILE...|DIR] [-o OUT.gpfw]\n"
      "  gpfctl query STORE|SEGMENT|DIR [--metric epr|classes|syndromes|workers]\n"
      "               [--format json|csv|table] [--unit TARGET] [--verify]\n"
      "  gpfctl top [--addr HOST:PORT] [--campaign NAME] [--interval-ms N]\n"
      "             [--count N]\n";
  return 2;
}

/// Number of ids in [0, total) owned by this shard.
std::uint64_t owned_ids(const store::CampaignMeta& m) {
  return m.total / m.shard_count +
         (m.shard_index < m.total % m.shard_count ? 1 : 0);
}

/// End-of-campaign warehouse compaction: keeps the .gpfw segment beside the
/// store current so `gpfctl query` answers without a log scan. A failure
/// warns instead of failing the campaign (the log is the source of truth,
/// the segment is derived).
void compact_campaign_store(const std::string& store_path) {
  try {
    const std::string seg = warehouse::warehouse_path_for(store_path);
    const warehouse::Footer f = warehouse::compact_stores({store_path}, seg);
    std::cout << "[gpfctl] warehouse: " << f.rows << " rows -> " << seg << "\n";
  } catch (const std::exception& e) {
    std::cerr << "[gpfctl] warehouse compaction failed: " << e.what() << "\n";
  }
}

/// Drops the end-of-campaign metrics next to the store(s) we just drove.
void write_campaign_metrics(const std::string& store_path) {
  const std::filesystem::path dir =
      std::filesystem::path(store_path).parent_path();
  const std::string out =
      ((dir.empty() ? std::filesystem::path(".") : dir) / "metrics.json")
          .string();
  if (obs::write_metrics_json(out))
    std::cout << "[gpfctl] metrics -> " << out << "\n";
}

/// Drives one campaign store to completion (or to --limit). Used by both
/// `run` (fresh meta) and `resume` (meta recovered from the file header).
void drive_campaign(store::CampaignCheckpoint& ckpt, std::size_t limit) {
  ckpt.set_record_limit(limit);
  const store::CampaignMeta& meta = ckpt.meta();
  const std::size_t before = ckpt.done().size();

  obs::TraceSpan campaign_span(
      "campaign",
      std::string(store::campaign_kind_name(meta.kind)) + " " + ckpt.path());

  // Progress reporter: a low-rate side thread printing retired count, recent
  // rate, and ETA while the campaign runs (GPF_STATUS_MS=0 silences it).
  const std::uint64_t status_ms = status_interval_ms();
  std::atomic<bool> finished{false};
  std::thread reporter;
  if (status_ms > 0) {
    reporter = std::thread([&ckpt, &finished, before, status_ms,
                            owned = owned_ids(meta)] {
      auto last_t = std::chrono::steady_clock::now();
      std::size_t last_n = before;
      std::uint64_t slept = 0;
      while (!finished.load(std::memory_order_relaxed)) {
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
        if ((slept += 50) < status_ms) continue;
        slept = 0;
        const auto now = std::chrono::steady_clock::now();
        const std::size_t n = ckpt.done_count();
        const double dt = std::chrono::duration<double>(now - last_t).count();
        const double rate =
            dt > 0 ? static_cast<double>(n - last_n) / dt : 0.0;
        char line[160];
        if (rate > 0 && n < owned) {
          std::snprintf(line, sizeof line,
                        "[gpfctl] progress %zu/%llu (%.1f%%), %.1f results/s, "
                        "ETA %.0fs\n",
                        n, static_cast<unsigned long long>(owned),
                        100.0 * static_cast<double>(n) /
                            static_cast<double>(owned ? owned : 1),
                        rate, static_cast<double>(owned - n) / rate);
        } else {
          std::snprintf(line, sizeof line,
                        "[gpfctl] progress %zu/%llu (%.1f%%)\n", n,
                        static_cast<unsigned long long>(owned),
                        100.0 * static_cast<double>(n) /
                            static_cast<double>(owned ? owned : 1));
        }
        std::cout << line << std::flush;
        last_t = now;
        last_n = n;
      }
    });
  }

  const auto stop_reporter = [&] {
    finished.store(true, std::memory_order_relaxed);
    if (reporter.joinable()) reporter.join();
  };
  try {
    switch (meta.kind) {
      case store::CampaignKind::Gate: {
        std::cout << "[gpfctl] collecting profiling traces (max_issues="
                  << meta.param1 << ")...\n";
        const auto& traces = report::collect_profiling_traces(meta.param1);
        ThreadPool pool;
        report::run_unit_campaign_store(traces, ckpt, &pool);
        break;
      }
      case store::CampaignKind::Rtl: {
        rtl::run_tmxm_campaign_store(ckpt);
        break;
      }
      case store::CampaignKind::Perfi: {
        const workloads::Workload* w = workloads::find(meta.app);
        if (!w) throw std::runtime_error("unknown workload: " + meta.app);
        perfi::run_epr_cell_store(*w, ckpt);
        break;
      }
    }
  } catch (...) {
    stop_reporter();
    throw;
  }
  stop_reporter();

  const std::size_t after = ckpt.done_count();
  std::cout << "[gpfctl] " << ckpt.path() << ": " << (after - before)
            << " results retired this run, " << after << " total"
            << (ckpt.paused() ? " (paused on --limit; resume to continue)"
                              : " (complete)")
            << "\n";
}

int cmd_run(const Args& a) {
  gpfcli::apply_jobs_flag(a);
  const std::string dir = a.get("store", store_dir());
  const auto limit = static_cast<std::size_t>(a.get_u64("limit", 0));

  dump_env(std::cout);

  std::string last_path;
  for (const store::CampaignMeta& meta : gpfcli::metas_from_flags(a)) {
    const std::string path = gpfcli::store_path_for(meta, dir);
    std::cout << "[gpfctl] campaign " << store::campaign_kind_name(meta.kind)
              << " -> " << path << " (shard " << meta.shard_index << "/"
              << meta.shard_count << ", id space " << meta.total << ")\n";
    store::CampaignCheckpoint ckpt(path, meta);
    drive_campaign(ckpt, limit);
    compact_campaign_store(path);
    last_path = path;
  }
  if (!last_path.empty()) write_campaign_metrics(last_path);
  obs::flush_trace();
  return 0;
}

int cmd_worker(const Args& a) {
  gpfcli::apply_jobs_flag(a);
  dump_env(std::cout);

  net::WorkerConfig cfg;
  const auto [host, port] = net::parse_addr(a.get("addr", coord_addr()));
  cfg.host = host;
  cfg.port = port;
  cfg.name = a.get("name", "worker-" + std::to_string(::getpid()));
  cfg.campaign = a.get("campaign");
  cfg.backoff_ms =
      static_cast<std::uint32_t>(a.get_u64("backoff-ms", worker_backoff_ms()));
  cfg.max_connect_failures =
      static_cast<int>(a.get_u64("max-failures", 8));
  cfg.verbose = a.has("verbose");

  std::cout << "[gpfctl] worker " << cfg.name << " -> " << cfg.host << ":"
            << cfg.port
            << (cfg.campaign.empty() ? "" : " (campaign " + cfg.campaign + ")")
            << "\n";
  const net::WorkerStats st = net::run_worker(cfg, net::make_unit_fn);
  std::cout << "[gpfctl] worker " << cfg.name << ": " << st.retired
            << " results over " << st.units << " units across "
            << st.campaigns << " campaign(s), " << st.lost_leases
            << " lost leases, " << st.reconnects << " reconnects, "
            << st.busy_retries << " busy retries"
            << (st.drained ? " (fleet drained)" : "")
            << (st.gave_up ? " (coordinator unreachable, gave up)" : "")
            << "\n";
  return st.drained ? 0 : 2;
}

int cmd_submit(const Args& a) {
  const auto [host, port] = net::parse_addr(a.get("addr", coord_addr()));
  const auto priority = static_cast<std::uint32_t>(a.get_u64("priority", 1));
  int rc = 0;
  for (const store::CampaignMeta& meta : gpfcli::metas_from_flags(a)) {
    const std::string name = gpfcli::campaign_name_for(meta);
    const net::OpResult r =
        net::submit_campaign(host, port, name, meta, priority);
    std::cout << "[gpfctl] submit " << name << " (priority " << priority
              << "): " << (r.ok ? "ok" : "rejected")
              << (r.message.empty() ? "" : " — " + r.message) << "\n";
    if (!r.ok) rc = 1;
  }
  return rc;
}

int cmd_campaigns(const Args& a) {
  const auto [host, port] = net::parse_addr(a.get("addr", coord_addr()));
  if (a.has("remove")) {
    const std::string name = a.get("remove");
    const net::OpResult r = net::remove_campaign(host, port, name);
    std::cout << "[gpfctl] remove " << name << ": "
              << (r.ok ? "ok" : "rejected")
              << (r.message.empty() ? "" : " — " + r.message) << "\n";
    return r.ok ? 0 : 1;
  }
  const std::vector<net::CampaignRow> rows = net::fetch_campaigns(host, port);
  std::cout << "  " << std::left << std::setw(28) << "CAMPAIGN" << std::setw(8)
            << "KIND" << std::setw(10) << "STATE" << std::setw(6) << "PRI"
            << std::setw(22) << "RETIRED/TOTAL" << std::setw(10) << "PENDING"
            << "LEASED\n";
  for (const net::CampaignRow& c : rows) {
    const char* state = c.state == 1 ? "removing" : c.state == 2 ? "done"
                                                                 : "running";
    std::cout << "  " << std::left << std::setw(28) << c.name << std::setw(8)
              << store::campaign_kind_name(
                     static_cast<store::CampaignKind>(c.kind))
              << std::setw(10) << state << std::setw(6) << c.priority
              << std::setw(22)
              << (std::to_string(c.retired_ids) + "/" +
                  std::to_string(c.total_ids))
              << std::setw(10) << c.pending_units << c.leased_units << "\n";
  }
  if (rows.empty()) std::cout << "  (no campaigns registered)\n";
  return 0;
}

int cmd_resume(const Args& a) {
  if (a.positional.empty()) return usage("resume: store file(s) required");
  const auto limit = static_cast<std::size_t>(a.get_u64("limit", 0));
  dump_env(std::cout);
  for (const std::string& path : a.positional) {
    // Recover the campaign parameters from the store's own header.
    const store::CampaignMeta meta = store::load_store(path).meta;
    store::CampaignCheckpoint ckpt(path, meta);
    if (ckpt.torn_bytes_dropped())
      std::cout << "[gpfctl] " << path << ": dropped "
                << ckpt.torn_bytes_dropped() << " torn tail bytes\n";
    drive_campaign(ckpt, limit);
    compact_campaign_store(path);
  }
  if (!a.positional.empty()) write_campaign_metrics(a.positional.back());
  obs::flush_trace();
  return 0;
}

int cmd_merge(const Args& a) {
  if (!a.has("out")) return usage("merge: -o OUT required");
  if (a.positional.size() < 2) return usage("merge: need at least two stores");
  const store::MergeStats st =
      store::merge_store_files(a.positional, a.get("out"));
  std::cout << "[gpfctl] merged " << st.inputs << " stores -> " << a.get("out")
            << " (" << st.records << " records, " << st.duplicate_identical
            << " identical duplicates)\n";
  return 0;
}

int cmd_export(const Args& a) {
  if (a.positional.size() != 1) return usage("export: exactly one store file");
  const std::string fmt = a.get("format", "json");
  store::ExportFormat format;
  if (fmt == "json")
    format = store::ExportFormat::Json;
  else if (fmt == "csv")
    format = store::ExportFormat::Csv;
  else
    return usage("export: --format must be json|csv");

  const store::LoadedStore s = store::load_store(a.positional.front());
  if (a.has("out")) {
    store::create_parent_dirs(a.get("out"));
    std::ofstream out(a.get("out"), std::ios::binary);
    if (!out) throw std::runtime_error("cannot write " + a.get("out"));
    store::export_store(s, format, out);
  } else {
    store::export_store(s, format, std::cout);
  }
  return 0;
}

int cmd_status(const Args& a) {
  std::vector<std::string> paths = a.positional;
  if (paths.empty()) {
    // No files named: scan the store directory for every campaign store.
    const std::string dir = a.get("store", store_dir());
    for (const auto& e : std::filesystem::directory_iterator(dir))
      if (e.is_regular_file() && e.path().extension() == ".gpfs")
        paths.push_back(e.path().string());
    std::sort(paths.begin(), paths.end());
    if (paths.empty())
      return usage(("status: no .gpfs stores in " + dir).c_str());
  }

  std::vector<std::pair<std::string, store::LoadedStore>> stores;
  stores.reserve(paths.size());
  for (const std::string& path : paths)
    stores.emplace_back(path, store::load_store(path));

  // Representative counts are a pure function of (unit, faults, seed); cache
  // so sharded stores of one campaign resolve the netlist only once.
  std::vector<std::pair<std::tuple<std::uint8_t, std::uint64_t, std::uint64_t>,
                        std::size_t>>
      rep_cache;
  const auto representatives = [&](const store::CampaignMeta& m) {
    const auto key = std::make_tuple(m.target, m.param0, m.seed);
    for (const auto& [k, v] : rep_cache)
      if (k == key) return v;
    const std::size_t v = report::gate_campaign_representatives(m);
    rep_cache.emplace_back(key, v);
    return v;
  };

  for (const auto& [path, s] : stores) {
    std::cout << "== " << path << "\n";
    store::print_status(s, std::cout);
    if (s.meta.kind == store::CampaignKind::Gate) {
      const std::size_t reps = representatives(s.meta);
      if (reps < s.meta.total) {
        char ratio[32];
        std::snprintf(ratio, sizeof ratio, "%.2fx",
                      static_cast<double>(s.meta.total) / static_cast<double>(reps));
        std::cout << "  collapsed: " << reps << " representatives simulated for "
                  << s.meta.total << " faults (" << ratio << ")\n";
      }
      // A resume runs the store's engine, not this process's GPF_ENGINE.
      try {
        if (report::gate_campaign_engine(s.meta) == EngineKind::Batch) {
          const std::size_t lanes = gate::batch_lane_width();
          std::cout << "  batch lanes: " << lanes << " ("
                    << gate::batch_simd_path(lanes) << ", "
                    << gate::batch_engine_tag() << ")\n";
        }
      } catch (const std::runtime_error& e) {
        std::cout << "  not resumable: " << e.what() << "\n";
      }
    }
  }
  if (stores.size() > 1) store::print_aggregate_status(stores, std::cout);
  return 0;
}

/// Resolves compact/query inputs to store files: explicit .gpfs paths pass
/// through; a directory is scanned for every .gpfs in it (sorted).
std::vector<std::string> resolve_store_paths(
    const std::vector<std::string>& inputs, const std::string& fallback_dir) {
  std::vector<std::string> paths;
  const auto scan_dir = [&paths](const std::string& dir) {
    for (const auto& e : std::filesystem::directory_iterator(dir))
      if (e.is_regular_file() && e.path().extension() == ".gpfs")
        paths.push_back(e.path().string());
  };
  if (inputs.empty()) {
    scan_dir(fallback_dir);
  } else {
    for (const std::string& in : inputs) {
      if (std::filesystem::is_directory(in))
        scan_dir(in);
      else
        paths.push_back(in);
    }
  }
  std::sort(paths.begin(), paths.end());
  return paths;
}

/// Groups store paths into campaigns (same_campaign) by header meta alone —
/// no record scan, so grouping a directory of large stores stays cheap.
std::vector<std::vector<std::string>> group_campaign_stores(
    const std::vector<std::string>& paths) {
  std::vector<std::vector<std::string>> groups;
  std::vector<store::CampaignMeta> group_meta;
  for (const std::string& p : paths) {
    const store::CampaignMeta m = store::read_store_meta(p);
    bool placed = false;
    for (std::size_t g = 0; g < groups.size(); ++g)
      if (group_meta[g].same_campaign(m)) {
        groups[g].push_back(p);
        placed = true;
        break;
      }
    if (!placed) {
      groups.push_back({p});
      group_meta.push_back(m);
    }
  }
  return groups;
}

/// Canonical segment path for one campaign group: a lone store maps to its
/// own name with .gpfw; a shard set maps to the unsharded store name (the
/// same name `gpfctl merge` output would get).
std::string segment_path_for_group(const std::vector<std::string>& group) {
  if (group.size() == 1) return warehouse::warehouse_path_for(group.front());
  store::CampaignMeta m = store::read_store_meta(group.front());
  m.shard_index = 0;
  m.shard_count = 1;
  const std::string dir =
      std::filesystem::path(group.front()).parent_path().string();
  return warehouse::warehouse_path_for(
      gpfcli::store_path_for(m, dir.empty() ? "." : dir));
}

int cmd_compact(const Args& a) {
  const auto paths = resolve_store_paths(a.positional, a.get("store", store_dir()));
  if (paths.empty()) return usage("compact: no .gpfs stores found");
  const auto groups = group_campaign_stores(paths);
  if (a.has("out") && groups.size() != 1)
    return usage("compact: -o needs exactly one campaign's stores");

  for (const auto& group : groups) {
    const std::string seg =
        a.has("out") ? a.get("out") : segment_path_for_group(group);
    const warehouse::Footer f = warehouse::compact_stores(group, seg);
    std::uint64_t scanned = 0;
    for (const warehouse::SourceTally& t : f.sources)
      scanned += t.scanned_records;
    std::cout << "[gpfctl] compacted " << group.size() << " store(s) -> " << seg
              << " (" << f.rows << " rows from " << scanned << " records)\n";
  }
  return 0;
}

int cmd_query(const Args& a) {
  if (a.positional.size() != 1)
    return usage("query: exactly one store file, segment file, or directory");
  const std::string input = a.positional.front();

  warehouse::Metric metric = warehouse::Metric::Epr;
  if (!warehouse::parse_metric(a.get("metric", "epr"), metric))
    return usage("query: --metric must be epr|classes|syndromes|workers");
  warehouse::QueryFormat format = warehouse::QueryFormat::Table;
  if (!warehouse::parse_format(a.get("format", "table"), format))
    return usage("query: --format must be json|csv|table");

  // Resolve the input to (segment path, source store paths). A .gpfw is
  // served as-is; a .gpfs or directory goes through its canonical segment,
  // compacted on the fly when missing or stale. Either is recompacted from
  // its sources when it fails to read (torn, or written by an older build).
  std::string seg;
  std::vector<std::string> sources;
  bool stale = false;
  if (input.size() > 5 && input.ends_with(".gpfw")) {
    seg = input;
    const std::string sibling = input.substr(0, input.size() - 5) + ".gpfs";
    if (std::filesystem::exists(sibling)) sources.push_back(sibling);
  } else {
    auto paths = resolve_store_paths({input}, ".");
    if (paths.empty()) return usage("query: no .gpfs stores found");
    auto groups = group_campaign_stores(paths);
    if (a.has("unit")) {
      const std::string want = a.get("unit");
      std::erase_if(groups, [&want](const std::vector<std::string>& g) {
        return store::target_label(store::read_store_meta(g.front())) != want;
      });
      if (groups.empty())
        return usage(("query: no campaign with target " + want).c_str());
    }
    if (groups.size() != 1)
      return usage("query: stores span several campaigns; pick one with "
                   "--unit TARGET");
    sources = groups.front();
    seg = segment_path_for_group(sources);
    // Recompact when the segment is missing or older than any source log
    // (a cheap mtime heuristic).
    stale = !std::filesystem::exists(seg);
    if (!stale) {
      const auto seg_t = std::filesystem::last_write_time(seg);
      for (const std::string& s : sources)
        if (std::filesystem::last_write_time(s) > seg_t) stale = true;
    }
  }

  std::optional<warehouse::Footer> on_disk;
  if (!stale) {
    try {
      on_disk = warehouse::read_footer(seg);
    } catch (const warehouse::SegmentError& e) {
      if (sources.empty()) throw;
      std::cerr << "[gpfctl] " << e.what() << "; recompacting\n";
    }
  }
  const warehouse::Footer footer =
      on_disk ? std::move(*on_disk) : warehouse::compact_stores(sources, seg);

  if (a.has("verify")) {
    if (sources.empty())
      throw std::runtime_error(
          "query: --verify needs the source .gpfs store(s) next to " + seg);
    std::vector<store::LoadedStore> loaded;
    loaded.reserve(sources.size());
    for (const std::string& s : sources) loaded.push_back(store::load_store(s));
    const store::LoadedStore merged =
        loaded.size() == 1 ? std::move(loaded.front())
                           : store::merge_stores(loaded);
    const warehouse::Rollups ref = warehouse::compute_rollups(merged);
    if (!(ref == footer.rollups)) {
      std::cerr << "[gpfctl] VERIFY FAILED: rollups in " << seg
                << " disagree with a full scan of " << sources.size()
                << " store(s) — recompact\n";
      return 1;
    }
    std::cerr << "[gpfctl] verify: rollups match full log scan (" << ref.rows
              << " rows, " << sources.size() << " store(s))\n";
  }

  render_metric(footer, metric, format, std::cout);
  return 0;
}

/// One `top` refresh: headline (progress, rate, ETA, fleet sizing), the
/// campaign registry, and a per-worker table. Per-worker rates come from
/// retired deltas between our own polls, so the first frame shows "-".
/// ETA renders "--" when the coordinator has no usable rate yet (an idle or
/// freshly started fleet), never a misleading "0s".
void render_top(const std::string& scope, const net::StatsSnapshot& s,
                std::map<std::uint64_t, std::pair<std::uint64_t, double>>& prev,
                double now_s) {
  const double pct =
      s.total_ids ? 100.0 * static_cast<double>(s.retired_ids) /
                        static_cast<double>(s.total_ids)
                  : 100.0;
  const std::string eta =
      s.rate_milli == 0 || s.eta_ms == 0
          ? "--"
          : std::to_string(s.eta_ms / 1000) + "s";
  char head[256];
  std::snprintf(head, sizeof head,
                "[gpfctl top] %s: %llu/%llu retired (%.1f%%), "
                "%.1f results/s, ETA %s, units %u pending / %u leased, "
                "workers %u up / %u wanted%s\n",
                scope.empty() ? "fleet" : scope.c_str(),
                static_cast<unsigned long long>(s.retired_ids),
                static_cast<unsigned long long>(s.total_ids), pct,
                static_cast<double>(s.rate_milli) / 1000.0, eta.c_str(),
                s.pending_units, s.leased_units, s.connected_workers,
                s.desired_workers, s.draining ? " [draining]" : "");
  std::cout << head;

  for (const net::CampaignRow& c : s.campaigns) {
    const char* state = c.state == 1 ? " [removing]" : c.state == 2 ? " [done]"
                                                                    : "";
    std::cout << "  campaign " << std::left << std::setw(28) << c.name
              << " pri " << c.priority << "  " << c.retired_ids << "/"
              << c.total_ids << state << "\n";
  }

  if (!s.workers.empty())
    std::cout << "  " << std::left << std::setw(20) << "WORKER"
              << std::setw(12) << "RETIRED" << std::setw(8) << "LEASED"
              << std::setw(12) << "RESULTS/S" << std::setw(10) << "IDLE"
              << "STATE\n";
  for (const net::WorkerRow& w : s.workers) {
    std::string rate = "-";
    if (const auto it = prev.find(w.session);
        it != prev.end() && now_s > it->second.second) {
      char buf[32];
      std::snprintf(buf, sizeof buf, "%.1f",
                    static_cast<double>(w.retired - it->second.first) /
                        (now_s - it->second.second));
      rate = buf;
    }
    prev[w.session] = {w.retired, now_s};
    char idle[32];
    std::snprintf(idle, sizeof idle, "%.1fs",
                  static_cast<double>(w.idle_ms) / 1000.0);
    std::cout << "  " << std::left << std::setw(20)
              << (w.name.empty() ? "(unnamed)" : w.name) << std::setw(12)
              << w.retired << std::setw(8) << w.leased_units << std::setw(12)
              << rate << std::setw(10) << idle
              << (w.connected ? "up" : "gone") << "\n";
  }
  std::cout << std::flush;
}

int cmd_top(const Args& a) {
  const auto [host, port] = net::parse_addr(a.get("addr", coord_addr()));
  const auto interval_ms = a.get_u64("interval-ms", 1000);
  const auto count = a.get_u64("count", 0);  // 0 = until the fleet ends
  const std::string scope = a.get("campaign");  // "" = aggregate view

  std::map<std::uint64_t, std::pair<std::uint64_t, double>> prev;
  const auto t0 = std::chrono::steady_clock::now();
  bool connected_once = false;
  for (std::uint64_t polls = 0;;) {
    net::StatsSnapshot s;
    try {
      s = net::fetch_stats(host, port, scope);
    } catch (const std::exception& e) {
      // A coordinator that served us at least once and then went away is a
      // normal end of campaign, not an error.
      if (!connected_once) throw;
      std::cout << "[gpfctl top] coordinator gone (" << e.what() << ")\n";
      return 0;
    }
    connected_once = true;
    render_top(scope, s, prev,
               std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                             t0)
                   .count());
    if (count && ++polls >= count) return 0;
    if (s.retired_ids >= s.total_ids && s.leased_units == 0) {
      std::cout << "[gpfctl top] fleet complete\n";
      return 0;
    }
    std::this_thread::sleep_for(
        std::chrono::milliseconds(interval_ms ? interval_ms : 1000));
  }
}

/// A subcommand and the flags it reads (any other flag is refused).
struct Command {
  int (*run)(const Args&);
  std::set<std::string> flags;
  std::set<std::string> boolean = {};
};

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::map<std::string, Command> commands = {
      {"run",
       {cmd_run, gpfcli::with_campaign_flags({"store", "limit", "jobs"})}},
      {"worker",
       {cmd_worker,
        {"addr", "name", "jobs", "campaign", "backoff-ms", "max-failures"},
        {"verbose"}}},
      {"submit",
       {cmd_submit, gpfcli::with_campaign_flags({"addr", "priority"})}},
      {"campaigns", {cmd_campaigns, {"addr", "remove"}}},
      {"resume", {cmd_resume, {"limit"}}},
      {"merge", {cmd_merge, {"out"}}},
      {"export", {cmd_export, {"format", "out"}}},
      {"status", {cmd_status, {"store"}}},
      {"compact", {cmd_compact, {"store", "out"}}},
      {"query", {cmd_query, {"metric", "format", "unit"}, {"verify"}}},
      {"top", {cmd_top, {"addr", "interval-ms", "count", "campaign"}}},
  };
  const std::string cmd = argv[1];
  const auto it = commands.find(cmd);
  if (it == commands.end()) return usage(("unknown command: " + cmd).c_str());
  try {
    const Command& c = it->second;
    return c.run(Args::parse(argc, argv, 2, c.flags, c.boolean));
  } catch (const UsageError& e) {
    return usage(e.what());
  } catch (const std::exception& e) {
    std::cerr << "gpfctl: " << e.what() << "\n";
    return 1;
  }
}
