// gpfd — multi-campaign coordinator daemon for the distributed fleet.
//
// gpfd owns the authoritative campaign stores: it partitions each
// campaign's fault-id space into leasable work units, hands them to
// `gpfctl worker` processes over TCP (deficit-round-robin fair share
// across campaigns by --priority), appends their results
// (id-deduplicated) to the right store, and reassigns units whose lease
// expires (worker SIGKILLed or hung) or whose connection drops. Because
// fault id -> work is a pure function of each campaign's meta, every
// resulting store exports byte-identically to a single-process
// `gpfctl run`.
//
// One process serves many campaigns at once, and the registry is live:
// `gpfctl submit` adds campaigns while the fleet runs and
// `gpfctl campaigns --remove` drains one without disturbing the others.
//
//   gpfd --campaign ... (same campaign flags as `gpfctl run`; a gate
//                        campaign with --unit all serves all three units
//                        as separate campaigns)
//   gpfd --resume FILE [FILE...]  (campaign identities from store headers)
//     common: [--addr HOST:PORT] [--lease-ms N] [--unit-size N]
//             [--priority N] [--store DIR] [--verbose]
//
// SIGTERM/SIGINT drain gracefully: no new leases are granted, outstanding
// leases finish (or expire), and the process exits with the stores intact
// for `gpfd --resume` / `gpfctl resume`.
#include <csignal>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <filesystem>

#include "campaign_flags.hpp"
#include "common/env.hpp"
#include "net/coordinator.hpp"
#include "net/framing.hpp"
#include "net/http.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "store/checkpoint.hpp"
#include "store/export.hpp"
#include "store/result_log.hpp"
#include "warehouse/compact.hpp"
#include "warehouse/query.hpp"

using namespace gpf;
using gpfcli::Args;
using gpfcli::UsageError;

namespace {

std::atomic<net::Coordinator*> g_coordinator{nullptr};

void on_signal(int) {
  if (net::Coordinator* c = g_coordinator.load()) c->request_drain();
}

int usage(const char* msg = nullptr) {
  if (msg) std::cerr << "gpfd: " << msg << "\n\n";
  std::cerr <<
      "usage:\n"
      "  gpfd --campaign gate --unit decoder|fetch|wsc|all [--faults N]\n"
      "       [--max-issues N] [--engine brute|batch]\n"
      "  gpfd --campaign rtl --tile max|zero|random\n"
      "       --site fu|sfu|pipeline|scheduler --injections N\n"
      "  gpfd --campaign perfi --app NAME --model IOC|... --injections N\n"
      "  gpfd --resume FILE [FILE...]\n"
      "    common: [--addr HOST:PORT] [--lease-ms N] [--unit-size N]\n"
      "            [--priority N] [--seed S] [--store DIR] [--shard-index I]\n"
      "            [--shard-count K] [--status-ms N] [--verbose]\n"
      "            [--http HOST:PORT] [--compact-ms N]\n"
      "    --unit-size N: fault ids per work unit; 0 (default) = by campaign\n"
      "            kind (gate 512, perfi and rtl 64), N > 0 pins every campaign\n"
      "    more campaigns can be added while serving: gpfctl submit\n";
  return 2;
}

/// Per-store warehouse compactors, kept in step with the coordinator's live
/// registry so remotely submitted campaigns get segments too. Thread-safe
/// (refresh timer thread vs the HTTP handler).
class CompactorSet {
 public:
  /// Adds compactors for any new paths and refreshes every store's segment.
  void refresh(const std::vector<std::string>& paths) {
    std::lock_guard<std::mutex> lock(mu_);
    for (const std::string& path : paths)
      if (!compactors_.count(path))
        compactors_.emplace(path, std::make_unique<warehouse::Compactor>(
                                      std::vector<std::string>{path},
                                      warehouse::warehouse_path_for(path)));
    for (auto& [path, c] : compactors_) {
      try {
        c->refresh();
      } catch (const std::exception& e) {
        std::cerr << "[gpfd] compaction " << path << ": " << e.what() << "\n";
      }
    }
  }

  /// The compactor for a campaign name ("" = the only one, if unambiguous).
  warehouse::Compactor* find(const std::string& campaign) {
    std::lock_guard<std::mutex> lock(mu_);
    if (campaign.empty())
      return compactors_.size() == 1 ? compactors_.begin()->second.get()
                                     : nullptr;
    for (auto& [path, c] : compactors_) {
      const std::string stem =
          std::filesystem::path(path).stem().string();
      if (stem == campaign) return c.get();
    }
    return nullptr;
  }

  std::vector<std::pair<std::string, std::string>> segment_rows() {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<std::pair<std::string, std::string>> rows;
    for (auto& [path, c] : compactors_)
      rows.emplace_back(path, c->segment_path());
    return rows;
  }

  std::size_t size() {
    std::lock_guard<std::mutex> lock(mu_);
    return compactors_.size();
  }

 private:
  std::mutex mu_;
  std::map<std::string, std::unique_ptr<warehouse::Compactor>> compactors_;
};

/// Routes gpfd's observability endpoints: /v1/stats (live coordinator view,
/// ?campaign= scopes it), /v1/campaigns (the registry), and /v1/query
/// (warehouse rollups; ?metric=epr|classes|syndromes|workers,
/// ?format=json|csv|table, ?campaign= picks the store when several run).
net::HttpResponse handle_http(const net::HttpRequest& req,
                              net::Coordinator& coordinator,
                              CompactorSet* compactors) {
  const auto campaign_param = [&req]() -> std::string {
    const auto it = req.params.find("campaign");
    return it == req.params.end() ? "" : it->second;
  };
  if (req.path == "/v1/stats")
    return {200, "application/json",
            net::stats_json(coordinator.snapshot_stats(campaign_param()))};
  if (req.path == "/v1/campaigns")
    return {200, "application/json",
            net::campaigns_json(coordinator.list_campaigns())};
  if (req.path == "/v1/query") {
    if (!compactors)
      return {404, "application/json",
              "{\"error\": \"warehouse disabled (GPF_WAREHOUSE=0)\"}\n"};
    warehouse::Compactor* compactor = compactors->find(campaign_param());
    if (!compactor)
      return {400, "application/json",
              "{\"error\": \"ambiguous or unknown campaign; pass "
              "?campaign=NAME\"}\n"};
    warehouse::Metric metric = warehouse::Metric::Epr;
    warehouse::QueryFormat format = warehouse::QueryFormat::Json;
    const auto m = req.params.find("metric");
    if (m != req.params.end() && !warehouse::parse_metric(m->second, metric))
      return {400, "application/json",
              "{\"error\": \"unknown metric; expected "
              "epr|classes|syndromes|workers\"}\n"};
    const auto f = req.params.find("format");
    if (f != req.params.end() && !warehouse::parse_format(f->second, format))
      return {400, "application/json",
              "{\"error\": \"unknown format; expected json|csv|table\"}\n"};
    return {200,
            format == warehouse::QueryFormat::Json ? "application/json"
                                                   : "text/plain",
            render_metric(compactor->footer(), metric, format)};
  }
  return {404, "application/json", "{\"error\": \"no such endpoint\"}\n"};
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args a = Args::parse(argc, argv, 1, /*boolean=*/{"verbose"});

    dump_env(std::cout);

    const std::string dir = a.get("store", store_dir());

    // Resolve the initial campaigns: existing stores' headers (--resume plus
    // positional FILEs), or run-style flags (--unit all = three campaigns).
    std::vector<std::string> paths;
    std::vector<store::CampaignMeta> metas;
    if (a.has("resume")) {
      paths.push_back(a.get("resume"));
      for (const std::string& p : a.positional) paths.push_back(p);
      for (const std::string& p : paths)
        metas.push_back(store::load_store(p).meta);
    } else if (a.has("campaign")) {
      if (!a.positional.empty())
        return usage(("unexpected argument: " + a.positional.front()).c_str());
      metas = gpfcli::metas_from_flags(a);
      for (const store::CampaignMeta& m : metas)
        paths.push_back(gpfcli::store_path_for(m, dir));
    } else {
      return usage("--campaign or --resume required");
    }

    std::vector<std::unique_ptr<store::CampaignCheckpoint>> ckpts;
    for (std::size_t i = 0; i < paths.size(); ++i) {
      ckpts.push_back(
          std::make_unique<store::CampaignCheckpoint>(paths[i], metas[i]));
      if (ckpts.back()->torn_bytes_dropped())
        std::cout << "[gpfd] " << paths[i] << ": dropped "
                  << ckpts.back()->torn_bytes_dropped()
                  << " torn tail bytes\n";
    }

    net::CoordinatorConfig cfg;
    const auto [host, port] = net::parse_addr(a.get("addr", coord_addr()));
    cfg.host = host;
    cfg.port = port;
    cfg.lease_ms = static_cast<std::uint32_t>(
        a.get_u64("lease-ms", lease_duration_ms()));
    cfg.unit_size = static_cast<std::size_t>(a.get_u64("unit-size", 0));
    cfg.status_interval_ms =
        static_cast<std::uint32_t>(a.get_u64("status-ms", 5000));
    cfg.verbose = a.has("verbose");
    cfg.store_dir = dir;  // where `gpfctl submit` campaigns land

    const auto priority =
        static_cast<std::uint32_t>(a.get_u64("priority", 1));
    net::Coordinator coordinator(cfg);
    for (auto& ckpt : ckpts) coordinator.add_campaign(*ckpt, priority);
    g_coordinator.store(&coordinator);
    struct sigaction sa = {};
    sa.sa_handler = on_signal;
    sigaction(SIGTERM, &sa, nullptr);
    sigaction(SIGINT, &sa, nullptr);

    std::cout << "[gpfd] serving " << paths.size() << " campaign(s) on "
              << cfg.host << ":" << coordinator.port() << " (lease "
              << cfg.lease_ms << "ms)\n";
    for (std::size_t i = 0; i < paths.size(); ++i)
      std::cout << "[gpfd]   " << paths[i] << " (" << ckpts[i]->done().size()
                << "/" << metas[i].total << " already retired, unit size "
                << coordinator.unit_size_for(metas[i]) << ")\n";

    // Warehouse compaction: roll every store into its .gpfw segment now,
    // then keep them fresh on a timer while serving, picking up remotely
    // submitted campaigns from the live registry (--compact-ms 0 = at exit
    // only).
    std::unique_ptr<CompactorSet> compactors;
    if (warehouse_enabled()) compactors = std::make_unique<CompactorSet>();
    const auto compact_ms = static_cast<std::uint32_t>(
        a.get_u64("compact-ms", compact_interval_ms()));
    std::atomic<bool> serve_done{false};
    std::thread compact_thread;
    if (compactors) {
      compactors->refresh(coordinator.store_paths());
      if (compact_ms > 0)
        compact_thread = std::thread([&] {
          while (!serve_done.load(std::memory_order_relaxed)) {
            for (std::uint32_t waited = 0;
                 waited < compact_ms &&
                 !serve_done.load(std::memory_order_relaxed);
                 waited += 50)
              std::this_thread::sleep_for(std::chrono::milliseconds(50));
            if (serve_done.load(std::memory_order_relaxed)) break;
            compactors->refresh(coordinator.store_paths());
          }
        });
    }

    // HTTP observability endpoint (off unless --http / GPF_HTTP_ADDR).
    std::unique_ptr<net::HttpServer> http;
    const std::string http_bind = a.get("http", http_addr());
    if (!http_bind.empty()) {
      http = std::make_unique<net::HttpServer>(
          http_bind, [&coordinator, &compactors](const net::HttpRequest& req) {
            return handle_http(req, coordinator, compactors.get());
          });
      http->start();
      std::cout << "[gpfd] http on " << http_bind << " (port " << http->port()
                << "): GET /v1/stats, /v1/campaigns, /v1/query\n";
    }

    net::Coordinator::Stats st;
    {
      obs::TraceSpan serve_span("campaign", "gpfd serve");
      st = coordinator.serve();
    }
    g_coordinator.store(nullptr);
    serve_done.store(true);
    if (compact_thread.joinable()) compact_thread.join();
    if (compactors) {
      compactors->refresh(coordinator.store_paths());
      for (const auto& [path, segment] : compactors->segment_rows())
        std::cout << "[gpfd] warehouse: " << path << " -> " << segment << "\n";
    }
    if (http) http->stop();

    std::cout << "[gpfd] " << (st.drained ? "drained" : "complete") << ": "
              << st.appended << " results appended (" << st.duplicates
              << " duplicates dropped) from " << st.sessions << " sessions, "
              << st.expired_leases << " leases expired, "
              << st.campaigns_submitted << " submitted / "
              << st.campaigns_removed << " removed mid-run, "
              << st.busy_rejections << " busy rejections\n";
    for (const std::string& p : coordinator.store_paths())
      store::print_status(store::load_store(p), std::cout);

    // End-of-campaign metrics next to the first store, plus any trace.
    const std::filesystem::path mdir =
        std::filesystem::path(paths.front()).parent_path();
    const std::string metrics_path =
        ((mdir.empty() ? std::filesystem::path(".") : mdir) / "metrics.json")
            .string();
    if (obs::write_metrics_json(metrics_path))
      std::cout << "[gpfd] metrics -> " << metrics_path << "\n";
    obs::flush_trace();
    return 0;
  } catch (const UsageError& e) {
    return usage(e.what());
  } catch (const std::exception& e) {
    std::cerr << "gpfd: " << e.what() << "\n";
    return 1;
  }
}
