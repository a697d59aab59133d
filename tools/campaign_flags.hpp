// Flag parsing and campaign construction shared by the gpfctl and gpfd
// command-line tools: --key value parsing, the campaign-flag -> CampaignMeta
// builders, and the canonical store-file naming scheme.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/env.hpp"
#include "errmodel/models.hpp"
#include "gate/trace.hpp"
#include "perfi/campaign.hpp"
#include "report/gate_experiments.hpp"
#include "rtl/campaign.hpp"
#include "store/result_log.hpp"
#include "workloads/workload.hpp"

namespace gpfcli {

/// A malformed invocation: callers print their usage text with this message.
struct UsageError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// Flag parser: --key value pairs plus positional arguments. `known` lists
/// every flag the command reads; any other flag is a UsageError naming it,
/// so a misspelt or removed flag is never silently ignored. Flags listed in
/// `boolean` take no value (present = "1"); `-o FILE` is `--out FILE`.
struct Args {
  std::map<std::string, std::string> flags;
  std::vector<std::string> positional;

  static Args parse(int argc, char** argv, int from,
                    const std::set<std::string>& known,
                    const std::set<std::string>& boolean = {}) {
    Args a;
    for (int i = from; i < argc; ++i) {
      const std::string s = argv[i];
      if (s.rfind("--", 0) == 0 || s == "-o") {
        const std::string key = s == "-o" ? "out" : s.substr(2);
        if (boolean.count(key)) {
          a.flags.insert_or_assign(key, std::string(1, '1'));
          continue;
        }
        if (!known.count(key)) throw UsageError("unknown flag " + s);
        if (i + 1 >= argc) throw UsageError("missing value for " + s);
        a.flags[key] = argv[++i];
      } else {
        a.positional.push_back(s);
      }
    }
    return a;
  }
  std::string get(const std::string& key, const std::string& def = "") const {
    const auto it = flags.find(key);
    return it == flags.end() ? def : it->second;
  }
  std::uint64_t get_u64(const std::string& key, std::uint64_t def) const {
    const auto it = flags.find(key);
    return it == flags.end() ? def : std::stoull(it->second, nullptr, 0);
  }
  bool has(const std::string& key) const { return flags.count(key) != 0; }
};

inline gpf::EngineKind parse_engine(const std::string& s) {
  if (const auto e = gpf::engine_from_name(s)) return *e;
  throw UsageError("unknown engine: " + s + " (brute|batch)");
}

inline gpf::gate::UnitKind parse_unit(const std::string& s) {
  if (s == "decoder") return gpf::gate::UnitKind::Decoder;
  if (s == "fetch") return gpf::gate::UnitKind::Fetch;
  if (s == "wsc") return gpf::gate::UnitKind::WSC;
  throw UsageError("unknown unit: " + s + " (decoder|fetch|wsc|all)");
}

inline gpf::workloads::TileType parse_tile(const std::string& s) {
  if (s == "max") return gpf::workloads::TileType::Max;
  if (s == "zero") return gpf::workloads::TileType::Zero;
  if (s == "random") return gpf::workloads::TileType::Random;
  throw UsageError("unknown tile: " + s + " (max|zero|random)");
}

inline gpf::rtl::Site parse_site(const std::string& s) {
  if (s == "fu") return gpf::rtl::Site::FuLane;
  if (s == "sfu") return gpf::rtl::Site::Sfu;
  if (s == "pipeline") return gpf::rtl::Site::Pipeline;
  if (s == "scheduler") return gpf::rtl::Site::Scheduler;
  throw UsageError("unknown site: " + s + " (fu|sfu|pipeline|scheduler)");
}

inline gpf::errmodel::ErrorModel parse_model(const std::string& s) {
  for (unsigned m = 0; m < gpf::errmodel::kNumErrorModels; ++m)
    if (s == gpf::errmodel::name_of(static_cast<gpf::errmodel::ErrorModel>(m)))
      return static_cast<gpf::errmodel::ErrorModel>(m);
  throw UsageError("unknown error model: " + s);
}

inline const char* unit_slug(gpf::gate::UnitKind u) {
  switch (u) {
    case gpf::gate::UnitKind::Decoder: return "decoder";
    case gpf::gate::UnitKind::Fetch: return "fetch";
    case gpf::gate::UnitKind::WSC: return "wsc";
  }
  return "unit";
}

inline std::string shard_suffix(const gpf::store::CampaignMeta& m) {
  if (m.shard_count == 1) return "";
  return "-s" + std::to_string(m.shard_index) + "of" +
         std::to_string(m.shard_count);
}

/// Canonical campaign name for a meta: the store filename stem, which is
/// also the registry name a multi-campaign coordinator serves it under
/// (gpfd derives it back from the path, so submit/resume/export all agree).
inline std::string campaign_name_for(const gpf::store::CampaignMeta& m) {
  using gpf::store::CampaignKind;
  std::string name;
  switch (m.kind) {
    case CampaignKind::Gate:
      name = std::string("gate-") +
             unit_slug(static_cast<gpf::gate::UnitKind>(m.target));
      break;
    case CampaignKind::Rtl:
      name = "rtl-tmxm-" + std::to_string(static_cast<unsigned>(m.target)) +
             "-site" + std::to_string(static_cast<unsigned>(m.param0));
      break;
    case CampaignKind::Perfi:
      name = "perfi-" + m.app + "-" +
             std::string(gpf::errmodel::name_of(
                 static_cast<gpf::errmodel::ErrorModel>(m.model)));
      break;
  }
  return name + shard_suffix(m);
}

inline std::string store_path_for(const gpf::store::CampaignMeta& m,
                                  const std::string& dir) {
  return dir + "/" + campaign_name_for(m) + ".gpfs";
}

/// The flags metas_from_flags reads.
inline const std::set<std::string> kCampaignFlags = {
    "campaign", "unit", "faults", "max-issues", "engine", "tile", "site",
    "app", "model", "injections", "seed", "shard-index", "shard-count"};

/// `more` plus kCampaignFlags: the flag set of a command that builds
/// campaigns from flags.
inline std::set<std::string> with_campaign_flags(std::set<std::string> more) {
  more.insert(kCampaignFlags.begin(), kCampaignFlags.end());
  return more;
}

/// Builds the campaign metas described by `run`-style flags (--campaign,
/// --unit/--tile/--site/--app/--model, --faults/--injections, --seed,
/// --shard-index/count). A gate campaign with --unit all yields three metas.
/// Throws UsageError on a malformed combination.
inline std::vector<gpf::store::CampaignMeta> metas_from_flags(const Args& a) {
  namespace gpf_ = gpf;
  const std::string campaign = a.get("campaign");
  const std::uint64_t seed = a.get_u64("seed", gpf_::campaign_seed());
  const auto shard_index =
      static_cast<std::uint32_t>(a.get_u64("shard-index", 0));
  const auto shard_count =
      static_cast<std::uint32_t>(a.get_u64("shard-count", 1));
  if (shard_count == 0 || shard_index >= shard_count)
    throw UsageError("invalid shard slice");

  std::vector<gpf_::store::CampaignMeta> metas;
  if (campaign == "gate") {
    const std::size_t faults = a.get_u64("faults", 0);
    const std::size_t max_issues =
        a.get_u64("max-issues", gpf_::scaled(400, 100));
    const gpf_::EngineKind engine =
        parse_engine(a.get("engine", engine_name(gpf_::campaign_engine())));
    const std::string unit_arg = a.get("unit", "all");
    std::vector<gpf_::gate::UnitKind> units;
    if (unit_arg == "all")
      units = {gpf_::gate::UnitKind::Decoder, gpf_::gate::UnitKind::Fetch,
               gpf_::gate::UnitKind::WSC};
    else
      units = {parse_unit(unit_arg)};
    for (const auto u : units)
      metas.push_back(gpf_::report::gate_campaign_meta(
          u, faults, max_issues, seed, engine, shard_index, shard_count));
  } else if (campaign == "rtl") {
    if (!a.has("injections")) throw UsageError("rtl: --injections required");
    metas.push_back(gpf_::rtl::tmxm_campaign_meta(
        parse_tile(a.get("tile", "random")), parse_site(a.get("site", "fu")),
        a.get_u64("injections", 0), seed, shard_index, shard_count));
  } else if (campaign == "perfi") {
    if (!a.has("app") || !a.has("model") || !a.has("injections"))
      throw UsageError("perfi: --app, --model, --injections required");
    const gpf_::workloads::Workload* w = gpf_::workloads::find(a.get("app"));
    if (!w) throw UsageError("unknown workload: " + a.get("app"));
    metas.push_back(gpf_::perfi::epr_campaign_meta(
        *w, parse_model(a.get("model")), a.get_u64("injections", 0), seed,
        shard_index, shard_count));
  } else {
    throw UsageError("--campaign must be gate|rtl|perfi");
  }
  return metas;
}

/// Applies --jobs N (process-wide GPF_THREADS override) when present.
inline void apply_jobs_flag(const Args& a) {
  if (a.has("jobs"))
    gpf::set_campaign_threads_override(
        static_cast<std::size_t>(a.get_u64("jobs", 0)));
}

}  // namespace gpfcli
