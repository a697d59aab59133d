#include "warehouse/query.hpp"

#include <algorithm>
#include <cstdio>
#include <sstream>

#include "store/export.hpp"
#include "store/records.hpp"

namespace gpf::warehouse {

namespace {

/// Same floating-point rendering as store export (%.17g round-trips doubles
/// exactly), so rollup-served ratios diff clean against export summaries.
std::string dbl(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string model_name(unsigned m) {
  return std::string(errmodel::name_of(static_cast<errmodel::ErrorModel>(m)));
}

/// Ids in [0, total) owned by one source's shard slice.
std::uint64_t owned_ids(const store::CampaignMeta& m, const SourceTally& s) {
  return m.total / s.shard_count +
         (m.total % s.shard_count > s.shard_index ? 1 : 0);
}

void json_campaign(const Footer& f, Metric metric, std::ostream& os) {
  const store::CampaignMeta& m = f.meta;
  os << "{\n  \"format\": \"gpfw-query-v1\",\n  \"metric\": \""
     << metric_name(metric) << "\",\n";
  os << "  \"campaign\": {\"kind\": \"" << store::campaign_kind_name(m.kind)
     << "\", \"target\": \"" << store::target_label(m)
     << "\", \"seed\": " << m.seed << ", \"total\": " << m.total
     << ", \"shard_index\": " << m.shard_index
     << ", \"shard_count\": " << m.shard_count << "},\n";
  os << "  \"rows\": " << f.rows << ",\n";
}

// --- epr -------------------------------------------------------------------

/// The export-summary twin. Field names and order match export_gate /
/// export_rtl / export_perfi exactly.
void epr_summary_json(const Rollups& r, std::ostream& os) {
  switch (r.kind) {
    case store::CampaignKind::Gate: {
      os << "{\"uncontrollable\": " << r.gate_classes[0]
         << ", \"hw_masked\": " << r.gate_classes[1]
         << ", \"hw_hang\": " << r.gate_classes[2]
         << ", \"sw_error\": " << r.gate_classes[3] << ",\n    \"models\": {";
      for (unsigned m = 0; m < errmodel::kNumErrorModels; ++m) {
        if (m) os << ", ";
        os << "\"" << model_name(m) << "\": {\"faults\": " << r.model_faults[m]
           << ", \"occurrences\": " << r.model_occurrences[m] << "}";
      }
      os << "}}";
      break;
    }
    case store::CampaignKind::Rtl: {
      const std::uint64_t sdc = r.rtl_outcomes[1] + r.rtl_outcomes[2];
      os << "{\"injections\": " << r.rows << ", \"masked\": " << r.rtl_outcomes[0]
         << ", \"sdc_single\": " << r.rtl_outcomes[1]
         << ", \"sdc_multiple\": " << r.rtl_outcomes[2]
         << ", \"due\": " << r.rtl_outcomes[3]
         << ", \"avf_sdc\": " << dbl(r.ratio(sdc))
         << ", \"avf_due\": " << dbl(r.ratio(r.rtl_outcomes[3]))
         << ", \"corrupted_total\": " << r.corrupted_total << "}";
      break;
    }
    case store::CampaignKind::Perfi: {
      os << "{\"injections\": " << r.rows
         << ", \"masked\": " << r.perfi_outcomes[0]
         << ", \"sdc\": " << r.perfi_outcomes[1]
         << ", \"due\": " << r.perfi_due()
         << ", \"due_illegal_address\": " << r.perfi_outcomes[2]
         << ", \"due_invalid_register\": " << r.perfi_outcomes[3]
         << ", \"due_invalid_opcode\": " << r.perfi_outcomes[4]
         << ", \"due_hang\": " << r.perfi_outcomes[5]
         << ", \"due_other\": " << r.perfi_outcomes[6]
         << ", \"epr_sdc\": " << dbl(r.ratio(r.perfi_outcomes[1]))
         << ", \"epr_due\": " << dbl(r.ratio(r.perfi_due())) << "}";
      break;
    }
  }
}

void render_epr(const Footer& f, QueryFormat format, std::ostream& os) {
  const Rollups& r = f.rollups;
  switch (format) {
    case QueryFormat::Json:
      json_campaign(f, Metric::Epr, os);
      os << "  \"summary\": ";
      epr_summary_json(r, os);
      if (r.kind == store::CampaignKind::Gate) {
        os << ",\n  \"fapr\": {";
        for (unsigned m = 0; m < errmodel::kNumErrorModels; ++m)
          os << (m ? ", " : "") << "\"" << model_name(m)
             << "\": " << dbl(r.ratio(r.model_faults[m]));
        os << "}";
      }
      os << "\n}\n";
      return;
    case QueryFormat::Csv:
      os << "key,value\n";
      switch (r.kind) {
        case store::CampaignKind::Gate:
          for (std::size_t c = 0; c < kGateClasses; ++c)
            os << gate_class_name(c) << "," << r.gate_classes[c] << "\n";
          for (unsigned m = 0; m < errmodel::kNumErrorModels; ++m)
            os << "faults_" << model_name(m) << "," << r.model_faults[m]
               << "\noccurrences_" << model_name(m) << ","
               << r.model_occurrences[m] << "\n";
          break;
        case store::CampaignKind::Rtl:
          os << "injections," << r.rows << "\nmasked," << r.rtl_outcomes[0]
             << "\nsdc_single," << r.rtl_outcomes[1] << "\nsdc_multiple,"
             << r.rtl_outcomes[2] << "\ndue," << r.rtl_outcomes[3]
             << "\navf_sdc,"
             << dbl(r.ratio(r.rtl_outcomes[1] + r.rtl_outcomes[2]))
             << "\navf_due," << dbl(r.ratio(r.rtl_outcomes[3])) << "\n";
          break;
        case store::CampaignKind::Perfi:
          os << "injections," << r.rows << "\nmasked," << r.perfi_outcomes[0]
             << "\nsdc," << r.perfi_outcomes[1] << "\ndue," << r.perfi_due()
             << "\nepr_sdc," << dbl(r.ratio(r.perfi_outcomes[1]))
             << "\nepr_due," << dbl(r.ratio(r.perfi_due())) << "\n";
          break;
      }
      return;
    case QueryFormat::Table:
      os << "campaign: " << store::campaign_kind_name(r.kind) << " "
         << store::target_label(f.meta) << "  rows: " << f.rows << "\n";
      switch (r.kind) {
        case store::CampaignKind::Gate:
          for (std::size_t c = 0; c < kGateClasses; ++c)
            os << "  " << gate_class_name(c) << ": " << r.gate_classes[c]
               << "\n";
          os << "  model            faults  occurrences  fapr\n";
          for (unsigned m = 0; m < errmodel::kNumErrorModels; ++m) {
            char line[128];
            std::snprintf(line, sizeof(line), "  %-16s %6llu  %11llu  %.6f\n",
                          model_name(m).c_str(),
                          static_cast<unsigned long long>(r.model_faults[m]),
                          static_cast<unsigned long long>(
                              r.model_occurrences[m]),
                          r.ratio(r.model_faults[m]));
            os << line;
          }
          break;
        case store::CampaignKind::Rtl:
          os << "  masked: " << r.rtl_outcomes[0]
             << "  sdc-single: " << r.rtl_outcomes[1]
             << "  sdc-multiple: " << r.rtl_outcomes[2]
             << "  due: " << r.rtl_outcomes[3] << "\n  avf_sdc: "
             << dbl(r.ratio(r.rtl_outcomes[1] + r.rtl_outcomes[2]))
             << "  avf_due: " << dbl(r.ratio(r.rtl_outcomes[3])) << "\n";
          break;
        case store::CampaignKind::Perfi:
          os << "  masked: " << r.perfi_outcomes[0]
             << "  sdc: " << r.perfi_outcomes[1] << "  due: " << r.perfi_due()
             << "\n  epr_sdc: " << dbl(r.ratio(r.perfi_outcomes[1]))
             << "  epr_due: " << dbl(r.ratio(r.perfi_due())) << "\n";
          break;
      }
      return;
  }
}

// --- classes ---------------------------------------------------------------

void render_classes(const Footer& f, QueryFormat format, std::ostream& os) {
  const Rollups& r = f.rollups;
  if (r.kind != store::CampaignKind::Gate) {
    // Non-gate campaigns have outcomes, not stuck-at classes: serve the
    // outcome tallies under the same metric name.
    render_epr(f, format, os);
    return;
  }
  switch (format) {
    case QueryFormat::Json: {
      json_campaign(f, Metric::Classes, os);
      os << "  \"classes\": {";
      for (std::size_t c = 0; c < kGateClasses; ++c)
        os << (c ? ", " : "") << "\"" << gate_class_name(c)
           << "\": " << r.gate_classes[c];
      os << "},\n  \"nets\": [\n";
      for (std::size_t i = 0; i < r.nets.size(); ++i) {
        const NetTally& t = r.nets[i];
        os << (i ? ",\n" : "") << "    {\"net\": " << t.net << ", \"sa0\": [";
        for (std::size_t c = 0; c < kGateClasses; ++c)
          os << (c ? "," : "") << t.sa0[c];
        os << "], \"sa1\": [";
        for (std::size_t c = 0; c < kGateClasses; ++c)
          os << (c ? "," : "") << t.sa1[c];
        os << "]}";
      }
      os << "\n  ]\n}\n";
      return;
    }
    case QueryFormat::Csv: {
      os << "net";
      for (const char* sa : {"sa0", "sa1"})
        for (std::size_t c = 0; c < kGateClasses; ++c)
          os << "," << sa << "_" << gate_class_name(c);
      os << "\n";
      for (const NetTally& t : r.nets) {
        os << t.net;
        for (std::size_t c = 0; c < kGateClasses; ++c) os << "," << t.sa0[c];
        for (std::size_t c = 0; c < kGateClasses; ++c) os << "," << t.sa1[c];
        os << "\n";
      }
      return;
    }
    case QueryFormat::Table: {
      os << "classes: ";
      for (std::size_t c = 0; c < kGateClasses; ++c)
        os << (c ? "  " : "") << gate_class_name(c) << "=" << r.gate_classes[c];
      os << "\nnets: " << r.nets.size() << " with retired faults\n";
      os << "  net        sa0(unc/mask/hang/err)   sa1(unc/mask/hang/err)\n";
      for (const NetTally& t : r.nets) {
        char line[160];
        std::snprintf(line, sizeof(line),
                      "  %-9u  %5u %5u %5u %5u    %5u %5u %5u %5u\n", t.net,
                      t.sa0[0], t.sa0[1], t.sa0[2], t.sa0[3], t.sa1[0],
                      t.sa1[1], t.sa1[2], t.sa1[3]);
        os << line;
      }
      return;
    }
  }
}

// --- syndromes -------------------------------------------------------------

void render_syndromes(const Footer& f, QueryFormat format, std::ostream& os) {
  const Rollups& r = f.rollups;
  switch (format) {
    case QueryFormat::Json: {
      json_campaign(f, Metric::Syndromes, os);
      os << "  \"syndrome_sum\": " << r.syndrome_sum << ",\n  \"buckets\": [";
      for (std::size_t b = 0; b < kSyndromeBuckets; ++b)
        os << (b ? "," : "") << r.syndrome[b];
      os << "]\n}\n";
      return;
    }
    case QueryFormat::Csv:
      os << "bucket_lo,bucket_hi,count\n";
      for (std::size_t b = 0; b < kSyndromeBuckets; ++b) {
        if (!r.syndrome[b]) continue;
        const std::uint64_t lo = b ? syndrome_bucket_limit(b - 1) : 0;
        os << lo << "," << syndrome_bucket_limit(b) << "," << r.syndrome[b]
           << "\n";
      }
      return;
    case QueryFormat::Table: {
      os << "syndrome magnitudes (" << f.rows
         << " rows, sum=" << r.syndrome_sum << ")\n";
      std::uint64_t peak = 1;
      for (const std::uint64_t c : r.syndrome) peak = std::max(peak, c);
      for (std::size_t b = 0; b < kSyndromeBuckets; ++b) {
        if (!r.syndrome[b]) continue;
        const std::uint64_t lo = b ? syndrome_bucket_limit(b - 1) : 0;
        char head[64];
        std::snprintf(head, sizeof(head), "  [%10llu, %10llu)  %8llu  ",
                      static_cast<unsigned long long>(lo),
                      static_cast<unsigned long long>(syndrome_bucket_limit(b)),
                      static_cast<unsigned long long>(r.syndrome[b]));
        os << head;
        const std::size_t bars =
            static_cast<std::size_t>(40 * r.syndrome[b] / peak);
        for (std::size_t i = 0; i < bars; ++i) os << '#';
        os << "\n";
      }
      return;
    }
  }
}

// --- workers ---------------------------------------------------------------

void render_workers(const Footer& f, QueryFormat format, std::ostream& os) {
  switch (format) {
    case QueryFormat::Json: {
      json_campaign(f, Metric::Workers, os);
      os << "  \"sources\": [\n";
      for (std::size_t i = 0; i < f.sources.size(); ++i) {
        const SourceTally& s = f.sources[i];
        const std::uint64_t owned = owned_ids(f.meta, s);
        os << (i ? ",\n" : "") << "    {\"shard_index\": " << s.shard_index
           << ", \"shard_count\": " << s.shard_count << ", \"rows\": " << s.rows
           << ", \"owned\": " << owned
           << ", \"coverage\": " << dbl(owned ? static_cast<double>(s.rows) /
                                                    static_cast<double>(owned)
                                              : 0.0)
           << ", \"scanned_records\": " << s.scanned_records << "}";
      }
      os << "\n  ]\n}\n";
      return;
    }
    case QueryFormat::Csv:
      os << "shard_index,shard_count,rows,owned,scanned_records\n";
      for (const SourceTally& s : f.sources)
        os << s.shard_index << "," << s.shard_count << "," << s.rows << ","
           << owned_ids(f.meta, s) << "," << s.scanned_records << "\n";
      return;
    case QueryFormat::Table:
      os << "sources: " << f.sources.size() << "  rows: " << f.rows << " / "
         << f.meta.total << "\n";
      os << "  shard   rows/owned        retired  scanned\n";
      for (const SourceTally& s : f.sources) {
        const std::uint64_t owned = owned_ids(f.meta, s);
        char line[160];
        std::snprintf(line, sizeof(line),
                      "  %2u/%-2u  %8llu/%-8llu  %5.1f%%  %7llu\n",
                      s.shard_index, s.shard_count,
                      static_cast<unsigned long long>(s.rows),
                      static_cast<unsigned long long>(owned),
                      owned ? 100.0 * static_cast<double>(s.rows) /
                                  static_cast<double>(owned)
                            : 0.0,
                      static_cast<unsigned long long>(s.scanned_records));
        os << line;
      }
      return;
  }
}

}  // namespace

const char* metric_name(Metric m) {
  switch (m) {
    case Metric::Epr: return "epr";
    case Metric::Classes: return "classes";
    case Metric::Syndromes: return "syndromes";
    case Metric::Workers: return "workers";
  }
  return "?";
}

bool parse_metric(const std::string& s, Metric& out) {
  if (s == "epr") out = Metric::Epr;
  else if (s == "classes") out = Metric::Classes;
  else if (s == "syndromes") out = Metric::Syndromes;
  else if (s == "workers") out = Metric::Workers;
  else return false;
  return true;
}

bool parse_format(const std::string& s, QueryFormat& out) {
  if (s == "json") out = QueryFormat::Json;
  else if (s == "csv") out = QueryFormat::Csv;
  else if (s == "table") out = QueryFormat::Table;
  else return false;
  return true;
}

void render_metric(const Footer& f, Metric metric, QueryFormat format,
                   std::ostream& os) {
  switch (metric) {
    case Metric::Epr: render_epr(f, format, os); return;
    case Metric::Classes: render_classes(f, format, os); return;
    case Metric::Syndromes: render_syndromes(f, format, os); return;
    case Metric::Workers: render_workers(f, format, os); return;
  }
}

std::string render_metric(const Footer& f, Metric metric, QueryFormat format) {
  std::ostringstream os;
  render_metric(f, metric, format, os);
  return os.str();
}

}  // namespace gpf::warehouse
