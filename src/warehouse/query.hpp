// Rollup-backed query rendering: the shared answer path behind
// `gpfctl query` and gpfd's GET /v1/query. Everything here is computed from
// a segment Footer alone — O(rollup size), never O(records) — and the JSON
// "summary" object is field-for-field identical to the summary block of
// `gpfctl export`, so CI can diff a rollup-served answer against a
// full-log-scan export byte-for-byte (numbers use the same %.17g rendering).
#pragma once

#include <ostream>
#include <string>

#include "warehouse/segment.hpp"

namespace gpf::warehouse {

enum class Metric : std::uint8_t {
  Epr,       ///< outcome/error-rate summary (kind-specific, matches export)
  Classes,   ///< gate: per-net stuck-at-0/1 class tallies; others: outcomes
  Syndromes, ///< error-magnitude histogram
  Workers,   ///< per-source (shard) rows, coverage and records scanned
};
enum class QueryFormat : std::uint8_t { Json, Csv, Table };

const char* metric_name(Metric m);
/// Parses "epr|classes|syndromes|workers" / "json|csv|table"; returns false
/// (leaving `out` untouched) on anything else.
bool parse_metric(const std::string& s, Metric& out);
bool parse_format(const std::string& s, QueryFormat& out);

/// Renders one metric of one segment footer. Deterministic: no timestamps,
/// no paths, map-ordered rows.
void render_metric(const Footer& f, Metric metric, QueryFormat format,
                   std::ostream& os);

/// render_metric to a string (the HTTP handler's form).
std::string render_metric(const Footer& f, Metric metric, QueryFormat format);

}  // namespace gpf::warehouse
