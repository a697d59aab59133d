// Minimal HTTP/1.1 layer for gpfd's observability endpoints.
//
// This is deliberately not a web framework: GET only, Connection: close,
// request head capped at kMaxHttpHeadBytes, each connection closed
// kHttpRequestMs after it was accepted. It exists so `curl
// http://gpfd/v1/stats` and dashboards can read campaign progress and
// warehouse rollups without speaking the binary frame protocol. The
// connections live in the coordinator's event loop
// (Coordinator::serve_http); this file turns a request head into a
// response.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "net/protocol.hpp"

namespace gpf::net {

/// A request head longer than this is answered as it stands.
constexpr std::size_t kMaxHttpHeadBytes = 8192;
/// Whole-request deadline: a connection still open this long after it was
/// accepted is closed, answered or not.
constexpr std::uint32_t kHttpRequestMs = 2000;

struct HttpRequest {
  std::string method;  ///< "GET"
  std::string target;  ///< raw request target, e.g. "/v1/query?metric=epr"
  std::string path;    ///< target up to '?'
  std::map<std::string, std::string> params;  ///< decoded query parameters
};

struct HttpResponse {
  int status = 200;
  std::string content_type = "application/json";
  std::string body;
};

/// Parses an HTTP/1.1 request head (request line + headers, as read off the
/// wire up to the blank line). Returns false on anything malformed. Query
/// parameters are split on '&'/'=' and percent-decoded.
bool parse_http_request(const std::string& head, HttpRequest& out);

/// Serializes status line + headers + body, ready to write to the socket.
std::string serialize_http_response(const HttpResponse& r);

using HttpHandler = std::function<HttpResponse(const HttpRequest&)>;

/// Answers one request head: 400 when it does not parse, 405 for anything
/// but GET, else the handler's response; a handler exception becomes a 500
/// whose JSON body names it. Counts http.requests and http.errors.
HttpResponse answer_http(const std::string& head, const HttpHandler& handler);

/// The /v1/stats body: the same live progress view `gpfctl top` renders —
/// aggregate (or campaign-scoped) progress, the campaign registry, and the
/// worker table — as JSON.
std::string stats_json(const StatsSnapshot& st);

/// The /v1/campaigns body: the registry rows, as JSON.
std::string campaigns_json(const std::vector<CampaignRow>& rows);

}  // namespace gpf::net
