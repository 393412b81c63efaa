#include "core/console.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <map>
#include <sstream>
#include <string_view>

#include "obs/flight.hpp"
#include "util/strings.hpp"
#include "util/time.hpp"

namespace snipe::core {

namespace {

/// Keeps only the lines of `text` starting with `prefix` (the "metrics
/// srudp." filter, shared by the console verb and the /metrics endpoint).
std::string filter_lines(const std::string& text, const std::string& prefix) {
  if (prefix.empty()) return text;
  std::istringstream lines(text);
  std::string filtered, l;
  while (std::getline(lines, l))
    if (l.rfind(prefix, 0) == 0) filtered += l + "\n";
  return filtered;
}

std::string format_ms(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3f", v);
  return buf;
}

/// Ratio of two counters by name, or -1 when the denominator is absent or
/// zero (nothing sent means no meaningful ratio, not a perfect one).
double counter_ratio(const obs::Snapshot& snapshot, const std::string& num,
                     const std::string& den) {
  double n = 0, d = 0;
  for (const auto& m : snapshot) {
    if (m.name == num) n = m.value;
    if (m.name == den) d = m.value;
  }
  return d > 0 ? n / d : -1;
}

}  // namespace

std::string health_report(const obs::Snapshot& snapshot) {
  std::string out;
  // Delivery latency: every transport publishes a "<transport>.delivery_ms"
  // histogram, so the rollup discovers transports instead of listing them.
  for (const auto& m : snapshot) {
    if (m.kind != obs::MetricValue::Kind::histogram) continue;
    constexpr std::string_view suffix = ".delivery_ms";
    if (m.name.size() <= suffix.size() ||
        m.name.compare(m.name.size() - suffix.size(), suffix.size(), suffix) != 0)
      continue;
    std::string transport = m.name.substr(0, m.name.size() - suffix.size());
    out += transport + " delivery_ms p50=" + format_ms(m.p50) +
           " p95=" + format_ms(m.p95) + " p99=" + format_ms(m.p99) +
           " n=" + std::to_string(m.count) + "\n";
  }
  double srudp_retx = counter_ratio(snapshot, "srudp.fragments_retransmitted",
                                    "srudp.fragments_sent");
  if (srudp_retx >= 0)
    out += "srudp retransmit_ratio " + format_ms(srudp_retx) + "\n";
  double stream_retx = counter_ratio(snapshot, "stream.segments_retransmitted",
                                     "stream.segments_sent");
  if (stream_retx >= 0)
    out += "stream retransmit_ratio " + format_ms(stream_retx) + "\n";
  for (const auto& m : snapshot)
    if (m.name == "multipath.route_switches")
      out += "route_failovers " + std::to_string(static_cast<std::uint64_t>(m.value)) +
             "\n";
  return out.empty() ? "(no health data)" : out;
}

std::string trace_report(const std::vector<obs::TraceEvent>& events,
                         const std::string& query) {
  // The operator may paste a flow id ("0x9f3...", decimal) or a message id
  // from a log line; a message id resolves through any event carrying a
  // matching "msg" argument.
  std::uint64_t id = 0;
  try {
    id = std::stoull(query, nullptr, query.rfind("0x", 0) == 0 ? 16 : 10);
  } catch (...) {
    id = 0;
  }
  bool direct = false;
  for (const auto& e : events)
    if (e.id != 0 && e.id == id) {
      direct = true;
      break;
    }
  if (!direct) {
    id = 0;
    for (const auto& e : events) {
      if (e.id == 0) continue;
      for (const auto& [k, v] : e.args)
        if (k == "msg" && v == query) {
          id = e.id;
          break;
        }
      if (id != 0) break;
    }
  }
  if (id == 0) return "(no flow events for " + query + ")";

  char idbuf[32];
  std::snprintf(idbuf, sizeof(idbuf), "0x%llx", static_cast<unsigned long long>(id));
  std::string out = "flow " + std::string(idbuf) + ":\n";
  for (const auto& e : events) {
    if (e.id != id) continue;
    out += "  " + format_time(e.ts) + " " + e.name;
    for (const auto& [k, v] : e.args) out += " " + k + "=" + v;
    out += "\n";
  }
  return out;
}

std::string fleet_health_report(const obs::FleetStore& store, std::int64_t now_ns) {
  auto hosts = store.health(now_ns);
  if (hosts.empty()) return "(no fleet telemetry)";
  std::size_t stale_count = 0;
  for (const auto& h : hosts) stale_count += h.stale ? 1 : 0;
  std::string out = "fleet hosts: " + std::to_string(hosts.size()) + " (" +
                    std::to_string(stale_count) + " stale)\n";
  char line[192];
  for (const auto& h : hosts) {
    std::snprintf(line, sizeof(line),
                  "  %-16s beacons=%llu resyncs=%llu last=%s missed=%.1f%s\n",
                  h.host.c_str(), static_cast<unsigned long long>(h.beacons),
                  static_cast<unsigned long long>(h.resyncs),
                  format_time(h.last_arrival).c_str(), h.missed,
                  h.stale ? " STALE" : "");
    out += line;
  }
  // The rollup reuses the local health report over the fleet-merged
  // snapshot: merged sketches make the percentiles exact for the union.
  out += "fleet rollup:\n";
  out += health_report(store.merged_snapshot());
  return out;
}

namespace {

/// Param values bound by name: the console binds its positional words, the
/// gateway its query string.
using Args = std::map<std::string, std::string, std::less<>>;

/// What a view's renderer sees: the answering process, its attachments and
/// the bound params (absent ones read as "").
struct ViewCall {
  SnipeProcess& process;
  const OpsAttachments& attached;
  const Args& args;

  const std::string& operator[](std::string_view param) const {
    static const std::string none;
    auto it = args.find(param);
    return it == args.end() ? none : it->second;
  }
};

/// Attachment bits a view needs before it can render.
enum Needs : unsigned { kFleet = 1, kSeries = 2, kAlerts = 4, kFleetWatch = 8 };

struct Param {
  std::string_view name;
  bool required = false;
};

struct View {
  std::string_view name;  ///< gateway path minus the leading '/'
  std::vector<Param> params;
  unsigned needs = 0;
  std::string (*render)(const ViewCall&);
};

/// `text` as a positive integer, or `fallback` when absent or malformed.
std::uint64_t positive_or(const std::string& text, std::uint64_t fallback) {
  char* end = nullptr;
  unsigned long long v = std::strtoull(text.c_str(), &end, 10);
  return end != text.c_str() && v > 0 ? v : fallback;
}

std::string or_empty_note(std::string text, const char* note) {
  return text.empty() ? note : text;
}

/// The one table of observability views (documented on OpsViews).
const View kViews[] = {
    {"metrics", {{"prefix"}}, 0,
     [](const ViewCall& c) {
       return or_empty_note(
           filter_lines(obs::MetricsRegistry::global().format_text(), c["prefix"]),
           "(no metrics recorded)");
     }},
    {"trace", {{"id", true}}, 0,
     [](const ViewCall& c) { return trace_report(obs::Tracer::global().events(), c["id"]); }},
    {"flight", {{"host"}}, 0,
     [](const ViewCall& c) { return obs::FlightRecorder::global().dump(c["host"]); }},
    {"health", {}, 0,
     [](const ViewCall&) { return health_report(obs::MetricsRegistry::global().snapshot()); }},
    // Where contention and partitions live: the zone tree with per-link
    // utilization and up/down state, straight from the simulated world.
    {"topo", {{"window_s"}}, 0,
     [](const ViewCall& c) {
       auto window_s = static_cast<std::int64_t>(positive_or(c["window_s"], 10));
       return c.process.host().world()->describe_topology(c.attached.series,
                                                          duration::seconds(window_s));
     }},
    {"series", {{"prefix"}}, kSeries,
     [](const ViewCall& c) { return c.attached.series->format_text(c["prefix"]); }},
    {"alerts", {}, kAlerts, [](const ViewCall& c) { return c.attached.alerts->format_text(); }},
    {"fleet/metrics", {{"prefix"}}, kFleet,
     [](const ViewCall& c) {
       return or_empty_note(c.attached.fleet->format_metrics(c["prefix"]), "(no fleet metrics)");
     }},
    {"fleet/health", {}, kFleet,
     [](const ViewCall& c) {
       return fleet_health_report(*c.attached.fleet, obs::Tracer::global().now());
     }},
    {"fleet/flight", {{"host"}}, kFleet,
     [](const ViewCall& c) { return c.attached.fleet->format_flight(c["host"]); }},
    {"fleet/top", {{"n"}}, kFleet,
     [](const ViewCall& c) {
       return c.attached.fleet->format_top(static_cast<std::size_t>(positive_or(c["n"], 5)));
     }},
    {"fleet/series", {{"host"}, {"prefix"}}, kFleet,
     [](const ViewCall& c) { return c.attached.fleet->format_series(c["host"], c["prefix"]); }},
    {"fleet/alerts", {}, kFleet | kFleetWatch,
     [](const ViewCall& c) { return c.attached.fleet_watch->format_text(); }},
};

/// Splits "/metrics?prefix=srudp." into the path and its query parameters.
/// No percent-decoding: every value the endpoints accept (metric prefixes,
/// host names, flow ids) is plain text already.
std::pair<std::string, Args> parse_target(const std::string& target) {
  auto qpos = target.find('?');
  std::string path = target.substr(0, qpos);
  Args params;
  if (qpos != std::string::npos) {
    std::istringstream query(target.substr(qpos + 1));
    std::string pair;
    while (std::getline(query, pair, '&')) {
      auto eq = pair.find('=');
      if (eq == std::string::npos)
        params[pair] = "";
      else
        params[pair.substr(0, eq)] = pair.substr(eq + 1);
    }
  }
  return {std::move(path), std::move(params)};
}

const View* find_view(std::string_view name) {
  for (const auto& v : kViews)
    if (v.name == name) return &v;
  return nullptr;
}

/// How a front end spells a view: "fleet series [host] [prefix]" on the
/// console, "/trace?id=<id>" over HTTP.
std::string spell(const View& v, bool http) {
  std::string out = http ? "/" + std::string(v.name) : std::string(v.name);
  if (!http) std::replace(out.begin(), out.end(), '/', ' ');
  for (std::size_t i = 0; i < v.params.size(); ++i) {
    std::string p(v.params[i].name);
    std::string word = http ? (i == 0 ? "?" : "&") + p + "=<" + p + ">" : " <" + p + ">";
    if (!v.params[i].required) word = http ? "[" + word + "]" : " [" + p + "]";
    out += word;
  }
  return out;
}

/// The console usage for the views in `group`: "" for the top-level ones,
/// else the first word of the multi-word names ("fleet").
std::string usage_line(std::string_view group) {
  std::string out;
  for (const auto& v : kViews) {
    auto slash = v.name.find('/');
    if ((slash == std::string_view::npos ? "" : v.name.substr(0, slash)) != group) continue;
    out += (out.empty() ? "" : " | ") + spell(v, false);
  }
  return out;
}

/// The text for the first attachment `needs` names that is missing, or
/// nullptr when all are attached.
const char* unattached(unsigned needs, const OpsAttachments& a) {
  if ((needs & kFleet) && a.fleet == nullptr) return "no fleet collector attached";
  if (((needs & kSeries) && a.series == nullptr) || ((needs & kAlerts) && a.alerts == nullptr))
    return "no watchtower attached";
  if ((needs & kFleetWatch) && a.fleet_watch == nullptr) return "no fleet watch attached";
  return nullptr;
}

/// One view answered for either front end: the text plus the status the
/// gateway sends with it (400 with the usage for a missing required param,
/// 404 for a missing attachment).
struct Answer {
  int status = 200;
  std::string text;
};

Answer answer(const View& v, const ViewCall& call, bool http) {
  for (const auto& p : v.params)
    if (p.required && call[p.name].empty()) return {400, "usage: " + spell(v, http)};
  if (const char* missing = unattached(v.needs, call.attached)) return {404, missing};
  return {200, v.render(call)};
}

}  // namespace

void Console::interpret(const std::string& line, std::function<void(std::string)> reply) {
  std::istringstream parts(line);
  const std::vector<std::string> words{std::istream_iterator<std::string>(parts), {}};
  const std::string verb = words.empty() ? "" : words[0];
  const std::string arg = words.size() > 1 ? words[1] : "";

  if (verb == "ps" && !arg.empty()) {
    processes_on_host(arg, [reply = std::move(reply), arg](
                               Result<std::vector<std::string>> r) {
      if (!r) {
        reply("ps: " + r.error().to_string());
        return;
      }
      if (r.value().empty()) {
        reply("ps: no tasks recorded for " + arg);
        return;
      }
      reply(join(r.value(), "\n"));
    });
    return;
  }
  if (verb == "state" && !arg.empty()) {
    process_state(arg, [reply = std::move(reply), arg](Result<std::string> r) {
      reply(arg + ": " + (r.ok() ? r.value() : r.error().to_string()));
    });
    return;
  }
  if ((verb == "meta" || verb == "routers") && !arg.empty()) {
    bool routers_only = verb == "routers";
    query(arg, [reply = std::move(reply), routers_only](
                   Result<std::vector<rcds::Assertion>> r) {
      if (!r) {
        reply(r.error().to_string());
        return;
      }
      std::string out;
      for (const auto& a : r.value()) {
        if (routers_only && a.name != rcds::names::kGroupRouter) continue;
        out += a.name + " = " + a.value + "\n";
      }
      reply(out.empty() ? "(no matching metadata)" : out);
    });
    return;
  }
  if (verb == "where" && !arg.empty()) {
    process_.rc().lookup(arg, rcds::names::kProcHost,
                         [reply = std::move(reply), arg](Result<std::vector<std::string>> r) {
                           if (!r || r.value().empty())
                             reply("where: unknown process " + arg);
                           else
                             reply(arg + " is on " + r.value().front());
                         });
    return;
  }
  // A view: one word names a top-level view, two a grouped one ("fleet
  // top"); the words after the name bind to its params in order.
  for (std::size_t name_words = 1; name_words <= std::min<std::size_t>(2, words.size());
       ++name_words) {
    const View* view = find_view(name_words == 1 ? verb : verb + "/" + arg);
    if (view == nullptr || verb.find('/') != std::string::npos) continue;
    Args args;
    for (std::size_t i = 0; i < view->params.size() && name_words + i < words.size(); ++i)
      args.emplace(view->params[i].name, words[name_words + i]);
    reply(answer(*view, {process_, attached_, args}, /*http=*/false).text);
    return;
  }
  if (verb == "fleet") {
    reply("usage: " + usage_line("fleet"));
    return;
  }
  reply("usage: ps <host-url> | state <urn> | meta <uri> | where <urn> | routers <group> | " +
        usage_line("") + " | fleet <sub> [arg]");
}

Bytes HttpRequest::encode() const {
  ByteWriter w;
  w.str(method);
  w.str(path);
  w.blob(body);
  return std::move(w).take();
}

Result<HttpRequest> HttpRequest::decode(const Bytes& data) {
  ByteReader r(data);
  HttpRequest req;
  auto method = r.str();
  if (!method) return method.error();
  req.method = method.value();
  auto path = r.str();
  if (!path) return path.error();
  req.path = path.value();
  auto body = r.blob();
  if (!body) return body.error();
  req.body = std::move(body).take();
  return req;
}

Bytes HttpResponse::encode() const {
  ByteWriter w;
  w.i32(status);
  w.blob(body);
  return std::move(w).take();
}

Result<HttpResponse> HttpResponse::decode(const Bytes& data) {
  ByteReader r(data);
  HttpResponse res;
  auto status = r.i32();
  if (!status) return status.error();
  res.status = status.value();
  auto body = r.blob();
  if (!body) return body.error();
  res.body = std::move(body).take();
  return res;
}

HttpServer::HttpServer(SnipeProcess& process, std::string service_uri, Handler handler)
    : process_(process), service_uri_(std::move(service_uri)), handler_(std::move(handler)) {
  // "register a binding between a URN or URL and its current location":
  // the service URI points at the process URN; the URN's address metadata
  // is maintained by SnipeProcess (including across migration).
  process_.rc().set(service_uri_, rcds::names::kServiceLocation, process_.urn(),
                    [](Result<void>) {});
  process_.rpc().serve(tags::kHttpRequest,
                       [this](const simnet::Address&, const Bytes& body) -> Result<Bytes> {
                         auto request = HttpRequest::decode(body);
                         if (!request) return request.error();
                         ++served_;
                         return handler_(request.value()).encode();
                       });
}

void HttpGateway::request(const std::string& service_uri, HttpRequest request,
                          std::function<void(Result<HttpResponse>)> done) {
  process_.rc().lookup(
      service_uri, rcds::names::kServiceLocation,
      [this, wire = request.encode(), done = std::move(done)](
          Result<std::vector<std::string>> r) mutable {
        if (!r) {
          done(r.error());
          return;
        }
        if (r.value().empty()) {
          done(Error{Errc::not_found, "service not registered"});
          return;
        }
        // §5.7: a service may list several locations; try them in order.
        try_location(std::move(r).take(), 0, std::move(wire), std::move(done));
      });
}

void HttpGateway::try_location(std::vector<std::string> locations, std::size_t index,
                               Bytes wire, std::function<void(Result<HttpResponse>)> done) {
  if (index >= locations.size()) {
    done(Error{Errc::unreachable, "all service locations failed"});
    return;
  }
  std::string urn = locations[index];
  forward(urn, wire,
          2, [this, locations = std::move(locations), index, wire,
              done = std::move(done)](Result<HttpResponse> r) mutable {
            if (r.ok() || index + 1 >= locations.size()) {
              done(std::move(r));
              return;
            }
            try_location(std::move(locations), index + 1, std::move(wire), std::move(done));
          });
}

void HttpGateway::forward(const std::string& urn, const Bytes& wire, int attempts_left,
                          std::function<void(Result<HttpResponse>)> done) {
  process_.resolve(urn, [this, urn, wire, attempts_left,
                         done = std::move(done)](Result<simnet::Address> addr) mutable {
    if (!addr) {
      done(addr.error());
      return;
    }
    process_.rpc().call(
        addr.value(), tags::kHttpRequest, wire,
        [this, urn, wire, attempts_left, done = std::move(done)](Result<Bytes> r) mutable {
          if (r.ok()) {
            done(HttpResponse::decode(r.value()));
            return;
          }
          if (attempts_left > 1) {
            // The server may have migrated: drop the cached address and
            // re-resolve through RC (§3.7: the browser finds it "even
            // though it may migrate from one host to another").
            process_.invalidate_resolution(urn);
            forward(urn, wire, attempts_left - 1, std::move(done));
            return;
          }
          done(r.error());
        },
        duration::seconds(2));
  });
}

std::string to_http_text(const HttpResponse& response) {
  const char* reason = response.status == 200   ? "OK"
                       : response.status == 400 ? "Bad Request"
                       : response.status == 404 ? "Not Found"
                                                : "Error";
  std::string out = "HTTP/1.0 " + std::to_string(response.status) + " " + reason +
                    "\r\nContent-Type: text/plain\r\nContent-Length: " +
                    std::to_string(response.body.size()) + "\r\n\r\n";
  out.append(response.body.begin(), response.body.end());
  return out;
}

OpsGateway::OpsGateway(SnipeProcess& process, std::string service_uri)
    : OpsViews(process),
      server_(process, std::move(service_uri),
              [this](const HttpRequest& request) { return handle(request); }) {}

HttpResponse OpsGateway::handle(const HttpRequest& request) const {
  auto [path, params] = parse_target(request.path);
  const View* view = path.rfind('/', 0) == 0 ? find_view(path.substr(1)) : nullptr;
  Answer out = request.method != "GET" ? Answer{400, "only GET is supported"}
               : view != nullptr ? answer(*view, {process_, attached_, params}, /*http=*/true)
                                 : Answer{404, "not found: " + path};
  if (out.text.empty() || out.text.back() != '\n') out.text += '\n';
  return {out.status, to_bytes(out.text)};
}

}  // namespace snipe::core
