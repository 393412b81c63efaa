// Consoles and the HTTP gateway (§3.7).
//
// "A SNIPE console is any SNIPE process which communicates with humans."
// There is deliberately no global process list — "there is no SNIPE
// virtual machine apart from the entire Internet" — so a console works by
// querying metadata: the processes a host's daemon started, any process's
// state, and group membership are all RC records.
//
// "A SNIPE process can also function as an HTTP server ... A SNIPE-based
// HTTP server can register a binding between a URN or URL and its current
// location, allowing a web browser to find it even though it may migrate."
// HttpServer + HttpGateway reproduce that: the gateway (the paper's "proxy
// server ... which allows any web browser to resolve the URI of any
// RCDS-registered resource") resolves the service URI through RC on every
// miss, so requests follow the server across migrations.
#pragma once

#include "core/process.hpp"
#include "obs/alert.hpp"
#include "obs/fleet.hpp"
#include "obs/metrics.hpp"
#include "obs/series.hpp"
#include "obs/trace.hpp"

namespace snipe::core {

/// Health/SLO rollup computed from a metrics snapshot: per-transport
/// delivery latency quantiles (every "*.delivery_ms" histogram), retransmit
/// ratios, and the route-failover count.  A free function over the snapshot
/// so tests can feed it synthetic registries, including an empty one.
std::string health_report(const obs::Snapshot& snapshot);

/// The flow-event trail for one causal trace.  `query` is a flow id (hex
/// "0x..." or decimal) or a message id: when no flow matches the id
/// directly, events whose "msg" argument equals `query` donate their flow
/// id.  A free function over the event list for the same testability
/// reason as health_report.
std::string trace_report(const std::vector<obs::TraceEvent>& events,
                         const std::string& query);

/// Fleet health rollup: one liveness line per known host (beacon counts,
/// beacon age in periods, STALE flag once stale_after_beacons periods pass
/// with nothing received) followed by health_report() over the fleet-merged
/// snapshot — so the fleet rollup's percentiles are exact with respect to
/// the union of every host's histogram buckets.  `now_ns` is the clock the
/// staleness math runs against (the tracer clock: virtual time in a sim).
std::string fleet_health_report(const obs::FleetStore& store, std::int64_t now_ns);

/// What the observability views answer from beyond the process-wide
/// registries.  Each is optional; a view that needs a missing one answers
/// with that attachment's "not attached" text (404 on the gateway).
struct OpsAttachments {
  const obs::FleetStore* fleet = nullptr;        ///< collector's store: fleet/*
  const obs::SeriesStore* series = nullptr;      ///< local history: series, topo
  const obs::AlertEngine* alerts = nullptr;      ///< local rules: alerts
  const obs::FleetWatch* fleet_watch = nullptr;  ///< collector's rules: fleet/alerts
};

/// The observability views, one table behind both human-facing front ends
/// (Console and OpsGateway).  A view's name is its gateway path without the
/// leading '/'.  The console spells it as the name's words followed by the
/// params in order ("fleet top 3"), the gateway as a GET with the params in
/// the query string ("/fleet/top?n=3").  Without a <required> param the
/// console replies with the view's usage and the gateway answers 400.
///
///   metrics [prefix]              registry scrape, optionally filtered
///   trace <id>                    flow-event trail of one message (flow or msg id)
///   flight [host]                 recent flight-recorder events, optionally per host
///   health                        delivery-latency / retransmit / failover rollup
///   topo [window_s]               zone tree, per-link utilization + up/down state;
///                                 windowed (default 10 s) once series is attached
///   series [prefix]               retained watchtower series        (needs series)
///   alerts                        local alert-rule status           (needs alerts)
///   fleet/metrics [prefix]        fleet-merged registry scrape     (fleet/* need fleet)
///   fleet/health                  per-host liveness + merged health rollup
///   fleet/flight [host]           fleet flight timeline, merge-sorted by time
///   fleet/top [n]                 worst-n hosts (default 5) by retransmit / p99
///   fleet/series [host] [prefix]  per-host shipped watchtower series
///   fleet/alerts                  per-host fleet alert status  (needs fleet_watch)
class OpsViews {
 public:
  void set_fleet(const obs::FleetStore* fleet) { attached_.fleet = fleet; }
  void set_watch(const obs::SeriesStore* series, const obs::AlertEngine* alerts) {
    attached_.series = series;
    attached_.alerts = alerts;
  }
  void set_fleet_watch(const obs::FleetWatch* watch) { attached_.fleet_watch = watch; }

 protected:
  explicit OpsViews(SnipeProcess& process) : process_(process) {}

  SnipeProcess& process_;
  OpsAttachments attached_;
};

/// A human-facing SNIPE process: metadata queries + commands.
///
/// `interpret` implements the character-based interface: a PVM-console-like
/// command line evaluated against the live registry.  Because "there is no
/// way to list all SNIPE processes" (§3.7), every command starts from a
/// name the operator already has — a URI, URN or host.
///
///   ps <host-url>          processes the daemon on that host started
///   state <urn>            a process's current state
///   meta <uri>             full metadata record, one assertion per line
///   where <urn>            the host a process currently runs on
///   routers <group-urn>    a multicast group's router set
///
/// plus every observability view (see OpsViews), e.g. "metrics srudp.",
/// "topo 30", "fleet series hostA srudp.".
class Console : public OpsViews {
 public:
  explicit Console(SnipeProcess& process) : OpsViews(process) {}

  /// Evaluates one command line; the reply is human-readable text.
  void interpret(const std::string& line, std::function<void(std::string)> reply);

  /// Full metadata of any URI (host, process, group, LIFN...).
  void query(const std::string& uri,
             std::function<void(Result<std::vector<rcds::Assertion>>)> done) {
    process_.rc().get(uri, std::move(done));
  }

  /// URNs of the processes the daemon on `host_url` has started (§3.7).
  void processes_on_host(const std::string& host_url,
                         std::function<void(Result<std::vector<std::string>>)> done) {
    process_.rc().lookup(host_url, rcds::names::kHostTask, std::move(done));
  }

  /// Current state of a process, from its RC metadata.
  void process_state(const std::string& urn,
                     std::function<void(Result<std::string>)> done) {
    process_.rc().lookup(urn, rcds::names::kProcState,
                         [done = std::move(done)](Result<std::vector<std::string>> r) {
                           if (!r) {
                             done(r.error());
                             return;
                           }
                           if (r.value().empty()) {
                             done(Result<std::string>(Errc::not_found, "no recorded state"));
                             return;
                           }
                           done(r.value().front());
                         });
  }

  /// Sends a command message to any process by URN.
  void command(const std::string& urn, std::uint32_t tag, Bytes body,
               SnipeProcess::DoneHandler done = nullptr) {
    process_.send(urn, tag, std::move(body), std::move(done));
  }
};

struct HttpRequest {
  std::string method = "GET";
  std::string path = "/";
  Bytes body;

  Bytes encode() const;
  static Result<HttpRequest> decode(const Bytes& data);
};

struct HttpResponse {
  int status = 200;
  Bytes body;

  Bytes encode() const;
  static Result<HttpResponse> decode(const Bytes& data);
};

/// Turns a SnipeProcess into an HTTP server bound to a service URI.
class HttpServer {
 public:
  using Handler = std::function<HttpResponse(const HttpRequest&)>;

  /// Registers `service_uri -> this process` in RC and serves requests.
  HttpServer(SnipeProcess& process, std::string service_uri, Handler handler);

  /// Re-registration after the underlying process migrates (the address
  /// binding in the process URN is already maintained by SnipeProcess;
  /// the service binding points at the URN so nothing else moves).
  const std::string& service_uri() const { return service_uri_; }
  std::uint64_t requests_served() const { return served_; }

 private:
  SnipeProcess& process_;
  std::string service_uri_;
  Handler handler_;
  std::uint64_t served_ = 0;
};

/// The proxy a "web browser" talks to: resolves RCDS-registered service
/// URIs and forwards HTTP requests to wherever the server currently runs.
class HttpGateway {
 public:
  explicit HttpGateway(SnipeProcess& process) : process_(process) {}

  void request(const std::string& service_uri, HttpRequest request,
               std::function<void(Result<HttpResponse>)> done);

 private:
  /// Tries the service's registered locations in order (§5.7: "Any process
  /// attempting to communicate with that service will then see multiple
  /// service locations from which to choose"); within each location,
  /// re-resolves on failure to follow migrations.
  void try_location(std::vector<std::string> locations, std::size_t index, Bytes wire,
                    std::function<void(Result<HttpResponse>)> done);
  void forward(const std::string& urn, const Bytes& wire, int attempts_left,
               std::function<void(Result<HttpResponse>)> done);

  SnipeProcess& process_;
};

/// Renders an HttpResponse as HTTP/1.0 wire text — the form a real browser
/// or `curl -0` would see if the gateway were bridged to a socket.
std::string to_http_text(const HttpResponse& response);

/// The ops console served over SNIPE's own HTTP machinery: an ordinary
/// SNIPE process that registers a service URI and serves every
/// observability view (see OpsViews) as plain text at GET /<view>.
/// Because it is a normal HttpServer, requests reach it through the
/// HttpGateway and keep working after it migrates.  Unknown paths answer
/// 404; methods other than GET answer 400.
class OpsGateway : public OpsViews {
 public:
  OpsGateway(SnipeProcess& process, std::string service_uri);

  /// The request dispatcher, public so tests can drive it without a
  /// simulated browser in the loop.
  HttpResponse handle(const HttpRequest& request) const;

  const std::string& service_uri() const { return server_.service_uri(); }
  std::uint64_t requests_served() const { return server_.requests_served(); }

 private:
  HttpServer server_;
};

}  // namespace snipe::core
