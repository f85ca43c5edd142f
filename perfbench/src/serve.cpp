// serve: an in-process xpdld (net::HttpServer + net::RepoService) under a
// seeded closed-loop request mix over loopback TCP.
#include <algorithm>
#include <array>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "workloads.h"
#include "xpdl/compose/compose.h"
#include "xpdl/net/client.h"
#include "xpdl/net/http.h"
#include "xpdl/net/repo_service.h"
#include "xpdl/net/server.h"
#include "xpdl/net/socket.h"
#include "xpdl/opt/engine.h"
#include "xpdl/query/query.h"
#include "xpdl/repository/repository.h"
#include "xpdl/runtime/model.h"

namespace perfbench {

namespace {

constexpr int kSetups = 7;
constexpr int kClients = 2;
constexpr std::size_t kWorkers = 2;
constexpr std::size_t kReplayCap = 200;  ///< replays per sub-call kind
/// Requests per statistics window: two blocks of each client.
constexpr std::size_t kWindowRequests = 2 * 80 * kClients;

enum Cls { kD304 = 0, kD200, kModel, kQuery, kOptimize, kNumClasses };
constexpr std::array<const char*, kNumClasses> kClassNames = {
    "descriptor_304", "descriptor_200", "model", "query", "optimize"};
/// Requests of each class in one block of 80 (45/10/15/15/15 %).
constexpr std::array<int, kNumClasses> kBlockMix = {36, 8, 12, 12, 12};

enum Objective { kEnergy = 0, kMakespan, kPareto };
constexpr std::array<const char*, 3> kObjectiveNames = {"energy", "makespan",
                                                        "pareto"};
constexpr std::array<double, 5> kCycles = {1e8, 5e8, 1e9, 2e9, 4e9};
constexpr const char* kHandleHeader = "X-Perfbench-Handle-Ns";

/// One planned request.
struct Plan {
  Cls cls = kD304;
  std::size_t descriptor = 0;
  std::size_t system = 0;
  std::size_t query = 0;
  Objective objective = kEnergy;
  double cycles = 1e9;
  double deadline_s = 0.0;  ///< 0 = none
};

/// One completed request.
struct Sample {
  Cls cls = kD304;
  double ms = 0.0;
  double end_ms = 0.0;      ///< completion, from the start of the load
  double handle_ms = -1.0;  ///< traced runs only
  std::size_t bytes = 0;
  double opt_nodes = -1.0;
  Plan plan;
};

struct Served {
  std::string name;
  std::string bytes;
  std::string etag;
};

std::string format_double(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string optimize_body(const Plan& p) {
  std::string body = std::string("{\"objective\": \"") +
                     kObjectiveNames[p.objective] +
                     "\", \"cycles\": " + format_double(p.cycles);
  if (p.deadline_s > 0) {
    body += ", \"deadline_s\": " + format_double(p.deadline_s);
  }
  return body + "}";
}

/// The benchmark's own POST client: one connection per request, like the
/// shipped GET client.
xpdl::Result<xpdl::net::Response> post(std::uint16_t port,
                                       const std::string& target,
                                       const std::string& body) {
  xpdl::net::Request request;
  request.method = "POST";
  request.target = target;
  request.set_header("Host", "127.0.0.1:" + std::to_string(port));
  request.set_header("Content-Type", "application/json");
  request.set_header("Connection", "close");
  request.body = body;
  auto conn = xpdl::net::connect_tcp("127.0.0.1", port, 5000.0);
  if (!conn.is_ok()) return conn.status();
  if (auto st = conn->set_timeout_ms(5000.0); !st.is_ok()) return st;
  if (auto st = conn->write_all(xpdl::net::write_request(request));
      !st.is_ok()) {
    return st;
  }
  std::string raw;
  char chunk[16384];
  for (;;) {
    auto got = conn->read_some(chunk, sizeof chunk);
    if (!got.is_ok()) return got.status();
    if (*got == 0) break;
    raw.append(chunk, *got);
  }
  std::size_t head_end = xpdl::net::find_head_end(raw);
  if (head_end == std::string::npos) {
    return xpdl::Status(xpdl::ErrorCode::kUnavailable, "truncated response");
  }
  auto response = xpdl::net::parse_response_head(raw.substr(0, head_end));
  if (!response.is_ok()) return response.status();
  std::string_view rest = std::string_view(raw).substr(head_end);
  if (xpdl::net::iequals(response->header("Transfer-Encoding"), "chunked")) {
    auto decoded = xpdl::net::decode_chunked(rest);
    if (!decoded.is_ok()) return decoded.status();
    response->body = std::move(*decoded);
  } else {
    auto length = xpdl::net::content_length(*response);
    if (!length.is_ok()) return length.status();
    if (rest.size() < *length) {
      return xpdl::Status(xpdl::ErrorCode::kUnavailable, "truncated body");
    }
    response->body = std::string(rest.substr(0, *length));
  }
  return response;
}

/// Empty when an optimize response matches the oracle (plans at 1e9
/// cycles scale linearly with the cycle count; the seeded deadlines are
/// loose enough to leave the plan unchanged). Stores stats.nodes.
std::string check_optimize(const std::string& body, const Expected& x,
                           const Plan& p, double* nodes) {
  JsonValue v;
  if (!parse_json(body, v) || v.type != JsonValue::Type::kObject) {
    return "optimize body is not a JSON object";
  }
  const double scale = p.cycles / 1e9;
  auto number = [](const JsonValue* n) {
    return n != nullptr && n->type == JsonValue::Type::kNumber;
  };
  const JsonValue* stats = v.get("stats");
  if (stats == nullptr || !number(stats->get("nodes"))) {
    return "optimize response lacks stats.nodes";
  }
  *nodes = stats->get("nodes")->number;
  std::string where = x.system + " " + kObjectiveNames[p.objective] +
                      " cycles=" + format_double(p.cycles);
  if (p.objective == kPareto) {
    const JsonValue* front = v.get("front");
    if (front == nullptr || front->array.size() != x.pareto.size()) {
      return where + ": Pareto front size differs";
    }
    for (std::size_t i = 0; i < x.pareto.size(); ++i) {
      const JsonValue& pt = front->array[i];
      if (!number(pt.get("energy_j")) || !number(pt.get("time_s")) ||
          !close(pt.get("energy_j")->number, x.pareto[i].first * scale) ||
          !close(pt.get("time_s")->number, x.pareto[i].second * scale)) {
        return where + ": Pareto point " + std::to_string(i) + " differs";
      }
    }
    return {};
  }
  const JsonValue* feasible = v.get("feasible");
  if (feasible == nullptr || !feasible->boolean) return where + ": infeasible";
  const JsonValue* states = v.get("states");
  if (states == nullptr || states->object.size() != x.domains) {
    return where + ": wrong number of domains";
  }
  if (!number(v.get("energy_j")) || !number(v.get("time_s"))) {
    return where + ": missing energy_j/time_s";
  }
  if (p.objective == kMakespan) {
    return close(v.get("time_s")->number, x.makespan_s * scale)
               ? std::string()
               : where + ": makespan differs";
  }
  if (!close(v.get("energy_j")->number, x.energy_j * scale) ||
      !close(v.get("time_s")->number, x.energy_time_s * scale)) {
    return where + ": energy plan totals differ";
  }
  std::map<std::string, std::size_t> chosen;
  for (const auto& [domain, state] : states->object) ++chosen[state.string];
  return chosen == x.energy_states ? std::string()
                                   : where + ": energy plan states differ";
}

/// True when a /v1/query body reports `want` results and lists that many.
/// A scan rather than a full parse: XScluster's //core answer lists 21,568
/// nodes, and parsing it on the client would compete with the server for
/// the cores being measured. Only the top-level object has a "count" key,
/// and every result carries exactly one "tag".
bool check_query(std::string_view body, std::size_t want) {
  constexpr std::string_view kCount = "\"count\": ";
  std::size_t at = body.find(kCount);
  if (at == std::string_view::npos) return false;
  std::size_t got = 0;
  std::size_t i = at + kCount.size();
  if (i >= body.size() || body[i] < '0' || body[i] > '9') return false;
  for (; i < body.size() && body[i] >= '0' && body[i] <= '9'; ++i) {
    got = got * 10 + static_cast<std::size_t>(body[i] - '0');
  }
  if (got != want) return false;
  std::size_t tags = 0;
  constexpr std::string_view kTag = "\"tag\": ";
  for (std::size_t pos = body.find(kTag, i); pos != std::string_view::npos;
       pos = body.find(kTag, pos + 1)) {
    ++tags;
  }
  return tags == want;
}

/// The in-process server, its fixture data and the request generator.
class ServeBench {
 public:
  ServeBench(const Context& ctx, std::string tag)
      : ctx_(ctx), dir_(ctx.work + "/" + tag) {
    for (const std::string& s : systems()) oracle_.push_back(&ctx.oracle.at(s));
  }
  ~ServeBench() { stop(); }
  // The server's handler holds pointers into this object.
  ServeBench(const ServeBench&) = delete;
  ServeBench& operator=(const ServeBench&) = delete;

  void stop() {
    if (server_) server_->stop();
    server_.reset();
    service_.reset();
  }

  /// One set-up: fresh copy, service scan, server start, one compose per
  /// ref (GET /v1/models) and one engine compile per ref (POST
  /// /v1/optimize). Returns its wall time in seconds; the primed answers
  /// are checked untimed.
  double setup() {
    stop();
    double t0 = now_ms();
    remove_tree(dir_);
    copy_models(ctx_.root + "/models", dir_ + "/models");
    xpdl::repository::ScanOptions scan;
    scan.cache.enabled = true;
    scan.cache.directory = dir_ + "/cache";
    auto service = xpdl::net::RepoService::create({dir_ + "/models"}, scan);
    require_ok(service, "RepoService::create");
    service_ = std::move(*service);
    xpdl::net::ServerOptions options;
    options.threads = kWorkers;
    server_ = std::make_unique<xpdl::net::HttpServer>(options);
    xpdl::net::RepoService* svc = service_.get();
    std::atomic<bool>* traced = &traced_;
    auto st = server_->start([svc, traced](const xpdl::net::Request& request) {
      if (!traced->load(std::memory_order_relaxed)) return svc->handle(request);
      double t = now_ms();
      xpdl::net::Response response = svc->handle(request);
      response.set_header(kHandleHeader,
                          std::to_string(static_cast<long long>(
                              (now_ms() - t) * 1e6)));
      return response;
    });
    require(st.is_ok(), "HttpServer::start: " + st.to_string());
    port_ = server_->port();
    std::vector<xpdl::net::Response> models;
    std::vector<xpdl::net::Response> plans;
    xpdl::net::HttpClient client;
    for (const std::string& s : systems()) {
      auto r = client.get(url("/v1/models/" + s));
      require_ok(r, "priming GET model " + s);
      models.push_back(std::move(*r));
    }
    for (const std::string& s : systems()) {
      Plan p;
      auto r = post(port_, "/v1/optimize/" + s, optimize_body(p));
      require_ok(r, "priming optimize " + s);
      plans.push_back(std::move(*r));
    }
    double seconds = (now_ms() - t0) / 1e3;

    artifacts_.clear();
    for (std::size_t i = 0; i < systems().size(); ++i) {
      const std::string& s = systems()[i];
      require(models[i].status == 200, "priming GET model " + s + " returned " +
                                           std::to_string(models[i].status));
      std::string why = check_artifact(models[i].body, *oracle_[i]);
      require(why.empty(), "served artifact of " + s + ": " + why);
      artifacts_.push_back(std::move(models[i].body));
      require(plans[i].status == 200, "priming optimize " + s + " returned " +
                                          std::to_string(plans[i].status));
      double nodes = 0;
      why = check_optimize(plans[i].body, *oracle_[i], Plan{}, &nodes);
      require(why.empty(), "priming optimize: " + why);
    }
    load_descriptors();
    return seconds;
  }

  /// Fills the descriptor list from /v1/index and checks every body is the
  /// exact bytes of one file in the copy and that its ETag revalidates.
  void load_descriptors() {
    std::set<std::string> files;
    for (const std::string& f : list_descriptors(dir_ + "/models")) {
      files.insert(read_file(f));
    }
    xpdl::net::HttpClient client;
    auto index = client.get(url("/v1/index"));
    require(index.is_ok() && index->status == 200, "GET /v1/index failed");
    JsonValue v;
    require(parse_json(index->body, v), "/v1/index is not JSON");
    const JsonValue* list = v.get("descriptors");
    require(list != nullptr && list->array.size() == files.size(),
            "/v1/index does not list every descriptor");
    descriptors_.clear();
    for (const JsonValue& entry : list->array) {
      const JsonValue* name = entry.get("name");
      require(name != nullptr && !name->string.empty(),
              "index entry lacks a name");
      Served d;
      d.name = name->string;
      const std::string target =
          url("/v1/descriptors/" + xpdl::net::url_encode(d.name));
      auto got = client.get(target);
      require(got.is_ok() && got->status == 200, "GET descriptor " + d.name);
      require(files.count(got->body) == 1,
              "descriptor " + d.name + " is not the bytes of a copied file");
      d.bytes = std::move(got->body);
      d.etag = std::string(got->header("ETag"));
      require(!d.etag.empty(), "descriptor " + d.name + " has no ETag");
      auto again = client.get(target, {{"If-None-Match", d.etag}});
      require(again.is_ok() && again->status == 304 &&
                  again->header("ETag") == d.etag,
              "descriptor " + d.name + " does not revalidate its ETag");
      descriptors_.push_back(std::move(d));
    }
  }

  /// The seeded request stream of one client: blocks of 80 with the
  /// fixed class mix and each system equally often per class.
  class Stream {
   public:
    Stream(const ServeBench& bench, std::uint64_t seed)
        : bench_(bench), rng_(seed) {}
    Plan next() {
      if (block_.empty()) refill();
      Plan p = block_.back();
      block_.pop_back();
      return p;
    }

   private:
    void refill() {
      const std::size_t nsys = systems().size();
      for (int c = 0; c < kNumClasses; ++c) {
        for (int i = 0; i < kBlockMix[c]; ++i) {
          Plan p;
          p.cls = static_cast<Cls>(c);
          p.descriptor = rng_.below(bench_.descriptors_.size());
          p.system = static_cast<std::size_t>(i) % nsys;
          const Expected& x = *bench_.oracle_[p.system];
          p.query = rng_.below(x.queries.size());
          p.objective = static_cast<Objective>(
              rng_.below(x.pareto.empty() ? 2 : 3));
          p.cycles = kCycles[rng_.below(kCycles.size())];
          if (p.objective != kPareto && rng_.below(2) == 1) {
            // Loose enough that the unconstrained plan still meets it.
            double base = p.objective == kEnergy ? x.energy_time_s
                                                 : x.makespan_s;
            p.deadline_s = base * p.cycles / 1e9 * (1.05 + rng_.uniform());
          }
          block_.push_back(p);
        }
      }
      rng_.shuffle(block_);
    }
    const ServeBench& bench_;
    Rng rng_;
    std::vector<Plan> block_;
  };

  /// Sends one request and checks the answer. Returns an empty string on
  /// success, else why it failed.
  std::string exchange(xpdl::net::HttpClient& client, const Plan& p,
                       Sample& s) {
    s.cls = p.cls;
    s.plan = p;
    const Expected& x = *oracle_[p.system];
    const std::string& sys = systems()[p.system];
    const Served& d = descriptors_[p.descriptor];
    // Everything but the exchange itself is prepared outside the clock.
    std::string target;
    std::vector<xpdl::net::Header> headers;
    switch (p.cls) {
      case kD304:
        headers.push_back({"If-None-Match", d.etag});
        [[fallthrough]];
      case kD200:
        target = url("/v1/descriptors/" + xpdl::net::url_encode(d.name));
        break;
      case kModel:
        target = url("/v1/models/" + sys);
        break;
      case kQuery:
        target = url("/v1/query?model=" + sys + "&q=" +
                     xpdl::net::url_encode(x.queries[p.query].first));
        break;
      default:
        target = "/v1/optimize/" + sys;
        break;
    }
    std::string body = p.cls == kOptimize ? optimize_body(p) : std::string();
    double t0 = now_ms();
    xpdl::Result<xpdl::net::Response> r =
        p.cls == kOptimize ? post(port_, target, body)
                           : client.get(target, headers);
    s.ms = now_ms() - t0;
    const std::string cls = kClassNames[p.cls];
    if (!r.is_ok()) return cls + ": " + r.status().to_string();
    s.bytes = r->body.size();
    if (auto h = r->header(kHandleHeader); !h.empty()) {
      s.handle_ms = std::strtod(std::string(h).c_str(), nullptr) / 1e6;
    }
    const int want = p.cls == kD304 ? 304 : 200;
    if (r->status != want) {
      return cls + " returned " + std::to_string(r->status) + ": " +
             r->body.substr(0, 200);
    }
    switch (p.cls) {
      case kD304:
        return r->header("ETag") == d.etag
                   ? std::string()
                   : "304 for " + d.name + " with another ETag";
      case kD200:
        return r->body == d.bytes && r->header("ETag") == d.etag
                   ? std::string()
                   : "descriptor " + d.name + " differs";
      case kModel:
        return r->body == artifacts_[p.system]
                   ? std::string()
                   : "model artifact of " + sys + " differs";
      case kQuery:
        return check_query(r->body, x.queries[p.query].second)
                   ? std::string()
                   : "query '" + x.queries[p.query].first + "' on " + sys +
                         ": wrong count";
      default:
        return check_optimize(r->body, x, p, &s.opt_nodes);
    }
  }

  /// Closed loop of kClients threads for `seconds`. Returns the samples
  /// of successful requests.
  struct Load {
    std::vector<Sample> samples;  ///< in completion order
    Outcome outcome;
    std::vector<std::string> errors;
  };
  Load run_load(double seconds, std::uint64_t stream_salt) {
    Load load;
    std::vector<std::vector<Sample>> per_client(kClients);
    std::vector<Outcome> outcomes(kClients);
    std::vector<std::vector<std::string>> errors(kClients);
    double t0 = now_ms();
    double deadline = t0 + seconds * 1e3;
    std::vector<std::thread> threads;
    for (int c = 0; c < kClients; ++c) {
      threads.emplace_back([&, c] {
        Stream stream(*this, ctx_.seed * 0x9E3779B97F4A7C15ULL +
                                 stream_salt * 16 +
                                 static_cast<std::uint64_t>(c) + 1);
        xpdl::net::HttpClient client;
        while (now_ms() < deadline) {
          Sample s;
          std::string why = exchange(client, stream.next(), s);
          s.end_ms = now_ms() - t0;
          ++outcomes[c].attempted;
          if (!why.empty()) {
            ++outcomes[c].failed;
            if (errors[c].size() < 5) errors[c].push_back(why);
            continue;
          }
          per_client[c].push_back(s);
        }
      });
    }
    for (std::thread& t : threads) t.join();

    for (int c = 0; c < kClients; ++c) {
      load.samples.insert(load.samples.end(), per_client[c].begin(),
                          per_client[c].end());
      load.outcome.add(outcomes[c]);
      load.errors.insert(load.errors.end(), errors[c].begin(), errors[c].end());
    }
    std::sort(load.samples.begin(), load.samples.end(),
              [](const Sample& a, const Sample& b) {
                return a.end_ms < b.end_ms;
              });
    return load;
  }

  void set_traced(bool on) { traced_.store(on); }
  [[nodiscard]] const std::string& dir() const { return dir_; }
  [[nodiscard]] const std::string& artifact(std::size_t system) const {
    return artifacts_[system];
  }
  [[nodiscard]] const Expected& expected(std::size_t system) const {
    return *oracle_[system];
  }

 private:
  [[nodiscard]] std::string url(const std::string& path) const {
    return "http://127.0.0.1:" + std::to_string(port_) + path;
  }

  const Context& ctx_;
  std::string dir_;
  std::vector<const Expected*> oracle_;
  std::unique_ptr<xpdl::net::RepoService> service_;
  std::unique_ptr<xpdl::net::HttpServer> server_;
  std::atomic<bool> traced_{false};
  std::uint16_t port_ = 0;
  std::vector<Served> descriptors_;
  std::vector<std::string> artifacts_;
};

void report_errors(Report& report, const std::vector<std::string>& errors) {
  for (const std::string& e : errors) report.text("FAILED op: " + e);
}

/// Replays the sub-calls of recorded query and optimize requests directly
/// on the same inputs: Model::deserialize + query::select, and
/// Engine::compile + Optimizer::minimize / pareto.
void replay_subcalls(ServeBench& bench, const std::vector<Sample>& samples,
                     Samples& layers) {
  std::vector<std::unique_ptr<xpdl::opt::Engine>> engines(systems().size());
  xpdl::repository::Repository repo({bench.dir() + "/models"});
  require(repo.scan().is_ok(), "replay scan failed");
  std::size_t queries = 0;
  std::size_t optimizes = 0;
  for (const Sample& s : samples) {
    const Plan& p = s.plan;
    if (s.cls == kQuery && queries < kReplayCap) {
      ++queries;
      const auto& [query, count] = bench.expected(p.system).queries[p.query];
      double t0 = now_ms();
      auto model = xpdl::runtime::Model::deserialize(bench.artifact(p.system));
      double t1 = now_ms();
      require(model.is_ok(), "replay deserialize failed");
      auto nodes = xpdl::query::select(*model, query);
      double t2 = now_ms();
      require(nodes.is_ok() && nodes->size() == count,
              "replayed query disagrees with the oracle");
      layers.add("runtime.deserialize_ms", t1 - t0);
      layers.add("query.select_ms", t2 - t1);
    } else if (s.cls == kOptimize) {
      if (s.opt_nodes >= 0) layers.add("opt.nodes", s.opt_nodes);
      if (optimizes >= kReplayCap) continue;
      ++optimizes;
      if (!engines[p.system]) {
        xpdl::compose::Composer composer(repo);
        auto composed = composer.compose(systems()[p.system]);
        require(composed.is_ok(), "replay compose failed");
        auto engine = xpdl::opt::Engine::from_element(composed->root());
        require(engine.is_ok(), "replay engine failed");
        engines[p.system] =
            std::make_unique<xpdl::opt::Engine>(std::move(*engine));
      }
      xpdl::opt::DvfsQuery query;
      query.cycles = p.cycles;
      query.deadline_s = p.deadline_s;
      double t0 = now_ms();
      auto problem = engines[p.system]->compile(query);
      double t1 = now_ms();
      require(problem.is_ok(), "replay Engine::compile failed");
      using xpdl::opt::Engine;
      xpdl::opt::Optimizer optimizer;
      bool solved = false;
      if (p.objective == kPareto) {
        solved = optimizer
                     .pareto(*problem, Engine::kEnergyObjective,
                             Engine::kMakespanObjective)
                     .is_ok();
      } else {
        solved = optimizer
                     .minimize(*problem, p.objective == kEnergy
                                             ? Engine::kEnergyObjective
                                             : Engine::kMakespanObjective)
                     .is_ok();
      }
      double t2 = now_ms();
      require(solved, "replayed optimize failed");
      layers.add("opt.compile_ms", t1 - t0);
      layers.add("opt.solve_ms", t2 - t1);
    }
  }
}

}  // namespace

Outcome run_serve(const Context& ctx, Report& report) {
  ServeBench bench(ctx, "serve");
  std::vector<double> setups;
  for (int i = 0; i < kSetups; ++i) setups.push_back(bench.setup());
  HostSteal steal;
  ServeBench::Load load = bench.run_load(ctx.seconds, 0);
  const double steal_percent = steal.percent();
  bench.stop();
  report_errors(report, load.errors);
  require(!load.samples.empty(), "no request succeeded");
  remove_tree(bench.dir());

  std::vector<double> ms, ends;
  for (const Sample& s : load.samples) {
    ms.push_back(s.ms);
    ends.push_back(s.end_ms);
  }
  const RunFigures f = run_figures(ms, ends, kWindowRequests);
  report.metric("setup_s", median(setups), "s", setups.size());
  report.metric("latency_ms_p50", f.p50, "ms", ms.size());
  report.metric("latency_ms_p90", f.p90, "ms", ms.size());
  report.metric("throughput_per_s", f.rate, "1/s", ms.size());
  report.metric("peak_rss_mb", self_peak_rss_mb(), "MB", 1);
  report.note("windows", static_cast<double>(f.windows), "count", ms.size());
  report.note("host steal during measurement", steal_percent, "%", 1);
  report.note("requests_per_s", f.rate, "1/s", ms.size());
  report.note("request_ms_p50", f.p50, "ms", ms.size());
  report.note("request_ms_p99 (whole run)", quantile(ms, 0.99), "ms",
              ms.size());
  report.note("error_rate",
              static_cast<double>(load.outcome.failed) /
                  static_cast<double>(load.outcome.attempted),
              "ratio", load.outcome.attempted);
  return load.outcome;
}

Outcome trace_serve(const Context& ctx, double seconds, Samples& layers,
                    Report& report) {
  ServeBench bench(ctx, "trace_serve");
  bench.setup();
  // Untraced first, then with the handler clock: the difference of the
  // two medians is the tracing overhead.
  ServeBench::Load plain = bench.run_load(seconds * 0.4, 1);
  bench.set_traced(true);
  ServeBench::Load load = bench.run_load(seconds * 0.6, 2);
  bench.stop();
  report_errors(report, plain.errors);
  report_errors(report, load.errors);
  require(!plain.samples.empty() && !load.samples.empty(),
          "no traced request succeeded");

  std::vector<double> plain_ms, traced_ms;
  for (const Sample& s : plain.samples) plain_ms.push_back(s.ms);
  for (const Sample& s : load.samples) {
    traced_ms.push_back(s.ms);
    require(s.handle_ms >= 0, "traced response lacks the handler time");
    const std::string cls = kClassNames[s.cls];
    layers.add("net.request_ms." + cls, s.ms);
    layers.add("service.handle_ms." + cls, s.handle_ms);
    layers.add("net.transport_ms." + cls, s.ms - s.handle_ms);
    layers.add("net.response_bytes." + cls, static_cast<double>(s.bytes));
  }
  Outcome outcome = plain.outcome;
  outcome.add(load.outcome);
  layers.add("net.failed", static_cast<double>(outcome.failed));
  replay_subcalls(bench, load.samples, layers);
  remove_tree(bench.dir());

  double overhead = median(traced_ms) - median(plain_ms);
  layers.add("trace.overhead_ms", overhead);
  report.note("request_ms_p50, untraced", median(plain_ms), "ms",
              plain_ms.size());
  report.note("request_ms_p50, traced", median(traced_ms), "ms",
              traced_ms.size());
  report.note("tracing overhead (traced - untraced)", overhead, "ms",
              traced_ms.size());
  return outcome;
}

}  // namespace perfbench
