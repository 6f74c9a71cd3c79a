// serve_mix: the tgs_serve daemon under load, driven over its socket.
//
// The daemon runs with --workers=2, a journal in a per-run directory and
// fsync left to the OS (--fsync-every=0). Requests are a seeded stream
// over a pool of PSG and RGNOS graphs (5 per v in 50..500 and CCR in
// 0.1/1/10; the seed draws their weights and the stream) and the
// algorithms cheap enough to serve interactively: every fully-connected
// algorithm except EZ, unbounded and on 4 processors (DSC unbounded only,
// see configs()), plus MH and BU on ring4 and hcube3. About half of the
// requests repeat a recent key, so cache hits and misses (compute,
// insert, journal append) both occur; a quarter ask for the schedule
// text.
//
// Load generator: one process, two connections, one thread each.
//   open phase   -- Poisson arrivals at kOpenRate; latency is timed from
//                   each request's due time, so a stall delays every later
//                   request's clock, not just its own.
//   closed phase -- each connection sends its next request only after the
//                   reply to the previous one.
// Every response is checked against a direct Scheduler::run /
// ApnScheduler::run of the same input: makespan, and the tgssched1 text
// where it was requested.
//
// The traced run adds a replay: the recorded request lines go, one at a
// time, through the public functions the daemon calls, in its order, each
// wrapped in a span.
#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <optional>
#include <thread>

#include "common.h"
#include "tgs/apn/apn_common.h"
#include "tgs/exec/jsonl.h"
#include "tgs/gen/psg.h"
#include "tgs/gen/rgnos.h"
#include "tgs/graph/fingerprint.h"
#include "tgs/graph/graph_io.h"
#include "tgs/harness/registry.h"
#include "tgs/net/net_validate.h"
#include "tgs/net/routing.h"
#include "tgs/net/topology.h"
#include "tgs/sched/metrics.h"
#include "tgs/sched/schedule_io.h"
#include "tgs/sched/validate.h"
#include "tgs/serve/cache.h"
#include "tgs/serve/json.h"
#include "tgs/serve/persist.h"
#include "tgs/serve/protocol.h"
#include "tgs/serve/socket.h"
#include "tgs/util/rng.h"

extern char** environ;

namespace e2e {

// Load shape. BENCHMARK.json's serve_mix entry quotes these numbers.
constexpr int kWorkers = 2;
constexpr int kConns = 2;
// Half the closed-loop capacity measured at the parent commit (README.md,
// "Arrival rate").
constexpr double kOpenRate = 210.0;      // requests per second
constexpr double kOpenShare = 0.5;       // of --seconds, open phase
constexpr double kClosedPerSecond = 100; // closed batch = this x --seconds
constexpr double kRepeatShare = 0.5;
constexpr double kScheduleShare = 0.25;
constexpr double kTimeoutS = 30.0;       // a reply later than this failed

namespace {

namespace fs = std::filesystem;
using tgs::NodeId;
using tgs::TaskGraph;

constexpr std::uint64_t kServeStream = 0x5e77e;
constexpr int kRgnosReps = 5;  // graphs per (v, CCR) pair
constexpr std::size_t kRepeatWindow = 64;

struct Config {
  std::string algo;
  int procs = 0;
  std::string topology;  // empty = fully connected
};

/// Every fully-connected algorithm but EZ, unbounded and on 4 processors,
/// plus MH and BU on ring4 and hcube3. DSC on 4 processors only with
/// `bounded_dsc`: DscScheduler ignores SchedOptions::num_procs, so every
/// such reply uses more processors than asked for and fails the gate.
/// The benchmark's tests run it that way and expect the failure.
std::vector<Config> configs(bool bounded_dsc) {
  std::vector<Config> out;
  for (const char* a : {"HLFET", "ISH", "MCP", "ETF", "DLS", "LAST", "LC",
                        "DSC", "MD", "DCP"})
    for (const int procs : {0, 4})
      if (bounded_dsc || procs == 0 || std::string(a) != "DSC")
        out.push_back({a, procs, ""});
  for (const char* a : {"MH", "BU"})
    for (const char* topo : {"ring4", "hcube3"}) out.push_back({a, 0, topo});
  return out;
}

struct Workload {
  std::vector<TaskGraph> graphs;
  std::vector<std::string> graph_json;  // escaped tgs1 text, quotes included
  std::vector<Config> configs;
  // Per request: key = graph * configs + config.
  std::vector<std::size_t> key;
  std::vector<bool> want_schedule;
  std::vector<double> due;  // open phase arrival offsets, seconds
  std::size_t open_count = 0;
};

std::string json_string(const std::string& s) {
  tgs::JsonObject o;
  o.add("s", s);
  const std::string wrapped = o.str();  // {"s":"..."}
  return wrapped.substr(5, wrapped.size() - 6);
}

Workload make_workload(const Options& opt) {
  const std::uint64_t seed = opt.seed;
  const double seconds = opt.seconds;
  const bool small = opt.small;
  Workload w;
  tgs::Rng rng(tgs::derive_seed(kServeStream, seed));
  {
    Span span("gen.graph");
    for (tgs::PsgEntry& e : tgs::peer_set_graphs())
      w.graphs.push_back(std::move(e.graph));
    // Stratified: every (v, CCR) pair equally often, on fixed structures
    // whose weights the seed draws, so the work per seed barely moves.
    const double ccrs[] = {0.1, 1.0, 10.0};
    const int reps = small ? 1 : kRgnosReps;
    const NodeId max_v = small ? 200 : 500;
    for (NodeId v = 50; v <= max_v; v += 50)
      for (int c = 0; c < 3; ++c)
        for (int rep = 0; rep < reps; ++rep) {
          const std::uint64_t stream =
              static_cast<std::uint64_t>(v) * 16 + c * 4 + rep;
          w.graphs.push_back(rgnos_variant(
              v, ccrs[c], tgs::derive_seed(kServeStream, stream),
              tgs::derive_seed(tgs::derive_seed(kServeStream, seed + 1),
                               stream)));
        }
  }
  {
    Span span("graph.serialize");
    for (const TaskGraph& g : w.graphs)
      w.graph_json.push_back(json_string(tgs::graph_to_string(g)));
  }
  w.configs = configs(opt.bounded_dsc);

  const std::size_t num_keys = w.graphs.size() * w.configs.size();
  std::vector<std::size_t> fresh(num_keys);
  for (std::size_t k = 0; k < num_keys; ++k) fresh[k] = k;
  std::shuffle(fresh.begin(), fresh.end(), rng);
  w.open_count = static_cast<std::size_t>(kOpenRate * kOpenShare * seconds);
  const std::size_t closed_count =
      static_cast<std::size_t>(kClosedPerSecond * seconds);
  std::vector<std::size_t> recent;
  std::size_t next_fresh = 0;
  double t = 0;
  for (std::size_t i = 0; i < w.open_count + closed_count; ++i) {
    std::size_t key;
    if (!recent.empty() &&
        (rng.bernoulli(kRepeatShare) || next_fresh == num_keys)) {
      key = recent[static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(recent.size()) - 1))];
    } else {
      key = fresh[next_fresh++];
      recent.push_back(key);
      if (recent.size() > kRepeatWindow) recent.erase(recent.begin());
    }
    w.key.push_back(key);
    w.want_schedule.push_back(rng.bernoulli(kScheduleShare));
    if (i < w.open_count) {
      t += -std::log(1.0 - rng.uniform01()) / kOpenRate;
      w.due.push_back(t);
    }
  }
  return w;
}

std::string request_line(const Workload& w, std::size_t i) {
  const std::size_t graph = w.key[i] / w.configs.size();
  const Config& c = w.configs[w.key[i] % w.configs.size()];
  std::string line = "{\"id\":\"r" + std::to_string(i) +
                     "\",\"op\":\"schedule\",\"algo\":\"" + c.algo + "\",";
  line += c.topology.empty() ? "\"procs\":" + std::to_string(c.procs)
                             : "\"topology\":\"" + c.topology + "\"";
  if (w.want_schedule[i]) line += ",\"schedule\":true";
  line += ",\"graph\":";
  line += w.graph_json[graph];
  line += "}";
  return line;
}

// ------------------------------------------------------------- daemon --

/// A tgs_serve child process in its own run directory. The destructor
/// kills and reaps a daemon that was not shut down cleanly, and removes
/// the run directory.
class Daemon {
 public:
  Daemon(const Options& opt, int index) {
    dir_ = opt.work_dir + "/run/" + std::to_string(::getpid()) + "-" +
           std::to_string(index) + "-" +
           std::to_string(Clock::now().time_since_epoch().count() % 1000000);
    fs::create_directories(dir_);
    socket_ = dir_ + "/s.sock";
    journal_ = dir_ + "/cache.tgsj";
    std::vector<std::string> args = {
        opt.serve_bin, "--socket=" + socket_,
        "--workers=" + std::to_string(kWorkers), "--journal=" + journal_,
        "--fsync-every=0", "--quiet"};
    std::vector<char*> argv;
    for (std::string& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);
    if (posix_spawn(&pid_, opt.serve_bin.c_str(), nullptr, nullptr,
                    argv.data(), environ) != 0)
      throw std::runtime_error("cannot start " + opt.serve_bin);
  }
  ~Daemon() {
    if (pid_ > 0) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, nullptr, 0);
    }
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  const std::string& socket() const { return socket_; }
  const std::string& dir() const { return dir_; }

  /// Connects once the daemon answers a ping (10 s at most).
  tgs::UnixConn connect_ready() {
    const double give_up = now_s() + 10;
    while (now_s() < give_up) {
      if (::waitpid(pid_, nullptr, WNOHANG) == pid_) {
        pid_ = -1;
        throw std::runtime_error("tgs_serve exited during start-up");
      }
      try {
        tgs::UnixConn conn = tgs::UnixConn::connect(socket_);
        conn.write_line("{\"op\":\"ping\"}");
        std::string reply;
        if (conn.read_line(&reply)) return conn;
      } catch (const std::exception&) {
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    throw std::runtime_error("tgs_serve did not come up on " + socket_);
  }

  /// Sends the shutdown op and checks the daemon exits 0 within 10 s and
  /// leaves nothing in its run directory but the journal. Returns an
  /// error description, empty on a clean stop.
  std::string shutdown() {
    try {
      tgs::UnixConn conn = tgs::UnixConn::connect(socket_);
      conn.write_line("{\"op\":\"shutdown\",\"id\":\"bye\"}");
      std::string ack;
      conn.read_line(&ack);
    } catch (const std::exception& e) {
      return std::string("shutdown request failed: ") + e.what();
    }
    const double give_up = now_s() + 10;
    int status = 0;
    while (::waitpid(pid_, &status, WNOHANG) != pid_) {
      if (now_s() > give_up) return "daemon did not exit after shutdown";
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    pid_ = -1;
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0)
      return "daemon exited with status " + std::to_string(status);
    std::string leftovers;
    for (const auto& entry : fs::directory_iterator(dir_))
      if (entry.path().filename() != "cache.tgsj")
        leftovers += " " + entry.path().filename().string();
    if (!leftovers.empty()) return "daemon left files behind:" + leftovers;
    return "";
  }

 private:
  pid_t pid_ = -1;
  std::string dir_, socket_, journal_;
};

/// One request/reply on a fresh connection, for stats and warm-up.
tgs::JsonValue call(const std::string& socket, const std::string& line) {
  tgs::UnixConn conn = tgs::UnixConn::connect(socket);
  conn.write_line(line);
  std::string reply;
  if (!conn.read_line(&reply)) throw std::runtime_error("no reply");
  return tgs::json_parse(reply);
}

struct StatsSnapshot {
  double hits = 0, misses = 0, rejected = 0;
};

StatsSnapshot stats(const std::string& socket) {
  const tgs::JsonValue v = call(socket, "{\"op\":\"stats\"}");
  return {v.get_number("cache_hits", 0), v.get_number("cache_misses", 0),
          v.get_number("requests_rejected", 0)};
}

// ------------------------------------------------------ load generator --

struct Replies {
  std::vector<double> received;  // now_s(); < 0 = no reply
  /// Open loop: how long the generator took to start writing a request
  /// once it was due and its connection was free (the previous line fully
  /// written). Waiting for the daemon to drain the socket is not counted:
  /// that is the daemon's latency, already in the due-time clock.
  std::vector<double> late;
  std::vector<std::string> body;
};

std::int64_t reply_id(const std::string& line) {
  const std::size_t at = line.find("\"id\":\"r");
  if (at == std::string::npos) return -1;
  return std::strtoll(line.c_str() + at + 7, nullptr, 10);
}

/// Drives one connection through the requests `mine` (global indices, in
/// order). Open loop when `due` is given (absolute now_s() times):
/// request j is written as soon as it is due and the previous line is
/// out. Closed loop otherwise: request j is written once the reply to
/// request j-1 has arrived. Stops when every reply is in or at `give_up`.
void drive(const std::string& socket, const Workload& w,
           const std::vector<std::size_t>& mine, const double* due,
           double give_up, Replies& r) {
  tgs::UnixConn conn = tgs::UnixConn::connect(socket);
  const int fd = conn.fd();
  ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) | O_NONBLOCK);
  std::size_t next = 0, replies = 0;
  std::string out, in;
  std::size_t out_off = 0;
  double free_at = 0;  // when the previous line was fully written
  char chunk[65536];
  while (replies < mine.size() && now_s() < give_up) {
    const double now = now_s();
    const bool ready = due != nullptr ? next < mine.size() && now >= due[next]
                                      : next == replies && next < mine.size();
    if (out_off == out.size() && ready) {
      if (due != nullptr) r.late[mine[next]] = now - std::max(due[next], free_at);
      out = request_line(w, mine[next++]);
      out += '\n';
      out_off = 0;
    }
    while (out_off < out.size()) {
      const ssize_t n = ::send(fd, out.data() + out_off, out.size() - out_off,
                               MSG_NOSIGNAL);
      if (n <= 0) break;
      out_off += static_cast<std::size_t>(n);
      if (out_off == out.size()) free_at = now_s();
    }
    double wait_s = give_up - now_s();
    if (due != nullptr && out_off == out.size() && next < mine.size())
      wait_s = std::min(wait_s, due[next] - now_s());
    pollfd p{fd, static_cast<short>(POLLIN | (out_off < out.size() ? POLLOUT : 0)),
             0};
    const timespec ts{static_cast<time_t>(std::max(0.0, wait_s)),
                      static_cast<long>(std::fmod(std::max(0.0, wait_s), 1.0) *
                                        1e9)};
    if (::ppoll(&p, 1, &ts, nullptr) <= 0 || !(p.revents & (POLLIN | POLLHUP)))
      continue;
    const ssize_t n = ::recv(fd, chunk, sizeof chunk, 0);
    if (n == 0) break;  // daemon closed the connection
    if (n < 0) continue;
    const double t = now_s();
    in.append(chunk, static_cast<std::size_t>(n));
    std::size_t start = 0, nl;
    while ((nl = in.find('\n', start)) != std::string::npos) {
      std::string line = in.substr(start, nl - start);
      start = nl + 1;
      const std::int64_t id = reply_id(line);
      if (id < 0 || static_cast<std::size_t>(id) >= r.received.size() ||
          r.received[static_cast<std::size_t>(id)] >= 0)
        continue;
      r.received[static_cast<std::size_t>(id)] = t;
      r.body[static_cast<std::size_t>(id)] = std::move(line);
      ++replies;
    }
    in.erase(0, start);
  }
}

/// Runs requests [first, last) over kConns connections, one thread each,
/// request i on connection i % kConns.
void run_phase(const std::string& socket, const Workload& w, std::size_t first,
               std::size_t last, const double* due_abs, double give_up,
               Replies& r) {
  std::vector<std::vector<std::size_t>> mine(kConns);
  std::vector<std::vector<double>> due(kConns);
  for (std::size_t i = first; i < last; ++i) {
    mine[i % kConns].push_back(i);
    if (due_abs != nullptr) due[i % kConns].push_back(due_abs[i - first]);
  }
  const auto one = [&](int c) {
    try {
      drive(socket, w, mine[c], due_abs != nullptr ? due[c].data() : nullptr,
            give_up, r);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "serve_mix: connection %d: %s\n", c, e.what());
    }
  };
  std::thread other(one, 1);
  one(0);
  other.join();
}

// --------------------------------------------------------- references --

struct Reference {
  tgs::Time makespan = 0;
  std::string text;
  std::string error;  // invalid direct schedule
};

Reference direct_run(const Workload& w, std::size_t key,
                     tgs::SchedWorkspace& ws) {
  const TaskGraph& g = w.graphs[key / w.configs.size()];
  const Config& c = w.configs[key % w.configs.size()];
  ws.begin_graph(g);
  Reference ref;
  tgs::ValidationResult valid;
  if (!c.topology.empty()) {
    const tgs::RoutingTable routes(tgs::Topology::from_spec(c.topology));
    const tgs::NetSchedule ns =
        tgs::make_apn_scheduler(c.algo)->run(g, routes, ws);
    ref.makespan = ns.makespan();
    ref.text = tgs::schedule_to_string(ns.tasks());
    valid = tgs::validate_net_schedule(ns);
  } else {
    tgs::SchedOptions so;
    so.num_procs = c.procs;
    const tgs::Schedule s = tgs::make_scheduler(c.algo)->run(g, so, ws);
    ref.makespan = s.makespan();
    ref.text = tgs::schedule_to_string(s);
    valid = tgs::validate_schedule(s, c.procs);
  }
  if (!valid.ok) ref.error = "invalid direct schedule: " + valid.error;
  return ref;
}

// ------------------------------------------------------------- replay --

/// The daemon's request path, one line at a time, through the same public
/// functions: parse_request, graph_from_string, graph_fingerprint,
/// make_cache_key, ScheduleCache::lookup, the scheduler's run,
/// schedule_to_string, ScheduleCache::insert, Journal::append and
/// render_schedule_response.
struct ReplayTotals {
  double parse_bytes = 0;
  double rendered_bytes = 0;
};

ReplayTotals replay(const Workload& w, const std::string& journal_path) {
  ReplayTotals totals;
  tgs::ScheduleCache cache(1024);
  tgs::Journal journal;
  journal.open(journal_path, 0);
  tgs::SchedWorkspace ws;
  for (std::size_t i = 0; i < w.key.size(); ++i) {
    const std::string line = request_line(w, i);
    Span request_span("serve.request", static_cast<std::int64_t>(i));
    tgs::ServeRequest req;
    {
      Span span("serve.parse_request");
      req = tgs::parse_request(line);
    }
    std::optional<TaskGraph> g;
    {
      Span span("graph.parse");
      g.emplace(tgs::graph_from_string(req.graph_text));
    }
    totals.parse_bytes += static_cast<double>(req.graph_text.size());
    const bool is_apn = !req.topology.empty();
    tgs::SchedulerPtr algo;
    tgs::ApnSchedulerPtr apn;
    std::string name, cls;
    if (is_apn) {
      apn = tgs::make_apn_scheduler(req.algo);
      name = apn->name();
      cls = "APN";
    } else {
      algo = tgs::make_scheduler(req.algo);
      name = algo->name();
      cls = tgs::algo_class_name(algo->algo_class());
    }
    std::string fp;
    {
      Span span("graph.fingerprint");
      fp = tgs::graph_fingerprint(*g).hex();
    }
    std::string key;
    {
      Span span("serve.cache_key");
      key = tgs::make_cache_key(fp, cls, name, req.topology, req.procs);
    }
    tgs::CachedSchedule result;
    bool cached;
    {
      Span span("serve.cache_lookup");
      cached = cache.lookup(key, &result);
    }
    const double t0 = now_s();
    if (!cached) {
      ws.begin_graph(*g);
      if (is_apn) {
        std::optional<tgs::RoutingTable> routes;
        {
          Span span("net.routing");
          routes.emplace(tgs::Topology::from_spec(req.topology));
        }
        std::optional<tgs::NetSchedule> ns;
        {
          Span span("apn." + name);
          ns.emplace(apn->run(*g, *routes, ws));
        }
        result.makespan = ns->makespan();
        result.nsl = tgs::normalized_schedule_length(*g, ns->makespan());
        result.procs_used = ns->tasks().procs_used();
        result.num_messages = ns->messages().size();
        Span span("sched.to_text");
        result.schedule_text = tgs::schedule_to_string(ns->tasks());
      } else {
        tgs::SchedOptions so;
        so.num_procs = req.procs;
        std::optional<tgs::Schedule> s;
        {
          Span span(layer_of(*algo));
          s.emplace(algo->run(*g, so, ws));
        }
        result.makespan = s->makespan();
        result.nsl = tgs::normalized_schedule_length(*s);
        result.procs_used = s->procs_used();
        Span span("sched.to_text");
        result.schedule_text = tgs::schedule_to_string(*s);
      }
      {
        Span span("serve.cache_insert");
        cache.insert(key, result);
      }
      Span span("serve.journal_append");
      journal.append(key, result);
    }
    const auto micros = static_cast<std::uint64_t>((now_s() - t0) * 1e6);
    Span span("serve.render");
    totals.rendered_bytes += static_cast<double>(
        tgs::render_schedule_response(req.id, name, cls, result, cached,
                                      cached ? 0 : micros, req.want_schedule,
                                      is_apn)
            .size());
  }
  return totals;
}

// --------------------------------------------------------------- run --

void warm_up(const std::string& socket, const Workload& w) {
  tgs::RgnosParams p;
  p.num_nodes = 50;
  p.seed = 0x3a2b;
  const std::string graph = json_string(tgs::graph_to_string(tgs::rgnos_graph(p)));
  for (const Config& c : w.configs) {
    std::string line = "{\"id\":\"warm\",\"algo\":\"" + c.algo + "\",";
    line += c.topology.empty() ? "\"procs\":" + std::to_string(c.procs)
                               : "\"topology\":\"" + c.topology + "\"";
    line += ",\"graph\":" + graph + "}";
    const tgs::JsonValue v = call(socket, line);
    if (v.get_string("status", "") != "ok")
      throw std::runtime_error("warm-up request failed: " + line.substr(0, 80));
  }
}

}  // namespace

void run_serve_mix(const Options& opt, Outcome& out) {
  if (opt.serve_bin.empty()) {
    out.fail("serve_mix needs --serve-bin");
    return;
  }
  Workload w;
  std::unique_ptr<Daemon> daemon;
  const int setups = opt.trace ? 1 : kSetupRuns;
  std::vector<double> setup_times;
  for (int i = 0; i < setups; ++i) {
    if (daemon) {  // stopping the previous daemon is not set-up time
      ++out.attempted;
      const std::string err = daemon->shutdown();
      if (!err.empty()) out.fail(err);
      daemon.reset();
    }
    const double t0 = now_s();
    w = make_workload(opt);
    daemon = std::make_unique<Daemon>(opt, i);
    daemon->connect_ready();
    warm_up(daemon->socket(), w);
    setup_times.push_back(now_s() - t0);
  }
  const double setup_s = median(setup_times);

  const std::size_t total = w.key.size();
  Replies r;
  r.late.assign(total, 0);
  r.received.assign(total, -1);
  r.body.assign(total, "");
  const StatsSnapshot before = stats(daemon->socket());
  // The earlier set-ups' daemons are reaped, so from here the children's
  // CPU time grows by the measured daemon's alone.
  rusage children_before{};
  ::getrusage(RUSAGE_CHILDREN, &children_before);

  // Open phase.
  std::vector<double> due_abs(w.open_count);
  const double open_start = now_s() + 0.01;
  for (std::size_t i = 0; i < w.open_count; ++i)
    due_abs[i] = open_start + w.due[i];
  const double open_end = w.open_count ? due_abs.back() : open_start;
  run_phase(daemon->socket(), w, 0, w.open_count, due_abs.data(),
            open_end + kTimeoutS, r);
  // Closed phase.
  const double closed_start = now_s();
  run_phase(daemon->socket(), w, w.open_count, total, nullptr,
            closed_start + 2 * kTimeoutS, r);
  double closed_last = closed_start;
  for (std::size_t i = w.open_count; i < total; ++i)
    closed_last = std::max(closed_last, r.received[i]);
  const double closed_wall_s = closed_last - closed_start;

  const StatsSnapshot after = stats(daemon->socket());
  ++out.attempted;
  const std::string stop_err = daemon->shutdown();
  if (!stop_err.empty()) out.fail(stop_err);
  daemon.reset();
  rusage children{};
  ::getrusage(RUSAGE_CHILDREN, &children);
  const auto cpu = [](const rusage& u) {
    return static_cast<double>(u.ru_utime.tv_sec + u.ru_stime.tv_sec) +
           static_cast<double>(u.ru_utime.tv_usec + u.ru_stime.tv_usec) * 1e-6;
  };
  const double daemon_cpu_s = cpu(children) - cpu(children_before);

  // Check every reply against a direct run of the same input.
  std::vector<std::optional<Reference>> refs(w.graphs.size() * w.configs.size());
  tgs::SchedWorkspace ws;
  std::vector<double> lat_ms, hit_ms, miss_ms, late_ms, compute_ms, noncompute_ms;
  std::size_t ok_closed = 0;
  for (std::size_t i = 0; i < total; ++i) {
    ++out.attempted;
    const bool open = i < w.open_count;
    const std::string tag = "request r" + std::to_string(i) + ": ";
    if (open) late_ms.push_back(r.late[i] * 1e3);
    std::string err;
    tgs::JsonValue v;
    if (r.received[i] < 0) {
      err = "no reply within the time-out";
    } else {
      try {
        v = tgs::json_parse(r.body[i]);
      } catch (const std::exception& e) {
        err = std::string("unparsable reply: ") + e.what();
      }
    }
    if (err.empty() && v.get_string("status", "") != "ok")
      err = "error reply: " + v.get_string("code", "") + " " +
            v.get_string("message", "");
    if (err.empty()) {
      std::optional<Reference>& ref = refs[w.key[i]];
      if (!ref) ref = direct_run(w, w.key[i], ws);
      const auto makespan = static_cast<tgs::Time>(v.get_number("makespan", -1));
      if (!ref->error.empty())
        err = ref->error;
      else if (makespan != ref->makespan)
        err = "makespan " + std::to_string(makespan) + " differs from the "
              "direct run's " + std::to_string(ref->makespan);
      else if (w.want_schedule[i] &&
               v.get_string("schedule", "") != ref->text)
        err = "schedule text differs from the direct run's";
      else if (!w.want_schedule[i] && v.find("schedule") != nullptr)
        err = "schedule text sent although not requested";
    }
    if (!err.empty()) {
      out.fail(tag + err);
      if (open) lat_ms.push_back(kTimeoutS * 1e3);  // misses every limit
      continue;
    }
    if (!open) {
      ++ok_closed;
      continue;
    }
    const double ms = (r.received[i] - due_abs[i]) * 1e3;
    const double micros = v.get_number("micros", 0);
    lat_ms.push_back(ms);
    (v.get_bool("cached", false) ? hit_ms : miss_ms).push_back(ms);
    if (!v.get_bool("cached", false)) compute_ms.push_back(micros / 1e3);
    noncompute_ms.push_back(ms - micros / 1e3);
  }

  const double late_p99 = quantile(late_ms, 0.99);
  if (late_p99 > 5.0)
    std::fprintf(stderr,
                 "serve_mix: WARNING: the open-loop generator fell behind "
                 "schedule (late p99 %.3f ms); latencies include generator "
                 "stalls\n",
                 late_p99);

  if (opt.trace) {
    const double lookups = (after.hits - before.hits) +
                           (after.misses - before.misses);
    const std::string dir = opt.work_dir + "/run/" +
                            std::to_string(::getpid()) + "-replay";
    fs::create_directories(dir);
    // Each pass generates the inputs again, so set-up shows in the trace.
    double t0 = now_s();
    replay(make_workload(opt), dir + "/untraced.tgsj");
    const double untraced_s = now_s() - t0;
    Tracer tracer;
    g_tracer = &tracer;
    ReplayTotals totals;
    {
      Span root("serve_mix");
      totals = replay(make_workload(opt),
                      dir + "/traced.tgsj");
    }
    g_tracer = nullptr;
    std::error_code ec;
    fs::remove_all(dir, ec);
    report_trace(tracer, "serve_mix", untraced_s, opt, out);
    out.metric("graph.parse_bytes", totals.parse_bytes, "count");
    out.metric("serve.cache_hit_ratio",
               lookups > 0 ? (after.hits - before.hits) / lookups : 0,
               "ratio");
    out.metric("serve.compute_p50_ms", median(compute_ms), "ms");
    out.metric("serve.noncompute_p50_ms", median(noncompute_ms), "ms");
    out.metric("serve.rejected", after.rejected - before.rejected,
               "count");
    out.metric("loadgen.late_p99_ms", late_p99, "ms");
    return;
  }

  out.metric("setup_s", setup_s, "s");
  out.metric("work_s", daemon_cpu_s, "s");
  out.metric("peak_rss_mb", static_cast<double>(children.ru_maxrss) / 1024.0,
             "MB");
  const std::size_t closed = total - w.open_count;
  std::fprintf(
      stderr,
      "serve_mix: %zu graphs x %zu configs, %zu open requests at %.0f/s, "
      "%zu closed on %d connections, %d workers\n"
      "  serve_p50_ms %.4f ms   serve_p99_ms %.4f ms   (%zu samples)\n"
      "  serve_hit_p50_ms %.4f ms (%zu)   serve_miss_p50_ms %.4f ms (%zu)\n"
      "  serve_rps %.2f req/s   closed phase %.4f s wall   loadgen late "
      "p99 %.4f ms\n",
      w.graphs.size(), w.configs.size(), w.open_count, kOpenRate, closed,
      kConns, kWorkers, quantile(lat_ms, 0.5), quantile(lat_ms, 0.99),
      lat_ms.size(), quantile(hit_ms, 0.5), hit_ms.size(),
      quantile(miss_ms, 0.5), miss_ms.size(),
      closed_wall_s > 0 ? static_cast<double>(ok_closed) / closed_wall_s
                             : 0.0,
      closed_wall_s, late_p99);
}

}  // namespace e2e
