// Robustness tests for the serving stack, driven by the deterministic
// fault-injection layer (serve/faults.h): journal crash recovery, torn
// tails, deadline cancellation with worker reuse, EINTR/short-IO storms,
// load shedding, bounded request lines, and cache allocation failure.
// Every scripted failure asserts the exact structured error -- and that
// schedules remain byte-identical to direct runs through all of it.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "tgs/exec/jsonl.h"
#include "tgs/gen/rgnos.h"
#include "tgs/graph/graph_io.h"
#include "tgs/harness/registry.h"
#include "tgs/net/routing.h"
#include "tgs/net/topology.h"
#include "tgs/sched/schedule_io.h"
#include "tgs/sched/workspace.h"
#include "tgs/serve/cache.h"
#include "tgs/serve/faults.h"
#include "tgs/serve/json.h"
#include "tgs/serve/persist.h"
#include "tgs/serve/protocol.h"
#include "tgs/serve/server.h"
#include "tgs/serve/socket.h"
#include "tgs/unc/clustering.h"

namespace tgs {
namespace {

TaskGraph random_graph(std::uint64_t seed, NodeId nodes = 60) {
  RgnosParams p;
  p.num_nodes = nodes;
  p.ccr = 1.0;
  p.parallelism = 3;
  p.seed = seed;
  return rgnos_graph(p);
}

/// The global FaultPlan outlives each test; this guard guarantees no
/// script leaks into the next one, even through an ASSERT bailout.
struct FaultGuard {
  FaultGuard() { FaultPlan::global().clear(); }
  explicit FaultGuard(const std::string& spec) {
    FaultPlan::global().clear();
    FaultPlan::global().arm_spec(spec);
  }
  ~FaultGuard() { FaultPlan::global().clear(); }
};

std::string unique_tmp(const char* tag, const char* ext) {
  static std::atomic<int> counter{0};
  return std::string("/tmp/tgs_") + tag + "_" + std::to_string(getpid()) +
         "_" + std::to_string(counter.fetch_add(1)) + ext;
}

/// Remove a file on scope exit (journals and their compaction temps).
struct FileJanitor {
  std::string path;
  ~FileJanitor() {
    ::unlink(path.c_str());
    ::unlink((path + ".tmp").c_str());
  }
};

// -------------------------------------------------------------- FaultPlan --

TEST(FaultPlan, SkipCountAndArgScript) {
  FaultGuard fg("worker_stall@2*3:250");
  std::int64_t arg = 0;
  // Hits 0,1 pass through; 2,3,4 fire with arg 250; 5+ pass again.
  for (int hit = 0; hit < 7; ++hit) {
    const bool fired = FaultPlan::hit(FaultPoint::kWorkerStall, &arg);
    EXPECT_EQ(fired, hit >= 2 && hit <= 4) << "hit " << hit;
    if (fired) EXPECT_EQ(arg, 250);
  }
  EXPECT_EQ(FaultPlan::global().fired(FaultPoint::kWorkerStall), 3u);
}

TEST(FaultPlan, UnlimitedCountAndIndependentPoints) {
  FaultGuard fg("read_eintr*");
  for (int i = 0; i < 50; ++i)
    EXPECT_TRUE(FaultPlan::hit(FaultPoint::kReadEintr));
  // Unarmed points never fire even while another is armed.
  EXPECT_FALSE(FaultPlan::hit(FaultPoint::kWriteEintr));
  EXPECT_FALSE(FaultPlan::hit(FaultPoint::kCacheOom));
}

TEST(FaultPlan, PercentIsDeterministicInSeed) {
  const auto pattern_for = [](std::uint64_t seed) {
    FaultGuard fg;
    FaultPlan::global().arm_spec("write_short*:1~30,seed=" +
                                 std::to_string(seed));
    std::string pattern;
    for (int i = 0; i < 64; ++i)
      pattern += FaultPlan::hit(FaultPoint::kWriteShort) ? '1' : '0';
    return pattern;
  };
  EXPECT_EQ(pattern_for(7), pattern_for(7));
  EXPECT_NE(pattern_for(7), pattern_for(8));
  EXPECT_NE(pattern_for(7), std::string(64, '1'));
  EXPECT_NE(pattern_for(7), std::string(64, '0'));
}

TEST(FaultPlan, SpecErrorsNameTheProblem) {
  FaultGuard fg;
  EXPECT_THROW(FaultPlan::global().arm_spec("frobnicate"),
               std::invalid_argument);
  EXPECT_THROW(FaultPlan::global().arm_spec("read_eintr@x"),
               std::invalid_argument);
  EXPECT_THROW(FaultPlan::global().arm_spec("read_eintr~150"),
               std::invalid_argument);
  try {
    FaultPlan::global().arm_spec("no_such_point*2");
    FAIL() << "expected throw";
  } catch (const std::invalid_argument& e) {
    // The message enumerates the valid points for discoverability.
    EXPECT_NE(std::string(e.what()).find("journal_torn"), std::string::npos);
  }
}

TEST(FaultPlan, ZeroCostWhenEmpty) {
  FaultGuard fg;
  for (int i = 0; i < 1000; ++i)
    ASSERT_FALSE(FaultPlan::hit(FaultPoint::kReadEintr));
}

// ----------------------------------------------------------------- socket --

/// Two connected ends of an AF_UNIX stream.
std::pair<UnixConn, UnixConn> socket_pair() {
  int fds[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0)
    throw std::runtime_error("socketpair failed");
  return {UnixConn(fds[0]), UnixConn(fds[1])};
}

/// A line of `size` bytes whose content depends on `seed`.
std::string long_line(std::size_t size, char seed) {
  std::string s(size, ' ');
  for (std::size_t i = 0; i < size; ++i)
    s[i] = static_cast<char>('a' + (seed + i * 7) % 26);
  return s;
}

TEST(Socket, LongLinesSurviveShortReadsInOneStream) {
  // Lines longer than one 64 KiB read, a blank line and one exactly at
  // the bound, written back to back while most reads are cut short.
  const std::size_t kBound = 300000;
  const std::vector<std::string> lines = {
      long_line(70000, 1), long_line(200001, 2), "", long_line(65536, 3),
      long_line(kBound, 4), "x", long_line(131073, 5)};
  FaultGuard fg("read_short*:4099~70,seed=5");
  auto [reader, writer] = socket_pair();
  std::thread send([&writer, &lines] {
    for (const std::string& line : lines) writer.write_line(line);
    writer.shutdown_both();
  });
  std::string got;
  for (const std::string& line : lines) {
    ASSERT_TRUE(reader.read_line(&got, kBound));
    EXPECT_EQ(got, line);
  }
  EXPECT_FALSE(reader.read_line(&got, kBound));
  send.join();
  EXPECT_GT(FaultPlan::global().fired(FaultPoint::kReadShort), 10u);
}

TEST(Socket, LineBoundIsExactHoweverTheBytesArrive) {
  // One byte over the bound fails whether the line arrives with its '\n'
  // in one read or a few bytes at a time; a line at the bound passes.
  for (const char* faults : {"", "read_short*:3"}) {
    for (const std::size_t size : {std::size_t{4096}, std::size_t{4097}}) {
      FaultGuard fg(faults);
      auto [reader, writer] = socket_pair();
      writer.write_line(long_line(size, 6));
      writer.shutdown_both();
      std::string got;
      if (size <= 4096) {
        ASSERT_TRUE(reader.read_line(&got, 4096)) << faults;
        EXPECT_EQ(got.size(), size);
      } else {
        EXPECT_THROW(reader.read_line(&got, 4096), LineTooLong) << faults;
      }
    }
  }
}

// ---------------------------------------------------------------- journal --

CachedSchedule sample_value(int n) {
  CachedSchedule v;
  v.makespan = 100 + n;
  v.nsl = 1.25 + n;
  v.procs_used = n;
  v.num_messages = static_cast<std::size_t>(n) * 3;
  v.schedule_text = "tgssched1 sample " + std::string(n * 17, 'x');
  return v;
}

TEST(Journal, RoundTripsEntriesAcrossReopen) {
  const std::string path = unique_tmp("journal", ".tgsj");
  FileJanitor jan{path};
  {
    Journal j;
    j.open(path, /*fsync_every=*/1);
    EXPECT_EQ(j.recovery().replayed, 0u);
    for (int n = 0; n < 5; ++n) j.append("key" + std::to_string(n),
                                         sample_value(n));
    EXPECT_EQ(j.appends(), 5u);
  }
  Journal j;
  j.open(path, 1);
  const JournalRecovery& rec = j.recovery();
  EXPECT_FALSE(rec.tail_truncated);
  EXPECT_EQ(rec.truncated_bytes, 0u);
  ASSERT_EQ(rec.replayed, 5u);
  for (int n = 0; n < 5; ++n) {
    const auto& [key, value] = rec.entries[static_cast<std::size_t>(n)];
    const CachedSchedule want = sample_value(n);
    EXPECT_EQ(key, "key" + std::to_string(n));
    EXPECT_EQ(value.makespan, want.makespan);
    EXPECT_EQ(value.nsl, want.nsl);  // bit-exact: stored as IEEE bits
    EXPECT_EQ(value.procs_used, want.procs_used);
    EXPECT_EQ(value.num_messages, want.num_messages);
    EXPECT_EQ(value.schedule_text, want.schedule_text);
  }
}

TEST(Journal, TornWriteFaultLosesOnlyTheTornRecord) {
  const std::string path = unique_tmp("journal", ".tgsj");
  FileJanitor jan{path};
  {
    FaultGuard fg("journal_torn@2");  // 3rd append is torn
    Journal j;
    j.open(path, 1);
    for (int n = 0; n < 4; ++n) j.append("key" + std::to_string(n),
                                         sample_value(n));
    // The torn write sealed the journal: append 3 was also dropped, just
    // as if the process had died mid-record.
    EXPECT_EQ(FaultPlan::global().fired(FaultPoint::kJournalTorn), 1u);
  }
  Journal j;
  j.open(path, 1);
  EXPECT_TRUE(j.recovery().tail_truncated);
  EXPECT_GT(j.recovery().truncated_bytes, 0u);
  ASSERT_EQ(j.recovery().replayed, 2u);
  EXPECT_EQ(j.recovery().entries[0].first, "key0");
  EXPECT_EQ(j.recovery().entries[1].first, "key1");

  // The truncation repaired the file: appends work again and survive.
  j.append("after", sample_value(9));
  j.close();
  Journal j2;
  j2.open(path, 1);
  ASSERT_EQ(j2.recovery().replayed, 3u);
  EXPECT_EQ(j2.recovery().entries[2].first, "after");
  EXPECT_FALSE(j2.recovery().tail_truncated);
}

TEST(Journal, TrailingGarbageIsTruncatedNotFatal) {
  const std::string path = unique_tmp("journal", ".tgsj");
  FileJanitor jan{path};
  {
    Journal j;
    j.open(path, 1);
    j.append("a", sample_value(1));
    j.append("b", sample_value(2));
  }
  {
    std::ofstream f(path, std::ios::binary | std::ios::app);
    f << "\x03\x00\x00\x00garbage-that-is-not-a-record";
  }
  Journal j;
  j.open(path, 1);
  EXPECT_TRUE(j.recovery().tail_truncated);
  ASSERT_EQ(j.recovery().replayed, 2u);
  EXPECT_EQ(j.recovery().entries[1].first, "b");
}

TEST(Journal, CorruptedRecordEndsTheValidPrefix) {
  const std::string path = unique_tmp("journal", ".tgsj");
  FileJanitor jan{path};
  {
    Journal j;
    j.open(path, 1);
    j.append("a", sample_value(1));
    j.append("b", sample_value(2));
  }
  // Flip one byte inside the FIRST record's payload: its CRC no longer
  // matches, so recovery must stop before it -- record "b" is
  // unreachable (append-only files have no record index to resync on).
  {
    std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(8 + 8 + 6);  // magic + frame + a few payload bytes
    f.put('\xFF');
  }
  Journal j;
  j.open(path, 1);
  EXPECT_TRUE(j.recovery().tail_truncated);
  EXPECT_EQ(j.recovery().replayed, 0u);
}

TEST(Journal, GarbageHeaderResetsTheJournal) {
  const std::string path = unique_tmp("journal", ".tgsj");
  FileJanitor jan{path};
  {
    std::ofstream f(path, std::ios::binary);
    f << "definitely not a TGSJRNL1 file, but long enough to try";
  }
  Journal j;
  j.open(path, 1);
  EXPECT_TRUE(j.recovery().tail_truncated);
  EXPECT_EQ(j.recovery().replayed, 0u);
  EXPECT_GT(j.recovery().truncated_bytes, 0u);
  // And it is a working journal again.
  j.append("fresh", sample_value(4));
  j.close();
  Journal j2;
  j2.open(path, 1);
  ASSERT_EQ(j2.recovery().replayed, 1u);
  EXPECT_EQ(j2.recovery().entries[0].first, "fresh");
}

TEST(Journal, CompactionKeepsExactlyTheLiveSet) {
  const std::string path = unique_tmp("journal", ".tgsj");
  FileJanitor jan{path};
  Journal j;
  j.open(path, 1);
  // Dead weight: repeated keys and soon-to-be-dropped entries.
  for (int n = 0; n < 6; ++n) j.append("key" + std::to_string(n % 2),
                                       sample_value(n));
  std::vector<std::pair<std::string, CachedSchedule>> live = {
      {"key0", sample_value(4)}, {"key1", sample_value(5)}};
  j.compact(live);
  EXPECT_EQ(j.compactions(), 1u);
  EXPECT_EQ(j.appends_since_compact(), 0u);
  j.close();

  Journal j2;
  j2.open(path, 1);
  EXPECT_FALSE(j2.recovery().tail_truncated);
  ASSERT_EQ(j2.recovery().replayed, 2u);
  EXPECT_EQ(j2.recovery().entries[0].first, "key0");
  EXPECT_EQ(j2.recovery().entries[0].second.makespan, sample_value(4).makespan);
  EXPECT_EQ(j2.recovery().entries[1].first, "key1");
}

TEST(Journal, Crc32MatchesKnownVector) {
  // The IEEE 802.3 check value: crc32("123456789") == 0xCBF43926.
  EXPECT_EQ(crc32_ieee("123456789", 9), 0xCBF43926u);
  EXPECT_EQ(crc32_ieee("", 0), 0u);
}

// ----------------------------------------------- cooperative cancellation --

TEST(Deadline, ExpiredDeadlineCancelsParamSchedulerRun) {
  // Every BNP/UNC scheduler and the clustered parameter points poll the
  // deadline, bounded or not: an expired deadline cancels the run.
  const TaskGraph g = random_graph(3, 80);
  for (const char* name :
       {"HLFET", "ISH", "MCP", "ETF", "DLS", "LAST", "EZ", "LC", "DSC", "MD",
        "DCP", "param:bl/static/append/lc", "param:bl/static/append/dsc"}) {
    const SchedulerPtr algo = make_scheduler(name);
    for (int procs : {0, 4}) {
      SchedOptions opt;
      opt.num_procs = procs;
      SchedWorkspace ws;
      ws.begin_graph(g);
      ws.deadline().arm(std::chrono::steady_clock::now() -
                        std::chrono::milliseconds(1));
      EXPECT_THROW(algo->run(g, opt, ws), DeadlineExceeded)
          << name << " procs=" << procs;
      ws.deadline().disarm();

      // The workspace survived the unwind: the very next run on it is
      // byte-identical to a fresh-workspace run.
      ws.begin_graph(g);
      const Schedule reused = algo->run(g, opt, ws);
      const Schedule fresh = algo->run(g, opt);
      EXPECT_EQ(schedule_to_string(reused), schedule_to_string(fresh))
          << name << " procs=" << procs;
    }
  }
}

TEST(Deadline, ExpiredDeadlineCancelsEveryApnScheduler) {
  const TaskGraph g = random_graph(5, 60);
  const RoutingTable routes{Topology::from_spec("ring4")};
  for (const char* name : {"MH", "BSA", "BU", "DLS-APN"}) {
    const ApnSchedulerPtr algo = make_apn_scheduler(name);
    SchedWorkspace ws;
    ws.begin_graph(g);
    ws.deadline().arm(std::chrono::steady_clock::now() -
                      std::chrono::milliseconds(1));
    EXPECT_THROW(algo->run(g, routes, ws), DeadlineExceeded) << name;
    ws.deadline().disarm();

    ws.begin_graph(g);
    NetSchedule reused = algo->run(g, routes, ws);
    NetSchedule fresh = algo->run(g, routes);
    EXPECT_EQ(schedule_to_string(reused.tasks()),
              schedule_to_string(fresh.tasks()))
        << name;
  }
}

TEST(Deadline, ExpiredDeadlineCancelsEzClusterPass) {
  // The edge-zeroing pass runs before any list phase, so it must poll the
  // deadline itself: a large EZ request would otherwise finish the whole
  // edge loop before noticing.
  const TaskGraph g = random_graph(9, 80);
  const SchedulerPtr algo = make_scheduler("EZ");
  SchedWorkspace ws;
  ws.begin_graph(g);
  ws.deadline().arm(std::chrono::steady_clock::now() -
                    std::chrono::milliseconds(1));
  EXPECT_THROW(ez_clusters(g, ws), DeadlineExceeded);
  ws.deadline().disarm();

  ws.begin_graph(g);
  const Schedule reused = algo->run(g, SchedOptions{}, ws);
  const Schedule fresh = algo->run(g, SchedOptions{});
  EXPECT_EQ(schedule_to_string(reused), schedule_to_string(fresh));
}

TEST(Deadline, ExpiredDeadlineCancelsLcClusterPass) {
  // The path-peeling pass, like edge zeroing, runs before any list phase
  // and polls the deadline once per peeled path.
  const TaskGraph g = random_graph(11, 80);
  RunDeadline deadline;
  deadline.arm(std::chrono::steady_clock::now() -
               std::chrono::milliseconds(1));
  EXPECT_THROW(lc_clusters(g, &deadline), DeadlineExceeded);
  deadline.disarm();
  EXPECT_EQ(lc_clusters(g, &deadline), lc_clusters(g));
}

TEST(Deadline, UnarmedDeadlineNeverFires) {
  const TaskGraph g = random_graph(7, 40);
  SchedWorkspace ws;
  ws.begin_graph(g);
  EXPECT_FALSE(ws.deadline().armed());
  const Schedule s = make_scheduler("DCP")->run(g, SchedOptions{}, ws);
  EXPECT_TRUE(s.complete());
}

// ------------------------------------------------------------- the server --

// An in-process daemon on a unique socket path, torn down on destruction.
class ServerFixture {
 public:
  explicit ServerFixture(ServeOptions opt = {}) {
    opt.socket_path = unique_tmp("serve_faults", ".sock");
    server = std::make_unique<Server>(opt);
    thread = std::thread([this] { server->serve_forever(); });
  }

  ~ServerFixture() { stop(); }

  void stop() {
    server->request_stop();
    if (thread.joinable()) thread.join();
  }

  UnixConn connect() const { return UnixConn::connect(server->socket_path()); }

  JsonValue ask(const std::string& request) {
    UnixConn conn = connect();
    return ask_on(conn, request);
  }

  static JsonValue ask_on(UnixConn& conn, const std::string& request) {
    conn.write_line(request);
    std::string reply;
    EXPECT_TRUE(conn.read_line(&reply));
    return json_parse(reply);
  }

  std::unique_ptr<Server> server;
  std::thread thread;
};

std::string schedule_request(const TaskGraph& g, const std::string& algo,
                             const std::string& extra_fields = "") {
  JsonObject o;
  o.add("id", "f1").add("graph", graph_to_string(g)).add("algo", algo);
  o.add("schedule", true);
  std::string s = o.str();
  if (!extra_fields.empty())
    s.insert(s.size() - 1, "," + extra_fields);
  return s;
}

TEST(ServerFaults, DeadlineExceededThenWorkerIsReused) {
  FaultGuard fg;
  const TaskGraph g = random_graph(41);
  ServeOptions opt;
  opt.workers = 1;  // the SAME worker must serve both requests
  ServerFixture f(opt);
  UnixConn conn = f.connect();

  // A stalled worker burns the whole 50 ms budget before scheduling even
  // starts: the pre-run expiry check fires deterministically.
  FaultPlan::global().arm_spec("worker_stall:200");
  const JsonValue r = ServerFixture::ask_on(
      conn, schedule_request(g, "MCP", "\"deadline_ms\":50"));
  EXPECT_EQ(r.get_string("status", ""), "error");
  EXPECT_EQ(r.get_string("code", ""), "deadline_exceeded");
  FaultPlan::global().clear();

  // Same graph, no deadline, same single worker: a clean result,
  // byte-identical to a direct run (cache was never populated by the
  // cancelled attempt).
  const JsonValue ok = ServerFixture::ask_on(conn, schedule_request(g, "MCP"));
  ASSERT_EQ(ok.get_string("status", ""), "ok");
  EXPECT_FALSE(ok.get_bool("cached", true));
  const Schedule direct = make_scheduler("MCP")->run(g, SchedOptions{});
  EXPECT_EQ(ok.get_string("schedule", ""), schedule_to_string(direct));

  const JsonValue s = ServerFixture::ask_on(conn, R"({"op":"stats"})");
  EXPECT_EQ(s.get_number("deadline_exceeded", 0), 1.0);
}

TEST(ServerFaults, ServerSideDeadlineCapBindsDeadlinelessRequests) {
  FaultGuard fg("worker_stall:200");
  ServeOptions opt;
  opt.max_deadline_ms = 50;
  ServerFixture f(opt);
  const JsonValue r = f.ask(schedule_request(random_graph(43), "ETF"));
  EXPECT_EQ(r.get_string("code", ""), "deadline_exceeded");
}

TEST(ServerFaults, EintrAndShortIoStormsAreInvisibleToClients) {
  // Every socket syscall misbehaves: accepts interrupted, reads
  // interrupted and fragmented to 3 bytes, writes interrupted and
  // fragmented to 5. The served schedule must still be byte-identical.
  FaultGuard fg(
      "accept_eintr*2,read_eintr*10,read_short*20:3,"
      "write_eintr*10,write_short*20:5");
  ServerFixture f;
  const TaskGraph g = random_graph(47);
  const JsonValue r = f.ask(schedule_request(g, "DLS"));
  ASSERT_EQ(r.get_string("status", ""), "ok");
  const Schedule direct = make_scheduler("DLS")->run(g, SchedOptions{});
  EXPECT_EQ(r.get_string("schedule", ""), schedule_to_string(direct));
  EXPECT_GT(FaultPlan::global().fired(FaultPoint::kReadEintr), 0u);
  EXPECT_GT(FaultPlan::global().fired(FaultPoint::kWriteShort), 0u);
}

TEST(ServerFaults, OversizedRequestGetsStructuredBadRequest) {
  ServeOptions opt;
  opt.max_request_bytes = 4096;
  ServerFixture f(opt);
  UnixConn conn = f.connect();
  try {
    conn.write_line(std::string(1 << 20, 'x'));  // 1 MiB of not-a-request
  } catch (const std::exception&) {
    // The server may reject and hang up before the full line is even
    // sent; the EPIPE is expected. Its error reply is still buffered.
  }
  std::string reply;
  ASSERT_TRUE(conn.read_line(&reply));
  const JsonValue r = json_parse(reply);
  EXPECT_EQ(r.get_string("status", ""), "error");
  EXPECT_EQ(r.get_string("code", ""), "bad_request");
  EXPECT_NE(r.get_string("message", "").find("exceeds"), std::string::npos);
  // The connection is then closed: no framing is recoverable.
  EXPECT_FALSE(conn.read_line(&reply));

  // A request under the bound on a fresh connection still works.
  const JsonValue ok = f.ask(R"({"op":"ping"})");
  EXPECT_EQ(ok.get_string("status", ""), "ok");
}

TEST(ServerFaults, LowPriorityRequestsAreShedUnderLoad) {
  FaultGuard fg("worker_stall*:400");
  ServeOptions opt;
  opt.workers = 1;
  opt.queue_capacity = 8;
  opt.shed_low_priority_at = 1;
  ServerFixture f(opt);
  const TaskGraph g = random_graph(53);

  // Occupy the lone worker (stalled 400 ms), then offer a low-priority
  // request: with one job inflight the shed threshold is met.
  UnixConn busy = f.connect();
  busy.write_line(schedule_request(g, "MCP"));
  std::this_thread::sleep_for(std::chrono::milliseconds(100));

  const JsonValue shed = f.ask(
      schedule_request(random_graph(54), "ETF", "\"priority\":\"low\""));
  EXPECT_EQ(shed.get_string("status", ""), "error");
  EXPECT_EQ(shed.get_string("code", ""), "overloaded");
  EXPECT_NE(shed.get_string("message", "").find("shed"), std::string::npos);

  // A high-priority request at the same depth is still admitted.
  const JsonValue high = f.ask(schedule_request(random_graph(55), "ETF"));
  EXPECT_EQ(high.get_string("status", ""), "ok");

  std::string reply;
  EXPECT_TRUE(busy.read_line(&reply));  // the stalled job still completes
  EXPECT_EQ(json_parse(reply).get_string("status", ""), "ok");

  const JsonValue s = f.ask(R"({"op":"stats"})");
  EXPECT_EQ(s.get_number("shed_requests", 0), 1.0);
  EXPECT_GE(s.get_number("requests_rejected", 0), 1.0);
}

TEST(ServerFaults, ShedRequestsStillGetCacheHits) {
  FaultGuard fg;
  ServeOptions opt;
  opt.workers = 1;
  opt.shed_low_priority_at = 1;
  ServerFixture f(opt);
  const TaskGraph g = random_graph(59);
  // Populate the cache while idle...
  ASSERT_EQ(f.ask(schedule_request(g, "MCP")).get_string("status", ""), "ok");

  // ...then wedge the worker and ask again at low priority: the cache
  // probe answers before shedding is even considered.
  FaultPlan::global().arm_spec("worker_stall:300");
  UnixConn busy = f.connect();
  busy.write_line(schedule_request(random_graph(60), "MCP"));
  std::this_thread::sleep_for(std::chrono::milliseconds(80));
  const JsonValue hit =
      f.ask(schedule_request(g, "MCP", "\"priority\":\"low\""));
  EXPECT_EQ(hit.get_string("status", ""), "ok");
  EXPECT_TRUE(hit.get_bool("cached", false));
  std::string reply;
  EXPECT_TRUE(busy.read_line(&reply));
}

TEST(ServerFaults, CacheOomIsAbsorbedAndCounted) {
  FaultGuard fg("cache_oom*");
  ServerFixture f;
  const TaskGraph g = random_graph(61);
  // Both requests compute fine; neither lands in the cache.
  for (int i = 0; i < 2; ++i) {
    const JsonValue r = f.ask(schedule_request(g, "MCP"));
    ASSERT_EQ(r.get_string("status", ""), "ok");
    EXPECT_FALSE(r.get_bool("cached", true));
  }
  const JsonValue s = f.ask(R"({"op":"stats"})");
  EXPECT_EQ(s.get_number("cache_insert_failures", 0), 2.0);
  EXPECT_EQ(s.get_number("cache_size", 99), 0.0);
}

TEST(ServerFaults, RetryAttemptsAreObservedInStats) {
  FaultGuard fg;
  ServerFixture f;
  const TaskGraph g = random_graph(67);
  f.ask(schedule_request(g, "MCP"));
  f.ask(schedule_request(g, "MCP", "\"retry\":1"));
  f.ask(schedule_request(g, "MCP", "\"retry\":2"));
  const JsonValue s = f.ask(R"({"op":"stats"})");
  EXPECT_EQ(s.get_number("retries_observed", 0), 2.0);
}

TEST(ServerFaults, ProtocolRejectsBadRobustnessFields) {
  FaultGuard fg;
  ServerFixture f;
  const auto code_of = [&](const std::string& extra) {
    return f.ask(schedule_request(random_graph(1, 9), "MCP", extra))
        .get_string("code", "");
  };
  EXPECT_EQ(code_of("\"deadline_ms\":-5"), "bad_request");
  EXPECT_EQ(code_of("\"deadline_ms\":1.5"), "bad_request");
  EXPECT_EQ(code_of("\"priority\":\"urgent\""), "bad_request");
  EXPECT_EQ(code_of("\"retry\":-1"), "bad_request");
}

// ------------------------------------------------ persistence end-to-end --

TEST(ServerFaults, CacheSurvivesRestartByteIdentically) {
  FaultGuard fg;
  const std::string journal = unique_tmp("serve_journal", ".tgsj");
  FileJanitor jan{journal};
  const TaskGraph g = random_graph(71);
  const TaskGraph g2 = random_graph(72, 40);

  std::string first_text;
  {
    ServeOptions opt;
    opt.journal_path = journal;
    ServerFixture f(opt);
    const JsonValue r = f.ask(schedule_request(g, "MCP"));
    ASSERT_EQ(r.get_string("status", ""), "ok");
    first_text = r.get_string("schedule", "");
    ASSERT_EQ(f.ask(schedule_request(g2, "MH", "\"topology\":\"ring4\""))
                  .get_string("status", ""),
              "ok");
  }  // daemon gone; only the journal file remains

  ServeOptions opt;
  opt.journal_path = journal;
  ServerFixture f(opt);
  const JsonValue r = f.ask(schedule_request(g, "MCP"));
  ASSERT_EQ(r.get_string("status", ""), "ok");
  EXPECT_TRUE(r.get_bool("cached", false));  // never recomputed
  EXPECT_EQ(r.get_string("schedule", ""), first_text);

  const JsonValue apn = f.ask(schedule_request(g2, "MH", "\"topology\":\"ring4\""));
  EXPECT_TRUE(apn.get_bool("cached", false));
  EXPECT_GT(apn.get_number("messages", 0), 0.0);  // APN fields persisted too

  const JsonValue s = f.ask(R"({"op":"stats"})");
  const JsonValue* j = s.find("journal");
  ASSERT_NE(j, nullptr);
  EXPECT_TRUE(j->get_bool("enabled", false));
  EXPECT_EQ(j->get_number("replayed", 0), 2.0);
  EXPECT_FALSE(j->get_bool("tail_truncated", true));
}

TEST(ServerFaults, TornJournalRecoversPrefixAndRecomputesTheRest) {
  const std::string journal = unique_tmp("serve_journal", ".tgsj");
  FileJanitor jan{journal};
  const TaskGraph a = random_graph(81), b = random_graph(82),
                  c = random_graph(83);
  std::string text_a;
  {
    // The third journal append dies mid-record (a simulated power cut).
    // All three clients still got their responses.
    FaultGuard fg("journal_torn@2");
    ServeOptions opt;
    opt.journal_path = journal;
    ServerFixture f(opt);
    const JsonValue ra = f.ask(schedule_request(a, "MCP"));
    ASSERT_EQ(ra.get_string("status", ""), "ok");
    text_a = ra.get_string("schedule", "");
    ASSERT_EQ(f.ask(schedule_request(b, "MCP")).get_string("status", ""),
              "ok");
    ASSERT_EQ(f.ask(schedule_request(c, "MCP")).get_string("status", ""),
              "ok");
  }

  FaultGuard fg;  // restart cleanly
  ServeOptions opt;
  opt.journal_path = journal;
  ServerFixture f(opt);
  const JsonValue s = f.ask(R"({"op":"stats"})");
  const JsonValue* j = s.find("journal");
  ASSERT_NE(j, nullptr);
  EXPECT_EQ(j->get_number("replayed", 0), 2.0);
  EXPECT_TRUE(j->get_bool("tail_truncated", false));
  EXPECT_GT(j->get_number("truncated_bytes", 0), 0.0);

  // a, b replay byte-identically; c was lost with the torn record and is
  // simply recomputed -- determinism makes the loss invisible.
  const JsonValue ra = f.ask(schedule_request(a, "MCP"));
  EXPECT_TRUE(ra.get_bool("cached", false));
  EXPECT_EQ(ra.get_string("schedule", ""), text_a);
  const JsonValue rc = f.ask(schedule_request(c, "MCP"));
  EXPECT_EQ(rc.get_string("status", ""), "ok");
  EXPECT_FALSE(rc.get_bool("cached", true));
}

TEST(ServerFaults, JournalCompactionKeepsRestartWorking) {
  FaultGuard fg;
  const std::string journal = unique_tmp("serve_journal", ".tgsj");
  FileJanitor jan{journal};
  const TaskGraph g = random_graph(91);
  {
    ServeOptions opt;
    opt.journal_path = journal;
    opt.journal_compact_every = 1;  // compact after every append
    ServerFixture f(opt);
    for (const char* algo : {"MCP", "ETF", "DLS"})
      ASSERT_EQ(f.ask(schedule_request(g, algo)).get_string("status", ""),
                "ok");
    EXPECT_GE(f.server->journal().compactions(), 3u);
  }
  ServeOptions opt;
  opt.journal_path = journal;
  ServerFixture f(opt);
  EXPECT_EQ(f.ask(R"({"op":"stats"})")
                .find("journal")
                ->get_number("replayed", 0),
            3.0);
  for (const char* algo : {"MCP", "ETF", "DLS"})
    EXPECT_TRUE(f.ask(schedule_request(g, algo)).get_bool("cached", false))
        << algo;
}

}  // namespace
}  // namespace tgs
