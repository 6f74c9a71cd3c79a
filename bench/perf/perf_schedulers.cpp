// tgs_perf -- google-benchmark suite over the scheduling hot paths. Gated
// behind -DTGS_BUILD_PERF=ON (needs a system libbenchmark).
//
// The *_Naive benchmarks run the retired exhaustive pair-selection loops
// kept in tests/reference_schedulers.h (BM_Ez_Original likewise runs the
// frozen EZ of tests/reference_named.h, BM_Md_Reference and
// BM_Dcp_Reference the full-pass MD and DCP of tests/reference_unc.h,
// BM_Graph_Parse_Reference and
// BM_Request_Ingress_Reference the frozen tgs1 reader and JSON parser of
// tests/reference_graph_io.h), so the
// incremental-vs-naive speedup of one build is measured inside one
// binary; the committed
// BENCH_schedulers.json at the repo root is the baseline CI compares
// against (tools/check_perf_regression.py, >2x real_time fails).
//
// Regenerate the baseline with:
//   ./build/tgs_perf --benchmark_out=BENCH_schedulers.json
//                    --benchmark_out_format=json
#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "reference_graph_io.h"
#include "reference_named.h"
#include "reference_schedulers.h"
#include "reference_timeline.h"
#include "reference_unc.h"
#include "tgs/apn/bsa.h"
#include "tgs/apn/dls_apn.h"
#include "tgs/apn/mh.h"
#include "tgs/bnp/dls.h"
#include "tgs/bnp/etf.h"
#include "tgs/bnp/hlfet.h"
#include "tgs/bnp/ish.h"
#include "tgs/bnp/mcp.h"
#include "tgs/exec/jsonl.h"
#include "tgs/gen/rgbos.h"
#include "tgs/gen/rgnos.h"
#include "tgs/gen/structured.h"
#include "tgs/gen/traced.h"
#include "tgs/graph/attributes.h"
#include "tgs/graph/fingerprint.h"
#include "tgs/graph/graph_io.h"
#include "tgs/list/ready_list.h"
#include "tgs/net/routing.h"
#include "tgs/net/topology.h"
#include "tgs/optimal/bb_scheduler.h"
#include "tgs/sched/timeline.h"
#include "tgs/sched/workspace.h"
#include "tgs/serve/protocol.h"
#include "tgs/unc/dcp.h"
#include "tgs/unc/ez.h"
#include "tgs/unc/md.h"
#include "tgs/util/mem.h"

namespace tgs {
namespace {

TaskGraph bench_graph(NodeId v) {
  RgnosParams p;
  p.num_nodes = v;
  p.ccr = 1.0;
  p.parallelism = 3;
  p.seed = 1998 + v;  // fixed per size: every run benches the same graph
  return rgnos_graph(p);
}

// ------------------------------------------------- pair schedulers -------

void BM_Etf(benchmark::State& state) {
  const TaskGraph g = bench_graph(static_cast<NodeId>(state.range(0)));
  SchedWorkspace ws;
  ws.begin_graph(g);
  for (auto _ : state)
    benchmark::DoNotOptimize(EtfScheduler().run(g, {}, ws).makespan());
}
BENCHMARK(BM_Etf)->Arg(100)->Arg(300)->Arg(500);

void BM_Etf_Naive(benchmark::State& state) {
  const TaskGraph g = bench_graph(static_cast<NodeId>(state.range(0)));
  for (auto _ : state)
    benchmark::DoNotOptimize(reference::naive_etf(g, {}).makespan());
}
BENCHMARK(BM_Etf_Naive)->Arg(100)->Arg(300)->Arg(500);

void BM_Dls(benchmark::State& state) {
  const TaskGraph g = bench_graph(static_cast<NodeId>(state.range(0)));
  SchedWorkspace ws;
  ws.begin_graph(g);
  for (auto _ : state)
    benchmark::DoNotOptimize(DlsScheduler().run(g, {}, ws).makespan());
}
BENCHMARK(BM_Dls)->Arg(100)->Arg(300)->Arg(500);

void BM_Dls_Naive(benchmark::State& state) {
  const TaskGraph g = bench_graph(static_cast<NodeId>(state.range(0)));
  for (auto _ : state)
    benchmark::DoNotOptimize(reference::naive_dls(g, {}).makespan());
}
BENCHMARK(BM_Dls_Naive)->Arg(100)->Arg(300)->Arg(500);

void BM_DlsApn(benchmark::State& state) {
  const TaskGraph g = bench_graph(static_cast<NodeId>(state.range(0)));
  const RoutingTable routes{Topology::hypercube(3)};
  SchedWorkspace ws;
  ws.begin_graph(g);
  for (auto _ : state)
    benchmark::DoNotOptimize(
        DlsApnScheduler().run(g, routes, ws).makespan());
}
BENCHMARK(BM_DlsApn)->Arg(100)->Arg(500);

void BM_DlsApn_Naive(benchmark::State& state) {
  const TaskGraph g = bench_graph(static_cast<NodeId>(state.range(0)));
  const RoutingTable routes{Topology::hypercube(3)};
  for (auto _ : state)
    benchmark::DoNotOptimize(reference::naive_dls_apn(g, routes).makespan());
}
BENCHMARK(BM_DlsApn_Naive)->Arg(100);

// MCP is the fast-BNP yardstick (insertion-based, no pair search); it
// bounds how much of ETF/DLS time is pair selection vs shared machinery.
void BM_Mcp(benchmark::State& state) {
  const TaskGraph g = bench_graph(static_cast<NodeId>(state.range(0)));
  SchedWorkspace ws;
  ws.begin_graph(g);
  for (auto _ : state)
    benchmark::DoNotOptimize(McpScheduler().run(g, {}, ws).makespan());
}
BENCHMARK(BM_Mcp)->Arg(500);

// Workspace amortization: the same ETF run paying a fresh workspace (and
// its attribute recomputation + allocations) on every call.
void BM_Etf_FreshWorkspace(benchmark::State& state) {
  const TaskGraph g = bench_graph(static_cast<NodeId>(state.range(0)));
  for (auto _ : state)
    benchmark::DoNotOptimize(EtfScheduler().run(g, {}).makespan());
}
BENCHMARK(BM_Etf_FreshWorkspace)->Arg(500);

void BM_Mh_Apn(benchmark::State& state) {
  const TaskGraph g = bench_graph(static_cast<NodeId>(state.range(0)));
  const RoutingTable routes{Topology::hypercube(3)};
  SchedWorkspace ws;
  ws.begin_graph(g);
  for (auto _ : state)
    benchmark::DoNotOptimize(MhScheduler().run(g, routes, ws).makespan());
}
BENCHMARK(BM_Mh_Apn)->Arg(100)->Arg(300);

// BSA: every tentative migration copies the schedule's prefix before the
// migrated task's b-level position and replays the suffix
// (NetSchedule::assign_prefix + apn_replay), so one run costs
// O(migrations x mean suffix). Gated against absolute baselines.
void bsa_bench(benchmark::State& state, const TaskGraph& g) {
  const RoutingTable routes{Topology::hypercube(3)};
  SchedWorkspace ws;
  ws.begin_graph(g);
  for (auto _ : state)
    benchmark::DoNotOptimize(BsaScheduler().run(g, routes, ws).makespan());
}

void BM_Bsa_Apn(benchmark::State& state) {
  bsa_bench(state, bench_graph(static_cast<NodeId>(state.range(0))));
}
BENCHMARK(BM_Bsa_Apn)->Arg(100)->Arg(300)->Arg(500);

// CCR 0.1, where BSA accepts most trials and commits the most messages:
// the case that dominates BSA's time in the paper sweep (bench_graph's
// CCR 1 rejects most trials early).
void BM_Bsa_Apn_LowCcr(benchmark::State& state) {
  RgnosParams p;
  p.num_nodes = static_cast<NodeId>(state.range(0));
  p.ccr = 0.1;
  p.parallelism = 3;
  p.seed = 1998 + p.num_nodes;
  bsa_bench(state, rgnos_graph(p));
}
BENCHMARK(BM_Bsa_Apn_LowCcr)->Arg(500);

// EZ: one tentative merge per edge (~17k at v=500), each evaluated by an
// append-only cluster schedule that stops as soon as a static-level bound
// proves the merge worse. BM_Ez_Original runs the frozen pre-bound loop
// of tests/reference_named.h (union-find snapshot, re-densify and a full
// evaluation per edge), so the speedup is measured inside one binary.
void BM_Ez(benchmark::State& state) {
  const TaskGraph g = bench_graph(static_cast<NodeId>(state.range(0)));
  SchedWorkspace ws;
  ws.begin_graph(g);
  for (auto _ : state)
    benchmark::DoNotOptimize(EzScheduler().run(g, {}, ws).makespan());
}
BENCHMARK(BM_Ez)->Arg(100)->Arg(300)->Arg(500);

void BM_Ez_Original(benchmark::State& state) {
  const TaskGraph g = bench_graph(static_cast<NodeId>(state.range(0)));
  for (auto _ : state)
    benchmark::DoNotOptimize(reference::original_ez(g).makespan());
}
BENCHMARK(BM_Ez_Original)->Arg(500);

// MD and DCP: one selection per task over the pinned t-levels of the
// partial schedule, kept current by PinnedLevels (only the placed task's
// changed descendants are re-evaluated). The _Reference rows run the
// frozen full-pass bodies of tests/reference_unc.h, which recompute every
// level with Schedule::pinned_t_levels before each selection.
void BM_Md(benchmark::State& state) {
  const TaskGraph g = bench_graph(static_cast<NodeId>(state.range(0)));
  SchedWorkspace ws;
  ws.begin_graph(g);
  for (auto _ : state)
    benchmark::DoNotOptimize(MdScheduler().run(g, {}, ws).makespan());
}
BENCHMARK(BM_Md)->Arg(500);

void BM_Md_Reference(benchmark::State& state) {
  const TaskGraph g = bench_graph(static_cast<NodeId>(state.range(0)));
  for (auto _ : state)
    benchmark::DoNotOptimize(reference::original_md(g, {}).makespan());
}
BENCHMARK(BM_Md_Reference)->Arg(500);

void BM_Dcp(benchmark::State& state) {
  const TaskGraph g = bench_graph(static_cast<NodeId>(state.range(0)));
  SchedWorkspace ws;
  ws.begin_graph(g);
  for (auto _ : state)
    benchmark::DoNotOptimize(DcpScheduler().run(g, {}, ws).makespan());
}
BENCHMARK(BM_Dcp)->Arg(500);

void BM_Dcp_Reference(benchmark::State& state) {
  const TaskGraph g = bench_graph(static_cast<NodeId>(state.range(0)));
  for (auto _ : state)
    benchmark::DoNotOptimize(reference::original_dcp(g, {}).makespan());
}
BENCHMARK(BM_Dcp_Reference)->Arg(500);

// ------------------------------------------------------- branch and bound --

// One table2 instance (RGBOS CCR 1, v = 24, table2's seed 1998) searched
// single-threaded under a fixed node budget, seeded like table2's
// reference with DCP's schedule. The search is deterministic, so the
// `nodes` counter is the same on every run and real_time / nodes is the
// cost of one node.
void BM_BB_Rgbos(benchmark::State& state) {
  const TaskGraph g = rgbos_graph(1.0, 24, 1998);
  const Schedule dcp = DcpScheduler().run(g, {});
  BBOptions opt;
  opt.num_procs = dcp.procs_used();
  opt.num_threads = 1;
  opt.time_limit_seconds = 0.0;
  opt.max_nodes = static_cast<std::uint64_t>(state.range(0));
  opt.initial_upper_bound = dcp.makespan();
  opt.initial_schedule = dcp;
  std::uint64_t nodes = 0;
  for (auto _ : state) {
    const BBResult r = branch_and_bound(g, opt);
    nodes = r.nodes_expanded;
    benchmark::DoNotOptimize(r.length);
  }
  state.counters["nodes"] = static_cast<double>(nodes);
}
BENCHMARK(BM_BB_Rgbos)->Arg(20000)->Unit(benchmark::kMillisecond);

// ------------------------------------------------------------ giant tier --

// Traced Cholesky at giant dims: Arg is the matrix dimension, v =
// dim(dim+1)/2, so 141 -> ~10k nodes and 446 -> ~100k (the tier's
// acceptance size). Deterministic (seed-free) workload, 64 procs, warm
// workspace with pre-warmed shared attributes -- the same protocol as the
// giant_sweep experiment, so its numbers and these cross-check. Each
// benchmark also reports per-iteration heap traffic (util/mem.h): the
// memory metric regresses loudly here even when wall time hides it behind
// runner noise.
template <typename Sched>
void giant_bench(benchmark::State& state) {
  const TaskGraph g =
      cholesky_graph(static_cast<int>(state.range(0)), 1.0);
  SchedWorkspace ws;
  ws.begin_graph(g);
  ws.attrs().static_levels();
  ws.attrs().alap_times();
  SchedOptions opt;
  opt.num_procs = 64;
  AllocMeter meter;
  for (auto _ : state)
    benchmark::DoNotOptimize(Sched().run(g, opt, ws).makespan());
  state.counters["v"] = static_cast<double>(g.num_nodes());
  state.counters["allocs"] = benchmark::Counter(
      static_cast<double>(meter.count()), benchmark::Counter::kAvgIterations);
  state.counters["alloc_kb"] = benchmark::Counter(
      static_cast<double>(meter.bytes()) / 1024.0,
      benchmark::Counter::kAvgIterations);
}

void BM_Giant_Mcp(benchmark::State& state) { giant_bench<McpScheduler>(state); }
BENCHMARK(BM_Giant_Mcp)->Arg(141)->Arg(446)->Unit(benchmark::kMillisecond);

void BM_Giant_Hlfet(benchmark::State& state) {
  giant_bench<HlfetScheduler>(state);
}
BENCHMARK(BM_Giant_Hlfet)->Arg(141)->Arg(446)->Unit(benchmark::kMillisecond);

void BM_Giant_Ish(benchmark::State& state) { giant_bench<IshScheduler>(state); }
BENCHMARK(BM_Giant_Ish)->Arg(141)->Arg(446)->Unit(benchmark::kMillisecond);

void BM_Giant_Etf(benchmark::State& state) { giant_bench<EtfScheduler>(state); }
BENCHMARK(BM_Giant_Etf)->Arg(141)->Arg(446)->Unit(benchmark::kMillisecond);

// ------------------------------------------------------------ net layer --

// A contended NetSchedule: many messages fanning out of one processor over
// hypercube(3), so several links hold long reservation lists.
NetSchedule contended_net(const TaskGraph& g, const RoutingTable& routes) {
  NetSchedule ns(g, routes);
  ns.tasks().place(0, 0, 0);
  const int p = routes.topology().num_procs();
  for (NodeId w = 1; w < g.num_nodes() - 1; ++w)
    ns.commit_parent_message(w, 0, static_cast<int>(w * 5 % p));
  return ns;
}

// One-to-all routing-tree sweep vs probing every destination separately:
// the sweep touches each of the 7 tree links once; the per-destination
// loop re-walks 12 route hops (the rescore loops of MH / DLS(APN) / BSA
// are exactly this access pattern).
void BM_Net_ProbeArrivalAll(benchmark::State& state) {
  const TaskGraph g = fork_join(400, 10, 9);
  const RoutingTable routes{Topology::hypercube(3)};
  const NetSchedule ns = contended_net(g, routes);
  const int p = routes.topology().num_procs();
  std::vector<Time> out(static_cast<std::size_t>(p));
  for (auto _ : state) {
    Time acc = 0;
    for (int src = 0; src < p; ++src) {
      ns.probe_arrival_all(src, 9, 40 * src, out);
      acc += out[p - 1];
    }
    benchmark::DoNotOptimize(acc);
  }
}
BENCHMARK(BM_Net_ProbeArrivalAll);

void BM_Net_ProbePerDestination(benchmark::State& state) {
  const TaskGraph g = fork_join(400, 10, 9);
  const RoutingTable routes{Topology::hypercube(3)};
  const NetSchedule ns = contended_net(g, routes);
  const int p = routes.topology().num_procs();
  for (auto _ : state) {
    Time acc = 0;
    for (int src = 0; src < p; ++src)
      for (int dst = 0; dst < p; ++dst)
        acc += ns.probe_arrival(src, dst, 9, 40 * src);
    benchmark::DoNotOptimize(acc);
  }
}
BENCHMARK(BM_Net_ProbePerDestination);

// ------------------------------------------------------ data structures --

// Release back-to-front: the owner searched for always sits at the tail,
// so the unhinted variant pays its full linear scan while the hinted one
// binary-searches straight to it.
void BM_Timeline_OccupyRelease(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    Timeline tl;
    for (int i = 0; i < n; ++i) tl.occupy(i, i * 10, 8);
    for (int i = n - 1; i >= 0; --i) tl.release(i, i * 10);  // hinted
    benchmark::DoNotOptimize(tl.size());
  }
}
BENCHMARK(BM_Timeline_OccupyRelease)->Arg(256)->Arg(1024);

void BM_Timeline_ReleaseLinear(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    Timeline tl;
    for (int i = 0; i < n; ++i) tl.occupy(i, i * 10, 8);
    for (int i = n - 1; i >= 0; --i) tl.release(i);  // unhinted O(n) scan
    benchmark::DoNotOptimize(tl.size());
  }
}
BENCHMARK(BM_Timeline_ReleaseLinear)->Arg(256)->Arg(1024);

// n blocks of 8 with idle gaps of 2 between them.
template <typename TL>
void gapped_timeline(TL& tl, int n) {
  for (int i = 0; i < n; ++i) tl.occupy(i, i * 10, 8);
}

void BM_Timeline_InsertionFit(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Timeline tl;
  gapped_timeline(tl, n);
  for (auto _ : state) {
    Time acc = 0;
    for (int i = 0; i < n; ++i)
      acc += tl.earliest_fit(i * 7 % (n * 10), 2, /*insertion=*/true);
    benchmark::DoNotOptimize(acc);
  }
}
BENCHMARK(BM_Timeline_InsertionFit)->Arg(1024)->Arg(4096);

// Insertions into the middle of a link-sized timeline (the APN pattern:
// a message takes an idle slot between earlier reservations), each undone
// by a hinted release so the timeline stays the same.
void BM_Timeline_OccupyMid(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Timeline tl;
  gapped_timeline(tl, n);
  for (auto _ : state) {
    for (int i = 0; i < 64; ++i) {
      const Time at = (i * 613 % n) * 10 + 8;
      tl.occupy(n + i, at, 1 + i % 2);
      tl.release(n + i, at);
    }
    benchmark::DoNotOptimize(tl.size());
  }
}
BENCHMARK(BM_Timeline_OccupyMid)->Arg(1024);

// The contended-link pattern the gap index exists for: a packed timeline
// where the only gap large enough sits near the tail, so the flat scan
// walks almost the whole reservation list per probe while the gap tree
// descends to it. 1k/4k intervals is what APN link timelines hold at
// v=500 (the hot hypercube link holds ~8.7k).
template <typename TL>
void packed_timeline(TL& tl, int n) {
  for (int i = 0; i < n; ++i)
    if (i != (n * 9) / 10) tl.occupy(i, i * 10, 10);  // one idle slot
}

void BM_Timeline_PackedFit_Gap(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Timeline tl;
  packed_timeline(tl, n);
  for (auto _ : state) {
    Time acc = 0;
    for (int i = 0; i < 64; ++i)
      acc += tl.earliest_fit(i * 13 % 1000, 5, /*insertion=*/true);
    benchmark::DoNotOptimize(acc);
  }
}
BENCHMARK(BM_Timeline_PackedFit_Gap)->Arg(1024)->Arg(4096);

void BM_Timeline_PackedFit_Scan(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  reference::FlatTimeline tl;
  packed_timeline(tl, n);
  for (auto _ : state) {
    Time acc = 0;
    for (int i = 0; i < 64; ++i)
      acc += tl.earliest_fit(i * 13 % 1000, 5, /*insertion=*/true);
    benchmark::DoNotOptimize(acc);
  }
}
BENCHMARK(BM_Timeline_PackedFit_Scan)->Arg(1024)->Arg(4096);

// The no-fit pattern (BSA and DLS probing a busy link, B&B fitting a long
// task): every gap between intervals is shorter than the block, so each
// probe from inside the timeline ends after the last interval. The gap
// tree's root answers that in O(1); the flat scan walks to the end.
void BM_Timeline_NoFit_Gap(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Timeline tl;
  gapped_timeline(tl, n);
  for (auto _ : state) {
    Time acc = 0;
    for (int i = 0; i < 64; ++i)
      acc += tl.earliest_fit(i * 613 % (n * 10), 5, /*insertion=*/true);
    benchmark::DoNotOptimize(acc);
  }
}
BENCHMARK(BM_Timeline_NoFit_Gap)->Arg(4096);

void BM_Timeline_NoFit_Scan(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  reference::FlatTimeline tl;
  gapped_timeline(tl, n);
  for (auto _ : state) {
    Time acc = 0;
    for (int i = 0; i < 64; ++i)
      acc += tl.earliest_fit(i * 613 % (n * 10), 5, /*insertion=*/true);
    benchmark::DoNotOptimize(acc);
  }
}
BENCHMARK(BM_Timeline_NoFit_Scan)->Arg(4096);

void BM_ReadyList_Churn(benchmark::State& state) {
  const TaskGraph g = bench_graph(static_cast<NodeId>(state.range(0)));
  for (auto _ : state) {
    ReadyList ready(g);
    std::size_t picked = 0;
    while (!ready.empty()) {
      const NodeId n = ready.ready().front();
      ready.mark_scheduled(n);
      ++picked;
    }
    benchmark::DoNotOptimize(picked);
  }
}
BENCHMARK(BM_ReadyList_Churn)->Arg(500);

void BM_StaticLevels(benchmark::State& state) {
  const TaskGraph g = bench_graph(static_cast<NodeId>(state.range(0)));
  std::vector<Time> buf;
  for (auto _ : state) {
    static_levels_into(g, buf);
    benchmark::DoNotOptimize(buf.data());
  }
}
BENCHMARK(BM_StaticLevels)->Arg(500);

// ------------------------------------------------------- request ingress --

// tgs1 text to TaskGraph, as the daemon parses every request's graph.
// BM_Graph_Parse_Reference runs the frozen getline + strtoll reader and
// sort-based finalize of tests/reference_graph_io.h on the same text.
void BM_Graph_Parse(benchmark::State& state) {
  const std::string text =
      graph_to_string(bench_graph(static_cast<NodeId>(state.range(0))));
  for (auto _ : state)
    benchmark::DoNotOptimize(graph_from_string(text).num_edges());
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(text.size()));
}
BENCHMARK(BM_Graph_Parse)->Arg(100)->Arg(500);

void BM_Graph_Parse_Reference(benchmark::State& state) {
  const std::string text =
      graph_to_string(bench_graph(static_cast<NodeId>(state.range(0))));
  for (auto _ : state)
    benchmark::DoNotOptimize(reference::graph_from_string(text).num_edges);
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(text.size()));
}
BENCHMARK(BM_Graph_Parse_Reference)->Arg(500);

/// One schedule request line carrying the RGNOS graph of size v.
std::string request_line(NodeId v) {
  JsonObject o;
  o.add("id", "r1").add("op", "schedule").add("algo", "MCP");
  o.add_int("procs", 4).add("graph", graph_to_string(bench_graph(v)));
  return o.str();
}

// The daemon's whole ingress for one request: the JSON line to a request,
// its graph text to a TaskGraph, the graph to its cache-key fingerprint.
// BM_Request_Ingress_Reference runs the frozen JSON parser and tgs1
// reader of tests/reference_graph_io.h on the same line.
void BM_Request_Ingress(benchmark::State& state) {
  const std::string line = request_line(static_cast<NodeId>(state.range(0)));
  for (auto _ : state) {
    const ServeRequest req = parse_request(line);
    const TaskGraph g = graph_from_string(req.graph_text);
    benchmark::DoNotOptimize(graph_fingerprint(g).hex());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(line.size()));
}
BENCHMARK(BM_Request_Ingress)->Arg(500);

void BM_Request_Ingress_Reference(benchmark::State& state) {
  const std::string line = request_line(static_cast<NodeId>(state.range(0)));
  for (auto _ : state) {
    const reference::JsonNode doc = reference::json_parse(line);
    benchmark::DoNotOptimize(
        reference::graph_from_string(doc.obj.at("graph").str).num_edges);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(line.size()));
}
BENCHMARK(BM_Request_Ingress_Reference)->Arg(500);

}  // namespace
}  // namespace tgs

BENCHMARK_MAIN();
