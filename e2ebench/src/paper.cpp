// paper_sweep: what a reproducer of the paper waits for.
//
// The table6 protocol on a reduced set: one RGNOS graph per v = 50, 100,
// ..., 500 (parallelism 3, CCR cycling through 0.1, 1 and 10) instead of
// table6's five per v, so that three passes fit in one run. Each graph is
// scheduled by the 11 fully-connected algorithms and param:cp/static/insert
// (the list scheduler giant_list measures on 100k nodes) on unbounded
// processors, and by the 4 APN algorithms on hcube3, one SchedWorkspace per
// graph with its attributes prewarmed, single-threaded. Then the table2
// step: the five UNC heuristics and the branch-and-bound reference (fixed
// node budget, one thread, seeded with the best heuristic) on the RGBOS
// suite. The run repeats the set and keeps each operation's fastest CPU
// time (table6 --reps keeps the fastest wall time).
//
// A seed selects one of kPools input pools: RGNOS weights drawn afresh on
// fixed structures (rgnos_variant). The RGBOS suite is the same for every
// pool, because how much of it B&B proves within its budget, and so the
// work, depends on the instances. Every schedule is validated and its
// makespan compared with the digest recorded for the pool.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <optional>

#include "common.h"
#include "tgs/apn/apn_common.h"
#include "tgs/gen/rgbos.h"
#include "tgs/harness/registry.h"
#include "tgs/net/net_validate.h"
#include "tgs/net/routing.h"
#include "tgs/optimal/bb_scheduler.h"
#include "tgs/sched/validate.h"
#include "tgs/unc/cluster_schedule.h"
#include "tgs/unc/clustering.h"
#include "tgs/util/rng.h"

namespace e2e {
namespace {

using tgs::NodeId;
using tgs::TaskGraph;

/// A seed selects one of kPools input pools; the digest covers them all.
constexpr std::uint64_t kPools = 8;
constexpr std::uint64_t kPaperStream = 0x9a9e7;
constexpr std::uint64_t kBbNodes = 100000;
constexpr double kCcrs[] = {0.1, 1.0, 10.0};
constexpr int kRefProcs = 2;  // table2's minimum B&B processor count

struct PaperInput {
  std::vector<PreparedGraph> rgnos;
  std::vector<PreparedGraph> rgbos;
  std::unique_ptr<tgs::RoutingTable> routes;
};

std::string ccr_tag(double ccr) {
  return ccr < 0.5 ? "0.1" : (ccr < 5 ? "1" : "10");
}

PaperInput setup(std::uint64_t pool, bool small) {
  PaperInput in;
  const std::uint64_t base = tgs::derive_seed(kPaperStream, pool);
  const NodeId max_v = small ? 100 : 500;
  for (NodeId v = 50; v <= max_v; v += 50) {
    const double ccr = kCcrs[(v / 50 - 1) % 3];
    TaskGraph g = [&] {
      Span span("gen.graph");
      return rgnos_variant(v, ccr, tgs::derive_seed(kPaperStream, v),
                           pool == 0 ? 0 : tgs::derive_seed(base, v));
    }();
    in.rgnos.push_back(prepare("rgnos-p" + std::to_string(pool) + "-v" +
                                   std::to_string(v) + "-c" + ccr_tag(ccr),
                               std::move(g)));
  }
  const NodeId max_bos = small ? 14 : tgs::kRgbosMaxNodes;
  const std::uint64_t bos_seed = tgs::derive_seed(kPaperStream, 1u << 20);
  for (const double ccr : tgs::kRgbosCcrs)
    for (NodeId v = tgs::kRgbosMinNodes; v <= max_bos; v += tgs::kRgbosStep) {
      TaskGraph g = [&] {
        Span span("gen.graph");
        return tgs::rgbos_graph(ccr, v, bos_seed);
      }();
      in.rgbos.push_back(prepare(
          "rgbos-v" + std::to_string(v) + "-c" + ccr_tag(ccr), std::move(g)));
    }
  Span span("net.routing");
  in.routes =
      std::make_unique<tgs::RoutingTable>(tgs::Topology::hypercube(3));
  return in;
}

enum OpClass { kBnp, kUnc, kApn, kBb };

struct PaperPass : PassStats {
  int proven = 0;
  std::uint64_t bb_nodes = 0;
  double bb_search_s = 0;
  std::vector<OpClass> op_class;
};

PaperPass run_pass(PaperInput& in, const DigestGate& gate, bool probes) {
  PaperPass r;
  const auto unc = tgs::make_unc_schedulers();
  const auto bnp = tgs::make_bnp_schedulers();
  const auto apn = tgs::make_apn_schedulers();
  const tgs::SchedulerPtr param = tgs::make_scheduler("param:cp/static/insert");
  const tgs::SchedOptions unbounded;

  // One scheduling call plus its validation is the unit of op latency on
  // RGNOS; on RGBOS a whole table2 step (heuristics + B&B) is one op.
  const auto timed = [&](OpClass cls, const auto& op) {
    const double t0 = cpu_s();
    auto res = op();
    r.op_ms.push_back((cpu_s() - t0) * 1e3);
    r.op_class.push_back(cls);
    return res;
  };
  const auto sched = [&](PreparedGraph& c, const tgs::Scheduler& algo) {
    return run_checked(
        layer_of(algo), r.alloc,
        [&] { return algo.run(*c.graph, unbounded, *c.ws); },
        [](const tgs::Schedule& s) { return tgs::validate_schedule(s); });
  };
  const auto check = [&](PreparedGraph& c, const std::string& algo,
                         const auto& res) {
    gate(c.id, c.fp, algo, res.schedule.makespan(), res.valid);
  };

  for (PreparedGraph& c : in.rgnos) {
    for (const auto& algo : unc)
      check(c, algo->name(), timed(kUnc, [&] { return sched(c, *algo); }));
    for (const auto& algo : bnp)
      check(c, algo->name(), timed(kBnp, [&] { return sched(c, *algo); }));
    check(c, param->name(), timed(kBnp, [&] { return sched(c, *param); }));
    for (const auto& algo : apn) {
      const auto res = timed(kApn, [&] {
        return run_checked(
            "apn." + algo->name(), r.alloc,
            [&] { return algo->run(*c.graph, *in.routes, *c.ws); },
            [](const tgs::NetSchedule& s) {
              return tgs::validate_net_schedule(s);
            });
      });
      check(c, "APN-" + algo->name(), res);
      if (probes && algo->name() == "BSA") {
        // The unit cost of BSA's migration loop: one rebuild of the final
        // assignment.
        std::vector<tgs::ProcId> assign(c.graph->num_nodes());
        for (NodeId n = 0; n < c.graph->num_nodes(); ++n)
          assign[n] = res.schedule.tasks().proc(n);
        Span span("apn.rebuild");
        tgs::apn_build_with_assignment(*c.graph, *in.routes, assign, true);
      }
    }
    if (probes) {
      // EZ's two steps measured on their own: the edge-zeroing pass, and
      // one evaluation of the assignment it produced (EZ repeats that
      // evaluation once per edge).
      std::vector<tgs::ProcId> assign;
      {
        Span span("unc.ez_clusters");
        assign = tgs::ez_clusters(*c.graph);
      }
      Span span("unc.assignment_makespan");
      tgs::assignment_makespan(*c.graph, assign);
    }
  }

  // table2 step: heuristics, then the reference search seeded with the best.
  for (PreparedGraph& c : in.rgbos) {
    const double t0 = cpu_s();
    int ref_procs = kRefProcs;
    std::optional<tgs::Schedule> best;
    for (const auto& algo : unc) {
      auto res = sched(c, *algo);
      check(c, algo->name(), res);
      ref_procs = std::max(ref_procs, res.schedule.procs_used());
      if (!best || res.schedule.makespan() < best->makespan())
        best.emplace(std::move(res.schedule));
    }
    const double b0 = cpu_s();
    tgs::BBOptions bb;
    bb.num_procs = ref_procs;
    bb.time_limit_seconds = 0.0;
    bb.max_nodes = kBbNodes;
    bb.num_threads = 1;
    bb.initial_upper_bound = best->makespan();
    bb.initial_schedule = *best;
    tgs::BBResult res;
    {
      Span span("optimal.bb");
      res = tgs::branch_and_bound(*c.graph, bb);
    }
    tgs::ValidationResult valid;
    if (!res.schedule) {
      valid = {false, "no schedule returned"};
    } else {
      Span span("sched.validate");
      valid = tgs::validate_schedule(*res.schedule, ref_procs);
    }
    if (valid.ok && res.length > best->makespan())
      valid = {false, "reference " + std::to_string(res.length) +
                          " worse than the best heuristic"};
    const double t1 = cpu_s();
    r.op_ms.push_back((t1 - t0) * 1e3);
    r.op_class.push_back(kBb);
    r.bb_search_s += t1 - b0;
    r.bb_nodes += res.nodes_expanded;
    r.proven += res.proven_optimal ? 1 : 0;
    gate(c.id, c.fp, "BB", res.length, valid);
    gate(c.id, c.fp, "BB-proven", res.proven_optimal ? 1 : 0, valid);
  }
  return r;
}

}  // namespace

void run_paper_sweep(const Options& opt, Outcome& out) {
  // At least four passes: a pass takes 7-10 s on a 2 GHz Xeon, and the
  // fastest of fewer is a weak estimate on a noisy machine.
  const auto r = run_repeated(opt, out, kPools, 4, setup, run_pass);
  if (!r) return;
  if (opt.trace) {
    out.metric("optimal.nodes_expanded",
               static_cast<double>(r->first.bb_nodes), "count");
    out.metric("optimal.nodes_per_s",
               static_cast<double>(r->first.bb_nodes) / r->first.bb_search_s,
               "1/s");
    out.metric("optimal.proven", r->first.proven, "count");
    return;
  }
  double class_s[4] = {0, 0, 0, 0};
  for (std::size_t i = 0; i < r->best.size(); ++i)
    class_s[r->first.op_class[i]] += r->best[i] / 1e3;
  std::fprintf(stderr,
               "paper_sweep: pool %llu, %zu RGNOS + %zu RGBOS graphs, %zu "
               "passes of %zu ops, fastest pass of each op kept\n"
               "  paper_bnp_s %.4f s   paper_unc_s %.4f s   paper_apn_s %.4f "
               "s\n  paper_bb_s %.4f s   paper_bb_proven %d count (budget "
               "%llu nodes)\n",
               static_cast<unsigned long long>(r->pool), r->input.rgnos.size(),
               r->input.rgbos.size(), r->pass_s.size(), r->best.size(),
               class_s[kBnp], class_s[kUnc], class_s[kApn], class_s[kBb],
               r->first.proven, static_cast<unsigned long long>(kBbNodes));
}

}  // namespace e2e
