// giant_list: the v ~ 100k tier, where list scheduling itself is the work.
//
// Traced Cholesky (dim 446, v = 99681: deep, narrow ready lists) with MCP,
// HLFET, ISH, ETF, DLS and param:cp/static/insert, and traced FFT
// (n = 8192, v = 53248: wide ready lists) with MCP, HLFET, ISH and
// param:cp/static/insert, on 64 processors, single-threaded. ETF and DLS
// are left out on FFT: their linear pair argmin takes tens of seconds
// there (docs/perf.md). The run repeats the set and keeps each operation's
// fastest time. A seed selects one of kPools weight variants of
// the two graphs (pool 0 is the generator's own weights; the others scale
// every node and edge weight by a seeded factor in [0.9, 1.1]).
#include <algorithm>
#include <cmath>
#include <cstdio>

#include "common.h"
#include "tgs/gen/traced.h"
#include "tgs/harness/registry.h"
#include "tgs/sched/validate.h"
#include "tgs/util/rng.h"

namespace e2e {
namespace {

using tgs::TaskGraph;

constexpr std::uint64_t kPools = 8;
constexpr std::uint64_t kGiantStream = 0x61a47;
constexpr int kProcs = 64;

struct GiantCase {
  PreparedGraph prepared;
  std::vector<std::string> algos;
};

TaskGraph jitter(const TaskGraph& g, std::uint64_t seed) {
  tgs::Rng rng(seed);
  const auto scale = [&](tgs::Cost w) {
    return std::max<tgs::Cost>(
        1, static_cast<tgs::Cost>(std::llround(
               static_cast<double>(w) * rng.uniform_real(0.9, 1.1))));
  };
  return reweigh(g, scale, scale);
}

std::vector<GiantCase> setup(std::uint64_t pool, bool small) {
  const std::uint64_t seed = tgs::derive_seed(kGiantStream, pool);
  const auto gen = [&](const auto& make, std::uint64_t stream) {
    Span span("gen.graph");
    TaskGraph g = make();
    return pool == 0 ? g : jitter(g, tgs::derive_seed(seed, stream));
  };
  const std::string tag = "-p" + std::to_string(pool);
  const std::string param = "param:cp/static/insert";
  std::vector<GiantCase> cases;
  // Reduced size keeps the same graphs (so the digest applies) and only
  // the fast algorithms.
  cases.push_back(
      {prepare("cholesky446" + tag,
               gen([] { return tgs::cholesky_graph(446, 1.0); }, 1)),
       small ? std::vector<std::string>{"HLFET"}
             : std::vector<std::string>{"MCP", "HLFET", "ISH", "ETF", "DLS",
                                        param}});
  cases.push_back({prepare("fft8192" + tag,
                           gen([] { return tgs::fft_graph(8192, 1.0); }, 2)),
                   {"MCP", "HLFET", "ISH", param}});
  return cases;
}

PassStats run_pass(std::vector<GiantCase>& cases, const DigestGate& gate,
                   bool) {
  PassStats r;
  tgs::SchedOptions opt;
  opt.num_procs = kProcs;
  for (GiantCase& gc : cases) {
    PreparedGraph& c = gc.prepared;
    for (const std::string& name : gc.algos) {
      const tgs::SchedulerPtr algo = tgs::make_scheduler(name);
      const double t0 = cpu_s();
      const auto res = run_checked(
          layer_of(*algo), r.alloc,
          [&] { return algo->run(*c.graph, opt, *c.ws); },
          [](const tgs::Schedule& s) {
            return tgs::validate_schedule(s, kProcs);
          });
      r.op_ms.push_back((cpu_s() - t0) * 1e3);
      gate(c.id, c.fp, algo->name(), res.schedule.makespan(), res.valid);
    }
  }
  return r;
}

}  // namespace

void run_giant_list(const Options& opt, Outcome& out) {
  const auto r = run_repeated(opt, out, kPools, 2, setup, run_pass);
  if (!r || opt.trace) return;
  const auto& cases = r->input;
  std::fprintf(stderr,
               "giant_list: pool %llu, v = %d + %d, %zu passes of %zu ops, "
               "fastest pass of each op kept\n"
               "  giant_s %.4f s   giant_peak_rss_mb %.3f MB\n"
               "  pass wall times (s):",
               static_cast<unsigned long long>(r->pool),
               cases[0].prepared.graph->num_nodes(),
               cases[1].prepared.graph->num_nodes(), r->pass_s.size(),
               r->best.size(), sum(r->best) / 1e3,
               static_cast<double>(tgs::peak_rss_bytes()) / 1048576.0);
  for (const double t : r->pass_s) std::fprintf(stderr, " %.4f", t);
  std::fprintf(stderr, "\n");
}

}  // namespace e2e
