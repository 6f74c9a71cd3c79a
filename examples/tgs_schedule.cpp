// Command-line scheduler: read a .tgs task graph, schedule it with any of
// the 15 algorithms, and emit the schedule (listing, tgssched1 file, Gantt
// or DOT).
//
//   ./examples/tgs_gen --suite=cholesky --dim=10 --out=c.tgs
//   ./examples/tgs_schedule c.tgs --algo=MCP --procs=4 --gantt
//   ./examples/tgs_schedule c.tgs --algo=BSA --topology=hcube3 --out=c.sched
//   Topologies: ring<p> mesh<r>x<c> hcube<d> clique<p> star<p>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <string>

#include "tgs/graph/graph_io.h"
#include "tgs/harness/registry.h"
#include "tgs/net/net_validate.h"
#include "tgs/sched/gantt.h"
#include "tgs/sched/metrics.h"
#include "tgs/sched/schedule_io.h"
#include "tgs/sched/validate.h"
#include "tgs/util/cli.h"

int main(int argc, char** argv) {
  using namespace tgs;
  const Cli cli(argc, argv);
  if (cli.positional().empty()) {
    std::fprintf(stderr, "usage: tgs_schedule <graph.tgs> --algo=NAME "
                         "[--procs=N | --topology=SPEC] [--gantt] [--out=F]\n");
    return 1;
  }
  const TaskGraph g = load_graph(cli.positional()[0]);
  const std::string algo_name = cli.get("algo", "MCP");

  const bool is_apn = cli.has("topology");
  Schedule result(g);
  if (is_apn) {
    const RoutingTable routes{[&cli]() {
      try {
        return Topology::from_spec(cli.get("topology", "hcube3"));
      } catch (const std::invalid_argument& e) {
        std::fprintf(stderr, "%s\n", e.what());
        std::exit(1);
      }
    }()};
    const auto algo = make_apn_scheduler(algo_name);
    NetSchedule ns = algo->run(g, routes);
    const auto v = validate_net_schedule(ns);
    if (!v.ok) {
      std::fprintf(stderr, "INVALID schedule: %s\n", v.error.c_str());
      return 1;
    }
    std::printf("# %s on %s: makespan=%lld NSL=%.3f procs=%d messages=%zu\n",
                algo_name.c_str(), routes.topology().name().c_str(),
                static_cast<long long>(ns.makespan()),
                normalized_schedule_length(g, ns.makespan()),
                ns.tasks().procs_used(), ns.num_messages());
    result = std::move(ns.tasks());
  } else {
    const auto algo = make_scheduler(algo_name);
    SchedOptions opt;
    opt.num_procs = static_cast<int>(cli.get_int("procs", 0));
    Schedule s = algo->run(g, opt);
    const auto v = validate_schedule(s, opt.num_procs);
    if (!v.ok) {
      std::fprintf(stderr, "INVALID schedule: %s\n", v.error.c_str());
      return 1;
    }
    std::printf("# %s: makespan=%lld NSL=%.3f procs=%d\n", algo_name.c_str(),
                static_cast<long long>(s.makespan()),
                normalized_schedule_length(s), s.procs_used());
    result = std::move(s);
  }

  if (cli.has("gantt")) std::printf("%s", gantt_chart(result, 100).c_str());
  if (cli.has("listing")) std::printf("%s", schedule_listing(result).c_str());
  const std::string out = cli.get("out", "");
  if (!out.empty()) {
    save_schedule(out, result);
    std::fprintf(stderr, "wrote %s\n", out.c_str());
  } else if (!cli.has("gantt") && !cli.has("listing")) {
    std::fputs(schedule_to_string(result).c_str(), stdout);
  }
  return 0;
}
