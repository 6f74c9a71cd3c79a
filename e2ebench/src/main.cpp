// tgs_e2e: the end-to-end benchmark program. Normally started through
// e2ebench/run.py, which builds it first:
//
//   tgs_e2e --workload=paper_sweep|giant_list|serve_mix --seed=N
//           --seconds=S --trace=0|1 [--small] [--bounded-dsc]
//           --digest=PATH --serve-bin=PATH --work-dir=DIR
//           [--record-digest=PATH]
//
// Prints a human-readable report on stderr and, as the last line of
// stdout, one JSON object: {"correct", "attempted", "failed", "metrics"}.
// With --trace=0 the metrics are the end-to-end ones, with --trace=1 the
// per-layer ones (a per-layer metric of a layer the workload does not use
// reads 0). --record-digest runs every input pool of a workload and
// writes the makespan digest instead of measuring.
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <map>

#include "common.h"
#include "tgs/util/cli.h"

int main(int argc, char** argv) {
  using namespace e2e;
  Options opt;
  try {
    const tgs::Cli cli(argc, argv);
    opt.workload = cli.get("workload", "");
    opt.seed = static_cast<std::uint64_t>(
        cli.get_int_in("seed", 1, 0, std::int64_t{1} << 62));
    opt.seconds = cli.get_double("seconds", 10);
    opt.trace = cli.get_int_in("trace", 0, 0, 1) == 1;
    opt.small = cli.has("small");
    opt.bounded_dsc = cli.has("bounded-dsc");
    opt.digest_path = cli.get("digest", "");
    opt.record_digest = cli.get("record-digest", "");
    opt.serve_bin = cli.get("serve-bin", "");
    opt.work_dir = cli.get("work-dir", ".bench_build");
    if (!(opt.seconds > 0)) throw std::invalid_argument("--seconds must be > 0");
    std::filesystem::create_directories(opt.work_dir + "/traces");
  } catch (const std::exception& e) {
    std::fprintf(stderr, "tgs_e2e: %s\n", e.what());
    return 2;
  }

  Outcome out;
  try {
    if (opt.workload == "paper_sweep") {
      run_paper_sweep(opt, out);
    } else if (opt.workload == "giant_list") {
      run_giant_list(opt, out);
    } else if (opt.workload == "serve_mix") {
      run_serve_mix(opt, out);
    } else {
      std::fprintf(stderr, "tgs_e2e: unknown --workload '%s' "
                           "(paper_sweep|giant_list|serve_mix)\n",
                   opt.workload.c_str());
      return 2;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "tgs_e2e: %s: %s\n", opt.workload.c_str(), e.what());
    return 1;
  }
  for (const std::string& e : out.errors)
    std::fprintf(stderr, "FAILED: %s\n", e.c_str());
  if (!opt.record_digest.empty()) {
    std::fprintf(stderr, "digest written to %s (%lld schedules)\n",
                 opt.record_digest.c_str(),
                 static_cast<long long>(out.attempted));
    return out.correct ? 0 : 1;
  }
  if (out.attempted < 1) {
    std::fprintf(stderr, "tgs_e2e: no operation was attempted\n");
    return 1;
  }

  // BENCHMARK.json's metric set, in its order. A per-layer metric
  // the workload has no layer for reads 0; a missing end-to-end metric is
  // a benchmark bug.
  std::map<std::string, std::pair<double, std::string>> got(
      out.metrics.begin(), out.metrics.end());
  const std::vector<MetricDef>& defs =
      opt.trace ? per_layer_metrics() : end_to_end_metrics();
  std::string json = "{\"correct\": " + std::string(out.correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(out.attempted) +
                     ", \"failed\": " + std::to_string(out.failed) +
                     ", \"metrics\": {";
  for (std::size_t i = 0; i < defs.size(); ++i) {
    const auto it = got.find(defs[i].name);
    if (it == got.end() && !opt.trace) {
      std::fprintf(stderr, "tgs_e2e: metric %s was not measured\n",
                   defs[i].name);
      return 1;
    }
    double value = it == got.end() ? 0.0 : it->second.first;
    if (!std::isfinite(value)) value = 0.0;
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.10g", value);
    json += std::string(i ? ", " : "") + "\"" + defs[i].name +
            "\": {\"value\": " + buf + ", \"unit\": \"" + defs[i].unit + "\"}";
  }
  json += "}}";

  std::fprintf(stderr, "\n%s seed %llu: %s, %lld attempted, %lld failed "
                       "(failed_share %.6g ratio)\n",
               opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
               out.correct ? "correct" : "NOT CORRECT",
               static_cast<long long>(out.attempted),
               static_cast<long long>(out.failed),
               static_cast<double>(out.failed) / out.attempted);
  for (const MetricDef& d : defs) {
    const auto it = got.find(d.name);
    std::fprintf(stderr, "  %-28s %14.6f %s\n", d.name,
                 it == got.end() ? 0.0 : it->second.first, d.unit);
  }
  std::printf("%s\n", json.c_str());
  return 0;
}
