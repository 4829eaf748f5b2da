// subscale_perfbench: runs one benchmark workload and prints, as the last
// line of standard output, one JSON object
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// holding the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1). Every run is also appended to the perf history under
// .bench_build/perfdb through perfdb::PerfDb, where tools/obs_trend reads it.
//
//   subscale_perfbench --workload paper_figures|tcad_crosscheck|query_stream
//                      --seed N --seconds S --trace 0|1
//
// Run from the repository root (the paper_figures gate reads
// tests/golden). Exits 1 when a correctness gate fails, 2 on bad usage.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <exception>
#include <set>
#include <string>

#include "bench.h"
#include "io/writer.h"
#include "perfdb/record.h"
#include "perfdb/store.h"

namespace perfbench {
namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

// Every end-to-end metric, reported by every workload (--trace 0).
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},         {"peak_rss_mb", "MB"}, {"wall_s", "s"},
    {"goodput_per_s", "1/s"}, {"ok_frac", "ratio"},
};

// Every per-layer metric (--trace 1). A workload that does no work in a
// layer reports that layer's metrics as 0: the prediction is no change.
constexpr MetricDef kPerLayer[] = {
    {"scaling.super_design_ms", "ms"},
    {"scaling.sub_design_ms", "ms"},
    {"compact.models_built", "count"},
    {"compact.direct_ms", "ms"},
    {"circuits.noise_margins.calls", "count"},
    {"circuits.noise_margins.ms", "ms"},
    {"circuits.fo1_delay.calls", "count"},
    {"circuits.fo1_delay.ms", "ms"},
    {"circuits.find_vmin.calls", "count"},
    {"circuits.find_vmin.ms", "ms"},
    {"circuits.share_pct", "%"},
    {"tcad.node_ms", "ms"},
    {"tcad.equilibrium_ms", "ms"},
    {"tcad.sweep_point_ms", "ms"},
    {"tcad.on_point_ms", "ms"},
    {"tcad.gummel.outer_iterations", "count"},
    {"tcad.poisson.newton_iterations", "count"},
    {"tcad.continuity.solves", "count"},
    {"tcad.gummel.retries", "count"},
    {"tcad.gummel.failed_solves", "count"},
    {"tcad.meshcont.levels", "count"},
    {"tcad.sweep.points_attempted", "count"},
    {"tcad.sweep.points_converged", "count"},
    {"core.study.node_errors", "count"},
    {"tcad.iters_per_converged_point", "ratio"},
    {"tcad.gummel.poisson.self_ms", "ms"},
    {"tcad.gummel.continuity.self_ms", "ms"},
    {"tcad.gummel.equilibrium.ms", "ms"},
    {"tcad.meshcont.coarse_solve.ms", "ms"},
    {"linalg.banded_lu.calls", "count"},
    {"linalg.banded_lu.self_ms", "ms"},
    {"linalg.banded_lu.share_pct", "%"},
    {"linalg.banded_lu.poisson.calls", "count"},
    {"linalg.banded_lu.poisson.self_ms", "ms"},
    {"linalg.banded_lu.poisson.share_pct", "%"},
    {"linalg.banded_lu.continuity.calls", "count"},
    {"linalg.banded_lu.continuity.self_ms", "ms"},
    {"linalg.banded_lu.continuity.share_pct", "%"},
    {"linalg.banded_lu.computed_gflop", "Gflop"},
    {"linalg.banded_lu.gflops", "Gflop/s"},
    {"exec.pool.utilization_pct", "%"},
    {"exec.pool.tasks_run", "count"},
    {"exec.pool.queue_depth_max", "count"},
    {"exec.parallel_efficiency", "ratio"},
    {"cache.hit", "count"},
    {"cache.miss", "count"},
    {"cache.store", "count"},
    {"cache.hit_ratio", "ratio"},
    {"cache.lookup.ms", "ms"},
    {"cache.publish.ms", "ms"},
    {"serve.executed", "count"},
    {"serve.coalesced", "count"},
    {"serve.throttled", "count"},
    {"serve.rejected", "count"},
    {"serve.errors", "count"},
    {"serve.queue_depth_max", "count"},
    {"serve.compute_ms", "ms"},
    {"query.p50_ms", "ms"},
    {"query.p95_ms", "ms"},
    {"query.wait_ms", "ms"},
    {"query.gen_lag_p95_ms", "ms"},
    {"query.interactive_p95_ms", "ms"},
    {"query.sweep_p50_ms", "ms"},
    {"obs.trace_overhead_pct", "%"},
    {"obs.profiler.spans_dropped", "count"},
};

int usage(const char* why) {
  std::fprintf(stderr,
               "subscale_perfbench: %s\nusage: subscale_perfbench --workload "
               "paper_figures|tcad_crosscheck|query_stream --seed N "
               "--seconds S --trace 0|1\n",
               why);
  return 2;
}

/// Keeps exactly the metrics of `defs`, in their order; a workload's
/// missing metric becomes 0, an unknown one is a programming error.
template <std::size_t N>
bool normalize(Outcome& out, const MetricDef (&defs)[N]) {
  std::vector<Metric> kept;
  std::set<std::string> known;
  for (const MetricDef& d : defs) {
    known.insert(d.name);
    Metric m{d.name, 0.0, d.unit};
    for (const Metric& have : out.metrics) {
      if (have.name == d.name) m.value = have.value;
    }
    kept.push_back(m);
  }
  for (const Metric& have : out.metrics) {
    if (known.count(have.name) == 0) {
      std::fprintf(stderr, "subscale_perfbench: unlisted metric %s\n",
                   have.name.c_str());
      return false;
    }
  }
  out.metrics = std::move(kept);
  return true;
}

void append_history(const Args& args, const Outcome& out) {
  subscale::perfdb::PerfRecord rec;
  rec.bench = "perfbench_" + args.workload + (args.trace ? "_traced" : "");
  rec.card = "paper_bulk_lstp";
  if (const char* rev = std::getenv("SUBSCALE_GIT_REV"); rev != nullptr) {
    rec.rev = rev;
  }
  rec.ts = static_cast<std::uint64_t>(std::time(nullptr));
  rec.shape_ok = out.correct;
  rec.threads = bench_threads();
  for (const Metric& m : out.metrics) {
    if (m.name == "wall_s") rec.wall_ms = m.value * 1e3;
    rec.metrics.emplace_back(m.name, m.value);
  }
  rec.metrics.emplace_back("seed", static_cast<double>(args.seed));
  rec.metrics.emplace_back("attempted", static_cast<double>(out.attempted));
  rec.metrics.emplace_back("failed", static_cast<double>(out.failed));
  subscale::perfdb::PerfDb db(".bench_build/perfdb");
  if (!db.append(rec)) {
    std::fprintf(stderr, "subscale_perfbench: perfdb append to %s failed\n",
                 db.path_for(rec.bench).c_str());
  }
}

std::string result_line(const Outcome& out) {
  subscale::io::JsonWriter w;
  w.begin_object();
  w.key("correct");
  w.value(out.correct);
  w.key("attempted");
  w.value(out.attempted);
  w.key("failed");
  w.value(out.failed);
  w.key("metrics");
  w.begin_object();
  for (const Metric& m : out.metrics) {
    w.key(m.name);
    w.begin_object();
    w.key("value");
    w.value(m.value);
    w.key("unit");
    w.value(m.unit);
    w.end_object();
  }
  w.end_object();
  w.end_object();
  std::string text = w.str();
  // One line: the driver reads the last line of standard output.
  std::string line;
  for (const char c : text) {
    if (c != '\n') line += c;
  }
  return line;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = end != value.c_str() && *end == '\0';
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      have_seconds = end != value.c_str() && *end == '\0' && args.seconds > 0.0;
    } else if (flag == "--trace") {
      have_trace = value == "0" || value == "1";
      args.trace = value == "1";
    } else {
      return usage(("unknown flag " + flag).c_str());
    }
  }
  if (argc % 2 != 1 || !have_seed || !have_seconds || !have_trace) {
    return usage("--seed, --seconds and --trace are required");
  }

  Outcome out;
  try {
    if (args.workload == "paper_figures") {
      out = run_paper_figures(args);
    } else if (args.workload == "tcad_crosscheck") {
      out = run_tcad_crosscheck(args);
    } else if (args.workload == "query_stream") {
      out = run_query_stream(args);
    } else {
      return usage(("unknown workload " + args.workload).c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "subscale_perfbench: %s failed: %s\n",
                 args.workload.c_str(), e.what());
    return 1;
  }
  const bool listed = args.trace ? normalize(out, kPerLayer)
                                 : normalize(out, kEndToEnd);
  if (!listed) return 1;
  for (Metric& m : out.metrics) {
    std::printf("  %-40s %16.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
    out.gate(std::isfinite(m.value), "non-finite metric " + m.name);
    if (!std::isfinite(m.value)) m.value = 0.0;  // keep the line valid JSON
  }
  for (const std::string& why : out.gate_failures) {
    std::printf("GATE FAILED: %s\n", why.c_str());
  }
  std::printf("workload %s seed %llu trace %d: %s, %llu attempted, %llu "
              "failed\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.trace ? 1 : 0,
              out.correct ? "correct" : "INCORRECT",
              static_cast<unsigned long long>(out.attempted),
              static_cast<unsigned long long>(out.failed));
  append_history(args, out);
  std::printf("%s\n", result_line(out).c_str());
  std::fflush(stdout);
  return out.correct ? 0 : 1;
}
