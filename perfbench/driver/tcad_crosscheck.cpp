// tcad_crosscheck: the paper's MEDICI cross-check. Each pass runs
// ScalingStudy::tcad_validation for both strategies on all four paper
// nodes (default 10-point subthreshold sweep at V_d = 0.25 V, no solve
// cache, the pool at bench_threads()), then one cold on-current corner
// TcadDevice::id_at(V_dd, V_dd) per node that reached equilibrium, solved
// with plain Gummel, a 400-iteration cap and two mesh-continuation levels.
// No node is left out: a node whose equilibrium stalls counts all its
// planned points as failed.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "bench.h"
#include "compact/device_model.h"
#include "core/scaling_study.h"
#include "exec/parallel.h"
#include "obs/names.h"
#include "tcad/device_sim.h"
#include "tcad/device_structure.h"
#include "tcad/extract.h"

namespace perfbench {

namespace {

namespace compact = subscale::compact;
namespace core = subscale::core;
namespace exec = subscale::exec;
namespace tcad = subscale::tcad;

constexpr std::size_t kSweepPoints = 10;     // TcadValidationOptions default
constexpr std::size_t kCornerIterations = 400;
constexpr std::size_t kCornerMeshLevels = 2;
constexpr double kSsTolerance = 0.20;  // TCAD S_S vs compact, usable nodes
constexpr const char* kValidationSpan = "bench:core.tcad_validation";
constexpr const char* kCornersSpan = "bench:tcad.corners";
constexpr const char* kCornerSpan = "bench:tcad.on_point";

/// Mesh sizes of one solved device, for the computed LU flop count.
struct MeshSize {
  double n = 0.0;   ///< unknowns: nx * ny
  double nx = 0.0;  ///< matrix bandwidth
};

/// Nominal flops of one banded LU factor + solve: 2 n b^2 + 4 n b.
double lu_flops(const MeshSize& m) {
  return 2.0 * m.n * m.nx * m.nx + 4.0 * m.n * m.nx;
}

MeshSize mesh_size(const compact::DeviceSpec& spec,
                   const tcad::MeshOptions& options) {
  const tcad::DeviceStructure dev(spec, options);
  return {static_cast<double>(dev.mesh().node_count()),
          static_cast<double>(dev.mesh().nx())};
}

struct Unit {
  core::Strategy strategy = core::Strategy::kSuperVth;
  std::size_t node = 0;
  compact::DeviceSpec spec;
  double compact_ss = 0.0;  ///< compact-model S_S [V/dec]
  MeshSize fine;
  MeshSize coarse;  ///< the finest coarse level (spacings x2)
};

struct Setup {
  std::optional<core::ScalingStudy> study;
  std::vector<Unit> units;  ///< both strategies x every node
  double super_design_ms = 0.0;
  double sub_design_ms = 0.0;
};

void make_setup(Setup& s) {
  core::StudyOptions options;
  options.run.no_cache = true;
  options.run.exec = exec::ExecPolicy{bench_threads()};
  s.study.emplace(compact::paper_calibration(), options);
  const core::ScalingStudy& study = *s.study;
  Clock::time_point t0 = Clock::now();
  const auto& super = study.super_devices();
  s.super_design_ms = ms_since(t0);
  t0 = Clock::now();
  const auto& sub = study.sub_devices();
  s.sub_design_ms = ms_since(t0);
  s.units.clear();
  tcad::MeshOptions coarse;
  coarse.surface_spacing *= 2.0;
  coarse.junction_spacing *= 2.0;
  for (const core::Strategy strategy :
       {core::Strategy::kSuperVth, core::Strategy::kSubVth}) {
    for (std::size_t i = 0; i < study.node_count(); ++i) {
      Unit u;
      u.strategy = strategy;
      u.node = i;
      u.spec = strategy == core::Strategy::kSuperVth ? super[i].spec
                                                     : sub[i].device.spec;
      u.compact_ss =
          compact::make_device_model(u.spec, study.calibration())
              ->subthreshold_swing();
      u.fine = mesh_size(u.spec, {});
      u.coarse = mesh_size(u.spec, coarse);
      s.units.push_back(std::move(u));
    }
  }
}

struct Corner {
  std::size_t unit = 0;
  double id = 0.0;
  double ms = 0.0;
  bool converged = false;
  std::string error;
};

struct PassResult {
  double wall_ms = 0.0;
  std::uint64_t attempted = 0;
  std::uint64_t converged = 0;
  std::vector<double> sweep_point_ms;  ///< every attempted sweep point
  std::vector<Corner> corners;
  std::vector<std::string> misses;
};

PassResult run_pass(const Setup& setup, const exec::ExecPolicy& policy,
                    Rng& rng) {
  const core::ScalingStudy& study = *setup.study;
  std::vector<core::Strategy> order = {core::Strategy::kSuperVth,
                                       core::Strategy::kSubVth};
  if (rng.below(2) == 1) std::swap(order[0], order[1]);

  PassResult r;
  const Clock::time_point t0 = Clock::now();
  const obs::ScopedSpan pass(obs::default_profiler(), kPassSpan);
  std::vector<std::size_t> equilibrated;
  for (const core::Strategy strategy : order) {
    core::TcadValidationOptions options;
    options.strategy = strategy;
    options.points = kSweepPoints;
    options.run.no_cache = true;
    options.run.exec = policy;
    std::vector<core::TcadNodeValidation> nodes;
    {
      const obs::ScopedSpan span(obs::default_profiler(), kValidationSpan);
      nodes = study.tcad_validation(options);
    }
    for (const core::TcadNodeValidation& v : nodes) {
      std::size_t u = 0;
      while (setup.units[u].strategy != strategy ||
             setup.units[u].node != v.node) {
        ++u;
      }
      const std::string where = std::string(core::strategy_name(strategy)) +
                                " node " + std::to_string(v.node);
      r.attempted += kSweepPoints;
      if (!v.error.empty()) continue;  // every planned point failed
      equilibrated.push_back(u);
      for (const tcad::SweepPointRecord& p : v.timings) {
        r.sweep_point_ms.push_back(p.wall_ms);
      }
      r.converged += v.sweep.size();
      for (const tcad::IdVgPoint& p : v.sweep) {
        if (!std::isfinite(p.id) || p.id <= 0.0) {
          r.misses.push_back(where + ": non-positive sweep current");
        }
      }
      if (v.usable()) {
        try {
          // Only S_S is compared: the V_th criterion current is put inside
          // the swept range so a node whose current stays below the
          // default 0.1 uA/um still extracts.
          tcad::ExtractOptions extract;
          extract.vth_current =
              std::sqrt(v.sweep.front().id * v.sweep.back().id);
          const double ss = tcad::extract_from_sweep(v.sweep, extract).ss;
          const double err = std::abs(ss / setup.units[u].compact_ss - 1.0);
          if (!(err <= kSsTolerance)) {
            char buf[120];
            std::snprintf(buf, sizeof buf,
                          ": TCAD S_S %.1f mV/dec vs compact %.1f (%.0f%%)",
                          ss * 1e3, setup.units[u].compact_ss * 1e3,
                          err * 100.0);
            r.misses.push_back(where + buf);
          }
        } catch (const std::exception& e) {
          r.misses.push_back(where + ": S_S extraction failed: " + e.what());
        }
      }
    }
  }

  // Cold on-current corners, one per equilibrated node.
  tcad::GummelOptions gummel;
  gummel.max_iterations = kCornerIterations;
  gummel.mesh_continuation_levels = kCornerMeshLevels;
  {
    const obs::ScopedSpan span(obs::default_profiler(), kCornersSpan);
    const auto results = exec::parallel_map<Corner>(
        equilibrated.size(),
        [&](std::size_t k) {
          const obs::ScopedSpan corner_span(obs::default_profiler(),
                                            kCornerSpan);
          Corner c;
          c.unit = equilibrated[k];
          const compact::DeviceSpec& spec = setup.units[c.unit].spec;
          exec::RunContext ctx;
          ctx.no_cache = true;
          const Clock::time_point c0 = Clock::now();
          try {
            tcad::TcadDevice device(spec, {}, gummel, ctx);
            c.id = device.id_at(spec.vdd, spec.vdd);
            c.converged = true;
          } catch (const std::exception& e) {
            c.error = e.what();
          }
          c.ms = ms_since(c0);
          return c;
        },
        policy);
    for (const auto& res : results) r.corners.push_back(*res.value);
  }
  for (const Corner& c : r.corners) {
    ++r.attempted;
    if (c.converged) ++r.converged;
    if (c.converged && (!std::isfinite(c.id) || c.id <= 0.0)) {
      r.misses.push_back("on-current corner: non-positive current");
    }
  }
  r.wall_ms = ms_since(t0);
  return r;
}

/// Computed nominal flops of every banded LU call of a serial traced
/// pass. Serially the node and corner spans appear on one thread in unit
/// order, which names the mesh each LU call ran on; a call inside a
/// mesh-continuation coarse solve is costed at the finest coarse level.
double computed_lu_flops(const TraceView& trace, const Setup& setup,
                         const std::vector<std::size_t>& unit_order) {
  const auto& spans = trace.snapshot().spans;
  std::vector<std::ptrdiff_t> unit_of(spans.size(), -1);
  std::size_t next = 0;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const std::string_view label = spans[i].label;
    if (label == obs::names::spans::kStudyNode || label == kCornerSpan) {
      if (next < unit_order.size()) {
        unit_of[i] = static_cast<std::ptrdiff_t>(unit_order[next]);
      }
      ++next;
    }
  }
  double flops = 0.0;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (std::string_view(spans[i].label) != obs::names::spans::kBandedLuSolve) {
      continue;
    }
    std::ptrdiff_t owner = trace.ancestor(i, obs::names::spans::kStudyNode);
    if (owner < 0) owner = trace.ancestor(i, kCornerSpan);
    if (owner < 0 || unit_of[owner] < 0) continue;
    const Unit& u = setup.units[unit_of[owner]];
    const bool coarse =
        trace.ancestor(i, obs::names::spans::kMeshContCoarse) >= 0;
    flops += lu_flops(coarse ? u.coarse : u.fine);
  }
  return flops;
}

}  // namespace

Outcome run_tcad_crosscheck(const Args& args) {
  Outcome out;
  // Set-up: the study and both roadmap designs every TCAD node needs,
  // timed three times up front and once more before every pass, and
  // reported as the median.
  std::vector<double> setup_s;
  Setup setup;
  std::vector<double> super_ms, sub_ms;
  const auto timed_setup = [&] {
    const Clock::time_point t0 = Clock::now();
    make_setup(setup);
    setup_s.push_back(ms_since(t0) * 1e-3);
    super_ms.push_back(setup.super_design_ms);
    sub_ms.push_back(setup.sub_design_ms);
  };
  for (int k = 0; k < 3; ++k) timed_setup();

  Rng rng(args.seed);
  const exec::ExecPolicy pooled{bench_threads()};
  std::uint64_t attempted = 0, converged = 0;
  std::vector<std::string> misses;
  const auto account = [&](const PassResult& r) {
    attempted += r.attempted;
    converged += r.converged;
    if (misses.empty()) misses = r.misses;
  };

  if (!args.trace) {
    std::vector<double> pass_ms;
    double wall_total = 0.0;
    const Clock::time_point start = Clock::now();
    do {
      timed_setup();
      const PassResult r = run_pass(setup, pooled, rng);
      account(r);
      pass_ms.push_back(r.wall_ms);
      wall_total += r.wall_ms;
    } while (ms_since(start) < args.seconds * 1e3);
    out.add("setup_s", median(setup_s), "s");
    out.add("peak_rss_mb", peak_rss_mb(), "MB");
    out.add("wall_s", median(pass_ms) * 1e-3, "s");
    out.add("goodput_per_s",
            static_cast<double>(converged) / (wall_total * 1e-3), "1/s");
    out.add("ok_frac",
            static_cast<double>(converged) / static_cast<double>(attempted),
            "ratio");
    std::printf("tcad_crosscheck: pass ms");
    for (const double ms : pass_ms) std::printf(" %.0f", ms);
    std::printf("; median %.1f ms, %llu/%llu points converged\n",
                median(pass_ms),
                static_cast<unsigned long long>(converged),
                static_cast<unsigned long long>(attempted));
  } else {
    // Untraced pooled pass (overhead reference), traced pooled pass (the
    // per-layer numbers), traced serial pass (parallel efficiency and the
    // per-mesh LU flop count).
    const PassResult plain = run_pass(setup, pooled, rng);
    account(plain);
    PassResult traced;
    std::optional<TraceView> trace;
    obs::MetricsSnapshot snap;
    {
      TracedPhase phase;
      traced = run_pass(setup, pooled, rng);
      trace.emplace(phase.profiler().snapshot());
      snap = phase.registry().snapshot();
    }
    account(traced);
    PassResult serial;
    std::optional<TraceView> serial_trace;
    std::vector<std::size_t> unit_order;
    {
      TracedPhase phase;
      const bool swapped = Rng(rng).below(2) == 1;  // run_pass's draw
      serial = run_pass(setup, exec::ExecPolicy::serial(), rng);
      serial_trace.emplace(phase.profiler().snapshot());
      for (const core::Strategy s :
           {swapped ? core::Strategy::kSubVth : core::Strategy::kSuperVth,
            swapped ? core::Strategy::kSuperVth : core::Strategy::kSubVth}) {
        for (std::size_t u = 0; u < setup.units.size(); ++u) {
          if (setup.units[u].strategy == s) unit_order.push_back(u);
        }
      }
      for (const Corner& c : serial.corners) unit_order.push_back(c.unit);
    }
    account(serial);

    const std::vector<std::string_view> waits = {kValidationSpan, kCornersSpan};
    std::printf("\n== tcad_crosscheck per-layer table (traced pooled pass) "
                "==\n%s\n%s",
                trace->layer_table(waits).c_str(),
                trace->snapshot().rollup_table().c_str());

    const double busy = trace->busy_ms(waits);
    const double lu_self = trace->self_ms(obs::names::spans::kBandedLuSolve);
    const double gflop =
        computed_lu_flops(*serial_trace, setup, unit_order) * 1e-9;
    const auto* node_hist = histogram(snap, obs::names::kStudyNodeMs);
    double point_sum = 0.0;
    for (const double ms : traced.sweep_point_ms) point_sum += ms;
    double corner_sum = 0.0;
    std::size_t corners_ok = 0;
    for (const Corner& c : traced.corners) {
      corner_sum += c.ms;
      corners_ok += c.converged;
    }
    const double node_ms_sum = node_hist != nullptr ? node_hist->sum : 0.0;
    const double node_count =
        node_hist != nullptr ? static_cast<double>(node_hist->count) : 0.0;

    out.add("scaling.super_design_ms", median(super_ms), "ms");
    out.add("scaling.sub_design_ms", median(sub_ms), "ms");
    out.add("compact.models_built",
            counter(snap, obs::names::kCardsBackendDispatches), "count");
    out.add("tcad.node_ms", node_count > 0 ? node_ms_sum / node_count : 0.0,
            "ms");
    out.add("tcad.equilibrium_ms",
            node_count > 0 ? (node_ms_sum - point_sum) / node_count : 0.0,
            "ms");
    out.add("tcad.sweep_point_ms", median(traced.sweep_point_ms), "ms");
    out.add("tcad.on_point_ms",
            traced.corners.empty()
                ? 0.0
                : corner_sum / static_cast<double>(traced.corners.size()),
            "ms");
    add_solver_metrics(
        out, *trace, busy, [&](const char* name) { return counter(snap, name); },
        static_cast<double>(corners_ok));
    out.add("linalg.banded_lu.computed_gflop", gflop, "Gflop");
    out.add("linalg.banded_lu.gflops", gflop / (lu_self * 1e-3), "Gflop/s");
    out.add("exec.pool.utilization_pct",
            snap.gauge(obs::names::kPoolUtilizationPct), "%");
    out.add("exec.pool.queue_depth_max",
            snap.gauge(obs::names::kPoolQueueDepthMax), "count");
    out.add("exec.parallel_efficiency",
            serial.wall_ms / (static_cast<double>(pooled.resolved_threads()) *
                              traced.wall_ms),
            "ratio");
    out.add("obs.trace_overhead_pct",
            100.0 * (traced.wall_ms / plain.wall_ms - 1.0), "%");
    const std::uint64_t dropped =
        std::max(trace->dropped(), serial_trace->dropped());
    out.add("obs.profiler.spans_dropped", static_cast<double>(dropped),
            "count");
    out.gate(dropped == 0, "profiler dropped spans");
    std::printf("passes: untraced %.0f ms, traced %.0f ms, traced serial "
                "%.0f ms\n",
                plain.wall_ms, traced.wall_ms, serial.wall_ms);
  }

  out.attempted = attempted;
  out.failed = attempted - converged;
  for (std::size_t i = 0; i < misses.size() && i < 20; ++i) {
    out.gate(false, misses[i]);
  }
  return out;
}

}  // namespace perfbench
