#include "bench.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <thread>

#include "obs/names.h"

namespace perfbench {

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(values.size()));
  const std::size_t idx =
      rank <= 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return values[std::min(idx, values.size() - 1)];
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::size_t bench_threads() {
  const std::size_t hw = std::thread::hardware_concurrency();
  return std::clamp<std::size_t>(hw, 1, 4);
}

std::uint64_t Rng::next() {
  std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

double Rng::uniform() {
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

std::size_t Rng::below(std::size_t n) {
  return static_cast<std::size_t>(uniform() * static_cast<double>(n));
}

// Spans recorded per thread before the profiler starts dropping them; a
// traced TCAD pass records a few tens of thousands per worker.
constexpr std::size_t kSpanCapacity = std::size_t{1} << 18;

TracedPhase::TracedPhase() : profiler_(kSpanCapacity) {
  obs::names::preregister_standard(registry_);
  obs::set_default_registry(&registry_);
  obs::set_default_profiler(&profiler_);
}

TracedPhase::~TracedPhase() {
  obs::set_default_profiler(nullptr);
  obs::set_default_registry(nullptr);
}

std::string layer_of(std::string_view label) {
  constexpr std::string_view kBench = "bench:";
  if (label.substr(0, kBench.size()) == kBench) {
    label.remove_prefix(kBench.size());
  }
  return std::string(label.substr(0, label.find('.')));
}

TraceView::TraceView(obs::ProfileSnapshot snapshot)
    : snap_(std::move(snapshot)),
      self_(snap_.spans.size()),
      parent_(snap_.spans.size(), -1) {
  std::map<std::pair<std::uint32_t, std::uint64_t>, std::size_t> index;
  for (std::size_t i = 0; i < snap_.spans.size(); ++i) {
    index.emplace(std::make_pair(snap_.spans[i].tid, snap_.spans[i].seq), i);
    self_[i] = snap_.spans[i].duration_ms();
  }
  for (std::size_t i = 0; i < snap_.spans.size(); ++i) {
    const obs::ProfileSpan& s = snap_.spans[i];
    if (s.parent == 0) continue;
    const auto it = index.find(std::make_pair(s.tid, s.parent));
    if (it == index.end()) continue;
    parent_[i] = static_cast<std::ptrdiff_t>(it->second);
    self_[it->second] -= s.duration_ms();
  }
}

std::uint64_t TraceView::count(std::string_view label) const {
  std::uint64_t n = 0;
  for (const obs::ProfileSpan& s : snap_.spans) n += label == s.label;
  return n;
}

double TraceView::self_ms(std::string_view label) const {
  double ms = 0.0;
  for (std::size_t i = 0; i < snap_.spans.size(); ++i) {
    if (label == snap_.spans[i].label) ms += self_[i];
  }
  return ms;
}

double TraceView::total_ms(std::string_view label) const {
  double ms = 0.0;
  for (const obs::ProfileSpan& s : snap_.spans) {
    if (label == s.label) ms += s.duration_ms();
  }
  return ms;
}

std::ptrdiff_t TraceView::ancestor(std::size_t i,
                                   std::string_view label) const {
  for (std::ptrdiff_t p = parent_[i]; p >= 0; p = parent_[p]) {
    if (label == snap_.spans[p].label) return p;
  }
  return -1;
}

std::map<std::string, std::pair<double, std::uint64_t>>
TraceView::split_by_ancestor(std::string_view label,
                             const std::vector<std::string_view>& parents)
    const {
  std::map<std::string, std::pair<double, std::uint64_t>> out;
  for (std::size_t i = 0; i < snap_.spans.size(); ++i) {
    if (label != snap_.spans[i].label) continue;
    std::string key;
    for (std::ptrdiff_t p = parent_[i]; p >= 0 && key.empty();
         p = parent_[p]) {
      for (const std::string_view want : parents) {
        if (want == snap_.spans[p].label) key = want;
      }
    }
    auto& [ms, n] = out[key];
    ms += self_[i];
    ++n;
  }
  return out;
}

namespace {

bool in(std::string_view label, const std::vector<std::string_view>& set) {
  return std::find(set.begin(), set.end(), label) != set.end();
}

/// Thread ordinal of the "bench:pass" spans (the thread driving passes).
std::uint32_t main_tid(const obs::ProfileSnapshot& snap) {
  for (const obs::ProfileSpan& s : snap.spans) {
    if (std::string_view(s.label) == kPassSpan) return s.tid;
  }
  return 0;
}

}  // namespace

double TraceView::busy_ms(const std::vector<std::string_view>& wait_labels)
    const {
  const std::uint32_t main = main_tid(snap_);
  double ms = 0.0;
  for (std::size_t i = 0; i < snap_.spans.size(); ++i) {
    const obs::ProfileSpan& s = snap_.spans[i];
    if (s.tid == main && in(s.label, wait_labels)) continue;
    ms += self_[i];
  }
  return ms;
}

std::string TraceView::layer_table(
    const std::vector<std::string_view>& wait_labels,
    const std::string& task_layer) const {
  const std::uint32_t main = main_tid(snap_);
  constexpr const char* kWait = "(main thread waiting on pool)";
  // A pool task's own time belongs to the layer whose call fanned it out:
  // the task's enclosing span on its thread, else the main-thread wait
  // span open when it started, else `task_layer`.
  std::vector<std::size_t> waits;
  for (std::size_t i = 0; i < snap_.spans.size(); ++i) {
    const obs::ProfileSpan& s = snap_.spans[i];
    if (s.tid == main && in(s.label, wait_labels)) waits.push_back(i);
  }
  const auto layer_for = [&](std::size_t i) {
    const obs::ProfileSpan& s = snap_.spans[i];
    if (std::string_view(s.label) != obs::names::spans::kTask) {
      return layer_of(s.label);
    }
    for (std::ptrdiff_t p = parent_[i]; p >= 0; p = parent_[p]) {
      if (std::string_view(snap_.spans[p].label) != obs::names::spans::kTask) {
        return layer_of(snap_.spans[p].label);
      }
    }
    for (const std::size_t w : waits) {
      const obs::ProfileSpan& ws = snap_.spans[w];
      if (ws.t0_ns <= s.t0_ns && s.t0_ns <= ws.t1_ns) return layer_of(ws.label);
    }
    return task_layer;
  };
  std::map<std::string, std::pair<double, double>> rows;  // wall, busy
  double wall = 0.0;
  double busy = 0.0;
  for (std::size_t i = 0; i < snap_.spans.size(); ++i) {
    const obs::ProfileSpan& s = snap_.spans[i];
    const bool waiting = s.tid == main && in(s.label, wait_labels);
    const std::string layer = waiting ? kWait : layer_for(i);
    if (s.tid == main) {
      rows[layer].first += self_[i];
      wall += self_[i];
    }
    if (!waiting) {
      rows[layer].second += self_[i];
      busy += self_[i];
    }
  }
  std::vector<std::pair<std::string, std::pair<double, double>>> sorted(
      rows.begin(), rows.end());
  std::sort(sorted.begin(), sorted.end(), [](const auto& a, const auto& b) {
    return a.second.first + a.second.second >
           b.second.first + b.second.second;
  });
  std::string out;
  char line[200];
  std::snprintf(line, sizeof line, "%-32s %12s %8s %12s %8s\n", "layer",
                "wall ms", "% wall", "busy ms", "% busy");
  out += line;
  out.append(76, '-');
  out += '\n';
  for (const auto& [layer, ms] : sorted) {
    std::snprintf(line, sizeof line, "%-32s %12.1f %7.1f%% %12.1f %7.1f%%\n",
                  layer.c_str(), ms.first,
                  wall > 0.0 ? 100.0 * ms.first / wall : 0.0, ms.second,
                  busy > 0.0 ? 100.0 * ms.second / busy : 0.0);
    out += line;
  }
  std::snprintf(line, sizeof line, "%-32s %12.1f %7.1f%% %12.1f %7.1f%%\n",
                "total", wall, 100.0, busy, 100.0);
  out += line;
  std::snprintf(line, sizeof line,
                "wall: main-thread self time under the pass spans; busy: "
                "self time on every thread, pool waits excluded, a pool "
                "task's own time under the layer that fanned it out; %llu "
                "span(s) dropped\n",
                static_cast<unsigned long long>(snap_.dropped));
  out += line;
  return out;
}

void add_solver_metrics(Outcome& out, const TraceView& trace, double busy_ms,
                        const std::function<double(const char*)>& count,
                        double extra_converged) {
  namespace names = obs::names;
  for (const char* name :
       {names::kGummelOuterIterations, names::kPoissonNewtonIterations,
        names::kContinuitySolves, names::kGummelRetries,
        names::kGummelFailedSolves, names::kMeshContLevels,
        names::kSweepPointsAttempted, names::kSweepPointsConverged,
        names::kStudyNodeErrors, names::kPoolTasksRun}) {
    out.add(name, count(name), "count");
  }
  out.add("tcad.iters_per_converged_point",
          count(names::kGummelOuterIterations) /
              std::max(1.0, count(names::kSweepPointsConverged) +
                                extra_converged),
          "ratio");
  out.add("tcad.gummel.poisson.self_ms",
          trace.self_ms(names::spans::kGummelPoisson), "ms");
  out.add("tcad.gummel.continuity.self_ms",
          trace.self_ms(names::spans::kGummelContinuity), "ms");
  out.add("tcad.gummel.equilibrium.ms",
          trace.total_ms(names::spans::kGummelEquilibrium), "ms");
  out.add("tcad.meshcont.coarse_solve.ms",
          trace.total_ms(names::spans::kMeshContCoarse), "ms");
  const auto share = [&](double ms) {
    return busy_ms > 0.0 ? 100.0 * ms / busy_ms : 0.0;
  };
  const double lu_ms = trace.self_ms(names::spans::kBandedLuSolve);
  out.add("linalg.banded_lu.calls",
          static_cast<double>(trace.count(names::spans::kBandedLuSolve)),
          "count");
  out.add("linalg.banded_lu.self_ms", lu_ms, "ms");
  out.add("linalg.banded_lu.share_pct", share(lu_ms), "%");
  const auto split = trace.split_by_ancestor(
      names::spans::kBandedLuSolve,
      {names::spans::kGummelPoisson, names::spans::kGummelContinuity});
  for (const auto& [parent, suffix] :
       {std::pair{names::spans::kGummelPoisson, "poisson"},
        std::pair{names::spans::kGummelContinuity, "continuity"}}) {
    const auto it = split.find(parent);
    const double ms = it == split.end() ? 0.0 : it->second.first;
    const double calls =
        it == split.end() ? 0.0 : static_cast<double>(it->second.second);
    const std::string prefix = std::string("linalg.banded_lu.") + suffix;
    out.add(prefix + ".calls", calls, "count");
    out.add(prefix + ".self_ms", ms, "ms");
    out.add(prefix + ".share_pct", share(ms), "%");
  }
}

double counter(const obs::MetricsSnapshot& snap, std::string_view name) {
  return static_cast<double>(snap.counter(name));
}

const obs::MetricsSnapshot::HistogramValue* histogram(
    const obs::MetricsSnapshot& snap, std::string_view name) {
  for (const auto& h : snap.histograms) {
    if (h.name == name) return &h;
  }
  return nullptr;
}

}  // namespace perfbench
