#pragma once

/// \file bench.h
/// Shared plumbing of the subscale benchmark driver: the outcome every
/// workload returns, timing and statistics helpers, the per-layer clocks
/// that time the benchmark's own calls into the library, and the view of
/// a span-profiler snapshot the traced runs read their per-layer numbers
/// from. Nothing here reaches inside the library: every number is either
/// timed around a public call, read from the metrics registry, or read
/// from the spans the library already records.

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "obs/profiler.h"

namespace perfbench {

namespace obs = subscale::obs;

using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

inline double ms_since(Clock::time_point t0) {
  return ms_between(t0, Clock::now());
}

/// Command-line options every workload receives.
struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;  ///< measured time of one run
  bool trace = false;     ///< per-layer run instead of end-to-end run
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one run of one workload produced.
struct Outcome {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> gate_failures;

  void add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  /// A correctness gate: a false `ok` fails the run, with `what` printed.
  void gate(bool ok, const std::string& what) {
    if (!ok) {
      correct = false;
      gate_failures.push_back(what);
    }
  }
};

double median(std::vector<double> values);
/// Nearest-rank percentile, p in [0, 100]; 0 for an empty sample.
double percentile(std::vector<double> values, double p);
/// Peak resident set of this process so far [MB].
double peak_rss_mb();
/// Worker threads the workloads use: the machine's cores, capped at 4 so
/// counts and timings compare across hosts of different sizes.
std::size_t bench_threads();
/// splitmix64: the seeded stream every generated input comes from.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next();
  /// Uniform in [0, 1).
  double uniform();
  /// Uniform integer in [0, n).
  std::size_t below(std::size_t n);

 private:
  std::uint64_t state_;
};

/// Wall time and call count of the benchmark's calls into one layer
/// function. In a traced run each call is also a profiler span labelled
/// "bench:<layer>.<function>", so the self-time table can attribute the
/// pass to layers.
class LayerClock {
 public:
  /// `label` must have static storage ("bench:circuits.noise_margins").
  explicit LayerClock(const char* label) : label_(label) {}

  template <typename F>
  decltype(auto) time(F&& fn) {
    const obs::ScopedSpan span(obs::default_profiler(), label_);
    const Clock::time_point t0 = Clock::now();
    struct Stop {
      LayerClock* clock;
      Clock::time_point t0;
      ~Stop() {
        clock->ms_ += ms_since(t0);
        ++clock->calls_;
      }
    } stop{this, t0};
    return fn();
  }

  const char* label() const { return label_; }
  double ms() const { return ms_; }
  std::uint64_t calls() const { return calls_; }
  void reset() {
    ms_ = 0.0;
    calls_ = 0;
  }

 private:
  const char* label_;
  double ms_ = 0.0;
  std::uint64_t calls_ = 0;
};

/// A process-wide metrics registry and span profiler, installed as the
/// library defaults for the lifetime of the object (the traced phase of
/// a run) and removed again afterwards.
class TracedPhase {
 public:
  TracedPhase();
  ~TracedPhase();
  TracedPhase(const TracedPhase&) = delete;
  TracedPhase& operator=(const TracedPhase&) = delete;

  obs::MetricsRegistry& registry() { return registry_; }
  obs::SpanProfiler& profiler() { return profiler_; }

 private:
  obs::MetricsRegistry registry_;
  obs::SpanProfiler profiler_;
};

/// A profiler snapshot with each span's self time and parent resolved.
/// Layer of a span: its label up to the first '.', after stripping the
/// benchmark's "bench:" prefix.
class TraceView {
 public:
  explicit TraceView(obs::ProfileSnapshot snapshot);

  const obs::ProfileSnapshot& snapshot() const { return snap_; }
  std::uint64_t dropped() const { return snap_.dropped; }
  std::uint64_t count(std::string_view label) const;
  double self_ms(std::string_view label) const;
  double total_ms(std::string_view label) const;
  /// Self time and count of `label` split by the nearest ancestor whose
  /// label is one of `parents` ("" when none is).
  std::map<std::string, std::pair<double, std::uint64_t>> split_by_ancestor(
      std::string_view label, const std::vector<std::string_view>& parents)
      const;
  /// Index of the nearest ancestor of span `i` labelled `label`, or -1.
  std::ptrdiff_t ancestor(std::size_t i, std::string_view label) const;
  /// Self time summed over every thread, excluding the main thread's
  /// self time inside the `wait_labels` spans (blocked on a pool).
  double busy_ms(const std::vector<std::string_view>& wait_labels) const;
  /// The per-layer table: wall time of the main thread (the thread that
  /// owns the "bench:pass" spans) by layer, and busy time of all threads
  /// by layer; the main thread's time blocked inside `wait_labels` spans
  /// is its own row.
  /// A pool task with no such span (one the program's own pool ran) is
  /// charged to `task_layer`.
  std::string layer_table(const std::vector<std::string_view>& wait_labels,
                          const std::string& task_layer = "exec") const;

 private:
  obs::ProfileSnapshot snap_;
  std::vector<double> self_;
  std::vector<std::ptrdiff_t> parent_;
};

/// Layer name of a span label ("bench:circuits.fo1_delay" -> "circuits").
std::string layer_of(std::string_view label);

/// Counter/gauge/histogram lookups on a registry snapshot.
double counter(const obs::MetricsSnapshot& snap, std::string_view name);
const obs::MetricsSnapshot::HistogramValue* histogram(
    const obs::MetricsSnapshot& snap, std::string_view name);

/// The tcad and linalg per-layer metrics of a traced phase that ran TCAD
/// solves: the registry counters (read through `count`), the Gummel and
/// mesh-continuation span times, and the banded-LU calls and self time,
/// split by Poisson/continuity parent, as shares of `busy_ms`.
/// `extra_converged` adds solves outside sweeps (on-current corners) to
/// the converged points the outer iterations are divided by.
void add_solver_metrics(Outcome& out, const TraceView& trace, double busy_ms,
                        const std::function<double(const char*)>& count,
                        double extra_converged);

/// Label of the root span each measured pass runs under.
inline constexpr const char* kPassSpan = "bench:pass";

// The three workloads.
Outcome run_paper_figures(const Args& args);
Outcome run_tcad_crosscheck(const Args& args);
Outcome run_query_stream(const Args& args);

}  // namespace perfbench
