// query_stream: the design-query service under an open loop of
// independent users. Seeded Poisson arrivals at one fixed rate go over a
// Unix socket into an in-process serve::Server (default workers) backed
// by a persistent SolveCache in a fresh directory. Seven queries in eight
// are interactive (design and figure across three cards and both
// strategies, plus server_info and metrics); one in eight is a coarse-mesh
// TCAD sweep across the four nodes x two strategies, half of them new
// (a fresh V_d: miss, solve, publish) and half a repeat of an earlier
// sweep (a cache hit, or coalesced while the first is in flight). Each
// query is timed from when it was due, so a stall also charges the
// queries queued behind it.

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"
#include "cache/solve_cache.h"
#include "obs/names.h"
#include "serve/dispatcher.h"
#include "serve/protocol.h"
#include "serve/query.h"
#include "serve/server.h"

namespace perfbench {

namespace {

namespace cache = subscale::cache;
namespace core = subscale::core;
namespace serve = subscale::serve;
namespace fs = std::filesystem;

// Offered load, held fixed so every commit is measured at the same rate:
// about half of what the default two-worker daemon sustains on this mix
// (at 12 queries/s its workers were already ~70 % busy on a 4-core host).
constexpr double kRatePerS = 8.0;
// A query answered later than this after it was due misses the goodput.
constexpr double kLatencyLimitMs = 1000.0;
// How long the run waits for answers after the last query was due.
constexpr double kDrainLimitS = 60.0;
// The mix, per block of 16 queries: 7 design, 5 figure, 1 server_info,
// 1 metrics and 2 sweeps (one new, one repeat). Half the sweeps land on
// the 45/32 nm nodes, so 1 query in 16 is a solver failure today.
constexpr std::size_t kBlock = 16;
constexpr const char* kCards[] = {"paper_bulk_lstp", "paper_bulk_hot350",
                                  "nanowire_gaa"};
constexpr const char* kSweepCard = "paper_bulk_lstp";  // TCAD is bulk-only

bool interactive(serve::QueryKind kind) {
  return kind != serve::QueryKind::kSweep;
}

/// The seeded query list and arrival schedule of one stream.
struct Schedule {
  std::vector<serve::Query> queries;
  std::vector<double> due_ms;  ///< offset from the stream's start
  double span_ms = 0.0;        ///< the offered-load window
};

Schedule make_schedule(Rng& rng, double span_s, std::uint64_t stream) {
  Schedule s;
  s.span_ms = span_s * 1e3;
  const std::size_t n = std::max<std::size_t>(
      kBlock, static_cast<std::size_t>(std::llround(kRatePerS * span_s)));
  // A Poisson process holding n arrivals in the window: sorted uniforms.
  for (std::size_t i = 0; i < n; ++i) s.due_ms.push_back(rng.uniform() * s.span_ms);
  std::sort(s.due_ms.begin(), s.due_ms.end());

  // Sweep targets rotate through a seeded order of the 8 (strategy, node)
  // pairs, so every stream carries the same share of each.
  std::vector<std::size_t> combos(8);
  for (std::size_t i = 0; i < 8; ++i) combos[i] = i;
  for (std::size_t i = 8; i > 1; --i) std::swap(combos[i - 1], combos[rng.below(i)]);
  const double vd_phase = rng.uniform();
  std::vector<serve::Query> fresh;  // the new sweeps, in the order sent
  std::size_t sweeps = 0;

  for (std::size_t block = 0; block * kBlock < n; ++block) {
    std::vector<int> kinds;  // 0 design, 1 figure, 2 info, 3 metrics, 4 sweep
    for (int k = 0; k < 7; ++k) kinds.push_back(0);
    for (int k = 0; k < 5; ++k) kinds.push_back(1);
    kinds.push_back(2);
    kinds.push_back(3);
    kinds.push_back(4);
    kinds.push_back(4);
    for (std::size_t i = kinds.size(); i > 1; --i) {
      std::swap(kinds[i - 1], kinds[rng.below(i)]);
    }
    for (const int kind : kinds) {
      if (s.queries.size() == n) break;
      serve::Query q;
      q.card = kCards[rng.below(3)];
      q.strategy = rng.below(2) == 0 ? core::Strategy::kSuperVth
                                     : core::Strategy::kSubVth;
      switch (kind) {
        case 0:
          q.kind = serve::QueryKind::kDesign;
          q.node = rng.below(4);
          break;
        case 1:
          q.kind = serve::QueryKind::kFigure;
          q.figure = serve::figure_kinds()[rng.below(
              serve::figure_kinds().size())];
          break;
        case 2:
          q.kind = serve::QueryKind::kServerInfo;
          break;
        case 3:
          q.kind = serve::QueryKind::kMetrics;
          break;
        default:
          break;
      }
      if (kind == 4) {
        // Alternate new and repeat sweeps; a repeat re-asks a new sweep on
        // the same (strategy, node) pair, so repeats fail exactly as often
        // as new sweeps do.
        const std::size_t issued = fresh.size();
        if (sweeps++ % 2 == 1) {
          const std::size_t back = 8 * rng.below(std::min<std::size_t>(
                                           (issued - 1) / 8 + 1, 4));
          q = fresh[issued - 1 - back];
        } else {
          const std::size_t combo = combos[issued % 8];
          q = serve::Query{};
          q.kind = serve::QueryKind::kSweep;
          q.card = kSweepCard;
          q.strategy = combo < 4 ? core::Strategy::kSuperVth
                                 : core::Strategy::kSubVth;
          q.node = combo % 4;
          q.coarse_mesh = true;
          // Distinct drain biases in [0.10, 0.40) V: a golden-ratio walk.
          const double u = std::fmod(
              vd_phase + 0.6180339887498949 * static_cast<double>(issued) +
                  0.1 * static_cast<double>(stream),
              1.0);
          q.vd = 0.10 + 0.30 * u;
          fresh.push_back(q);
        }
      }
      q.id = "s" + std::to_string(stream) + "q" + std::to_string(s.queries.size());
      s.queries.push_back(q);
    }
  }
  return s;
}

/// One answered query, as the client saw it.
struct Answer {
  bool answered = false;
  bool ok = false;
  std::string code;  ///< error code when !ok
  double latency_ms = 0.0;  ///< from due time to the response
  std::string text;         ///< the response document
};

int connect_unix(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) return -1;
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

/// Client connections to the daemon, each with a reader thread handing
/// every response frame to `on_frame`. The destructor shuts the sockets
/// down, joins the readers and closes the sockets.
class Connections {
 public:
  Connections(const std::string& socket_path, std::size_t count,
              std::function<void(const std::string&)> on_frame)
      : on_frame_(std::move(on_frame)) {
    for (std::size_t c = 0; c < count; ++c) {
      const int fd = connect_unix(socket_path);
      if (fd < 0) {
        close_all();
        throw std::runtime_error("cannot connect to " + socket_path);
      }
      fds_.push_back(fd);
    }
    for (const int fd : fds_) {
      readers_.emplace_back([this, fd] {
        std::string frame;
        while (serve::read_frame(fd, frame) == serve::ReadStatus::kOk) {
          on_frame_(frame);
        }
      });
    }
  }
  ~Connections() { close_all(); }
  Connections(const Connections&) = delete;
  Connections& operator=(const Connections&) = delete;

  void send(std::size_t c, const std::string& payload) {
    serve::write_frame(fds_[c], payload);
  }

 private:
  void close_all() {
    for (const int fd : fds_) ::shutdown(fd, SHUT_RDWR);
    for (std::thread& t : readers_) t.join();
    for (const int fd : fds_) ::close(fd);
    readers_.clear();
    fds_.clear();
  }

  std::function<void(const std::string&)> on_frame_;
  std::vector<int> fds_;
  std::vector<std::thread> readers_;
};

struct StreamResult {
  std::vector<Answer> answers;
  std::vector<double> lag_ms;  ///< generator lateness per query
  double makespan_ms = 0.0;    ///< stream start to the last answer
};

/// Drives one schedule through `conns` pipelined connections: the calling
/// thread sends each query when due, one reader thread per connection
/// collects responses (matched by id; workers answer out of order).
StreamResult run_stream(const std::string& socket_path,
                        const Schedule& schedule, std::size_t conns) {
  const std::size_t n = schedule.queries.size();
  StreamResult r;
  r.answers.resize(n);
  r.lag_ms.resize(n, 0.0);
  std::map<std::string, std::size_t> index;
  for (std::size_t i = 0; i < n; ++i) index[schedule.queries[i].id] = i;

  std::atomic<std::size_t> received{0};
  std::vector<Clock::time_point> recv_at(n);
  Clock::time_point start;
  {
    Connections links(socket_path, conns, [&](const std::string& frame) {
      const Clock::time_point now = Clock::now();
      serve::Result res;
      if (!serve::parse_result(frame, res)) return;
      const auto it = index.find(res.id);
      if (it == index.end()) return;
      Answer& a = r.answers[it->second];
      a.answered = true;
      a.ok = res.ok;
      a.code = res.error.code;
      a.text = frame;
      recv_at[it->second] = now;
      received.fetch_add(1, std::memory_order_release);
    });
    start = Clock::now();
    const obs::ScopedSpan pass(obs::default_profiler(), kPassSpan);
    for (std::size_t i = 0; i < n; ++i) {
      const auto due = start + std::chrono::duration_cast<Clock::duration>(
                                   std::chrono::duration<double, std::milli>(
                                       schedule.due_ms[i]));
      std::this_thread::sleep_until(due);
      r.lag_ms[i] = ms_since(due);
      links.send(i % conns, serve::query_to_json(schedule.queries[i]));
    }
    const Clock::time_point deadline =
        Clock::now() + std::chrono::milliseconds(
                           static_cast<long>(kDrainLimitS * 1e3));
    while (received.load(std::memory_order_acquire) < n &&
           Clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  }  // every reader is joined here, before recv_at is read

  for (std::size_t i = 0; i < n; ++i) {
    if (!r.answers[i].answered) continue;
    r.answers[i].latency_ms = ms_between(start, recv_at[i]) - schedule.due_ms[i];
    r.makespan_ms = std::max(r.makespan_ms, ms_between(start, recv_at[i]));
  }
  return r;
}

/// A running daemon on a fresh cache directory, with every card's
/// designs already built (the lazy set-up a long-lived daemon pays once).
class Daemon {
 public:
  explicit Daemon(const fs::path& dir) : dir_(dir) {
    fs::remove_all(dir_);
    fs::create_directories(dir_);
    cache::CacheOptions co;
    co.dir = (dir_ / "cache").string();
    cache_ = std::make_unique<cache::SolveCache>(co);
    serve::ServerOptions so;
    so.socket_path = (dir_ / "sock").string();
    so.dispatcher.run.cache = cache_.get();
    server_ = std::make_unique<serve::Server>(so);
    server_->start();
    for (const char* card : kCards) {
      for (const core::Strategy s :
           {core::Strategy::kSuperVth, core::Strategy::kSubVth}) {
        serve::Query q;
        q.kind = serve::QueryKind::kDesign;
        q.card = card;
        q.strategy = s;
        server_->dispatcher().dispatch(q);
      }
    }
  }
  ~Daemon() {
    server_->stop();
    server_.reset();
    cache_.reset();
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  const std::string& socket_path() const { return server_->socket_path(); }

 private:
  fs::path dir_;
  std::unique_ptr<cache::SolveCache> cache_;
  std::unique_ptr<serve::Server> server_;
};

/// The run's checks on the answers: repeated identical queries got
/// byte-identical bodies, and design/figure answers equal a direct
/// Dispatcher::dispatch of the same query.
void check_answers(const Schedule& schedule, const StreamResult& r,
                   Outcome& out) {
  const auto body = [](const std::string& text) {
    serve::Result res;
    if (!serve::parse_result(text, res)) return std::string("<unparseable>");
    res.id.clear();
    return serve::result_to_json(res);
  };
  const auto admitted = [](const Answer& a) {
    return a.answered && a.code != serve::codes::kThrottled &&
           a.code != serve::codes::kOverloaded;
  };
  std::map<std::string, std::size_t> first;  // query without id -> index
  serve::Dispatcher direct;
  std::size_t repeats = 0, direct_checked = 0;
  for (std::size_t i = 0; i < schedule.queries.size(); ++i) {
    const serve::Query& q = schedule.queries[i];
    const Answer& a = r.answers[i];
    // server_info and metrics answers describe the moment they were asked.
    if (q.kind == serve::QueryKind::kServerInfo ||
        q.kind == serve::QueryKind::kMetrics || !admitted(a)) {
      continue;
    }
    serve::Query key = q;
    key.id.clear();
    const auto [it, inserted] = first.emplace(serve::query_to_json(key), i);
    if (!inserted) {
      ++repeats;
      out.gate(body(r.answers[it->second].text) == body(a.text),
               "repeated query " + q.id + " answered differently from " +
                   schedule.queries[it->second].id);
    } else if (q.kind != serve::QueryKind::kSweep) {
      ++direct_checked;
      out.gate(serve::result_to_json(direct.dispatch(q)) == a.text,
               "answer to " + q.id + " differs from a direct dispatch");
    }
  }
  std::printf("checks: %zu repeated answers compared, %zu design/figure "
              "answers re-dispatched directly\n",
              repeats, direct_checked);
}

struct Summary {
  std::size_t sent = 0, ok = 0, good = 0, answered = 0;
  std::vector<double> all, interactive_ms, sweep_ms, lag;
};

Summary summarize(const Schedule& schedule, const StreamResult& r) {
  std::map<std::string, std::vector<double>> by_kind;
  std::map<std::string, std::size_t> by_code;
  for (std::size_t i = 0; i < schedule.queries.size(); ++i) {
    const Answer& a = r.answers[i];
    if (a.answered) {
      by_kind[serve::query_kind_name(schedule.queries[i].kind)].push_back(
          a.latency_ms);
    }
    if (!a.ok) ++by_code[a.answered ? a.code : "unanswered"];
  }
  for (std::size_t i = 0; i < schedule.queries.size(); ++i) {
    const serve::Query& q = schedule.queries[i];
    if (q.kind != serve::QueryKind::kSweep || !r.answers[i].answered) continue;
    by_kind[std::string("sweep ") + core::strategy_name(q.strategy) + " n" +
            std::to_string(q.node)]
        .push_back(r.answers[i].latency_ms);
  }
  for (const auto& [kind, ms] : by_kind) {
    std::printf("  %-20s %5zu answered, p50 %9.2f ms, p95 %9.2f ms\n",
                kind.c_str(), ms.size(), percentile(ms, 50.0),
                percentile(ms, 95.0));
  }
  for (const auto& [code, count] : by_code) {
    std::printf("  failed with %-16s %5zu\n", code.c_str(), count);
  }

  Summary s;
  s.sent = schedule.queries.size();
  for (std::size_t i = 0; i < s.sent; ++i) {
    const Answer& a = r.answers[i];
    s.lag.push_back(r.lag_ms[i]);
    if (!a.answered) continue;
    ++s.answered;
    s.all.push_back(a.latency_ms);
    (interactive(schedule.queries[i].kind) ? s.interactive_ms : s.sweep_ms)
        .push_back(a.latency_ms);
    if (a.ok) {
      ++s.ok;
      if (a.latency_ms <= kLatencyLimitMs) ++s.good;
    }
  }
  return s;
}

}  // namespace

Outcome run_query_stream(const Args& args) {
  Outcome out;
  const fs::path root = fs::path(".bench_build") / "run" /
                        ("q" + std::to_string(::getpid()));
  // Set-up: daemon, cache directory and warm designs; timed three times
  // before the stream and twice after it, and reported as the median.
  std::vector<double> setup_s;
  std::optional<Daemon> daemon;
  const auto timed_setup = [&](int k) {
    daemon.reset();
    const Clock::time_point t0 = Clock::now();
    daemon.emplace(root / ("d" + std::to_string(k)));
    setup_s.push_back(ms_since(t0) * 1e-3);
  };
  for (int k = 0; k < 3; ++k) timed_setup(k);

  Rng rng(args.seed);
  const std::size_t conns = bench_threads();
  const double span_s = args.trace ? args.seconds * 0.5 : args.seconds;
  const Schedule schedule = make_schedule(rng, span_s, 0);
  const StreamResult result = run_stream(daemon->socket_path(), schedule, conns);
  for (int k = 3; k < 5; ++k) timed_setup(k);
  daemon.reset();
  check_answers(schedule, result, out);
  const Summary sum = summarize(schedule, result);
  out.attempted = sum.sent;
  out.failed = sum.sent - sum.ok;

  if (!args.trace) {
    out.add("setup_s", median(setup_s), "s");
    out.add("peak_rss_mb", peak_rss_mb(), "MB");
    out.add("wall_s", result.makespan_ms * 1e-3, "s");
    out.add("goodput_per_s",
            static_cast<double>(sum.good) / (schedule.span_ms * 1e-3), "1/s");
    out.add("ok_frac",
            static_cast<double>(sum.ok) / static_cast<double>(sum.sent),
            "ratio");
  } else {
    // The traced half: a fresh daemon built under the installed registry
    // and profiler, so every serve/cache/tcad instrument lands in them.
    std::optional<TraceView> trace;
    obs::MetricsSnapshot before, after;
    Schedule traced_schedule;
    StreamResult traced;
    {
      TracedPhase phase;
      {
        const Daemon traced_daemon(root / "traced");
        before = phase.registry().snapshot();
        traced_schedule = make_schedule(rng, span_s, 1);
        traced = run_stream(traced_daemon.socket_path(), traced_schedule, conns);
      }  // stopped: every admitted request has been answered and counted
      after = phase.registry().snapshot();
      trace.emplace(phase.profiler().snapshot());
    }
    check_answers(traced_schedule, traced, out);
    const Summary ts = summarize(traced_schedule, traced);
    out.attempted += ts.sent;
    out.failed += ts.sent - ts.ok;
    const auto delta = [&](const char* name) {
      return counter(after, name) - counter(before, name);
    };
    const std::vector<std::string_view> waits = {kPassSpan};
    std::printf("\n== query_stream per-layer table (traced half) ==\n%s\n%s",
                trace->layer_table(waits, "serve").c_str(),
                trace->snapshot().rollup_table().c_str());

    for (const char* name :
         {obs::names::kServeExecuted, obs::names::kServeCoalesced,
          obs::names::kServeThrottled, obs::names::kServeRejected,
          obs::names::kServeErrors, obs::names::kCacheHit,
          obs::names::kCacheMiss, obs::names::kCacheStore}) {
      out.add(name, delta(name), "count");
    }
    out.add("compact.models_built", delta(obs::names::kCardsBackendDispatches),
            "count");
    const double hits = delta(obs::names::kCacheHit);
    const double lookups = hits + delta(obs::names::kCacheMiss);
    out.add("cache.hit_ratio", lookups > 0.0 ? hits / lookups : 0.0, "ratio");
    out.add("cache.lookup.ms",
            trace->total_ms(obs::names::spans::kCacheLookup), "ms");
    out.add("cache.publish.ms",
            trace->total_ms(obs::names::spans::kCachePublish), "ms");
    out.add("serve.queue_depth_max",
            after.gauge(obs::names::kServeQueueDepthMax), "count");
    out.add("exec.pool.utilization_pct",
            after.gauge(obs::names::kPoolUtilizationPct), "%");
    out.add("exec.pool.queue_depth_max",
            after.gauge(obs::names::kPoolQueueDepthMax), "count");
    const auto* req_before = histogram(before, obs::names::kServeRequestMs);
    const auto* req_after = histogram(after, obs::names::kServeRequestMs);
    const double req_n = static_cast<double>(req_after->count - req_before->count);
    const double server_ms =
        req_n > 0.0 ? (req_after->sum - req_before->sum) / req_n : 0.0;
    // Client-side mean over the queries serve.request_ms times (admitted
    // to the worker pool; metrics queries are answered by the listener),
    // so the difference is queue wait plus transport.
    double client_sum = 0.0;
    std::size_t admitted = 0;
    for (std::size_t i = 0; i < traced.answers.size(); ++i) {
      const Answer& a = traced.answers[i];
      if (!a.answered || a.code == serve::codes::kThrottled ||
          a.code == serve::codes::kOverloaded ||
          traced_schedule.queries[i].kind == serve::QueryKind::kMetrics) {
        continue;
      }
      client_sum += a.latency_ms;
      ++admitted;
    }
    const double client_ms =
        admitted == 0 ? 0.0 : client_sum / static_cast<double>(admitted);
    std::printf("server-timed requests %.0f (mean %.1f ms), client-admitted "
                "%zu (mean %.1f ms)\n",
                req_n, server_ms, admitted, client_ms);
    out.add("serve.compute_ms", server_ms, "ms");
    out.add("query.wait_ms", client_ms - server_ms, "ms");
    // Client-side latencies come from the untraced half of the stream.
    out.add("query.p50_ms", percentile(sum.all, 50.0), "ms");
    out.add("query.p95_ms", percentile(sum.all, 95.0), "ms");
    out.add("query.gen_lag_p95_ms", percentile(sum.lag, 95.0), "ms");
    out.add("query.interactive_p95_ms", percentile(sum.interactive_ms, 95.0),
            "ms");
    out.add("query.sweep_p50_ms", percentile(sum.sweep_ms, 50.0), "ms");

    add_solver_metrics(out, *trace, trace->busy_ms(waits), delta, 0.0);
    // Tracing costs show on the solver path: compare the sweeps' mean
    // latency between the untraced and the traced half.
    const auto mean = [](const std::vector<double>& v) {
      double total = 0.0;
      for (const double x : v) total += x;
      return v.empty() ? 0.0 : total / static_cast<double>(v.size());
    };
    out.add("obs.trace_overhead_pct",
            100.0 * (mean(ts.sweep_ms) / mean(sum.sweep_ms) - 1.0), "%");
    out.add("obs.profiler.spans_dropped", static_cast<double>(trace->dropped()),
            "count");
    out.gate(trace->dropped() == 0, "profiler dropped spans");
  }
  std::error_code ec;
  fs::remove_all(root, ec);
  std::printf("query_stream: %zu sent, %zu answered, %zu ok, %zu within "
              "%.0f ms; makespan %.1f s\n",
              sum.sent, sum.answered, sum.ok, sum.good, kLatencyLimitMs,
              result.makespan_ms * 1e-3);
  return out;
}

}  // namespace perfbench
