// Library-performance microbenchmarks (google-benchmark): the numerical
// kernels behind the reproduction — banded LU and Cholesky, compact-model
// evaluation, VTC solves, FO1 transients, and a full TCAD Gummel bias
// point.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <cstdlib>
#include <random>

#include "circuits/delay.h"
#include "circuits/inverter.h"
#include "circuits/vtc.h"
#include "compact/mosfet.h"
#include "linalg/banded.h"
#include "opt/golden_section.h"
#include "scaling/supervth_strategy.h"
#include "tcad/continuity.h"
#include "tcad/gummel.h"

using namespace subscale;

namespace {

compact::DeviceSpec spec_90() {
  return compact::make_spec_from_table(doping::Polarity::kNfet, 65, 2.10,
                                       1.52e18, 3.63e18, 1.2, 1.0);
}

// Symmetric positive-definite band systems (the Poisson Newton
// operator's class): random symmetric couplings, diagonally dominant,
// in full band storage for BandedLu and lower band storage for
// BandedCholesky. Each timed iteration copies the unfactored matrix,
// which stands in for the per-solve refill both TCAD call sites pay.
struct SpdBench {
  linalg::BandedLu full;
  linalg::BandedCholesky lower;
  std::vector<double> b;
};

SpdBench make_bench_spd(std::size_t n, std::size_t bw) {
  std::mt19937 rng(7);
  std::uniform_real_distribution<double> dist(-1.0, 1.0);
  SpdBench out{linalg::BandedLu(n, bw, bw), linalg::BandedCholesky(n, bw),
               std::vector<double>(n, 1.0)};
  std::vector<double> row_sum(n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = (i > bw ? i - bw : 0); j < i; ++j) {
      const double v = dist(rng);
      out.full.at(i, j) = out.full.at(j, i) = out.lower.at(i, j) = v;
      row_sum[i] += std::abs(v);
      row_sum[j] += std::abs(v);
    }
  }
  for (std::size_t i = 0; i < n; ++i) {
    out.full.at(i, i) = out.lower.at(i, i) = row_sum[i] + 1.0 + dist(rng);
  }
  return out;
}

// Scharfetter–Gummel-like band systems (the continuity solve's class):
// a 5-point stencil on a grid `bw` nodes wide, nonsymmetric positive
// couplings, and a negative diagonal that dominates its column by a
// small recombination term — so the pivot-free LU never breaks down.
linalg::BandedLu make_bench_sg(std::size_t n, std::size_t bw) {
  std::mt19937 rng(7);
  std::uniform_real_distribution<double> dist(0.1, 1.0);
  linalg::BandedLu a(n, bw, bw);
  std::vector<double> col_sum(n, 0.0);
  const auto couple = [&](std::size_t r, std::size_t c) {
    const double v = dist(rng);
    a.at(r, c) = v;
    col_sum[c] += v;
  };
  for (std::size_t i = 0; i < n; ++i) {
    if (i % bw != 0) couple(i, i - 1);
    if (i + 1 < n && (i + 1) % bw != 0) couple(i, i + 1);
    if (i >= bw) couple(i, i - bw);
    if (i + bw < n) couple(i, i + bw);
  }
  for (std::size_t i = 0; i < n; ++i) a.at(i, i) = -(col_sum[i] + 1e-3);
  return a;
}

void BM_BandedLuFactorSolve(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const linalg::BandedLu sys = make_bench_sg(n, 41);
  for (auto _ : state) {
    linalg::BandedLu lu = sys;
    std::vector<double> x(n, 1.0);
    if (!lu.factor()) {
      std::fprintf(stderr, "BANDED LU BREAKDOWN on a dominant system\n");
      std::abort();
    }
    lu.solve(x);
    benchmark::DoNotOptimize(x.data());
  }
}
BENCHMARK(BM_BandedLuFactorSolve)->Arg(400)->Arg(1000)->Arg(2000);

// The Cholesky's reference anchor is the LU on the same matrix (a
// symmetric diagonally dominant matrix is column dominant, so the
// pivot-free LU applies): a disagreement beyond 1e-10 (normwise
// relative) aborts before timing.
void BM_BandedCholeskyFactorSolve(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const SpdBench sys = make_bench_spd(n, 41);
  {
    linalg::BandedLu lu = sys.full;
    std::vector<double> x_lu = sys.b;
    if (!lu.factor()) {
      std::fprintf(stderr, "BANDED LU BREAKDOWN on an SPD system\n");
      std::abort();
    }
    lu.solve(x_lu);
    linalg::BandedCholesky chol = sys.lower;
    std::vector<double> x = sys.b;
    chol.factor();
    chol.solve(x);
    double diff = 0.0, scale = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      diff = std::max(diff, std::abs(x[i] - x_lu[i]));
      scale = std::max(scale, std::abs(x_lu[i]));
    }
    if (!(diff <= 1e-10 * scale)) {
      std::fprintf(stderr, "CHOLESKY MISMATCH: |dx| %.3g vs |x| %.3g\n", diff,
                   scale);
      std::abort();
    }
  }
  for (auto _ : state) {
    linalg::BandedCholesky chol = sys.lower;
    std::vector<double> x = sys.b;
    chol.factor();
    chol.solve(x);
    benchmark::DoNotOptimize(x.data());
  }
}
BENCHMARK(BM_BandedCholeskyFactorSolve)->Arg(400)->Arg(1000)->Arg(2000);

// Aborts unless two solutions agree bit for bit.
void check_bitwise(const std::vector<double>& fast,
                   const std::vector<double>& ref, const char* what) {
  if (fast.size() != ref.size()) {
    std::fprintf(stderr, "BITWISE MISMATCH (%s): size\n", what);
    std::abort();
  }
  for (std::size_t i = 0; i < fast.size(); ++i) {
    if (std::memcmp(&fast[i], &ref[i], sizeof(double)) != 0) {
      std::fprintf(stderr, "BITWISE MISMATCH (%s): index %zu %.17g vs %.17g\n",
                   what, i, fast[i], ref[i]);
      std::abort();
    }
  }
}

// Scharfetter–Gummel assembly, fresh-buffers vs SgWorkspace reuse. The
// workspace caches edge geometry + zero-field mobilities across solves;
// its output is asserted bitwise-equal to the workspace-free path on
// the same Gummel iterate before timing either variant.
struct SgBenchFixture {
  tcad::DeviceStructure dev{spec_90()};
  std::vector<double> psi, n0, p0;
  SgBenchFixture() {
    tcad::DriftDiffusionSolver solver(dev);
    solver.solve_equilibrium();
    psi = solver.psi();
    n0 = solver.electron_density();
    p0 = solver.hole_density();
  }
};

SgBenchFixture& sg_fixture() {
  static SgBenchFixture fx;
  return fx;
}

void BM_SgAssemblyFresh(benchmark::State& state) {
  auto& fx = sg_fixture();
  std::vector<double> n = fx.n0;
  for (auto _ : state) {
    n = fx.n0;
    tcad::solve_continuity(fx.dev, physics::Carrier::kElectron, fx.psi,
                           fx.p0, n);
    benchmark::DoNotOptimize(n.data());
  }
}
BENCHMARK(BM_SgAssemblyFresh)->Unit(benchmark::kMicrosecond);

void BM_SgAssemblyWorkspace(benchmark::State& state) {
  auto& fx = sg_fixture();
  std::vector<double> n_ref = fx.n0;
  tcad::solve_continuity(fx.dev, physics::Carrier::kElectron, fx.psi, fx.p0,
                         n_ref);
  tcad::SgWorkspace ws;
  std::vector<double> n = fx.n0;
  tcad::solve_continuity(fx.dev, physics::Carrier::kElectron, fx.psi, fx.p0,
                         n, {}, nullptr, &ws);
  check_bitwise(n, n_ref, "sg workspace");
  for (auto _ : state) {
    n = fx.n0;
    tcad::solve_continuity(fx.dev, physics::Carrier::kElectron, fx.psi,
                           fx.p0, n, {}, nullptr, &ws);
    benchmark::DoNotOptimize(n.data());
  }
}
BENCHMARK(BM_SgAssemblyWorkspace)->Unit(benchmark::kMicrosecond);

void BM_CompactModelConstruction(benchmark::State& state) {
  const auto spec = spec_90();
  for (auto _ : state) {
    compact::CompactMosfet fet(spec);
    benchmark::DoNotOptimize(fet.subthreshold_swing());
  }
}
BENCHMARK(BM_CompactModelConstruction);

void BM_CompactDrainCurrent(benchmark::State& state) {
  const compact::CompactMosfet fet(spec_90());
  double v = 0.0;
  for (auto _ : state) {
    v += 1e-7;
    benchmark::DoNotOptimize(fet.drain_current(0.3 + v, 0.25));
  }
}
BENCHMARK(BM_CompactDrainCurrent);

void BM_VtcOutput(benchmark::State& state) {
  const auto inv = circuits::make_inverter(spec_90()).at_vdd(0.25);
  for (auto _ : state) {
    benchmark::DoNotOptimize(circuits::vtc_output(inv, 0.125));
  }
}
BENCHMARK(BM_VtcOutput);

void BM_NoiseMargins(benchmark::State& state) {
  const auto inv = circuits::make_inverter(spec_90()).at_vdd(0.25);
  for (auto _ : state) {
    benchmark::DoNotOptimize(circuits::noise_margins(inv));
  }
}
BENCHMARK(BM_NoiseMargins);

void BM_Fo1DelayTransient(benchmark::State& state) {
  const auto inv = circuits::make_inverter(spec_90());
  for (auto _ : state) {
    benchmark::DoNotOptimize(circuits::fo1_delay(inv).tp);
  }
}
BENCHMARK(BM_Fo1DelayTransient);

void BM_SuperVthDesignFlow(benchmark::State& state) {
  const auto& node = scaling::paper_nodes()[0];
  for (auto _ : state) {
    benchmark::DoNotOptimize(scaling::design_supervth_device(node));
  }
}
BENCHMARK(BM_SuperVthDesignFlow);

void BM_TcadEquilibrium(benchmark::State& state) {
  const tcad::DeviceStructure dev(spec_90());
  for (auto _ : state) {
    tcad::DriftDiffusionSolver solver(dev);
    solver.solve_equilibrium();
    benchmark::DoNotOptimize(solver.psi());
  }
}
BENCHMARK(BM_TcadEquilibrium)->Unit(benchmark::kMillisecond);

void BM_GoldenSection(benchmark::State& state) {
  const auto f = [](double x) { return (x - 0.3) * (x - 0.3); };
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        opt::golden_section_minimize(f, -3.0, 3.0, 1e-9));
  }
}
BENCHMARK(BM_GoldenSection);

}  // namespace

BENCHMARK_MAIN();
