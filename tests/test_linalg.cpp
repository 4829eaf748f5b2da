#include <gtest/gtest.h>

#include <cmath>
#include <random>

#include "linalg/banded.h"
#include "linalg/dense.h"
#include "linalg/newton.h"

namespace sl = subscale::linalg;

namespace {

std::mt19937 rng(20070604);  // DAC 2007 seed for deterministic tests

sl::DenseMatrix random_diag_dominant(std::size_t n) {
  std::uniform_real_distribution<double> dist(-1.0, 1.0);
  sl::DenseMatrix a(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    double row_sum = 0.0;
    for (std::size_t j = 0; j < n; ++j) {
      if (i == j) continue;
      a(i, j) = dist(rng);
      row_sum += std::abs(a(i, j));
    }
    a(i, i) = row_sum + 1.0 + std::abs(dist(rng));
  }
  return a;
}

}  // namespace

// ---- dense ------------------------------------------------------------------

TEST(Dense, LuSolvesKnownSystem) {
  sl::DenseMatrix a(2, 2);
  a(0, 0) = 2.0; a(0, 1) = 1.0;
  a(1, 0) = 1.0; a(1, 1) = 3.0;
  const sl::LuFactorization lu(a);
  const auto x = lu.solve({5.0, 10.0});
  EXPECT_NEAR(x[0], 1.0, 1e-12);
  EXPECT_NEAR(x[1], 3.0, 1e-12);
}

TEST(Dense, LuResidualSmallOnRandomSystems) {
  for (std::size_t n : {3u, 7u, 20u, 50u}) {
    const sl::DenseMatrix a = random_diag_dominant(n);
    std::vector<double> x_true(n);
    for (std::size_t i = 0; i < n; ++i) x_true[i] = std::sin(double(i) + 1.0);
    const auto b = a.multiply(x_true);
    const sl::LuFactorization lu(a);
    const auto x = lu.solve(b);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_NEAR(x[i], x_true[i], 1e-9) << "n=" << n << " i=" << i;
    }
  }
}

TEST(Dense, LuRequiresPivoting) {
  // Zero on the initial diagonal but nonsingular overall.
  sl::DenseMatrix a(2, 2);
  a(0, 0) = 0.0; a(0, 1) = 1.0;
  a(1, 0) = 1.0; a(1, 1) = 0.0;
  const sl::LuFactorization lu(a);
  const auto x = lu.solve({2.0, 3.0});
  EXPECT_NEAR(x[0], 3.0, 1e-14);
  EXPECT_NEAR(x[1], 2.0, 1e-14);
}

TEST(Dense, SingularThrows) {
  sl::DenseMatrix a(2, 2);
  a(0, 0) = 1.0; a(0, 1) = 2.0;
  a(1, 0) = 2.0; a(1, 1) = 4.0;
  EXPECT_THROW(sl::LuFactorization{a}, std::runtime_error);
}

TEST(Dense, VectorHelpers) {
  const std::vector<double> v{3.0, -4.0};
  EXPECT_DOUBLE_EQ(sl::norm2(v), 5.0);
  EXPECT_DOUBLE_EQ(sl::norm_inf(v), 4.0);
  EXPECT_DOUBLE_EQ(sl::dot(v, v), 25.0);
  std::vector<double> y{1.0, 1.0};
  sl::axpy(2.0, v, y);
  EXPECT_DOUBLE_EQ(y[0], 7.0);
  EXPECT_DOUBLE_EQ(y[1], -7.0);
}

// ---- banded ---------------------------------------------------------------------

namespace {

bool in_band(std::size_t r, std::size_t c, std::size_t kl, std::size_t ku) {
  return c > r ? c - r <= ku : r - c <= kl;
}

/// Fill `lu` and a dense copy with the same in-band entries `entry(i, j)`.
template <typename Entry>
sl::DenseMatrix fill_both(sl::BandedLu& lu, Entry entry) {
  const std::size_t n = lu.size();
  sl::DenseMatrix dense(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      if (!in_band(i, j, lu.lower_bandwidth(), lu.upper_bandwidth())) {
        continue;
      }
      const double v = entry(i, j);
      lu.at(i, j) = v;
      dense(i, j) = v;
    }
  }
  return dense;
}

}  // namespace

TEST(Banded, InBandQueries) {
  sl::BandedLu a(5, 1, 2);
  EXPECT_NO_THROW(a.at(2, 2));
  EXPECT_NO_THROW(a.at(2, 4));                  // +2 super
  EXPECT_NO_THROW(a.at(2, 1));                  // -1 sub
  EXPECT_THROW(a.at(2, 0), std::out_of_range);  // -2 sub: outside
  EXPECT_THROW(a.at(0, 3), std::out_of_range);  // +3 super: outside
  EXPECT_THROW(a.at(5, 5), std::out_of_range);  // beyond n
}

TEST(Banded, MatchesDenseOnRandomBandSystems) {
  std::uniform_real_distribution<double> dist(-1.0, 1.0);
  for (std::size_t trial = 0; trial < 5; ++trial) {
    const std::size_t n = 30;
    sl::BandedLu ab(n, 3, 2);
    const sl::DenseMatrix ad =
        fill_both(ab, [&](std::size_t i, std::size_t j) {
          return (i == j) ? 8.0 + dist(rng) : dist(rng);
        });
    std::vector<double> x_true(n);
    for (std::size_t i = 0; i < n; ++i) x_true[i] = dist(rng);
    std::vector<double> x = ad.multiply(x_true);
    ASSERT_TRUE(ab.factor());
    ab.solve(x);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_NEAR(x[i], x_true[i], 1e-9) << "trial " << trial;
    }
  }
}

TEST(Banded, ColumnNeedingASwapIsABreakdown) {
  // [[0 1][1 0]]: a zero pivot, which partial pivoting would swap away.
  sl::BandedLu swap(2, 1, 1);
  swap.at(0, 1) = 1.0;
  swap.at(1, 0) = 1.0;
  EXPECT_FALSE(swap.factor());

  // [[1 1][2 1]]: nonsingular with a nonzero pivot, but |a10| > |a00|,
  // so the multiplier is 2 — the column is not diagonally dominant.
  sl::BandedLu big_multiplier(2, 1, 1);
  big_multiplier.at(0, 0) = 1.0;
  big_multiplier.at(0, 1) = 1.0;
  big_multiplier.at(1, 0) = 2.0;
  big_multiplier.at(1, 1) = 1.0;
  EXPECT_FALSE(big_multiplier.factor());

  // |a10| == |a00| is still a multiplier of 1: no swap, factored.
  sl::BandedLu tie(2, 1, 1);
  tie.at(0, 0) = 2.0;
  tie.at(1, 0) = -2.0;
  tie.at(1, 1) = 3.0;
  ASSERT_TRUE(tie.factor());
  std::vector<double> x{2.0, 1.0};
  tie.solve(x);
  EXPECT_NEAR(x[0], 1.0, 1e-15);
  EXPECT_NEAR(x[1], 1.0, 1e-15);

  // A non-finite pivot is a breakdown too, even in the last column.
  sl::BandedLu nan(2, 1, 1);
  nan.at(0, 0) = 1.0;
  nan.at(1, 1) = std::nan("");
  EXPECT_FALSE(nan.factor());
}

TEST(Banded, LaplacianSolve) {
  // 1-D Poisson with unit RHS: solution is the discrete parabola.
  const std::size_t n = 100;
  sl::BandedLu a(n, 1, 1);
  const sl::DenseMatrix dense =
      fill_both(a, [](std::size_t i, std::size_t j) {
        return i == j ? 2.0 : -1.0;
      });
  std::vector<double> x(n, 1.0);
  ASSERT_TRUE(a.factor());
  a.solve(x);
  // Residual check.
  const auto ax = dense.multiply(x);
  for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(ax[i], 1.0, 1e-9);
  // Symmetry of the solution.
  for (std::size_t i = 0; i < n / 2; ++i) {
    EXPECT_NEAR(x[i], x[n - 1 - i], 1e-9);
  }
}

TEST(Banded, MatchesDenseLuOnColumnDominantSystemsSpanning24Decades) {
  // The continuity matrices' class: every column diagonally dominant,
  // with column scales (Slotboom weights, carrier densities) spanning
  // 24 decades. No multiplier exceeds 1, so the pivot-free factor
  // equals the pivoting dense LU's and both solutions agree normwise.
  std::mt19937 gen(16);
  std::uniform_real_distribution<double> dist(-1.0, 1.0);
  std::uniform_int_distribution<int> decade(-12, 12);
  const std::pair<std::size_t, std::size_t> bands[] = {
      {1, 1}, {5, 5}, {3, 9}, {9, 3}, {13, 13}};
  for (const auto& [kl, ku] : bands) {
    for (std::size_t trial = 0; trial < 3; ++trial) {
      const std::size_t n = 60;
      std::vector<double> col_scale(n);
      for (auto& v : col_scale) v = std::pow(10.0, decade(gen));
      sl::DenseMatrix m(n, n);
      for (std::size_t j = 0; j < n; ++j) {
        double off = 0.0;
        for (std::size_t i = 0; i < n; ++i) {
          if (i == j || !in_band(i, j, kl, ku)) continue;
          m(i, j) = dist(gen);
          off += std::abs(m(i, j));
        }
        const double sign = dist(gen) < 0.0 ? -1.0 : 1.0;
        m(j, j) = sign * (off + 0.1 + std::abs(dist(gen)));
      }
      sl::BandedLu lu(n, kl, ku);
      const sl::DenseMatrix dense =
          fill_both(lu, [&](std::size_t i, std::size_t j) {
            return m(i, j) * col_scale[j];
          });
      std::vector<double> b(n);
      for (auto& v : b) v = dist(gen);
      const auto x_dense = sl::LuFactorization(dense).solve(b);
      ASSERT_TRUE(lu.factor()) << "kl=" << kl << " ku=" << ku;
      std::vector<double> x = b;
      lu.solve(x);
      // Normwise relative after undoing the column scaling: x_j carries
      // 1/col_scale_j, so compare the unscaled unknowns col_scale_j x_j.
      double diff = 0.0, scale = 0.0;
      for (std::size_t i = 0; i < n; ++i) {
        diff = std::max(diff, std::abs(x[i] - x_dense[i]) * col_scale[i]);
        scale = std::max(scale, std::abs(x_dense[i]) * col_scale[i]);
      }
      EXPECT_LE(diff, 1e-12 * scale)
          << "kl=" << kl << " ku=" << ku << " trial=" << trial;
    }
  }
}

// ---- Newton -------------------------------------------------------------------

TEST(Newton, SolvesCircleLineIntersection) {
  // x^2 + y^2 = 2, x - y = 0 -> (1, 1) from a nearby start.
  const auto residual = [](const std::vector<double>& v) {
    return std::vector<double>{v[0] * v[0] + v[1] * v[1] - 2.0, v[0] - v[1]};
  };
  const auto jacobian = [](const std::vector<double>& v) {
    sl::DenseMatrix j(2, 2);
    j(0, 0) = 2.0 * v[0];
    j(0, 1) = 2.0 * v[1];
    j(1, 0) = 1.0;
    j(1, 1) = -1.0;
    return j;
  };
  const auto result = sl::newton_solve(residual, jacobian, {2.0, 0.5});
  ASSERT_TRUE(result.converged);
  EXPECT_NEAR(result.x[0], 1.0, 1e-9);
  EXPECT_NEAR(result.x[1], 1.0, 1e-9);
}

TEST(Newton, ExponentialResidualNeedsDamping) {
  // f(x) = e^x - 1e6: full Newton from x=0 overshoots wildly without
  // damping; the line search must still land at x = ln(1e6).
  const auto residual = [](const std::vector<double>& v) {
    return std::vector<double>{std::exp(v[0]) - 1e6};
  };
  const auto jacobian = [](const std::vector<double>& v) {
    sl::DenseMatrix j(1, 1);
    j(0, 0) = std::exp(v[0]);
    return j;
  };
  const auto result = sl::newton_solve(residual, jacobian, {0.0},
                                       {.max_iterations = 500,
                                        .residual_tolerance = 1e-6});
  ASSERT_TRUE(result.converged);
  EXPECT_NEAR(result.x[0], std::log(1e6), 1e-6);
}

TEST(Newton, FiniteDifferenceJacobianMatchesAnalytic) {
  const auto residual = [](const std::vector<double>& v) {
    return std::vector<double>{v[0] * v[0] * v[1], std::sin(v[0]) + v[1]};
  };
  const std::vector<double> x{0.7, -0.3};
  const auto j = sl::finite_difference_jacobian(residual, x);
  EXPECT_NEAR(j(0, 0), 2.0 * x[0] * x[1], 1e-5);
  EXPECT_NEAR(j(0, 1), x[0] * x[0], 1e-5);
  EXPECT_NEAR(j(1, 0), std::cos(x[0]), 1e-5);
  EXPECT_NEAR(j(1, 1), 1.0, 1e-5);
}

// ---- parameterized: banded solver across bandwidths ------------------------------

class BandedWidths : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(BandedWidths, RoundTrip) {
  const auto [kl, ku] = GetParam();
  const std::size_t n = 40;
  std::uniform_real_distribution<double> dist(-1.0, 1.0);
  sl::BandedLu a(n, std::size_t(kl), std::size_t(ku));
  const sl::DenseMatrix dense = fill_both(a, [&](std::size_t i, std::size_t j) {
    return (i == j) ? 10.0 + dist(rng) : dist(rng);
  });
  std::vector<double> x_true(n);
  for (std::size_t i = 0; i < n; ++i) x_true[i] = dist(rng);
  std::vector<double> x = dense.multiply(x_true);
  ASSERT_TRUE(a.factor());
  a.solve(x);
  for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(x[i], x_true[i], 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Bandwidths, BandedWidths,
                         ::testing::Values(std::pair{1, 1}, std::pair{2, 5},
                                           std::pair{5, 2}, std::pair{7, 7},
                                           std::pair{1, 10}));

// ---- banded Cholesky (Poisson Newton operator) --------------------------------

namespace {

/// A random symmetric positive-definite band system A = D M D, with M
/// symmetric and strictly diagonally dominant and D spanning 12 decades,
/// so the diagonal of A spans 24. A is kept in lower band storage for
/// BandedCholesky; M and D are kept so the reference solves the
/// well-conditioned M x' = D^-1 b with the pivoting dense LU and returns
/// x = D^-1 x'. (A is not column dominant, so the pivot-free BandedLu
/// is no anchor, and an unscaled dense LU of A loses the small
/// components to A's 1e24 condition number.)
struct SpdPair {
  sl::DenseMatrix m;
  std::vector<double> d;
  sl::BandedCholesky lower;

  std::vector<double> reference_solve(const std::vector<double>& b) const {
    std::vector<double> x(b.size());
    for (std::size_t i = 0; i < b.size(); ++i) x[i] = b[i] / d[i];
    x = sl::LuFactorization(m).solve(x);
    for (std::size_t i = 0; i < b.size(); ++i) x[i] /= d[i];
    return x;
  }
};

SpdPair random_spd(std::size_t n, std::size_t kd, std::mt19937& gen) {
  std::uniform_real_distribution<double> dist(-1.0, 1.0);
  std::uniform_int_distribution<int> decade(-6, 6);
  std::vector<double> d(n);
  for (auto& v : d) v = std::pow(10.0, decade(gen));
  sl::DenseMatrix m(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = (i > kd ? i - kd : 0); j < i; ++j) {
      m(i, j) = m(j, i) = dist(gen);
    }
  }
  for (std::size_t i = 0; i < n; ++i) {
    double off = 0.0;
    for (std::size_t j = 0; j < n; ++j) off += i == j ? 0.0 : std::abs(m(i, j));
    m(i, i) = off + 0.5 + std::abs(dist(gen));
  }
  SpdPair out{m, d, sl::BandedCholesky(n, kd)};
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = (i > kd ? i - kd : 0); j <= i; ++j) {
      out.lower.at(i, j) = d[i] * m(i, j) * d[j];
    }
  }
  return out;
}

}  // namespace

TEST(BandedCholesky, MatchesDenseLuOnSpdSystemsSpanning24Decades) {
  std::mt19937 gen(12);
  std::uniform_real_distribution<double> dist(-1.0, 1.0);
  for (const std::size_t kd : {1u, 4u, 13u, 41u}) {
    for (std::size_t trial = 0; trial < 3; ++trial) {
      const std::size_t n = 120;
      SpdPair sys = random_spd(n, kd, gen);
      std::vector<double> b(n);
      for (auto& v : b) v = dist(gen);
      const auto x_lu = sys.reference_solve(b);
      std::vector<double> x = b;
      sys.lower.factor();
      sys.lower.solve(x);
      // Normwise relative: x spans ~24 decades, so its tiny components
      // carry only the absolute accuracy both backward-stable solvers
      // share, not a componentwise one.
      double diff = 0.0, scale = 0.0;
      for (std::size_t i = 0; i < n; ++i) {
        diff = std::max(diff, std::abs(x[i] - x_lu[i]));
        scale = std::max(scale, std::abs(x_lu[i]));
      }
      EXPECT_LE(diff, 1e-12 * scale) << "kd=" << kd << " trial=" << trial;
    }
  }
}

TEST(BandedCholesky, ThrowsOnIndefiniteZeroOrNanPivot) {
  sl::BandedCholesky indefinite(2, 1);
  indefinite.at(0, 0) = 1.0;
  indefinite.at(1, 0) = 2.0;  // [[1 2][2 1]]: second pivot is -3
  indefinite.at(1, 1) = 1.0;
  EXPECT_THROW(indefinite.factor(), std::runtime_error);

  sl::BandedCholesky zero(3, 1);
  zero.at(0, 0) = 1.0;
  zero.at(2, 2) = 1.0;  // (1, 1) stays 0
  EXPECT_THROW(zero.factor(), std::runtime_error);

  sl::BandedCholesky nan(2, 1);
  nan.at(0, 0) = std::nan("");
  nan.at(1, 1) = 1.0;
  EXPECT_THROW(nan.factor(), std::runtime_error);

  sl::BandedCholesky inf(2, 1);
  inf.at(0, 0) = 1.0;
  inf.at(1, 1) = HUGE_VAL;
  EXPECT_THROW(inf.factor(), std::runtime_error);
}

TEST(BandedCholesky, RejectsEntriesOutsideLowerBand) {
  sl::BandedCholesky a(5, 2);
  EXPECT_NO_THROW(a.at(4, 2));
  EXPECT_THROW(a.at(2, 3), std::out_of_range);  // upper triangle
  EXPECT_THROW(a.at(4, 1), std::out_of_range);  // beyond kd
  EXPECT_THROW(a.at(5, 5), std::out_of_range);  // beyond n
}

TEST(BandedCholesky, RefactorAfterRefillIsBitwise) {
  // The Poisson Newton loop reuses one storage: zero, refill, factor,
  // solve. A refill of the same values must reproduce the first solve
  // bit for bit — nothing of the previous factor may leak through.
  std::mt19937 gen(5);
  const std::size_t n = 80, kd = 9;
  const SpdPair sys = random_spd(n, kd, gen);
  std::vector<double> b(n);
  std::uniform_real_distribution<double> dist(-1.0, 1.0);
  for (auto& v : b) v = dist(gen);

  sl::BandedCholesky work = sys.lower;
  work.factor();
  std::vector<double> first = b;
  work.solve(first);

  work.set_zero();
  for (std::size_t c = 0; c < n; ++c) {
    for (std::size_t r = c; r <= std::min(n - 1, c + kd); ++r) {
      work.at(r, c) = sys.lower.at(r, c);
    }
  }
  work.factor();
  std::vector<double> second = b;
  work.solve(second);
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(first[i], second[i]) << i;
}

TEST(BandedCholesky, NominalFlopsCountTheBandUpdate) {
  EXPECT_EQ(sl::BandedCholesky::nominal_flops(100, 10), 100u * 55u);
  EXPECT_EQ(sl::BandedLu::nominal_flops(100, 10, 10), 100u * 10u * 10u);
}
