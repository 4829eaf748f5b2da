#pragma once

/// \file banded.h
/// Banded direct solvers. The 2-D TCAD discretization on a tensor-product
/// mesh produces matrices whose bandwidth equals the number of nodes in
/// the faster-varying direction of the unknowns' numbering; the TCAD
/// solves number along the shorter mesh direction, so the bandwidth is
/// min(nx, ny). A banded direct solve is both fast (O(n*bw^2)) and far
/// more robust than iterative methods. Two kernels:
///   * BandedLu — row equilibration + partial pivoting, for the strongly
///     nonsymmetric continuity matrices;
///   * BandedCholesky — for the symmetric positive-definite Poisson
///     Newton operator (box-method Laplacian plus a positive charge
///     diagonal): half the storage, no pivot search, about a quarter of
///     the LU flops at equal bandwidth.

#include <cstddef>
#include <cstdint>
#include <vector>

namespace subscale::linalg {

/// Banded matrix in LAPACK-style band storage with room for fill-in from
/// partial pivoting: (2*kl + ku + 1) x n.
class BandedMatrix {
 public:
  /// \param n  matrix dimension
  /// \param kl number of sub-diagonals
  /// \param ku number of super-diagonals
  BandedMatrix(std::size_t n, std::size_t kl, std::size_t ku);

  std::size_t size() const { return n_; }
  std::size_t lower_bandwidth() const { return kl_; }
  std::size_t upper_bandwidth() const { return ku_; }

  /// Access entry (r, c); (r, c) must lie within the band.
  double& at(std::size_t r, std::size_t c);
  double at(std::size_t r, std::size_t c) const;

  /// True if (r, c) lies within the declared band.
  bool in_band(std::size_t r, std::size_t c) const;

  /// Add `value` to entry (r, c) (must be in band).
  void add(std::size_t r, std::size_t c, double value) { at(r, c) += value; }

  void set_zero();

  /// y = A x.
  std::vector<double> multiply(const std::vector<double>& x) const;

 private:
  friend class BandedLu;
  std::size_t n_;
  std::size_t kl_;
  std::size_t ku_;
  std::size_t ldab_;          // rows of band storage = 2*kl + ku + 1
  std::vector<double> ab_;    // column-major band storage

  double& storage(std::size_t r, std::size_t c) {
    // Row index within band storage: kl + ku + r - c.
    return ab_[c * ldab_ + (kl_ + ku_ + r - c)];
  }
  double storage(std::size_t r, std::size_t c) const {
    return ab_[c * ldab_ + (kl_ + ku_ + r - c)];
  }
};

/// LU factorization of a banded matrix with row equilibration and
/// partial pivoting (LAPACK dgbtrf/dgbtrs behaviour plus dgbequ-style
/// row scaling — drift-diffusion systems mix row magnitudes across ~25
/// orders, which plain partial pivoting cannot survive).
class BandedLu {
 public:
  /// Factorizes `a` in place: its storage is overwritten by the factors
  /// and must outlive this object unmodified. Throws std::runtime_error
  /// if singular.
  explicit BandedLu(BandedMatrix& a);

  /// Solve A x = b.
  std::vector<double> solve(const std::vector<double>& b) const;

  /// Nominal multiply-adds of one factorization: the trailing update of
  /// every column touches kl rows x (kl + ku) columns (fill included).
  static std::uint64_t nominal_flops(std::size_t n, std::size_t kl,
                                     std::size_t ku);

 private:
  BandedMatrix& lu_;
  std::vector<std::size_t> ipiv_;
  std::vector<double> row_scale_;
};

/// Cholesky factorization A = L L^T of a symmetric positive-definite
/// banded matrix, in LAPACK dpbtrf 'L' band storage: (kd + 1) x n,
/// column-major, entry (r, c) with c <= r <= c + kd at storage row r - c.
/// Only the lower triangle is stored; the caller fills it, factor()
/// overwrites it with L, and solve() reuses L for any right-hand side.
/// No pivoting and no equilibration: Cholesky is backward stable for
/// every SPD matrix, and its solution is invariant to symmetric
/// diagonal scaling.
class BandedCholesky {
 public:
  /// \param n  matrix dimension
  /// \param kd number of sub-diagonals
  BandedCholesky(std::size_t n, std::size_t kd);

  std::size_t size() const { return n_; }
  std::size_t bandwidth() const { return kd_; }

  /// Lower-triangle entry (r, c); requires c <= r <= c + kd, else
  /// throws std::out_of_range.
  double& at(std::size_t r, std::size_t c);
  double at(std::size_t r, std::size_t c) const;

  void set_zero();

  /// Factors the stored matrix in place. Throws std::runtime_error on a
  /// non-positive or non-finite pivot (the matrix is not SPD).
  void factor();

  /// Solve A x = b in place (b becomes x), using the factor from factor().
  void solve(std::vector<double>& b) const;

  /// Nominal multiply-adds of one factorization: kd (kd + 1) / 2 per
  /// column.
  static std::uint64_t nominal_flops(std::size_t n, std::size_t kd);

 private:
  std::size_t n_;
  std::size_t kd_;
  std::size_t ld_;           // rows of band storage = kd + 1
  std::vector<double> ab_;   // column-major lower band storage

  std::size_t offset(std::size_t r, std::size_t c) const;
};

}  // namespace subscale::linalg
