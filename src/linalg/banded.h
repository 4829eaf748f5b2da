#pragma once

/// \file banded.h
/// Banded direct solvers. The 2-D TCAD discretization on a tensor-product
/// mesh produces matrices whose bandwidth equals the number of nodes in
/// the faster-varying direction of the unknowns' numbering; the TCAD
/// solves number along the shorter mesh direction, so the bandwidth is
/// min(nx, ny). A banded direct solve is both fast (O(n*bw^2)) and far
/// more robust than iterative methods. Two kernels, each relying on a
/// structural property of its TCAD matrices instead of pivoting:
///   * BandedLu — for the nonsymmetric Scharfetter–Gummel continuity
///     matrices, which are column diagonally dominant by construction:
///     in-place elimination with no scaling, no pivot search and no
///     fill rows, guarded so that a column which would need a row swap
///     is reported as a breakdown rather than solved;
///   * BandedCholesky — for the symmetric positive-definite Poisson
///     Newton operator (box-method Laplacian plus a positive charge
///     diagonal): half the storage and half the flops of the LU at
///     equal bandwidth.

#include <cstddef>
#include <cstdint>
#include <vector>

namespace subscale::linalg {

/// LU factorization A = L U of a banded matrix without pivoting, in
/// LAPACK-style band storage without fill rows: (kl + ku + 1) x n,
/// column-major, entry (r, c) at storage row ku + r - c of column c.
/// The caller fills the matrix through at(), factor() overwrites it
/// with unit-lower L (multipliers below the diagonal) and U, and
/// solve() reuses the factors for any right-hand side.
///
/// Without pivoting the elimination is backward stable when every
/// multiplier satisfies |a_ik / a_kk| <= 1, which holds on every
/// column diagonally dominant matrix (and its Schur complements).
/// factor() checks exactly that condition: it is the case in which
/// partial pivoting would make no swap, so the factors are the ones
/// the pivoting LU would compute. A column that violates it (or a zero
/// or non-finite pivot) stops the factorization and is reported, never
/// solved.
class BandedLu {
 public:
  /// \param n  matrix dimension
  /// \param kl number of sub-diagonals
  /// \param ku number of super-diagonals
  BandedLu(std::size_t n, std::size_t kl, std::size_t ku);

  std::size_t size() const { return n_; }
  std::size_t lower_bandwidth() const { return kl_; }
  std::size_t upper_bandwidth() const { return ku_; }

  /// Entry (r, c); requires r - kl <= c <= r + ku and r, c < n, else
  /// throws std::out_of_range.
  double& at(std::size_t r, std::size_t c);
  double at(std::size_t r, std::size_t c) const;

  void set_zero();

  /// Factors the stored matrix in place. Returns false — leaving the
  /// storage partly eliminated — at the first column whose pivot is
  /// zero or non-finite or whose multiplier exceeds 1 in magnitude (or
  /// is NaN). solve() is valid only after factor() returned true.
  [[nodiscard]] bool factor();

  /// Solve A x = b in place (b becomes x), using the factors from
  /// factor().
  void solve(std::vector<double>& b) const;

  /// Nominal multiply-adds of one factorization: the trailing update of
  /// every column touches kl rows x ku columns.
  static std::uint64_t nominal_flops(std::size_t n, std::size_t kl,
                                     std::size_t ku);

 private:
  std::size_t n_;
  std::size_t kl_;
  std::size_t ku_;
  std::size_t ld_;           // rows of band storage = kl + ku + 1
  std::vector<double> ab_;   // column-major band storage

  std::size_t offset(std::size_t r, std::size_t c) const;
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
