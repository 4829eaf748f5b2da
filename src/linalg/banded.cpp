#include "linalg/banded.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace subscale::linalg {

BandedMatrix::BandedMatrix(std::size_t n, std::size_t kl, std::size_t ku)
    : n_(n), kl_(kl), ku_(ku), ldab_(2 * kl + ku + 1), ab_(ldab_ * n, 0.0) {
  if (n == 0) throw std::invalid_argument("BandedMatrix: n must be > 0");
}

bool BandedMatrix::in_band(std::size_t r, std::size_t c) const {
  if (r >= n_ || c >= n_) return false;
  if (c > r) return (c - r) <= ku_;
  return (r - c) <= kl_;
}

double& BandedMatrix::at(std::size_t r, std::size_t c) {
  if (!in_band(r, c)) {
    throw std::out_of_range("BandedMatrix::at: entry outside band");
  }
  return storage(r, c);
}

double BandedMatrix::at(std::size_t r, std::size_t c) const {
  if (!in_band(r, c)) {
    throw std::out_of_range("BandedMatrix::at: entry outside band");
  }
  return storage(r, c);
}

void BandedMatrix::set_zero() { std::fill(ab_.begin(), ab_.end(), 0.0); }

std::vector<double> BandedMatrix::multiply(const std::vector<double>& x) const {
  if (x.size() != n_) {
    throw std::invalid_argument("BandedMatrix::multiply: size mismatch");
  }
  std::vector<double> y(n_, 0.0);
  for (std::size_t r = 0; r < n_; ++r) {
    const std::size_t c_lo = (r > kl_) ? r - kl_ : 0;
    const std::size_t c_hi = std::min(n_ - 1, r + ku_);
    double acc = 0.0;
    for (std::size_t c = c_lo; c <= c_hi; ++c) acc += storage(r, c) * x[c];
    y[r] = acc;
  }
  return y;
}

BandedLu::BandedLu(BandedMatrix& a)
    : lu_(a), ipiv_(lu_.n_), row_scale_(lu_.n_, 1.0) {
  const std::size_t n = lu_.n_;
  const std::size_t kl = lu_.kl_;
  const std::size_t ku = lu_.ku_;

  // Row equilibration: scale every row so its largest entry is ~1.
  for (std::size_t r = 0; r < n; ++r) {
    const std::size_t c_lo = (r > kl) ? r - kl : 0;
    const std::size_t c_hi = std::min(n - 1, r + ku);
    double max_abs = 0.0;
    for (std::size_t c = c_lo; c <= c_hi; ++c) {
      max_abs = std::max(max_abs, std::abs(lu_.storage(r, c)));
    }
    if (max_abs == 0.0 || !std::isfinite(max_abs)) {
      throw std::runtime_error("BandedLu: zero or non-finite row");
    }
    row_scale_[r] = 1.0 / max_abs;
    for (std::size_t c = c_lo; c <= c_hi; ++c) {
      lu_.storage(r, c) *= row_scale_[r];
    }
  }
  // During factorization with partial pivoting the upper bandwidth grows to
  // kl + ku; the storage already reserves that room (2*kl + ku + 1 rows).
  const std::size_t ku_eff = kl + ku;

  // Band storage is contiguous in r for fixed c (stride 1 down a column),
  // so the trailing rank-1 update runs column-outer / row-inner: each inner
  // loop is a unit-stride axpy the compiler can vectorize. Every element
  // still receives exactly one `a -= factor * u` with the same operands as
  // the row-outer form, so the factorization is bitwise identical to the
  // reference (see banded_reference.h and the bench_kernels assertions).
  double* ab = lu_.ab_.data();
  const std::size_t ldab = lu_.ldab_;
  const std::size_t band0 = kl + ku;  // storage row of the main diagonal

  for (std::size_t k = 0; k < n; ++k) {
    // Pivot search in column k, rows k .. min(n-1, k+kl).
    const std::size_t r_hi = std::min(n - 1, k + kl);
    const std::size_t nr = r_hi - k;           // rows strictly below the pivot
    double* colk = ab + k * ldab + band0;      // colk[i] = storage(k+i, k)
    std::size_t pivot_off = 0;
    double pivot_mag = std::abs(colk[0]);
    for (std::size_t i = 1; i <= nr; ++i) {
      const double mag = std::abs(colk[i]);
      if (mag > pivot_mag) {
        pivot_mag = mag;
        pivot_off = i;
      }
    }
    if (pivot_mag == 0.0 || !std::isfinite(pivot_mag)) {
      throw std::runtime_error("BandedLu: singular matrix");
    }
    const std::size_t pivot_row = k + pivot_off;
    ipiv_[k] = pivot_row;
    const std::size_t c_hi = std::min(n - 1, k + ku_eff);
    if (pivot_row != k) {
      // Swap rows k and pivot_row across the accessible band columns.
      for (std::size_t c = k; c <= c_hi; ++c) {
        double* colc = ab + c * ldab + (band0 + k - c);
        std::swap(colc[0], colc[pivot_off]);
      }
    }
    const double pivot = colk[0];
    for (std::size_t i = 1; i <= nr; ++i) colk[i] /= pivot;
    for (std::size_t c = k + 1; c <= c_hi; ++c) {
      double* colc = ab + c * ldab + (band0 + k - c);  // colc[i] = storage(k+i, c)
      const double u = colc[0];
      if (u == 0.0) continue;
      for (std::size_t i = 1; i <= nr; ++i) colc[i] -= colk[i] * u;
    }
  }
}

std::vector<double> BandedLu::solve(const std::vector<double>& b) const {
  const std::size_t n = lu_.n_;
  if (b.size() != n) {
    throw std::invalid_argument("BandedLu::solve: size mismatch");
  }
  const std::size_t kl = lu_.kl_;
  const std::size_t ku_eff = lu_.kl_ + lu_.ku_;
  std::vector<double> x = b;
  for (std::size_t r = 0; r < n; ++r) x[r] *= row_scale_[r];

  // Apply row interchanges and forward-substitute with unit-lower L. The
  // multipliers for column k sit contiguously in band storage, so the inner
  // loop is a unit-stride axpy (same ops as the element-wise form).
  const double* ab = lu_.ab_.data();
  const std::size_t ldab = lu_.ldab_;
  const std::size_t band0 = kl + lu_.ku_;
  for (std::size_t k = 0; k < n; ++k) {
    if (ipiv_[k] != k) std::swap(x[k], x[ipiv_[k]]);
    const std::size_t nr = std::min(n - 1, k + kl) - k;
    const double* colk = ab + k * ldab + band0;  // colk[i] = storage(k+i, k)
    const double xk = x[k];
    double* xr = x.data() + k;
    for (std::size_t i = 1; i <= nr; ++i) xr[i] -= colk[i] * xk;
  }
  // Back substitution with U.
  for (std::size_t kk = n; kk-- > 0;) {
    const std::size_t c_hi = std::min(n - 1, kk + ku_eff);
    double acc = x[kk];
    for (std::size_t c = kk + 1; c <= c_hi; ++c) {
      acc -= lu_.storage(kk, c) * x[c];
    }
    x[kk] = acc / lu_.storage(kk, kk);
  }
  return x;
}

std::uint64_t BandedLu::nominal_flops(std::size_t n, std::size_t kl,
                                      std::size_t ku) {
  return std::uint64_t{n} * kl * (kl + ku);
}

BandedCholesky::BandedCholesky(std::size_t n, std::size_t kd)
    : n_(n), kd_(kd), ld_(kd + 1), ab_(ld_ * n, 0.0) {
  if (n == 0) throw std::invalid_argument("BandedCholesky: n must be > 0");
}

std::size_t BandedCholesky::offset(std::size_t r, std::size_t c) const {
  if (r >= n_ || c > r || r - c > kd_) {
    throw std::out_of_range("BandedCholesky::at: entry outside lower band");
  }
  return c * ld_ + (r - c);
}

double& BandedCholesky::at(std::size_t r, std::size_t c) {
  return ab_[offset(r, c)];
}

double BandedCholesky::at(std::size_t r, std::size_t c) const {
  return ab_[offset(r, c)];
}

void BandedCholesky::set_zero() { std::fill(ab_.begin(), ab_.end(), 0.0); }

void BandedCholesky::factor() {
  // Right-looking column Cholesky: column k of the band is contiguous
  // (colk[i] = A(k+i, k)), and so is every trailing column it updates —
  // all inner loops are unit-stride, as in BandedLu. The update loops
  // shrink from kd to 1 element, so per-loop overhead dominates; the
  // trailing columns are updated two per pass, each load of colk[i]
  // feeding both. Every element still receives exactly one
  // `a -= l_i * l_j`, so the result does not depend on the pairing.
  double* ab = ab_.data();
  for (std::size_t k = 0; k < n_; ++k) {
    double* colk = ab + k * ld_;
    const double d = colk[0];
    if (!(d > 0.0) || !std::isfinite(d)) {
      throw std::runtime_error("BandedCholesky: matrix not positive definite");
    }
    const double lkk = std::sqrt(d);
    colk[0] = lkk;
    const std::size_t nr = std::min(kd_, n_ - 1 - k);  // rows below diag
    for (std::size_t i = 1; i <= nr; ++i) colk[i] /= lkk;
    std::size_t j = 1;
    for (; j + 1 <= nr; j += 2) {
      // c0[i] = A(k+i, k+j) and c1[i] = A(k+i, k+j+1): disjoint from
      // each other and from column k.
      double* __restrict c0 = ab + (k + j) * ld_ - j;
      double* __restrict c1 = ab + (k + j + 1) * ld_ - (j + 1);
      const double l0 = colk[j];
      const double l1 = colk[j + 1];
      c0[j] -= colk[j] * l0;
      for (std::size_t i = j + 1; i <= nr; ++i) {
        c0[i] -= colk[i] * l0;
        c1[i] -= colk[i] * l1;
      }
    }
    if (j == nr) ab[(k + j) * ld_] -= colk[j] * colk[j];
  }
}

void BandedCholesky::solve(std::vector<double>& b) const {
  if (b.size() != n_) {
    throw std::invalid_argument("BandedCholesky::solve: size mismatch");
  }
  const double* ab = ab_.data();
  // Forward: L y = b, column-oriented (unit-stride axpy down column k).
  for (std::size_t k = 0; k < n_; ++k) {
    const double* colk = ab + k * ld_;
    const std::size_t nr = std::min(kd_, n_ - 1 - k);
    const double yk = b[k] / colk[0];
    b[k] = yk;
    double* br = b.data() + k;
    for (std::size_t i = 1; i <= nr; ++i) br[i] -= colk[i] * yk;
  }
  // Backward: L^T x = y, row k of L^T is column k of L (unit-stride dot).
  for (std::size_t k = n_; k-- > 0;) {
    const double* colk = ab + k * ld_;
    const std::size_t nr = std::min(kd_, n_ - 1 - k);
    const double* xr = b.data() + k;
    double acc = b[k];
    for (std::size_t i = 1; i <= nr; ++i) acc -= colk[i] * xr[i];
    b[k] = acc / colk[0];
  }
}

std::uint64_t BandedCholesky::nominal_flops(std::size_t n, std::size_t kd) {
  return std::uint64_t{n} * kd * (kd + 1) / 2;
}

}  // namespace subscale::linalg
