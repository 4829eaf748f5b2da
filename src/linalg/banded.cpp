#include "linalg/banded.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace subscale::linalg {

BandedLu::BandedLu(std::size_t n, std::size_t kl, std::size_t ku)
    : n_(n), kl_(kl), ku_(ku), ld_(kl + ku + 1), ab_(ld_ * n, 0.0) {
  if (n == 0) throw std::invalid_argument("BandedLu: n must be > 0");
}

std::size_t BandedLu::offset(std::size_t r, std::size_t c) const {
  if (r >= n_ || c >= n_ || (c > r ? c - r > ku_ : r - c > kl_)) {
    throw std::out_of_range("BandedLu::at: entry outside band");
  }
  return c * ld_ + (ku_ + r - c);
}

double& BandedLu::at(std::size_t r, std::size_t c) { return ab_[offset(r, c)]; }

double BandedLu::at(std::size_t r, std::size_t c) const {
  return ab_[offset(r, c)];
}

void BandedLu::set_zero() { std::fill(ab_.begin(), ab_.end(), 0.0); }

bool BandedLu::factor() {
  // Right-looking column elimination. Band storage is contiguous down a
  // column, so the multipliers of column k (colk[i] = A(k+i, k)) and the
  // slice of every trailing column they update (colc[i] = A(k+i, c)) are
  // unit-stride axpys. With no row swaps the update stays inside the
  // original band: rows k+1 .. k+kl, columns k+1 .. k+ku.
  double* ab = ab_.data();
  for (std::size_t k = 0; k < n_; ++k) {
    double* colk = ab + k * ld_ + ku_;
    const double pivot = colk[0];
    if (pivot == 0.0 || !std::isfinite(pivot)) return false;
    const std::size_t nr = std::min(kl_, n_ - 1 - k);  // rows below diag
    for (std::size_t i = 1; i <= nr; ++i) {
      colk[i] /= pivot;
      if (!(std::abs(colk[i]) <= 1.0)) return false;
    }
    const std::size_t c_hi = std::min(n_ - 1, k + ku_);
    for (std::size_t c = k + 1; c <= c_hi; ++c) {
      double* colc = ab + c * ld_ + (ku_ + k - c);
      const double u = colc[0];
      if (u == 0.0) continue;
      for (std::size_t i = 1; i <= nr; ++i) colc[i] -= colk[i] * u;
    }
  }
  return true;
}

void BandedLu::solve(std::vector<double>& b) const {
  if (b.size() != n_) {
    throw std::invalid_argument("BandedLu::solve: size mismatch");
  }
  const double* ab = ab_.data();
  // Forward: unit-lower L y = b, column-oriented (axpy down column k).
  for (std::size_t k = 0; k < n_; ++k) {
    const double* colk = ab + k * ld_ + ku_;
    const std::size_t nr = std::min(kl_, n_ - 1 - k);
    const double yk = b[k];
    double* br = b.data() + k;
    for (std::size_t i = 1; i <= nr; ++i) br[i] -= colk[i] * yk;
  }
  // Backward: U x = y, column-oriented; u[i] = U(k - top + i, k).
  for (std::size_t k = n_; k-- > 0;) {
    const std::size_t top = std::min(ku_, k);
    const double* u = ab + k * ld_ + (ku_ - top);
    const double xk = b[k] / u[top];
    b[k] = xk;
    double* br = b.data() + (k - top);
    for (std::size_t i = 0; i < top; ++i) br[i] -= u[i] * xk;
  }
}

std::uint64_t BandedLu::nominal_flops(std::size_t n, std::size_t kl,
                                      std::size_t ku) {
  return std::uint64_t{n} * kl * ku;
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
