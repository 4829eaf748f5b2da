#pragma once

/// \file block_banded.h
/// Block-structured banded matrix + factorization for the coupled Newton
/// drift–diffusion Jacobian. Each mesh node carries a small fixed block of
/// unknowns (here 3: {psi, n, p}) and couples only to its stencil
/// neighbours, so the Jacobian is block-banded: a banded matrix of B x B
/// blocks with node-level bandwidth p (p = nx on the 2-D tensor mesh).
///
/// The blocks are assembled straight into scalar LAPACK band storage with
/// kl = ku = B*p + B - 1 and factorized by the vectorized BandedLu kernel —
/// block assembly keeps the Newton code readable while the scalar band
/// factorization (with its contiguous column-axpy inner loops) does the
/// heavy lifting. Partial pivoting stays global across the band, which the
/// ill-conditioned drift–diffusion blocks require; confining pivots inside
/// blocks is not robust for these systems.

#include <cstddef>
#include <vector>

#include "linalg/banded.h"

namespace subscale::linalg {

/// Banded matrix of dense block_size x block_size blocks.
class BlockBandedMatrix {
 public:
  /// \param n_blocks        number of block rows/columns (mesh nodes)
  /// \param block_size      unknowns per node (3 for {psi, n, p})
  /// \param block_bandwidth farthest coupled neighbour in node index units
  BlockBandedMatrix(std::size_t n_blocks, std::size_t block_size,
                    std::size_t block_bandwidth);

  std::size_t n_blocks() const { return n_blocks_; }
  std::size_t block_size() const { return block_size_; }
  std::size_t block_bandwidth() const { return block_bw_; }
  /// Scalar dimension = n_blocks * block_size.
  std::size_t size() const { return n_blocks_ * block_size_; }

  /// Add `value` to local entry (r, c) of block (bi, bj). The block must lie
  /// within the declared block band: |bi - bj| <= block_bandwidth.
  void add(std::size_t bi, std::size_t bj, std::size_t r, std::size_t c,
           double value) {
    scalar_.add(bi * block_size_ + r, bj * block_size_ + c, value);
  }

  /// Scalar-index view of the assembled matrix.
  const BandedMatrix& scalar() const { return scalar_; }
  BandedMatrix& scalar() { return scalar_; }

  void set_zero() { scalar_.set_zero(); }

 private:
  std::size_t n_blocks_;
  std::size_t block_size_;
  std::size_t block_bw_;
  BandedMatrix scalar_;
};

/// LU factorization of a BlockBandedMatrix. Delegates to the vectorized
/// scalar BandedLu (row equilibration + partial pivoting); see the header
/// comment for why pivoting is not confined to blocks.
class BlockBandedLu {
 public:
  /// Factorizes `a` in place (see BandedLu). Throws std::runtime_error
  /// if singular.
  explicit BlockBandedLu(BlockBandedMatrix& a);

  /// Solve A x = b; b is in scalar (node-major, component-minor) order.
  std::vector<double> solve(const std::vector<double>& b) const;

 private:
  BandedLu lu_;
};

}  // namespace subscale::linalg
