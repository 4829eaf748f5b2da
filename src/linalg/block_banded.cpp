#include "linalg/block_banded.h"

#include <stdexcept>

namespace subscale::linalg {

namespace {
std::size_t scalar_bandwidth(std::size_t block_size, std::size_t block_bw) {
  // Unknown index = node * block_size + component, so the farthest coupled
  // scalar entry for node offset block_bw is block_size*block_bw +
  // (block_size - 1).
  return block_size * block_bw + block_size - 1;
}
}  // namespace

BlockBandedMatrix::BlockBandedMatrix(std::size_t n_blocks,
                                     std::size_t block_size,
                                     std::size_t block_bandwidth)
    : n_blocks_(n_blocks),
      block_size_(block_size),
      block_bw_(block_bandwidth),
      scalar_(n_blocks * block_size,
              scalar_bandwidth(block_size, block_bandwidth),
              scalar_bandwidth(block_size, block_bandwidth)) {
  if (block_size == 0) {
    throw std::invalid_argument("BlockBandedMatrix: block_size must be > 0");
  }
}

BlockBandedLu::BlockBandedLu(BlockBandedMatrix& a) : lu_(a.scalar()) {}

std::vector<double> BlockBandedLu::solve(const std::vector<double>& b) const {
  return lu_.solve(b);
}

}  // namespace subscale::linalg
