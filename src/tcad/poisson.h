#pragma once

/// \file poisson.h
/// Nonlinear Poisson solver on the device structure: box-method
/// discretization of div(eps grad psi) = -q (p - n + N) with Boltzmann
/// carriers evaluated from frozen quasi-Fermi potentials (the inner
/// problem of a Gummel iteration). Dirichlet at contacts, natural
/// Neumann elsewhere; solved with damped Newton. The Newton operator is
/// symmetric positive definite (see PoissonOperator), so every step is
/// one in-place banded Cholesky factorization. Its unknowns are numbered
/// along the shorter mesh direction (TensorMesh2d::band_position), so
/// the bandwidth is min(nx, ny) of the tensor mesh.

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "tcad/device_structure.h"
#include "tcad/solver_status.h"

namespace subscale::linalg {
class BandedCholesky;
}  // namespace subscale::linalg

namespace subscale::obs {
class SpanProfiler;
}  // namespace subscale::obs

namespace subscale::tcad {

/// The negated Newton Jacobian -J of the box-method Poisson residual
/// f = sum_e k_e (psi_nb - psi) + q box (p - n + N): the edge Laplacian
/// with conductances k_e = eps area / dist, plus the charge diagonal
/// q box (n + p) / vt at silicon nodes. Contact (Dirichlet) rows are the
/// identity and couplings into contact columns are dropped, which is
/// exact because a contact's Newton update is 0. Both directions of an
/// edge evaluate the same expression, so the couplings are bitwise
/// symmetric; with the non-negative charge diagonal and every region
/// tied to a contact, -J is symmetric positive definite.
class PoissonOperator {
 public:
  explicit PoissonOperator(const DeviceStructure& dev);

  /// Edge conductance in node a's row towards node b (0 without an edge).
  double coupling(std::size_t a, std::size_t b) const;

  /// True at contact nodes, whose potential is imposed.
  bool is_dirichlet(std::size_t idx) const { return dirichlet_[idx] != 0; }

  /// Row/column of node idx in the assembled system
  /// (TensorMesh2d::band_position).
  std::size_t position(std::size_t idx) const { return pos_[idx]; }

  /// Overwrite `op` (n_nodes x mesh.band_width() lower band, node idx at
  /// row/column position(idx)) with -J at psi and `rhs` with f in the
  /// same order, so that the Newton step solves op * delta = rhs and node
  /// idx's update is delta[position(idx)].
  void assemble(const std::vector<double>& phi_n,
                const std::vector<double>& phi_p,
                const std::vector<double>& psi, linalg::BandedCholesky& op,
                std::vector<double>& rhs) const;

 private:
  // The edge conductances and the charge prefactor q*box depend only on
  // the mesh and material map, not on psi.
  struct NodeStencil {
    std::array<std::size_t, 4> nb{};  // west, east, south, north
    std::array<double, 4> k{};        // edge conductances (0 = no edge)
    std::array<char, 4> has{};
    double qbox = 0.0;  // q * box_area, 0 for non-silicon nodes
    double doping = 0.0;
  };
  double ni_;
  double vt_;
  std::vector<NodeStencil> stencil_;
  std::vector<char> dirichlet_;
  std::vector<std::size_t> pos_;  // band position of every mesh node
};

struct PoissonOptions {
  std::size_t max_iterations = 120;
  double update_tolerance = 1e-9;  ///< on max |delta psi| [V]
  double damping_clamp = 0.5;      ///< max |delta psi| per Newton step [V]
  double divergence_threshold = 50.0;  ///< max |psi| before declaring
                                       ///< divergence [V]
};

struct PoissonResult {
  std::size_t iterations = 0;
  double max_update = 0.0;
  bool converged = false;
  /// kStalled on iteration exhaustion; kDiverged / kNonFinite when the
  /// guards fire (the potential is then unusable — callers must restore
  /// a known-good state rather than propagate it).
  SolveStatus status = SolveStatus::kStalled;
  /// Nominal multiply-adds of the Cholesky factorizations performed
  /// (one per iteration).
  std::uint64_t band_flops = 0;
};

/// Solve for psi in place. `biases` maps contact name -> applied voltage.
/// phi_n/phi_p are per-node quasi-Fermi potentials (used in silicon).
/// A non-null `profiler` records one "linalg.banded_lu.solve" span per
/// Newton iteration (the direct-solver leaf of the TCAD span tree; the
/// label covers the Cholesky solve here). Throws std::runtime_error if
/// the operator fails to factor (a non-finite state).
PoissonResult solve_poisson(const DeviceStructure& dev,
                            const std::map<std::string, double>& biases,
                            const std::vector<double>& phi_n,
                            const std::vector<double>& phi_p,
                            std::vector<double>& psi,
                            const PoissonOptions& options = {},
                            obs::SpanProfiler* profiler = nullptr);

/// Boltzmann carrier densities from the potential and quasi-Fermi level,
/// with overflow-safe exponent clamping. Exposed for the Gummel loop.
double boltzmann_n(double psi, double phi_n, double ni, double vt);
double boltzmann_p(double psi, double phi_p, double ni, double vt);

}  // namespace subscale::tcad
