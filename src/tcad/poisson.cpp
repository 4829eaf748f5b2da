#include "tcad/poisson.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "linalg/banded.h"
#include "obs/names.h"
#include "obs/profiler.h"
#include "physics/constants.h"

namespace subscale::tcad {

namespace {

constexpr double kMaxExponent = 200.0;

double clamped_exp(double x) {
  return std::exp(std::clamp(x, -kMaxExponent, kMaxExponent));
}

}  // namespace

double boltzmann_n(double psi, double phi_n, double ni, double vt) {
  return ni * clamped_exp((psi - phi_n) / vt);
}

double boltzmann_p(double psi, double phi_p, double ni, double vt) {
  return ni * clamped_exp((phi_p - psi) / vt);
}

PoissonOperator::PoissonOperator(const DeviceStructure& dev)
    : ni_(dev.ni()),
      vt_(dev.vt()),
      stencil_(dev.mesh().node_count()),
      dirichlet_(dev.mesh().node_count(), 0),
      pos_(dev.mesh().node_count()) {
  const auto& m = dev.mesh();
  const std::size_t nx = m.nx();
  const std::size_t ny = m.ny();
  const auto eps_of_edge = [&](std::size_t a, std::size_t b) {
    const bool ox = !dev.is_silicon(a) || !dev.is_silicon(b);
    return ox ? physics::kEpsSiO2 : physics::kEpsSi;
  };
  for (std::size_t j = 0; j < ny; ++j) {
    for (std::size_t i = 0; i < nx; ++i) {
      const std::size_t idx = m.index(i, j);
      dirichlet_[idx] = dev.is_contact(idx) ? 1 : 0;
      pos_[idx] = m.band_position(idx);
      NodeStencil& s = stencil_[idx];
      const auto set_edge = [&](std::size_t slot, std::size_t nb,
                                double dist, double area) {
        s.nb[slot] = nb;
        s.k[slot] = eps_of_edge(idx, nb) * area / dist;
        s.has[slot] = 1;
      };
      if (i > 0) {
        set_edge(0, m.index(i - 1, j), m.x(i) - m.x(i - 1),
                 m.dy_minus(j) + m.dy_plus(j));
      }
      if (i + 1 < nx) {
        set_edge(1, m.index(i + 1, j), m.x(i + 1) - m.x(i),
                 m.dy_minus(j) + m.dy_plus(j));
      }
      if (j > 0) {
        set_edge(2, m.index(i, j - 1), m.y(j) - m.y(j - 1),
                 m.dx_minus(i) + m.dx_plus(i));
      }
      if (j + 1 < ny) {
        set_edge(3, m.index(i, j + 1), m.y(j + 1) - m.y(j),
                 m.dx_minus(i) + m.dx_plus(i));
      }
      if (dev.is_silicon(idx)) {
        s.qbox = physics::kQ * m.box_area(i, j);
        s.doping = dev.net_doping()[idx];
      }
    }
  }
}

double PoissonOperator::coupling(std::size_t a, std::size_t b) const {
  const NodeStencil& s = stencil_.at(a);
  for (std::size_t e = 0; e < 4; ++e) {
    if (s.has[e] && s.nb[e] == b) return s.k[e];
  }
  return 0.0;
}

void PoissonOperator::assemble(const std::vector<double>& phi_n,
                               const std::vector<double>& phi_p,
                               const std::vector<double>& psi,
                               linalg::BandedCholesky& op,
                               std::vector<double>& rhs) const {
  const std::size_t n = stencil_.size();
  if (op.size() != n || rhs.size() != n || psi.size() != n ||
      phi_n.size() != n || phi_p.size() != n) {
    throw std::invalid_argument("PoissonOperator::assemble: size mismatch");
  }
  // factor() leaves L in the storage, so clear it before the refill.
  op.set_zero();
  for (std::size_t idx = 0; idx < n; ++idx) {
    const std::size_t row = pos_[idx];
    if (dirichlet_[idx]) {
      op.at(row, row) = 1.0;
      rhs[row] = 0.0;  // already imposed
      continue;
    }
    const NodeStencil& s = stencil_[idx];
    double f = 0.0;
    double diag = 0.0;
    for (std::size_t e = 0; e < 4; ++e) {
      if (!s.has[e]) continue;
      const std::size_t nb = s.nb[e];
      const double k = s.k[e];
      f += k * (psi[nb] - psi[idx]);
      diag += k;
      // Lower triangle only: the upper coupling is the neighbour's row
      // entry, bitwise equal by symmetry.
      if (pos_[nb] < row && !dirichlet_[nb]) op.at(row, pos_[nb]) = -k;
    }
    if (s.qbox != 0.0) {
      const double nn = boltzmann_n(psi[idx], phi_n[idx], ni_, vt_);
      const double pp = boltzmann_p(psi[idx], phi_p[idx], ni_, vt_);
      f += s.qbox * (pp - nn + s.doping);
      diag += s.qbox * (nn + pp) / vt_;
    }
    op.at(row, row) = diag;
    rhs[row] = f;
  }
}

PoissonResult solve_poisson(const DeviceStructure& dev,
                            const std::map<std::string, double>& biases,
                            const std::vector<double>& phi_n,
                            const std::vector<double>& phi_p,
                            std::vector<double>& psi,
                            const PoissonOptions& options,
                            obs::SpanProfiler* profiler) {
  const auto& m = dev.mesh();
  const std::size_t n_nodes = m.node_count();
  if (psi.size() != n_nodes || phi_n.size() != n_nodes ||
      phi_p.size() != n_nodes) {
    throw std::invalid_argument("solve_poisson: state size mismatch");
  }

  // Impose the Dirichlet values; Newton then never moves them.
  for (std::size_t idx = 0; idx < n_nodes; ++idx) {
    const std::string& c = m.contact_of(idx);
    if (c.empty()) continue;
    const auto it = biases.find(c);
    if (it == biases.end()) {
      throw std::invalid_argument("solve_poisson: missing bias for contact " +
                                  c);
    }
    psi[idx] = dev.contact_potential(idx, it->second);
  }

  const PoissonOperator op(dev);
  // Band storage and the step vector are hoisted out of the Newton loop;
  // every iteration overwrites both.
  linalg::BandedCholesky jac(n_nodes, m.band_width());
  std::vector<double> delta(n_nodes, 0.0);

  PoissonResult result;
  for (std::size_t it = 0; it < options.max_iterations; ++it) {
    op.assemble(phi_n, phi_p, psi, jac, delta);
    {
      const obs::ScopedSpan lu_span(profiler,
                                    obs::names::spans::kBandedLuSolve);
      jac.factor();
      jac.solve(delta);
    }
    result.band_flops += linalg::BandedCholesky::nominal_flops(
        n_nodes, jac.bandwidth());
    double max_update = 0.0;
    double max_psi = 0.0;
    for (std::size_t idx = 0; idx < n_nodes; ++idx) {
      if (op.is_dirichlet(idx)) continue;
      const double d = std::clamp(delta[op.position(idx)],
                                  -options.damping_clamp,
                                  options.damping_clamp);
      psi[idx] += d;
      max_update = std::max(max_update, std::abs(d));
      max_psi = std::max(max_psi, std::abs(psi[idx]));
    }
    result.iterations = it + 1;
    result.max_update = max_update;
    // Guards: a NaN step (from a non-finite residual) or a runaway
    // potential means further iteration only manufactures
    // garbage — stop now and let the caller restore a good state.
    if (!std::isfinite(max_update) || !std::isfinite(max_psi)) {
      result.status = SolveStatus::kNonFinite;
      return result;
    }
    if (max_psi > options.divergence_threshold) {
      result.status = SolveStatus::kDiverged;
      return result;
    }
    if (max_update < options.update_tolerance) {
      result.converged = true;
      result.status = SolveStatus::kConverged;
      return result;
    }
  }
  return result;
}

}  // namespace subscale::tcad
