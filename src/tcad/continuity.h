#pragma once

/// \file continuity.h
/// Steady-state carrier continuity with Scharfetter–Gummel fluxes:
/// div J_n = +q R, div J_p = -q R, with SRH recombination (denominator
/// lagged so each solve is a single banded linear system). The system is
/// column diagonally dominant by construction — each interior column's
/// off-diagonals sum to its diagonal minus the SRH term, and ohmic-contact
/// couplings move to the rhs — so it is solved by the pivot-free
/// linalg::BandedLu.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "physics/mobility.h"
#include "tcad/device_structure.h"
#include "tcad/solver_status.h"

namespace subscale::obs {
class SpanProfiler;
}  // namespace subscale::obs

namespace subscale::linalg {
class BandedLu;
}  // namespace subscale::linalg

namespace subscale::tcad {

struct ContinuityOptions {
  double tau_srh = 1e-7;       ///< SRH lifetime [s] (both carriers)
  bool velocity_saturation = true;  ///< Caughey–Thomas edge mobility
  /// Assemble in Slotboom variables (n = ni e^{psi/vt} u, p = ni
  /// e^{-psi/vt} v) instead of raw densities. The SG flux becomes
  /// symmetric in u/v and the assembly is exact at equilibrium (u = v
  /// = 1 identically), which makes this a genuinely independent
  /// discretization of the same physics — the equivalence tier runs it
  /// against the raw-density path as a differential check of the SG
  /// assembly. It is NOT an accuracy upgrade: the solver's ~1e-6
  /// subthreshold current noise comes from the contact-flux
  /// evaluation (a 1e9 gross/net cancellation) and is unchanged by the
  /// variable choice, while at high bias the e^{psi/vt} weights span
  /// the full psi range and degrade the linear systems' conditioning
  /// enough to stall tight-tolerance ramps above ~1V. Off by default:
  /// the raw-density path is the production discretization. Both
  /// assemblies keep the column dominance the pivot-free LU needs (the
  /// weights scale a column uniformly).
  bool slotboom = false;
};

struct ContinuityResult {
  SolveStatus status = SolveStatus::kConverged;
  std::size_t non_finite_nodes = 0;  ///< NaN/Inf densities from the solve
  double max_density = 0.0;          ///< max over silicon nodes [1/m^3]
  /// Nominal multiply-adds of the solve's LU factorization.
  std::uint64_t band_flops = 0;
};

/// Reusable assembly state for solve_continuity, bound to one device.
/// Edge geometry (distance, area, silicon-edge flags) and the
/// zero-field Masetti mobilities depend only on the mesh, material map
/// and doping — never on the Gummel iterate — so one workspace computes
/// them once and amortizes them over the hundreds of continuity solves
/// an I-V ramp performs on that device. The band-matrix and rhs buffers
/// are recycled between calls (zero + refill is bitwise-identical to
/// fresh construction, and every row is rewritten each assembly).
/// The band matrix numbers its unknowns along the shorter mesh direction
/// (TensorMesh2d::band_position, bandwidth min(nx, ny)); the solve
/// scatters its solution back to mesh index order, so callers never see
/// the band numbering. bind() also records each ohmic contact node's
/// equilibrium densities and marks every edge into one, so the assembly
/// moves those known couplings to the rhs. Passing a workspace changes
/// no arithmetic: results are bitwise-identical to the workspace-free
/// path.
class SgWorkspace {
 public:
  SgWorkspace();
  ~SgWorkspace();
  SgWorkspace(SgWorkspace&&) noexcept;
  SgWorkspace& operator=(SgWorkspace&&) noexcept;

 private:
  friend ContinuityResult solve_continuity(
      const DeviceStructure&, physics::Carrier, const std::vector<double>&,
      const std::vector<double>&, std::vector<double>&,
      const ContinuityOptions&, obs::SpanProfiler*, SgWorkspace*);

  struct Edge {
    std::size_t nb = 0;    ///< neighbour node index
    double dist = 0.0;     ///< node spacing [m]
    double area = 0.0;     ///< flux cross-section [m]
    double mu_n0 = 0.0;    ///< zero-field Masetti mobility, electrons
    double mu_p0 = 0.0;    ///< zero-field Masetti mobility, holes
    bool active = false;   ///< edge exists and both ends are silicon
    bool ohmic = false;    ///< neighbour is an ohmic contact node
  };

  void bind(const DeviceStructure& dev);

  const DeviceStructure* dev_ = nullptr;  ///< device the cache describes
  std::vector<Edge> edges_;               ///< 4 slots (W,E,S,N) per node
  std::vector<std::size_t> pos_;          ///< band position of every node
  std::vector<double> n_eq_;              ///< ohmic n at contact nodes
  std::vector<double> p_eq_;              ///< ohmic p at contact nodes
  std::unique_ptr<linalg::BandedLu> a_;
  std::vector<double> rhs_;
  std::vector<double> w_;  ///< Slotboom weights scratch
};

/// Solve the electron (or hole) continuity equation for the density
/// field, given the electrostatic potential. The opposite carrier's
/// density enters the (lagged) SRH term. Results are clamped positive.
/// A non-finite linear-solve output is reported via the result
/// (kNonFinite) instead of being propagated as garbage currents; the
/// offending nodes are reset to the density floor. A breakdown of the
/// pivot-free LU (a column that would need a row swap, or a zero or
/// non-finite pivot) returns kDiverged and leaves `density` unchanged;
/// no other continuity outcome is kDiverged.
/// A non-null `profiler` records the "linalg.banded_lu.solve" span of
/// the single banded solve. A non-null `workspace` reuses cached
/// geometry/mobility tables and assembly buffers across calls (see
/// SgWorkspace); it is rebound automatically if `dev` changes.
ContinuityResult solve_continuity(const DeviceStructure& dev,
                                  physics::Carrier carrier,
                                  const std::vector<double>& psi,
                                  const std::vector<double>& other_density,
                                  std::vector<double>& density,
                                  const ContinuityOptions& options = {},
                                  obs::SpanProfiler* profiler = nullptr,
                                  SgWorkspace* workspace = nullptr);

/// Scharfetter–Gummel edge current (per metre of device width) flowing
/// from node a to node b for the given carrier [A/m]. Used both by the
/// assembly and by terminal-current integration.
double edge_current(const DeviceStructure& dev, physics::Carrier carrier,
                    const std::vector<double>& psi,
                    const std::vector<double>& density, std::size_t node_a,
                    std::size_t node_b, double dist, double area,
                    const ContinuityOptions& options = {});

/// Edge mobility used by both routines [m^2/Vs].
double edge_mobility(const DeviceStructure& dev, physics::Carrier carrier,
                     const std::vector<double>& psi, std::size_t node_a,
                     std::size_t node_b, double dist,
                     const ContinuityOptions& options);

}  // namespace subscale::tcad
