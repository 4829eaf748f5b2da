// paper_figures: what the paper reproducer runs. A closed batch: each
// pass builds a fresh ScalingStudy (no solve cache) per card and
// regenerates Tables 1-3 and Figs. 2-12 through the same public calls the
// bench_table*/bench_fig* drivers make. The paper card must meet every
// shape criterion of those drivers and match tests/golden at the golden
// tolerance; the other two cards (temperature, compact backend) must give
// finite results.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "cards/technology_card.h"
#include "circuits/delay.h"
#include "circuits/vmin.h"
#include "circuits/vtc.h"
#include "compact/device_model.h"
#include "core/scaling_study.h"
#include "io/series.h"
#include "obs/names.h"
#include "physics/units.h"
#include "scaling/generalized_scaling.h"
#include "scaling/subvth_strategy.h"
#include "scaling/supervth_strategy.h"
#include "scaling/technology.h"

namespace perfbench {

namespace {

namespace cards = subscale::cards;
namespace circuits = subscale::circuits;
namespace compact = subscale::compact;
namespace core = subscale::core;
namespace io = subscale::io;
namespace scaling = subscale::scaling;
namespace units = subscale::units;

constexpr const char* kCardIds[] = {"paper_bulk_lstp", "paper_bulk_hot350",
                                    "nanowire_gaa"};
constexpr double kGoldenRelTol = 1e-9;  // tests/test_golden.cpp's tolerance
// Tables and figures regenerated per card: Tables 1-3, Figs. 2-12.
constexpr std::size_t kItemsPerCard = 14;

struct Clocks {
  LayerClock super_design{"bench:scaling.super_design"};
  LayerClock sub_design{"bench:scaling.sub_design"};
  LayerClock scaling_other{"bench:scaling.figure_sweeps"};
  LayerClock direct{"bench:compact.direct"};
  LayerClock inverter{"bench:core.inverter"};
  LayerClock noise_margins{"bench:circuits.noise_margins"};
  LayerClock fo1_delay{"bench:circuits.fo1_delay"};
  LayerClock find_vmin{"bench:circuits.find_vmin"};

  std::vector<LayerClock*> all() {
    return {&super_design, &sub_design,    &scaling_other, &direct,
            &inverter,     &noise_margins, &fo1_delay,     &find_vmin};
  }
};

/// The flat "values" block of a tests/golden fixture.
std::map<std::string, double> load_fixture(const std::string& name) {
  std::ifstream in("tests/golden/" + name + ".json");
  std::map<std::string, double> out;
  std::string line;
  bool in_values = false;
  while (std::getline(in, line)) {
    if (!in_values) {
      in_values = line.find("\"values\": {") != std::string::npos;
      continue;
    }
    if (line.find('}') != std::string::npos) break;
    const std::size_t k0 = line.find('"');
    const std::size_t k1 = line.find('"', k0 + 1);
    const std::size_t colon = line.find(':', k1);
    if (k0 == std::string::npos || k1 == std::string::npos ||
        colon == std::string::npos) {
      continue;
    }
    out[line.substr(k0 + 1, k1 - k0 - 1)] =
        std::strtod(line.c_str() + colon + 1, nullptr);
  }
  return out;
}

struct Setup {
  std::vector<cards::TechnologyCard> cards;
  std::map<std::string, std::map<std::string, double>> golden;
};

Setup make_setup() {
  Setup s;
  for (const char* id : kCardIds) s.cards.push_back(cards::resolve_card(id));
  for (const char* name : {"table2_supervth", "table3_subvth",
                           "fig02_ss_ionioff", "fig09_lpoly_ss",
                           "nanowire_idvg"}) {
    s.golden[name] = load_fixture(name);
  }
  return s;
}

/// Correctness bookkeeping of one card pass.
class Checks {
 public:
  Checks(std::string card, bool paper) : card_(std::move(card)), paper_(paper) {}

  double finite(double x, const char* what) {
    if (!std::isfinite(x)) miss(std::string("non-finite ") + what);
    return x;
  }
  /// A bench driver's shape criterion; binding on the paper card only.
  void shape(bool ok, const char* what) {
    if (paper_ && !ok) miss(std::string("shape: ") + what);
  }
  void golden(const std::map<std::string, double>& fixture,
              const std::string& key, double computed) {
    const auto it = fixture.find(key);
    if (it == fixture.end()) {
      miss("golden: fixture has no key " + key);
      return;
    }
    const double scale = std::max(std::abs(it->second), 1e-300);
    if (!(std::abs(computed - it->second) / scale <= kGoldenRelTol)) {
      char buf[160];
      std::snprintf(buf, sizeof buf, "golden: %s pinned %.17g computed %.17g",
                    key.c_str(), it->second, computed);
      miss(buf);
    }
  }
  void miss(const std::string& what) { misses_.push_back(card_ + ": " + what); }
  const std::vector<std::string>& misses() const { return misses_; }
  bool paper() const { return paper_; }

 private:
  std::string card_;
  bool paper_;
  std::vector<std::string> misses_;
};

/// Regenerates every table and figure on one card.
void run_card(const cards::TechnologyCard& card, const Setup& setup,
              Clocks& clk, Checks& chk) {
  const compact::Calibration& calib = compact::paper_calibration();
  core::StudyOptions options;
  options.card = card;
  options.run.no_cache = true;
  options.run.exec = subscale::exec::ExecPolicy{bench_threads()};
  const core::ScalingStudy study(calib, options);
  const std::size_t n = study.node_count();
  const auto node_nm = [&](std::size_t i) {
    return std::atof(study.node(i).name.c_str());
  };

  // Table 1 — generalized scaling identities.
  {
    const double alpha = 1.0 / 0.7;
    const auto d = clk.scaling_other.time(
        [&] { return scaling::generalized_scaling(alpha, 1.0); });
    const auto e = clk.scaling_other.time(
        [&] { return scaling::generalized_scaling(alpha, 1.1); });
    chk.finite(e.power, "table1 power");
    chk.shape(d.power == d.area && d.delay == d.physical_dimensions &&
                  d.supply_voltage == d.physical_dimensions,
              "table1 constant-field identities");
  }

  // Table 2 — super-V_th roadmap.
  const auto& super =
      clk.super_design.time([&]() -> decltype(auto) { return study.super_devices(); });
  {
    bool vth_monotone = true;
    bool ioff_on_target = true;
    for (std::size_t i = 0; i < super.size(); ++i) {
      const auto& d = super[i];
      chk.finite(d.vth_sat_mv + d.ioff_pa_um + d.ss_mv_dec + d.tau_ps +
                     d.nsub_cm3 + d.nhalo_net_cm3,
                 "table2 row");
      if (i > 0 && d.vth_sat_mv <= super[i - 1].vth_sat_mv) {
        vth_monotone = false;
      }
      if (std::abs(d.ioff_pa_um / d.node.ileak_max_pa_um - 1.0) > 0.02) {
        ioff_on_target = false;
      }
      if (chk.paper()) {
        const auto& g = setup.golden.at("table2_supervth");
        const std::string k = d.node.name + ".";
        chk.golden(g, k + "lpoly_nm", d.node.lpoly_nm);
        chk.golden(g, k + "nsub_cm3", d.nsub_cm3);
        chk.golden(g, k + "nhalo_net_cm3", d.nhalo_net_cm3);
        chk.golden(g, k + "vth_sat_mv", d.vth_sat_mv);
        chk.golden(g, k + "ioff_pa_um", d.ioff_pa_um);
        chk.golden(g, k + "ss_mv_dec", d.ss_mv_dec);
        chk.golden(g, k + "tau_ps", d.tau_ps);
      }
    }
    chk.shape(vth_monotone && ioff_on_target &&
                  super.back().tau_ps < super.front().tau_ps,
              "table2 Vth rises, Ioff on cap, tau improves");
  }

  // Table 3 — sub-V_th roadmap.
  const auto& sub =
      clk.sub_design.time([&]() -> decltype(auto) { return study.sub_devices(); });
  {
    constexpr double kPaperLpoly[] = {95.0, 75.0, 60.0, 45.0};
    bool lpoly_within = true;
    bool factors_fall = true;
    const double e0 = sub.front().energy_factor_raw;
    const double d0 = sub.front().delay_factor_raw;
    for (std::size_t i = 0; i < sub.size(); ++i) {
      const auto& s = sub[i];
      chk.finite(s.lpoly_opt_nm + s.energy_factor_raw + s.delay_factor_raw +
                     s.device.ss_mv_dec + s.device.ioff_pa_um,
                 "table3 row");
      if (i < 4 && std::abs(s.lpoly_opt_nm / kPaperLpoly[i] - 1.0) > 0.15) {
        lpoly_within = false;
      }
      if (i > 0 && (s.energy_factor_raw / e0 >=
                        sub[i - 1].energy_factor_raw / e0 ||
                    s.delay_factor_raw / d0 >= sub[i - 1].delay_factor_raw / d0)) {
        factors_fall = false;
      }
      if (chk.paper()) {
        const auto& g = setup.golden.at("table3_subvth");
        const std::string k = s.device.node.name + ".";
        chk.golden(g, k + "lpoly_opt_nm", s.lpoly_opt_nm);
        chk.golden(g, k + "nsub_cm3", s.device.nsub_cm3);
        chk.golden(g, k + "nhalo_net_cm3", s.device.nhalo_net_cm3);
        chk.golden(g, k + "vth_sat_mv", s.device.vth_sat_mv);
        chk.golden(g, k + "ioff_pa_um", s.device.ioff_pa_um);
        chk.golden(g, k + "ss_mv_dec", s.device.ss_mv_dec);
        chk.golden(g, k + "tau_ps", s.device.tau_ps);
        chk.golden(g, k + "energy_factor_raw", s.energy_factor_raw);
        chk.golden(g, k + "delay_factor_raw", s.delay_factor_raw);
      }
    }
    chk.shape(lpoly_within && factors_fall,
              "table3 Lpoly within 15%, factors fall");
  }

  // Figs. 2 and 3 — direct compact-model evaluations on the super devices.
  {
    io::Series ss("ss"), ratio("ion_ioff");
    for (std::size_t i = 0; i < n; ++i) {
      clk.direct.time([&] {
        const auto fet = compact::make_device_model(super[i].spec, calib);
        const double ion = fet->ion_at(0.25);
        const double ioff = fet->drain_current(0.0, 0.25);
        ss.add(node_nm(i), chk.finite(fet->subthreshold_swing() * 1e3, "fig02 ss"));
        ratio.add(node_nm(i), chk.finite(ion / ioff, "fig02 ion/ioff"));
        if (chk.paper()) {
          const auto& g = setup.golden.at("fig02_ss_ionioff");
          const std::string k = super[i].node.name + ".";
          chk.golden(g, k + "ss_mv_dec", super[i].ss_mv_dec);
          chk.golden(g, k + "log10_ion_ioff",
                     std::log10(fet->drain_current(super[i].node.vdd,
                                                   super[i].node.vdd) /
                                fet->ioff()));
        }
      });
    }
    const double ss_rise = ss.total_relative_change();
    const double ratio_drop = -ratio.total_relative_change();
    chk.shape(ss_rise > 0.08 && ss_rise < 0.25 && ratio_drop > 0.45 &&
                  ratio_drop < 0.80,
              "fig02 S_S +8..25%, Ion/Ioff -45..80%");

    io::Series nominal("ion_nominal"), low("ion_250mV");
    for (std::size_t i = 0; i < n; ++i) {
      clk.direct.time([&] {
        const auto fet = compact::make_device_model(super[i].spec, calib);
        const double w = super[i].spec.width;
        nominal.add(node_nm(i), chk.finite(fet->ion() / w, "fig03 ion"));
        low.add(node_nm(i), chk.finite(fet->ion_at(0.25) / w, "fig03 ion"));
      });
    }
    chk.shape(nominal.total_relative_change() < 0.0 &&
                  low.normalized_to_first().points().back().y <
                      nominal.normalized_to_first().points().back().y,
              "fig03 both currents fall, 250 mV faster");
  }

  // Figs. 4 and 5 — inverter SNM and FO1 delay, super-V_th.
  std::vector<double> snm_super_250(n), tp_super_250(n);
  {
    io::Series snm_sub("snm_250mV");
    for (std::size_t i = 0; i < n; ++i) {
      const double vdd = study.node(i).vdd;
      const auto inv_nom = clk.inverter.time([&] { return study.super_inverter(i, vdd); });
      const auto inv_250 = clk.inverter.time([&] { return study.super_inverter(i, 0.25); });
      chk.finite(clk.noise_margins.time([&] { return circuits::noise_margins(inv_nom); }).snm,
                 "fig04 snm");
      snm_super_250[i] = chk.finite(
          clk.noise_margins.time([&] { return circuits::noise_margins(inv_250); }).snm,
          "fig04 snm");
      snm_sub.add(node_nm(i), snm_super_250[i] * 1e3);
    }
    const double degradation = -snm_sub.total_relative_change();
    chk.shape(degradation > 0.08 && degradation < 0.35,
              "fig04 250 mV SNM drops 8..35%");

    io::Series nom("tp_nominal"), low("tp_250mV");
    for (std::size_t i = 0; i < n; ++i) {
      const double vdd = study.node(i).vdd;
      const auto inv_nom = clk.inverter.time([&] { return study.super_inverter(i, vdd); });
      const auto inv_250 = clk.inverter.time([&] { return study.super_inverter(i, 0.25); });
      nom.add(node_nm(i), chk.finite(
          clk.fo1_delay.time([&] { return circuits::fo1_delay(inv_nom); }).tp,
          "fig05 tp"));
      tp_super_250[i] = chk.finite(
          clk.fo1_delay.time([&] { return circuits::fo1_delay(inv_250); }).tp,
          "fig05 tp");
      low.add(node_nm(i), tp_super_250[i]);
    }
    bool nominal_slow = true, low_flat = true;
    for (const double r : nom.consecutive_ratios()) {
      if (r >= 1.0 || r < 0.70) nominal_slow = false;
    }
    for (const double r : low.consecutive_ratios()) {
      if (r < 0.90) low_flat = false;
    }
    chk.shape(nominal_slow && low_flat,
              "fig05 nominal delay improves slowly, 250 mV nearly flat");
  }

  // Fig. 6 — energy and V_min of the 30-inverter chain, super-V_th.
  std::vector<circuits::VminResult> vmin_super(n);
  {
    io::Series energy("e"), vmin("vmin"), factor("f");
    for (std::size_t i = 0; i < n; ++i) {
      const auto inv = clk.inverter.time([&] { return study.super_inverter(i, 0.3); });
      vmin_super[i] = clk.find_vmin.time([&] { return circuits::find_vmin(inv); });
      const double f = clk.scaling_other.time(
          [&] { return scaling::energy_factor(super[i].spec, calib); });
      energy.add(node_nm(i), chk.finite(units::to_fJ(vmin_super[i].at_vmin.e_total), "fig06 energy"));
      vmin.add(node_nm(i), chk.finite(vmin_super[i].vmin * 1e3, "fig06 vmin"));
      factor.add(node_nm(i), chk.finite(f, "fig06 factor"));
    }
    const double dvmin = vmin.points().back().y - vmin.points().front().y;
    bool tracks = true;
    for (std::size_t i = 0; i < n; ++i) {
      const double measured = energy[i].y / energy[0].y;
      if (std::abs(factor[i].y / factor[0].y / measured - 1.0) > 0.30) {
        tracks = false;
      }
    }
    chk.shape(energy.total_relative_change() < -0.25 && dvmin > 10.0 &&
                  dvmin < 80.0 && tracks,
              "fig06 energy falls, V_min rises 10..80 mV, CL*SS^2 tracks");
  }

  // Figs. 7 and 8 — the third node's device swept over L_poly.
  const scaling::NodeInput& node45 = study.node(std::min<std::size_t>(2, n - 1));
  {
    const auto& levels = super[std::min<std::size_t>(2, n - 1)].spec.levels;
    io::Series fixed("fixed"), opt("opt");
    bool never_worse = true;
    for (double lpoly = 32.0; lpoly <= 96.0; lpoly += 8.0) {
      const auto fixed_spec = clk.scaling_other.time([&] {
        return scaling::make_node_spec(node45, lpoly, levels, 0.3,
                                       study.options().super.env);
      });
      const auto opt_spec = clk.scaling_other.time([&] {
        return scaling::optimize_subvth_doping(node45, lpoly,
                                               study.options().sub, calib);
      });
      const auto [ss_fixed, ss_opt] = clk.direct.time([&] {
        return std::make_pair(
            compact::make_device_model(fixed_spec, calib)->subthreshold_swing() * 1e3,
            compact::make_device_model(opt_spec, calib)->subthreshold_swing() * 1e3);
      });
      fixed.add(lpoly, chk.finite(ss_fixed, "fig07 ss"));
      opt.add(lpoly, chk.finite(ss_opt, "fig07 ss"));
      if (ss_opt > ss_fixed + 0.3) never_worse = false;
    }
    chk.shape(fixed.total_relative_change() < 0.0 &&
                  opt.total_relative_change() < 0.0 && never_worse,
              "fig07 S_S falls with L_poly, optimized never worse");

    double e_min = 1e300, d_min = 1e300, e_arg = 0.0;
    std::vector<std::pair<double, double>> ed;
    for (double lpoly = 34.0; lpoly <= 100.0; lpoly += 6.0) {
      const auto [e, d] = clk.scaling_other.time([&] {
        const auto spec = scaling::optimize_subvth_doping(
            node45, lpoly, study.options().sub, calib);
        return std::make_pair(scaling::energy_factor(spec, calib),
                              scaling::delay_factor(spec, calib));
      });
      ed.emplace_back(chk.finite(e, "fig08 energy factor"),
                      chk.finite(d, "fig08 delay factor"));
      if (e < e_min) {
        e_min = e;
        e_arg = lpoly;
      }
      d_min = std::min(d_min, d);
    }
    const double d_at_eopt = ed[static_cast<std::size_t>((e_arg - 34.0) / 6.0 + 0.5)].second;
    chk.shape(e_arg > 34.0 && e_arg < 100.0 &&
                  std::abs(e_arg / 60.0 - 1.0) < 0.20 &&
                  d_at_eopt / d_min < 1.10,
              "fig08 interior energy optimum near 60 nm, shallow delay");
  }

  // Fig. 9 — L_poly and S_S under both strategies.
  {
    io::Series lp_super("a"), lp_sub("b"), ss_sub("c");
    for (std::size_t i = 0; i < n; ++i) {
      lp_super.add(node_nm(i), super[i].node.lpoly_nm);
      lp_sub.add(node_nm(i), sub[i].lpoly_opt_nm);
      ss_sub.add(node_nm(i), sub[i].device.ss_mv_dec);
      if (chk.paper()) {
        const auto& g = setup.golden.at("fig09_lpoly_ss");
        const std::string k = sub[i].device.node.name + ".";
        chk.golden(g, k + "lpoly_opt_nm", sub[i].lpoly_opt_nm);
        chk.golden(g, k + "ss_mv_dec", sub[i].device.ss_mv_dec);
      }
    }
    bool longer = true, slower = true;
    for (std::size_t i = 0; i < n; ++i) {
      if (lp_sub[i].y <= lp_super[i].y) longer = false;
    }
    for (const double r : lp_sub.consecutive_ratios()) {
      if (r <= 0.70) slower = false;
    }
    const double drift =
        std::abs(ss_sub.points().back().y - ss_sub.points().front().y);
    chk.shape(longer && slower && drift < 3.0 &&
                  std::abs(ss_sub.points().front().y - 80.0) < 3.0,
              "fig09 sub-V_th gates longer, slower scaling, flat S_S");
  }

  // Figs. 10-12 — both strategies at 250 mV / V_min.
  {
    const double vdd = study.options().vdd_subthreshold;
    io::Series a("super"), b("sub");
    for (std::size_t i = 0; i < n; ++i) {
      const auto inv = clk.inverter.time([&] { return study.sub_inverter(i, vdd); });
      const double snm_sub = chk.finite(
          clk.noise_margins.time([&] { return circuits::noise_margins(inv); }).snm,
          "fig10 snm");
      a.add(node_nm(i), snm_super_250[i]);
      b.add(node_nm(i), snm_sub);
    }
    const double gain = b.points().back().y / a.points().back().y - 1.0;
    chk.shape(gain > 0.10 && gain < 0.35 &&
                  std::abs(b.total_relative_change()) < 0.08,
              "fig10 double-digit SNM advantage at 32 nm, flat sub SNM");

    io::Series tp_sub("tp_sub");
    for (std::size_t i = 0; i < n; ++i) {
      const auto inv = clk.inverter.time([&] { return study.sub_inverter(i, 0.25); });
      tp_sub.add(node_nm(i), chk.finite(
          clk.fo1_delay.time([&] { return circuits::fo1_delay(inv); }).tp,
          "fig11 tp"));
    }
    double worst = 0.0;
    for (const double r : tp_sub.consecutive_ratios()) worst = std::max(worst, r);
    chk.shape(worst < 0.95, "fig11 sub-V_th delay falls every generation");

    io::Series e_super("es"), e_sub("eb"), v_super("vs"), v_sub("vb");
    for (std::size_t i = 0; i < n; ++i) {
      const auto inv = clk.inverter.time([&] { return study.sub_inverter(i, 0.3); });
      const auto rb = clk.find_vmin.time([&] { return circuits::find_vmin(inv); });
      e_super.add(node_nm(i), vmin_super[i].at_vmin.e_total);
      e_sub.add(node_nm(i), chk.finite(rb.at_vmin.e_total, "fig12 energy"));
      v_super.add(node_nm(i), vmin_super[i].vmin * 1e3);
      v_sub.add(node_nm(i), chk.finite(rb.vmin * 1e3, "fig12 vmin"));
    }
    const double saving = 1.0 - e_sub.points().back().y / e_super.points().back().y;
    const double sub_drift =
        std::abs(v_sub.points().back().y - v_sub.points().front().y);
    const double super_drift =
        v_super.points().back().y - v_super.points().front().y;
    chk.shape(saving > 0.08 && sub_drift < 20.0 && super_drift > 10.0 &&
                  saving > 1.0 - e_sub[1].y / e_super[1].y,
              "fig12 growing double-digit saving, flat sub V_min");
  }

  // The nanowire backend's pinned device (tests/golden/nanowire_idvg).
  if (card.env.backend == compact::BackendKind::kNanowireGaa) {
    clk.direct.time([&] {
      const auto& g = setup.golden.at("nanowire_idvg");
      Checks pinned(card.id, true);
      const auto& node = scaling::paper_nodes()[0];
      subscale::doping::MosfetDopingLevels levels;
      levels.nsub = units::per_cm3(1e18);
      levels.np_halo = 0.0;
      const auto spec =
          scaling::make_node_spec(node, node.lpoly_nm, levels, node.vdd, card.env);
      const auto fet = compact::make_device_model(spec, calib);
      pinned.golden(g, "ss_mv_dec", fet->subthreshold_swing() * 1e3);
      pinned.golden(g, "vth_sat_mv", fet->vth_sat_extracted() * 1e3);
      pinned.golden(g, "ioff_pa_um", units::to_pA_per_um(fet->ioff() / spec.width));
      for (int i = 0; i < 10; ++i) {
        pinned.golden(g, "log10_id." + std::to_string(i),
                      std::log10(fet->drain_current(0.05 * i, 0.25)));
      }
      for (const std::string& m : pinned.misses()) chk.miss(m);
    });
  }
}

struct PassResult {
  double wall_ms = 0.0;
  std::uint64_t card_failures = 0;
  std::vector<std::string> misses;
};

PassResult run_pass(const Setup& setup, Rng& rng, Clocks& clk) {
  std::vector<std::size_t> order(setup.cards.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  for (std::size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[rng.below(i)]);
  }
  PassResult r;
  const Clock::time_point t0 = Clock::now();
  {
    const obs::ScopedSpan pass(obs::default_profiler(), kPassSpan);
    for (const std::size_t c : order) {
      const cards::TechnologyCard& card = setup.cards[c];
      Checks chk(card.id, card.id == "paper_bulk_lstp");
      try {
        run_card(card, setup, clk, chk);
      } catch (const std::exception& e) {
        chk.miss(std::string("exception: ") + e.what());
      }
      if (!chk.misses().empty()) ++r.card_failures;
      r.misses.insert(r.misses.end(), chk.misses().begin(), chk.misses().end());
    }
  }
  r.wall_ms = ms_since(t0);
  return r;
}

}  // namespace

Outcome run_paper_figures(const Args& args) {
  Outcome out;
  // Set-up: resolve the cards and read the golden fixtures. It is timed
  // several times before every pass and reported as the median, so a
  // slow moment of the host does not decide it.
  std::vector<double> setup_s;
  Setup setup;
  const auto timed_setup = [&] {
    for (int k = 0; k < 11; ++k) {
      const Clock::time_point t0 = Clock::now();
      setup = make_setup();
      setup_s.push_back(ms_since(t0) * 1e-3);
    }
  };
  timed_setup();
  for (const auto& [name, values] : setup.golden) {
    out.gate(!values.empty(), "golden fixture tests/golden/" + name +
                                  ".json missing or empty");
  }

  Rng rng(args.seed);
  Clocks clk;
  std::vector<double> pass_ms;
  std::uint64_t card_passes = 0;
  std::uint64_t card_failures = 0;
  std::vector<std::string> misses;
  const auto account = [&](const PassResult& r) {
    pass_ms.push_back(r.wall_ms);
    card_passes += setup.cards.size();
    card_failures += r.card_failures;
    if (misses.empty()) misses = r.misses;
  };

  // Untraced passes fill the whole run, or its first half when traced.
  const double untraced_ms = args.seconds * 1e3 * (args.trace ? 0.5 : 1.0);
  const Clock::time_point start = Clock::now();
  do {
    account(run_pass(setup, rng, clk));
    timed_setup();
  } while (ms_since(start) < untraced_ms);

  if (!args.trace) {
    out.add("setup_s", median(setup_s), "s");
    out.add("peak_rss_mb", peak_rss_mb(), "MB");
    out.add("wall_s", median(pass_ms) * 1e-3, "s");
    out.add("goodput_per_s",
            static_cast<double>(kItemsPerCard * setup.cards.size()) /
                (median(pass_ms) * 1e-3),
            "1/s");
    out.add("ok_frac",
            1.0 - static_cast<double>(card_failures) /
                      static_cast<double>(card_passes),
            "ratio");
    std::printf("paper_figures: pass ms");
    for (const double ms : pass_ms) std::printf(" %.0f", ms);
    std::printf("; median %.1f ms\n", median(pass_ms));
  } else {
    const double untraced_median = median(pass_ms);
    for (LayerClock* c : clk.all()) c->reset();
    std::vector<double> traced_ms;
    TracedPhase phase;
    const Clock::time_point traced_start = Clock::now();
    do {
      const PassResult r = run_pass(setup, rng, clk);
      traced_ms.push_back(r.wall_ms);
      card_passes += setup.cards.size();
      card_failures += r.card_failures;
      if (misses.empty()) misses = r.misses;
    } while (ms_since(traced_start) < args.seconds * 1e3 * 0.5);
    const double passes = static_cast<double>(traced_ms.size());
    const TraceView trace(phase.profiler().snapshot());
    const obs::MetricsSnapshot snap = phase.registry().snapshot();
    std::printf("\n== paper_figures per-layer table (%zu traced passes) ==\n%s\n%s",
                traced_ms.size(),
                trace.layer_table({clk.super_design.label(),
                                   clk.sub_design.label()}).c_str(),
                trace.snapshot().rollup_table().c_str());

    const double circuits_ms = clk.noise_margins.ms() + clk.fo1_delay.ms() +
                               clk.find_vmin.ms();
    double traced_total = 0.0;
    for (const double ms : traced_ms) traced_total += ms;
    out.add("scaling.super_design_ms", clk.super_design.ms() / passes, "ms");
    out.add("scaling.sub_design_ms", clk.sub_design.ms() / passes, "ms");
    out.add("compact.models_built",
            counter(snap, obs::names::kCardsBackendDispatches) / passes,
            "count");
    out.add("compact.direct_ms", clk.direct.ms() / passes, "ms");
    out.add("circuits.noise_margins.calls",
            static_cast<double>(clk.noise_margins.calls()) / passes, "count");
    out.add("circuits.noise_margins.ms", clk.noise_margins.ms() / passes, "ms");
    out.add("circuits.fo1_delay.calls",
            static_cast<double>(clk.fo1_delay.calls()) / passes, "count");
    out.add("circuits.fo1_delay.ms", clk.fo1_delay.ms() / passes, "ms");
    out.add("circuits.find_vmin.calls",
            static_cast<double>(clk.find_vmin.calls()) / passes, "count");
    out.add("circuits.find_vmin.ms", clk.find_vmin.ms() / passes, "ms");
    out.add("circuits.share_pct", 100.0 * circuits_ms / traced_total, "%");
    out.add("exec.pool.tasks_run",
            counter(snap, obs::names::kPoolTasksRun) / passes, "count");
    out.add("exec.pool.utilization_pct",
            snap.gauge(obs::names::kPoolUtilizationPct), "%");
    out.add("exec.pool.queue_depth_max",
            snap.gauge(obs::names::kPoolQueueDepthMax), "count");
    out.add("obs.trace_overhead_pct",
            100.0 * (median(traced_ms) / untraced_median - 1.0), "%");
    out.add("obs.profiler.spans_dropped", static_cast<double>(trace.dropped()),
            "count");
    out.gate(trace.dropped() == 0, "profiler dropped spans");
  }

  out.attempted = card_passes;
  out.failed = card_failures;
  out.gate(card_failures == 0, "every card pass finite, paper card on shape "
                               "and golden");
  for (std::size_t i = 0; i < misses.size() && i < 20; ++i) {
    out.gate(false, misses[i]);
  }
  return out;
}

}  // namespace perfbench
