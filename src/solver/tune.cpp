// Measured auto-tuning (ExecutionPlan::tune of the design: plan_for with
// PlanMode::kTuned / TVS_TUNE=1).
//
// The knobs the heuristic guesses — stride on the serial path, tile shape
// on the tiled path — are exactly the ones §3.3/§5 show to be machine- and
// problem-dependent, so the tuner measures instead: it builds a small
// replica of the problem (same family and path, extents/steps clamped so
// one candidate run is milliseconds), times 2-3 candidate knob values
// through the same Solver facade, and returns the heuristic plan with the
// fastest candidate substituted.  All candidates produce bit-identical
// results (the §3.2 contract), so tuning can never change the answer,
// only the speed.
#include <algorithm>
#include <chrono>
#include <random>
#include <type_traits>
#include <vector>

#include "solver/family.hpp"
#include "solver/plan.hpp"
#include "solver/solver.hpp"
#include "stencil/coefficients.hpp"

namespace tvs::solver {

namespace {

// The element type of a coefficient set (stencil::C1D3T<T>, ...).
template <class C>
struct ElemOf;
template <template <class> class CT, class T>
struct ElemOf<CT<T>> {
  using type = T;
};

// The grid a coefficient set runs on: the rank whose grid the Workload
// accepts beside it, at the coefficients' element type.
template <class C, class T = typename ElemOf<C>::type>
using GridOf = std::conditional_t<
    std::is_constructible_v<Workload, const C&, grid::Grid1D<T>&>,
    grid::Grid1D<T>,
    std::conditional_t<
        std::is_constructible_v<Workload, const C&, grid::Grid2D<T>&>,
        grid::Grid2D<T>, grid::Grid3D<T>>>;

// The replica grid of rep for coefficient set C, filled with the
// deterministic pattern 1 + 0.001 * ((x + y + z) % 97), halo included.
template <class C>
GridOf<C> replica_grid(const StencilProblem& rep) {
  using G = GridOf<C>;
  using T = typename ElemOf<C>::type;
  const auto at = [](int x, int y, int z) {
    return T{1} + T(0.001) * static_cast<T>((x + y + z) % 97);
  };
  if constexpr (std::is_same_v<G, grid::Grid1D<T>>) {
    G u(rep.nx);
    for (int x = 0; x <= rep.nx + 1; ++x) u.at(x) = at(x, 0, 0);
    return u;
  } else if constexpr (std::is_same_v<G, grid::Grid2D<T>>) {
    G u(rep.nx, rep.ny);
    for (int x = 0; x <= rep.nx + 1; ++x)
      for (int y = 0; y <= rep.ny + 1; ++y) u.at(x, y) = at(x, y, 0);
    return u;
  } else {
    G u(rep.nx, rep.ny, rep.nz);
    for (int x = 0; x <= rep.nx + 1; ++x)
      for (int y = 0; y <= rep.ny + 1; ++y)
        for (int z = 0; z <= rep.nz + 1; ++z) u.at(x, y, z) = at(x, y, z);
    return u;
  }
}

double time_once(const StencilProblem& rep, const ExecutionPlan& plan) {
  const Solver s(rep, plan);

  // Deterministic inputs; the fill cost is outside the timed region.
  const auto timed = [](auto&& fn) {
    fn();  // warm the caches and the registry resolution
    double best = 1e300;
    for (int i = 0; i < 2; ++i) {
      const auto t0 = std::chrono::steady_clock::now();
      fn();
      const std::chrono::duration<double> dt =
          std::chrono::steady_clock::now() - t0;
      best = std::min(best, dt.count());
    }
    return best;
  };

  // The FP families run the replica at the problem's own element type so a
  // float problem tunes against the float engines: coeffs(T{}) builds the
  // family's coefficient set at element type T.
  const bool f32 = rep.effective_dtype() == dispatch::DType::kF32;
  const auto run = [&](auto coeffs) {
    const auto go = [&](const auto& c) {
      auto u = replica_grid<std::decay_t<decltype(c)>>(rep);
      return timed([&] { s.run(Workload(c, u)); });
    };
    return f32 ? go(coeffs(float{})) : go(coeffs(double{}));
  };
  switch (rep.family) {
    case Family::kJacobi1D3:
    case Family::kGs1D3:
      return run([](auto t) { return stencil::heat1d<decltype(t)>(0.25); });
    case Family::kJacobi1D5:
      return run([](auto t) { return stencil::heat1d5<decltype(t)>(0.1); });
    case Family::kJacobi2D5:
    case Family::kGs2D5:
      return run([](auto t) { return stencil::heat2d<decltype(t)>(0.2); });
    case Family::kJacobi2D9:
      return run([](auto t) { return stencil::box2d9<decltype(t)>(0.1); });
    case Family::kJacobi3D7:
    case Family::kGs3D7:
      return run([](auto t) { return stencil::heat3d<decltype(t)>(0.1); });
    case Family::kLife: {
      grid::Grid2D<std::int32_t> u(rep.nx, rep.ny);
      std::mt19937 rng(7);
      u.fill(0);
      for (int x = 1; x <= rep.nx; ++x)
        for (int y = 1; y <= rep.ny; ++y)
          u.at(x, y) = static_cast<std::int32_t>(rng() & 1u);
      const stencil::LifeRule r{};
      return timed([&] { s.run(Workload(r, u)); });
    }
    case Family::kLcs: {
      std::mt19937 rng(7);
      std::vector<std::int32_t> a(static_cast<std::size_t>(rep.nx)),
          b(static_cast<std::size_t>(rep.ny));
      for (auto& v : a) v = static_cast<std::int32_t>(rng() % 4);
      for (auto& v : b) v = static_cast<std::int32_t>(rng() % 4);
      return timed([&] { s.run(Workload(a, b)); });
    }
  }
  return 0.0;
}

// Extents/steps clamped so one candidate run costs milliseconds while the
// working set still exercises the cache hierarchy the way the real
// problem's inner tiles do.
StencilProblem replica_of(const StencilProblem& p) {
  StencilProblem rep = p;
  switch (family_dim(p.family)) {
    case 1:
      rep.nx = std::min(p.nx, 1 << 15);
      rep.steps = std::min<long>(p.steps, 128);
      break;
    case 2:
      rep.nx = std::min(p.nx, 384);
      rep.ny = std::min(p.ny, 384);
      rep.steps = std::min<long>(p.steps, 32);
      break;
    default:
      rep.nx = std::min(p.nx, 48);
      rep.ny = std::min(p.ny, 48);
      rep.nz = std::min(p.nz, 48);
      rep.steps = std::min<long>(p.steps, 16);
      break;
  }
  if (p.family == Family::kLcs) {
    rep.nx = std::min(p.nx, 4096);
    rep.ny = std::min(p.ny, 4096);
  }
  return rep;
}

// 2-3 candidate values for the knob the path is most sensitive to: the
// family's serial stride candidates (each with its redundancy-eliminated
// twin where the family has one: bit-identical results by the §3.2
// contract, so only the speed can differ), or tile widths {W/2, W, 2W}
// around the family's Table 1 width.
std::vector<ExecutionPlan> candidates(const StencilProblem& p,
                                      const ExecutionPlan& base) {
  const FamilyRow& row = family_row(p.family);
  std::vector<ExecutionPlan> cands;
  if (base.path == Path::kSerialTv) {
    for (const int s : row.serial_strides) {
      if (s == 0) continue;
      ExecutionPlan c = base;
      c.stride = s;
      cands.push_back(c);
      if (!row.serial_re_id.empty()) {
        c.variant = Variant::kRe;
        cands.push_back(c);
      }
    }
    return cands;
  }
  for (const int w : {row.width / 2, row.width, 2 * row.width}) {
    ExecutionPlan c = base;
    if (p.family == Family::kLcs) {  // column block x row band
      c.tile_w = std::min(w, std::max(p.ny, 1));
      c.tile_h = std::min(w, std::max(p.nx, 1));
    } else {
      c.tile_w = std::min(w, std::max(p.nx, 1));
    }
    cands.push_back(c);
  }
  return cands;
}

}  // namespace

ExecutionPlan tune_plan(const StencilProblem& p) {
  const ExecutionPlan base = heuristic_plan(p);
  const StencilProblem rep = replica_of(p);
  const ExecutionPlan rep_base = heuristic_plan(rep);

  ExecutionPlan best = base;
  double best_time = 1e300;
  for (const ExecutionPlan& cand : candidates(p, base)) {
    // Project the candidate's knobs onto the replica's (clamped) shape.
    ExecutionPlan rep_cand = rep_base;
    rep_cand.stride = cand.stride;
    rep_cand.path = cand.path;
    rep_cand.variant = cand.variant;
    if (cand.path == Path::kTiledParallel) {
      rep_cand.tile_w = std::min(cand.tile_w, std::max(rep.nx, 1));
      rep_cand.tile_h = rep_base.tile_h;
      if (p.family == Family::kLcs) {
        rep_cand.tile_w = std::min(cand.tile_w, std::max(rep.ny, 1));
        rep_cand.tile_h = std::min(cand.tile_h, std::max(rep.nx, 1));
      }
    }
    // The 1D engines need nx >= lanes * stride to form one whole group.
    if (family_dim(p.family) == 1 && rep.nx < 16 * rep_cand.stride) continue;
    try {
      validate_plan(rep, rep_cand);
    } catch (const std::exception&) {
      continue;  // a candidate the replica cannot run is just skipped
    }
    const double t = time_once(rep, rep_cand);
    if (t < best_time) {
      best_time = t;
      best = cand;
    }
  }
  return best;
}

}  // namespace tvs::solver
