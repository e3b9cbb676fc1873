#include "solver/plan.hpp"

#include <algorithm>
#include <charconv>

#include "dispatch/kernels.hpp"
#include "dispatch/registry.hpp"
#include "solver/error.hpp"
#include "tv/ring.hpp"  // kMaxStride (ring capacity of the 1D engines)

namespace tvs::solver {

namespace {

int parse_int_value(std::string_view clause, std::string_view value) {
  int out = 0;
  const char* first = value.data();
  const char* last = value.data() + value.size();
  const auto [ptr, ec] = std::from_chars(first, last, out);
  if (ec != std::errc() || ptr != last) {
    throw Error(Errc::kBadPlanSpec,
                "TVS_PLAN clause \"" + std::string(clause) + "\": \"" +
                    std::string(value) + "\" is not an integer");
  }
  return out;
}

// True for the families that register a redundancy-eliminated engine:
// those whose serial id changes with the variant (the five Jacobi ids).
bool family_has_re_variant(Family f) {
  return serial_kernel_id(f, Variant::kRe) != serial_kernel_id(f, Variant::kTv);
}

// Band height rounded down to a multiple of `unit`, clamped to the number
// of steps actually requested (never below one unit).
int clamp_height(int preferred, long steps, int unit) {
  long h = std::min<long>(preferred, steps);
  h -= h % unit;
  return static_cast<int>(std::max<long>(h, unit));
}

// Whether the family's tiled driver is registered for dtype dt at or below
// backend b (the registry's dtype axis is the single source of truth:
// f64/i32 for every tiled driver, f32 for the diamond drivers).
bool tiled_driver_registered(Family f, dispatch::Backend b,
                             dispatch::DType dt) {
  if (!family_has_tiled_path(f)) return false;
  const std::vector<dispatch::DType> dts =
      dispatch::KernelRegistry::instance().registered_dtypes(
          tiled_kernel_id(f), b);
  return std::find(dts.begin(), dts.end(), dt) != dts.end();
}

}  // namespace

std::string_view path_name(Path p) {
  return p == Path::kSerialTv ? "tv" : "tiled";
}

std::string_view variant_name(Variant v) {
  return v == Variant::kRe ? "re" : "tv";
}

std::string ExecutionPlan::to_string() const {
  std::string s = "backend=";
  s += dispatch::backend_name(backend);
  s += ",vl=" + std::to_string(vl);
  s += ",stride=" + std::to_string(stride);
  if (path == Path::kTiledParallel) {
    s += ",tile=" + std::to_string(tile_w) + "x" + std::to_string(tile_h);
  }
  s += ",path=";
  s += path_name(path);
  if (variant != Variant::kTv) {
    s += ",variant=";
    s += variant_name(variant);
  }
  return s;
}

std::string_view serial_kernel_id(Family f, Variant v) {
  const bool re = v == Variant::kRe;
  switch (f) {
    case Family::kJacobi1D3:
      return re ? dispatch::kTvJacobi1D3Re : dispatch::kTvJacobi1D3;
    case Family::kJacobi1D5:
      return re ? dispatch::kTvJacobi1D5Re : dispatch::kTvJacobi1D5;
    case Family::kJacobi2D5:
      return re ? dispatch::kTvJacobi2D5Re : dispatch::kTvJacobi2D5;
    case Family::kJacobi2D9:
      return re ? dispatch::kTvJacobi2D9Re : dispatch::kTvJacobi2D9;
    case Family::kJacobi3D7:
      return re ? dispatch::kTvJacobi3D7Re : dispatch::kTvJacobi3D7;
    case Family::kGs1D3:
      return dispatch::kTvGs1D3;
    case Family::kGs2D5:
      return dispatch::kTvGs2D5;
    case Family::kGs3D7:
      return dispatch::kTvGs3D7;
    case Family::kLife:
      return dispatch::kTvLife;
    case Family::kLcs:
      return dispatch::kTvLcsRows;
  }
  throw Error(Errc::kBadFamily, "unknown stencil family");
}

std::string_view tiled_kernel_id(Family f) {
  switch (f) {
    case Family::kJacobi1D3:
      return dispatch::kDiamondJacobi1D3;
    case Family::kJacobi2D5:
      return dispatch::kDiamondJacobi2D5;
    case Family::kJacobi2D9:
      return dispatch::kDiamondJacobi2D9;
    case Family::kJacobi3D7:
      return dispatch::kDiamondJacobi3D7;
    case Family::kLife:
      return dispatch::kDiamondLife;
    case Family::kGs1D3:
      return dispatch::kParallelogramGs1D3;
    case Family::kGs2D5:
      return dispatch::kParallelogramGs2D5;
    case Family::kGs3D7:
      return dispatch::kParallelogramGs3D7;
    case Family::kLcs:
      return dispatch::kLcsWavefront;
    case Family::kJacobi1D5:
      break;
  }
  throw Error(Errc::kBadPath,
              std::string(family_name(f)) + " has no tiled parallel driver");
}

bool family_has_tiled_path(Family f) { return f != Family::kJacobi1D5; }

bool family_is_gauss_seidel(Family f) {
  return f == Family::kGs1D3 || f == Family::kGs2D5 || f == Family::kGs3D7;
}

ExecutionPlan heuristic_plan(const StencilProblem& p) {
  ExecutionPlan plan;
  plan.backend = dispatch::selected_backend();
  plan.vl = 0;

  // Paper defaults: stride from §3.4, blocking from Table 1, clamped to
  // the problem extents so small problems still get whole tiles.
  switch (p.family) {
    case Family::kJacobi1D3:
    case Family::kJacobi1D5:
      plan.stride = 7;
      plan.tile_w = std::min(16384, std::max(p.nx, 1));
      plan.tile_h = clamp_height(128, std::max(p.steps, 1L), 4);
      break;
    case Family::kJacobi2D5:
    case Family::kJacobi2D9:
    case Family::kLife:
      plan.stride = 2;
      plan.tile_w = std::min(256, std::max(p.nx, 1));
      plan.tile_h = clamp_height(32, std::max(p.steps, 1L), 16);
      break;
    case Family::kJacobi3D7:
      plan.stride = 2;
      plan.tile_w = std::min(32, std::max(p.nx, 1));
      plan.tile_h = clamp_height(8, std::max(p.steps, 1L), 8);
      break;
    case Family::kGs1D3:
      plan.stride = 3;
      plan.tile_w = std::min(2048, std::max(p.nx, 1));
      plan.tile_h = clamp_height(64, std::max(p.steps, 1L), 4);
      break;
    case Family::kGs2D5:
    case Family::kGs3D7:
      plan.stride = 2;
      plan.tile_w = std::min(128, std::max(p.nx, 1));
      plan.tile_h = clamp_height(32, std::max(p.steps, 1L), 4);
      break;
    case Family::kLcs:
      plan.stride = 1;  // the LCS engine is a fixed s = 1 scheme
      plan.tile_w = std::min(4096, std::max(p.ny, 1));  // column block
      plan.tile_h = std::min(4096, std::max(p.nx, 1));  // row band
      break;
  }

  // A thread request plans the tiled driver wherever one is registered for
  // the problem's element type (every Jacobi diamond runs f32 too; the
  // Gauss-Seidel parallelograms are f64 only).  Tiled plans keep vl = 0:
  // the drivers fix their own tile width.
  const dispatch::DType dt = p.effective_dtype();
  plan.path = (p.threads > 1 &&
               tiled_driver_registered(p.family, plan.backend, dt))
                  ? Path::kTiledParallel
                  : Path::kSerialTv;

  // On the serial path single precision doubles the lanes per register
  // (Table 1's vl scaling: 8 under scalar/avx2, 16 under avx512), so the
  // float default pins the doubled width explicitly; doubles keep vl = 0
  // (backend native).
  if (dt == dispatch::DType::kF32 && plan.path == Path::kSerialTv) {
    plan.vl = plan.backend == dispatch::Backend::kAvx512 ? 16 : 8;
  }
  return plan;
}

ExecutionPlan apply_plan_spec(ExecutionPlan base, std::string_view spec) {
  std::string_view rest = spec;
  while (!rest.empty()) {
    const std::size_t comma = rest.find(',');
    const std::string_view clause = rest.substr(0, comma);
    rest = comma == std::string_view::npos ? std::string_view{}
                                          : rest.substr(comma + 1);
    const std::size_t eq = clause.find('=');
    if (clause.empty() || eq == std::string_view::npos || eq == 0) {
      throw Error(Errc::kBadPlanSpec,
                  "TVS_PLAN clause \"" + std::string(clause) +
                      "\" is not key=value (valid keys: backend, vl, "
                      "stride, tile, path, variant)");
    }
    const std::string_view key = clause.substr(0, eq);
    const std::string_view value = clause.substr(eq + 1);
    if (key == "backend") {
      const auto b = dispatch::parse_backend(value);
      if (!b.has_value()) {
        throw Error(Errc::kBadPlanSpec,
                    "TVS_PLAN clause \"" + std::string(clause) +
                        "\": unknown backend (valid: scalar, avx2, "
                        "avx512)");
      }
      base.backend = *b;
    } else if (key == "vl") {
      base.vl = parse_int_value(clause, value);
    } else if (key == "stride") {
      base.stride = parse_int_value(clause, value);
    } else if (key == "tile") {
      const std::size_t x = value.find('x');
      if (x == std::string_view::npos || x == 0 || x + 1 == value.size()) {
        throw Error(Errc::kBadPlanSpec,
                    "TVS_PLAN clause \"" + std::string(clause) +
                        "\": tile must be WxH, e.g. tile=256x32");
      }
      base.tile_w = parse_int_value(clause, value.substr(0, x));
      base.tile_h = parse_int_value(clause, value.substr(x + 1));
    } else if (key == "path") {
      if (value == "tv") {
        base.path = Path::kSerialTv;
      } else if (value == "tiled") {
        base.path = Path::kTiledParallel;
      } else {
        throw Error(Errc::kBadPlanSpec,
                    "TVS_PLAN clause \"" + std::string(clause) +
                        "\": unknown path (valid: tv, tiled)");
      }
    } else if (key == "variant") {
      if (value == "tv") {
        base.variant = Variant::kTv;
      } else if (value == "re") {
        base.variant = Variant::kRe;
      } else {
        throw Error(Errc::kBadPlanSpec,
                    "TVS_PLAN clause \"" + std::string(clause) +
                        "\": unknown variant (valid: tv, re)");
      }
    } else {
      throw Error(Errc::kBadPlanSpec,
                  "TVS_PLAN clause \"" + std::string(clause) +
                      "\": unknown key (valid: backend, vl, stride, tile, "
                      "path, variant)");
    }
  }
  return base;
}

void validate_plan(const StencilProblem& p, const ExecutionPlan& plan) {
  const std::string where =
      "solver plan for " + std::string(family_name(p.family));

  // Element-type sanity: the FP families run in f64/f32, Life/LCS are
  // fixed int32 (StencilProblem::effective_dtype normalizes the latter, so
  // only an explicit impossible request trips this).
  if (!family_supports_dtype(p.family, p.effective_dtype())) {
    throw Error(Errc::kUnsupportedDtype,
                where + ": element type " +
                    std::string(dispatch::dtype_name(p.dtype)) +
                    " is not supported by this family",
                p.signature());
  }
  const dispatch::DType dt = p.effective_dtype();

  // Backend availability mirrors the TVS_FORCE_BACKEND contract.
  if (!dispatch::KernelRegistry::instance().has_backend(plan.backend)) {
    throw Error(Errc::kBackendUnavailable,
                where + ": backend " +
                    std::string(dispatch::backend_name(plan.backend)) +
                    " was not compiled into this binary",
                p.signature());
  }
  if (!dispatch::cpu_supports(plan.backend)) {
    throw Error(Errc::kBackendUnavailable,
                where + ": this CPU cannot execute backend " +
                    std::string(dispatch::backend_name(plan.backend)),
                p.signature());
  }

  // §3.2 stride legality, checked once for the whole solve.  The 1D
  // temporal engines additionally cap the stride at their ring capacity.
  const std::vector<stencil::Dep> deps = family_deps(p.family);
  stencil::require_legal_stride(
      where, deps, plan.stride,
      family_dim(p.family) == 1 ? tv::kMaxStride : 0);
  if (p.family == Family::kLcs && plan.stride != 1) {
    throw Error(Errc::kBadStride,
                where +
                    ": the LCS engine is a fixed stride-1 scheme; stride "
                    "must be 1",
                p.signature());
  }

  // The redundancy-eliminated variant exists for the Jacobi families'
  // serial engines only; everything else must stay on the baseline.
  if (plan.variant == Variant::kRe) {
    if (!family_has_re_variant(p.family)) {
      throw Error(Errc::kBadVariant,
                  where +
                      ": variant=re is registered for the Jacobi families "
                      "only; use variant=tv",
                  p.signature());
    }
    if (plan.path == Path::kTiledParallel) {
      throw Error(Errc::kBadVariant,
                  where +
                      ": variant=re applies to the serial tv path only "
                      "(the tiled drivers have no re engines)",
                  p.signature());
    }
  }

  if (plan.vl < 0) {
    throw Error(Errc::kBadVl, where + ": vl must be >= 0 (0 = native)",
                p.signature());
  }
  if (plan.vl > 0) {
    if (plan.path == Path::kTiledParallel) {
      throw Error(Errc::kBadVl,
                  where +
                      ": vl pinning applies to the serial tv path only "
                      "(the tiled drivers choose their own internal width)",
                  p.signature());
    }
    const std::vector<int> widths =
        dispatch::KernelRegistry::instance().registered_widths(
            serial_kernel_id(p.family, plan.variant), plan.backend, dt);
    if (std::find(widths.begin(), widths.end(), plan.vl) == widths.end()) {
      std::string have;
      for (const int w : widths) {
        if (!have.empty()) have += ", ";
        have += std::to_string(w);
      }
      throw Error(Errc::kBadVl,
                  where + ": no engine registered at vl=" +
                      std::to_string(plan.vl) + " dtype=" +
                      std::string(dispatch::dtype_name(dt)) +
                      " (registered widths: " + have + ")",
                  p.signature());
    }
  }

  if (plan.path == Path::kTiledParallel) {
    if (!family_has_tiled_path(p.family)) {
      throw Error(Errc::kBadPath,
                  where + ": this family has no tiled parallel driver; use "
                          "path=tv",
                  p.signature());
    }
    if (!tiled_driver_registered(p.family, plan.backend, dt)) {
      throw Error(Errc::kBadPath,
                  where + ": no tiled driver is registered for dtype " +
                      std::string(dispatch::dtype_name(dt)) + "; use path=tv",
                  p.signature());
    }
    if (plan.tile_w <= 0 || plan.tile_h <= 0) {
      throw Error(Errc::kBadPlanSpec,
                  where + ": tiled path needs positive tile extents (got " +
                      std::to_string(plan.tile_w) + "x" +
                      std::to_string(plan.tile_h) + ")",
                  p.signature());
    }
    if (family_is_gauss_seidel(p.family) &&
        plan.stride > tiling::kMaxParallelogramStride) {
      throw Error(Errc::kBadStride,
                  where + ": stride " + std::to_string(plan.stride) +
                      " exceeds the parallelogram tile kernel's ring "
                      "capacity (max " +
                      std::to_string(tiling::kMaxParallelogramStride) + ")",
                  p.signature());
    }
  }
}

}  // namespace tvs::solver
