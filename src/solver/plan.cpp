#include "solver/plan.hpp"

#include <algorithm>
#include <charconv>

#include "dispatch/registry.hpp"
#include "solver/error.hpp"
#include "solver/family.hpp"
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

ExecutionPlan heuristic_plan(const StencilProblem& p) {
  const FamilyRow& row = family_row(p.family);
  ExecutionPlan plan;
  plan.backend = dispatch::selected_backend();
  plan.vl = 0;

  // Paper defaults: the family's Table 1 stride and blocking, clamped to
  // the problem extents so small problems still get whole tiles.  The LCS
  // tile is a column block over |b| = ny by a row band over |a| = nx.
  plan.stride = row.stride;
  if (p.family == Family::kLcs) {
    plan.tile_w = std::min(row.width, std::max(p.ny, 1));
    plan.tile_h = std::min(row.height, std::max(p.nx, 1));
  } else {
    plan.tile_w = std::min(row.width, std::max(p.nx, 1));
    plan.tile_h =
        clamp_height(row.height, std::max(p.steps, 1L), row.height_unit);
  }

  // A thread request plans the tiled driver wherever one is registered for
  // the problem's element type (every Jacobi diamond runs f32 too; the
  // Gauss-Seidel parallelograms are f64 only) and one stage can hold the
  // family's minimum number of tiles (tiled_min_tiles, family.hpp): the
  // temporal bands times the column blocks the inner axis of a plane grid
  // is cut into (tiling/schedule.hpp).  vl stays 0 on both paths: the
  // registry resolves the native width of whichever backend runs for the
  // problem's dtype (the doubled float width on the serial path), and the
  // tiled drivers fix their own tile width.
  const dispatch::DType dt = p.effective_dtype();
  const long bands = (p.steps + plan.tile_h - 1) / plan.tile_h;
  const int inner = std::max(row.dim == 3 ? p.nz : row.dim == 2 ? p.ny : 1, 1);
  const long blocks = (inner + plan.tile_w - 1) / plan.tile_w;
  plan.path = (p.threads > 1 && bands * blocks >= row.tiled_min_tiles &&
               tiled_driver_registered(p.family, plan.backend, dt))
                  ? Path::kTiledParallel
                  : Path::kSerialTv;
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
    if (family_row(p.family).serial_re_id.empty()) {
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
    const int cap = family_row(p.family).tiled_max_stride;
    if (cap > 0 && plan.stride > cap) {
      throw Error(Errc::kBadStride,
                  where + ": stride " + std::to_string(plan.stride) +
                      " exceeds the tiled driver's stride cap (max " +
                      std::to_string(cap) + ")",
                  p.signature());
    }
  }
}

}  // namespace tvs::solver
