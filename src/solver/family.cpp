#include "solver/family.hpp"

#include "dispatch/kernels.hpp"
#include "solver/error.hpp"
#include "solver/plan.hpp"

namespace tvs::solver {

namespace {

namespace d = dispatch;
using tiling::kMaxDiamond1DStride;
using tiling::kMaxParallelogramStride;

// clang-format off
constexpr FamilyRow kFamilies[kFamilyCount] = {
    // family, name, dim, deps, int32,
    //   serial id, serial re id, tiled id, tiled in place,
    //   tiled stride cap, tiled min tiles per stage,
    //   Table 1 stride, width, height, height unit,
    //   serial stride candidates
    {Family::kJacobi1D3, "jacobi1d3", 1,
     [] { return stencil::jacobi1d_deps(1); }, false,
     d::kTvJacobi1D3, d::kTvJacobi1D3Re, d::kDiamondJacobi1D3, false,
     kMaxDiamond1DStride, 0, 7, 16384, 128, 4, {5, 7, 11}},
    {Family::kJacobi1D5, "jacobi1d5", 1,
     [] { return stencil::jacobi1d_deps(2); }, false,
     d::kTvJacobi1D5, d::kTvJacobi1D5Re, {}, false,
     0, 0, 7, 16384, 128, 4, {5, 7, 11}},
    {Family::kJacobi2D5, "jacobi2d5", 2,
     [] { return stencil::jacobi2d_deps(1); }, false,
     d::kTvJacobi2D5, d::kTvJacobi2D5Re, d::kDiamondJacobi2D5, false,
     0, 0, 2, 256, 32, 16, {2, 3, 4}},
    {Family::kJacobi2D9, "jacobi2d9", 2,
     [] { return stencil::jacobi2d_deps(1); }, false,
     d::kTvJacobi2D9, d::kTvJacobi2D9Re, d::kDiamondJacobi2D9, false,
     0, 0, 2, 256, 32, 16, {2, 3, 4}},
    {Family::kJacobi3D7, "jacobi3d7", 3,
     [] { return stencil::jacobi3d_deps(1); }, false,
     d::kTvJacobi3D7, d::kTvJacobi3D7Re, d::kDiamondJacobi3D7, false,
     0, 0, 2, 32, 8, 8, {2, 3, 4}},
    {Family::kGs1D3, "gs1d3", 1,
     [] { return stencil::gauss_seidel_deps(1); }, false,
     d::kTvGs1D3, {}, d::kParallelogramGs1D3, true,
     kMaxParallelogramStride, 2, 3, 2048, 64, 4, {2, 3, 5}},
    {Family::kGs2D5, "gs2d5", 2,
     [] { return stencil::gauss_seidel_deps(1); }, false,
     d::kTvGs2D5, {}, d::kParallelogramGs2D5, true,
     kMaxParallelogramStride, 3, 2, 128, 32, 4, {2, 3, 4}},
    {Family::kGs3D7, "gs3d7", 3,
     [] { return stencil::gauss_seidel_deps(1); }, false,
     d::kTvGs3D7, {}, d::kParallelogramGs3D7, true,
     kMaxParallelogramStride, 0, 2, 128, 32, 4, {2, 3, 4}},
    {Family::kLife, "life", 2,
     [] { return stencil::jacobi2d_deps(1); }, true,
     d::kTvLife, {}, d::kDiamondLife, false,
     0, 0, 2, 256, 32, 16, {2, 3, 4}},
    // LCS is a fixed s = 1 scheme; its tile is a column block over |b| by
    // a row band over |a| (heuristic_plan), so the band has no unit.
    {Family::kLcs, "lcs", 2,
     [] { return stencil::lcs_deps(); }, true,
     d::kTvLcsRows, {}, d::kLcsWavefront, false,
     0, 0, 1, 4096, 4096, 0, {1}},
};
// clang-format on

}  // namespace

const FamilyRow& family_row(Family f) {
  for (const FamilyRow& r : kFamilies)
    if (r.family == f) return r;
  throw Error(Errc::kBadFamily, "unknown stencil family id " +
                                    std::to_string(static_cast<int>(f)));
}

std::string_view family_name(Family f) { return family_row(f).name; }

Family parse_family(std::string_view name) {
  for (const FamilyRow& r : kFamilies)
    if (r.name == name) return r.family;
  std::string valid;
  for (const FamilyRow& r : kFamilies) {
    if (!valid.empty()) valid += ", ";
    valid += r.name;
  }
  throw Error(Errc::kBadFamily,
              "\"" + std::string(name) +
                  "\" is not a stencil family (valid: " + valid + ")");
}

int family_dim(Family f) { return family_row(f).dim; }

std::vector<stencil::Dep> family_deps(Family f) {
  return family_row(f).deps();
}

bool family_supports_dtype(Family f, dispatch::DType dt) {
  if (family_row(f).int32) return dt == dispatch::DType::kI32;
  return dt == dispatch::DType::kF64 || dt == dispatch::DType::kF32;
}

std::string_view serial_kernel_id(Family f, Variant v) {
  const FamilyRow& r = family_row(f);
  return v == Variant::kRe && !r.serial_re_id.empty() ? r.serial_re_id
                                                      : r.serial_id;
}

std::string_view tiled_kernel_id(Family f) {
  const FamilyRow& r = family_row(f);
  if (r.tiled_id.empty()) {
    throw Error(Errc::kBadPath, std::string(r.name) +
                                    " has no tiled parallel driver");
  }
  return r.tiled_id;
}

bool family_has_tiled_path(Family f) {
  return !family_row(f).tiled_id.empty();
}

bool family_is_gauss_seidel(Family f) { return family_row(f).tiled_in_place; }

}  // namespace tvs::solver
