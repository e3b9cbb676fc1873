#include "solver/problem.hpp"

#include "solver/error.hpp"

namespace tvs::solver {

namespace {

struct FamilyRow {
  Family family;
  std::string_view name;
  int dim;
};

constexpr FamilyRow kFamilies[kFamilyCount] = {
    {Family::kJacobi1D3, "jacobi1d3", 1}, {Family::kJacobi1D5, "jacobi1d5", 1},
    {Family::kJacobi2D5, "jacobi2d5", 2}, {Family::kJacobi2D9, "jacobi2d9", 2},
    {Family::kJacobi3D7, "jacobi3d7", 3}, {Family::kGs1D3, "gs1d3", 1},
    {Family::kGs2D5, "gs2d5", 2},         {Family::kGs3D7, "gs3d7", 3},
    {Family::kLife, "life", 2},           {Family::kLcs, "lcs", 2},
};

const FamilyRow& row(Family f) {
  for (const FamilyRow& r : kFamilies)
    if (r.family == f) return r;
  throw Error(Errc::kBadFamily, "unknown stencil family id " +
                                    std::to_string(static_cast<int>(f)));
}

}  // namespace

std::string_view family_name(Family f) { return row(f).name; }

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

int family_dim(Family f) { return row(f).dim; }

bool family_supports_dtype(Family f, dispatch::DType dt) {
  if (f == Family::kLife || f == Family::kLcs)
    return dt == dispatch::DType::kI32;
  return dt == dispatch::DType::kF64 || dt == dispatch::DType::kF32;
}

std::vector<stencil::Dep> family_deps(Family f) {
  switch (f) {
    case Family::kJacobi1D3:
      return stencil::jacobi1d_deps(1);
    case Family::kJacobi1D5:
      return stencil::jacobi1d_deps(2);
    case Family::kJacobi2D5:
    case Family::kJacobi2D9:
    case Family::kLife:
      return stencil::jacobi2d_deps(1);
    case Family::kJacobi3D7:
      return stencil::jacobi3d_deps(1);
    case Family::kGs1D3:
    case Family::kGs2D5:
    case Family::kGs3D7:
      return stencil::gauss_seidel_deps(1);
    case Family::kLcs:
      return stencil::lcs_deps();
  }
  throw Error(Errc::kBadFamily, "unknown stencil family id " +
                                    std::to_string(static_cast<int>(f)));
}

dispatch::DType StencilProblem::effective_dtype() const {
  if (family == Family::kLife || family == Family::kLcs)
    return dispatch::DType::kI32;
  return dtype;
}

std::string StencilProblem::signature() const {
  std::string s(family_name(family));
  s += ":nx=" + std::to_string(nx);
  if (family_dim(family) >= 2) s += ":ny=" + std::to_string(ny);
  if (family_dim(family) >= 3) s += ":nz=" + std::to_string(nz);
  s += ":steps=" + std::to_string(steps);
  s += ":threads=" + std::to_string(threads);
  if (effective_dtype() == dispatch::DType::kF32) s += ":dtype=f32";
  return s;
}

}  // namespace tvs::solver
