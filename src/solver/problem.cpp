#include "solver/problem.hpp"

#include "solver/family.hpp"

namespace tvs::solver {

dispatch::DType StencilProblem::effective_dtype() const {
  return family_row(family).int32 ? dispatch::DType::kI32 : dtype;
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
