// ProblemBuilder: the fluent, validating way to construct a
// StencilProblem.
//
//   StencilProblem p = ProblemBuilder(Family::kJacobi2D5)
//                          .extents(512, 512)
//                          .steps(100)
//                          .threads(4)
//                          .build();
//
// The builder checks everything at build() time and throws
// tvs::solver::Error: the extents arity must match the family's
// dimensionality and every extent must be positive (Errc::kBadExtents),
// steps must be >= 0 (kBadSteps), threads >= 0 (kBadThreads), and the
// element type must be one the family can run at (kUnsupportedDtype).
// LCS problems read extents(|a|, |b|).
#pragma once

#include "dispatch/dtype.hpp"
#include "solver/problem.hpp"

namespace tvs::solver {

class ProblemBuilder {
 public:
  explicit ProblemBuilder(Family f);

  // Grid extents; pass exactly family_dim(f) values (LCS counts as 2:
  // |a| x |b|).  The arity and positivity are checked at build().
  ProblemBuilder& extents(int nx);
  ProblemBuilder& extents(int nx, int ny);
  ProblemBuilder& extents(int nx, int ny, int nz);

  // Time steps (Jacobi/Life) or sweeps (Gauss-Seidel); ignored by LCS.
  ProblemBuilder& steps(long n);

  // Worker threads for the tiled path; 0 (the default) keeps the serial
  // temporal path.
  ProblemBuilder& threads(int n);

  // Element type; kF64 default.  Life/LCS ignore it (fixed int32).
  ProblemBuilder& dtype(dispatch::DType dt);

  // Validates and emits the descriptor; throws Error on any violation.
  StencilProblem build() const;

 private:
  StencilProblem p_;
  // Number of extents the caller actually supplied (checked against
  // family_dim at build()); -1 until extents() is called.
  int extent_arity_ = -1;
};

}  // namespace tvs::solver
