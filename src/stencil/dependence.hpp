// Dependence sets and the temporal-vectorization legality rule (§3.2).
//
// A dependence (dt, dx) means the point (t, x) requires the value at
// (t - dt, x + dx) along the vectorized (outermost) space dimension.
// Temporal vectorization with space stride `s` is legal iff
//
//     s * dt > dx        for every dependence with dx > 0,
//
// i.e. the older lanes sit far enough ahead in space that nothing a lane
// needs is still in flight.  Dependences with dt == 0 and dx < 0
// (Gauss-Seidel / LCS "newest west neighbour") are satisfied by forwarding
// the previous output vector; dt == 0 with dx > 0 has no legal stride.
#pragma once

#include <span>
#include <string_view>
#include <vector>

namespace tvs::stencil {

struct Dep {
  int dt;  // time distance, >= 0
  int dx;  // forward space distance of the required neighbour
};

// Smallest legal space stride, or -1 if no stride makes the scheme legal
// (a same-time forward dependence).  Defined in legality.cpp.
int min_stride(std::span<const Dep> deps);

// The planner's stride guard (solver::validate_plan): throws
// std::invalid_argument (naming `kernel`, the offending stride, and the
// smallest legal one) unless `stride >= min_stride(deps)` — the §3.2
// condition `s * dt > dx` for every forward dependence.  When
// `max_stride > 0` the engine's capacity bound `stride <= max_stride` is
// enforced too.  An illegal stride used to corrupt results silently.
void require_legal_stride(std::string_view kernel, std::span<const Dep> deps,
                          int stride, int max_stride = 0);

// Standard dependence sets for the kernels in this library, projected on
// (t, outermost-space-dim).
std::vector<Dep> jacobi1d_deps(int radius);
std::vector<Dep> jacobi2d_deps(int radius);   // same projection as 1D
std::vector<Dep> jacobi3d_deps(int radius);
std::vector<Dep> gauss_seidel_deps(int radius);
std::vector<Dep> lcs_deps();

}  // namespace tvs::stencil
