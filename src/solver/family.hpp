// The family table: every per-family fact the solver branches on, one row
// per stencil family (family.cpp).  The public views — family_name,
// family_dim, family_deps, family_supports_dtype (problem.hpp) and
// serial_kernel_id, tiled_kernel_id, family_has_tiled_path,
// family_is_gauss_seidel (plan.hpp) — read it, and so do the planner
// (heuristic_plan, validate_plan) and the tuner's candidates: Table 1's
// blocking and each family's knobs live in this one row and nowhere else.
#pragma once

#include <string_view>
#include <vector>

#include "solver/problem.hpp"
#include "stencil/dependence.hpp"

namespace tvs::solver {

struct FamilyRow {
  Family family;
  std::string_view name;  // matches the registry id stems
  int dim;
  std::vector<stencil::Dep> (*deps)();
  bool int32;  // fixed int32 storage (Life, LCS); otherwise f64 or f32
  // Registry ids of the serial engine, its redundancy-eliminated twin and
  // the tiled driver; an empty id means the family has none.
  std::string_view serial_id;
  std::string_view serial_re_id;
  std::string_view tiled_id;
  // The tiled driver sweeps the grid in place (a Gauss-Seidel
  // parallelogram) instead of running a diamond on a parity pair.
  bool tiled_in_place;
  // Largest stride the tiled driver runs; 0 = legality is the only bound.
  int tiled_max_stride;
  // The fewest tiles one stage of the tiled driver can hold for which the
  // heuristic plans it; 0 = no minimum.  A Gauss-Seidel stage holds one
  // tile per temporal band, ceil(steps / band height), and per column
  // block of the inner axis, ceil(inner extent / tile width) on a plane
  // grid (heuristic_plan).  With one tile the parallelogram is a serial
  // sweep with stage overhead: gs1d3 and gs2d5 ran at 0.25-0.86x the
  // serial engine's speed that way, and gs2d5 at 0.65-0.85x with two
  // column blocks (256^2), 0.97-1.05x with three (384^2) and 1.35-2.8x
  // with four or more.  gs3d7's parallelogram kept pace with its serial
  // engine at every shape measured, so it has no minimum.
  int tiled_min_tiles;
  // Table 1: stride, tile width, band height and the multiple the band
  // height is rounded down to.
  int stride;
  int width;
  int height;
  int height_unit;
  // The tuner's serial-path stride candidates; 0 marks an unused slot.
  int serial_strides[3];
};

// The row of family f; throws Error(kBadFamily) for an unknown id.
const FamilyRow& family_row(Family f);

}  // namespace tvs::solver
