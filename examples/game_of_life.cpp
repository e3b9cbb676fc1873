// Conway's Game of Life (B3S23) through the Solver facade: the planned
// temporally vectorized int32 kernel advances eight generations per
// vector sweep.  Prints an ASCII animation of a glider gun area.
//
//   $ ./game_of_life [generations]
#include <cstdio>
#include <cstdlib>

#include "solver/builder.hpp"
#include "solver/solver.hpp"

int main(int argc, char** argv) {
  using namespace tvs;
  const long gens = argc > 1 ? std::atol(argv[1]) : 96;
  const int nx = 40, ny = 72;
  grid::Grid2D<std::int32_t> u(nx, ny);
  u.fill(0);

  // Gosper glider gun.
  const int gun[][2] = {{5, 1},  {5, 2},  {6, 1},  {6, 2},  {5, 11}, {6, 11},
                        {7, 11}, {4, 12}, {8, 12}, {3, 13}, {9, 13}, {3, 14},
                        {9, 14}, {6, 15}, {4, 16}, {8, 16}, {5, 17}, {6, 17},
                        {7, 17}, {6, 18}, {3, 21}, {4, 21}, {5, 21}, {3, 22},
                        {4, 22}, {5, 22}, {2, 23}, {6, 23}, {1, 25}, {2, 25},
                        {6, 25}, {7, 25}, {3, 35}, {4, 35}, {3, 36}, {4, 36}};
  for (const auto& g : gun) u.at(g[0] + 1, g[1] + 1) = 1;

  const stencil::LifeRule conway{3, 2, 3};
  // One Solver, eight generations per run() call (one vector tile depth).
  const solver::Solver solve(solver::ProblemBuilder(solver::Family::kLife)
                                 .extents(nx, ny)
                                 .steps(8)
                                 .build());
  long alive_total = 0;
  for (long g = 0; g < gens; g += 8) {
    solve.run(solver::Workload(conway, u));
    alive_total = 0;
    for (int x = 1; x <= nx; ++x)
      for (int y = 1; y <= ny; ++y) alive_total += u.at(x, y);
  }
  std::printf("generation %ld, %ld live cells\n\n", gens, alive_total);
  for (int x = 1; x <= nx; ++x) {
    for (int y = 1; y <= ny; ++y) std::putchar(u.at(x, y) != 0 ? '#' : '.');
    std::putchar('\n');
  }
  return alive_total > 0 ? 0 : 1;
}
