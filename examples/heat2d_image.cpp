// Heat diffusion on a 2D plate, solved through the Solver facade (which
// plans the temporally vectorized 2D5P kernel), rendered as a PPM heat
// map (heat2d.ppm).
//
//   $ ./heat2d_image [N] [steps]
#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "solver/builder.hpp"
#include "solver/solver.hpp"

int main(int argc, char** argv) {
  using namespace tvs;
  const int n = argc > 1 ? std::atoi(argv[1]) : 384;
  const long steps = argc > 2 ? std::atol(argv[2]) : 2000;

  grid::Grid2D<double> u(n, n);
  u.fill(0.0);
  // Hot circular blob off-center plus a hot west boundary.
  const int cx = n / 3, cy = n / 2, r = n / 8;
  for (int x = 1; x <= n; ++x)
    for (int y = 1; y <= n; ++y)
      if ((x - cx) * (x - cx) + (y - cy) * (y - cy) < r * r) u.at(x, y) = 1.0;
  for (int x = 0; x <= n + 1; ++x) u.at(x, 0) = 0.6;

  const solver::Solver solve(
      solver::ProblemBuilder(solver::Family::kJacobi2D5)
          .extents(n, n)
          .steps(steps)
          .build());
  solve.run(solver::Workload(stencil::heat2d(0.2), u));

  std::FILE* f = std::fopen("heat2d.ppm", "wb");
  if (f == nullptr) return 1;
  std::fprintf(f, "P6\n%d %d\n255\n", n, n);
  for (int x = 1; x <= n; ++x)
    for (int y = 1; y <= n; ++y) {
      const double v = std::clamp(u.at(x, y), 0.0, 1.0);
      const unsigned char rgb[3] = {
          static_cast<unsigned char>(255 * v),
          static_cast<unsigned char>(64 * v),
          static_cast<unsigned char>(255 * (1.0 - v))};
      std::fwrite(rgb, 1, 3, f);
    }
  std::fclose(f);
  std::printf("wrote heat2d.ppm (%dx%d after %ld steps); center T = %.4f\n", n,
              n, steps, u.at(cx, cy));
  return 0;
}
