// Dispatch-layer tests: backend identification/forcing semantics, registry
// wiring, and lane-for-lane equality of every registered kernel against the
// scalar reference oracles under EVERY backend this host can execute —
// looked up explicitly per backend, so one test process covers them all
// regardless of TVS_FORCE_BACKEND.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <random>
#include <span>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

#include "dispatch/backend.hpp"
#include "dispatch/kernels.hpp"
#include "dispatch/registry.hpp"
#include "stencil/lcs_ref.hpp"
#include "stencil/life_ref.hpp"
#include "stencil/reference1d.hpp"
#include "stencil/reference2d.hpp"
#include "stage_execs.hpp"
#include "stencil/reference3d.hpp"
#include "tiling/pingpong_convert.hpp"
#include "tv/tv_lcs.hpp"  // kLcsRowPad

namespace {

using namespace tvs;
using dispatch::Backend;
using dispatch::KernelRegistry;

std::vector<Backend> available_backends() {
  std::vector<Backend> r;
  for (Backend b : {Backend::kScalar, Backend::kAvx2, Backend::kAvx512}) {
    if (dispatch::cpu_supports(b) && KernelRegistry::instance().has_backend(b))
      r.push_back(b);
  }
  return r;
}

// ---- backend naming / forcing ----------------------------------------------

TEST(Backend, NamesRoundTrip) {
  for (Backend b : {Backend::kScalar, Backend::kAvx2, Backend::kAvx512}) {
    const auto parsed = dispatch::parse_backend(dispatch::backend_name(b));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, b);
  }
}

TEST(Backend, ParseRejectsUnknown) {
  EXPECT_FALSE(dispatch::parse_backend("neon").has_value());
  EXPECT_FALSE(dispatch::parse_backend("AVX2").has_value());  // case-sensitive
  EXPECT_FALSE(dispatch::parse_backend("avx-512").has_value());
}

TEST(Backend, ResolveForceSemantics) {
  EXPECT_EQ(dispatch::resolve_backend(std::nullopt), dispatch::best_available());
  EXPECT_EQ(dispatch::resolve_backend(""), dispatch::best_available());
  EXPECT_EQ(dispatch::resolve_backend("scalar"), Backend::kScalar);
  EXPECT_THROW(dispatch::resolve_backend("neon"), std::runtime_error);
  EXPECT_THROW(dispatch::resolve_backend("AVX2"), std::runtime_error);
  for (Backend b : {Backend::kAvx2, Backend::kAvx512}) {
    const bool usable = dispatch::cpu_supports(b) &&
                        KernelRegistry::instance().has_backend(b);
    if (usable) {
      EXPECT_EQ(dispatch::resolve_backend(dispatch::backend_name(b)), b);
    } else {
      // Forcing an uncompiled or CPU-unsupported backend is an error, not a
      // silent fallback.
      EXPECT_THROW(dispatch::resolve_backend(dispatch::backend_name(b)),
                   std::runtime_error);
    }
  }
}

TEST(Backend, SelectedHonoursEnvironment) {
  const char* force = std::getenv("TVS_FORCE_BACKEND");
  if (force != nullptr && force[0] != '\0') {
    const auto parsed = dispatch::parse_backend(force);
    ASSERT_TRUE(parsed.has_value()) << "CTest forced an unknown backend";
    EXPECT_EQ(dispatch::selected_backend(), *parsed);
  } else {
    EXPECT_EQ(dispatch::selected_backend(), dispatch::best_available());
  }
}

TEST(Backend, BestAvailableIsConsistent) {
  const Backend best = dispatch::best_available();
  EXPECT_TRUE(dispatch::cpu_supports(best));
  EXPECT_TRUE(KernelRegistry::instance().has_backend(best));
  for (int l = static_cast<int>(best) + 1; l < dispatch::kBackendCount; ++l) {
    const Backend higher = static_cast<Backend>(l);
    EXPECT_FALSE(dispatch::cpu_supports(higher) &&
                 KernelRegistry::instance().has_backend(higher))
        << "best_available skipped a usable backend";
  }
}

// ---- registry wiring -------------------------------------------------------

TEST(Registry, ScalarCoversEveryKernel) {
  const KernelRegistry& reg = KernelRegistry::instance();
  for (std::string_view id : reg.kernel_ids()) {
    EXPECT_NE(reg.find(id, Backend::kScalar), nullptr)
        << id << " has no scalar variant";
  }
}

TEST(Registry, ExpectedIdsPresent) {
  const auto ids = KernelRegistry::instance().kernel_ids();
  const auto has = [&](std::string_view id) {
    return std::find(ids.begin(), ids.end(), id) != ids.end();
  };
  for (std::string_view id :
       {dispatch::kTvJacobi1D3, dispatch::kTvJacobi1D5, dispatch::kTvJacobi2D5,
        dispatch::kTvJacobi2D9, dispatch::kTvJacobi3D7,
        dispatch::kTvGs1D3, dispatch::kTvGs2D5,
        dispatch::kTvGs3D7, dispatch::kTvLife, dispatch::kTvLcsRows,
        dispatch::kAutovecJacobi1D3, dispatch::kAutovecJacobi1D5,
        dispatch::kAutovecJacobi2D5, dispatch::kAutovecJacobi2D9,
        dispatch::kAutovecJacobi3D7, dispatch::kAutovecLife,
        dispatch::kParAutovecJacobi1D3, dispatch::kParAutovecJacobi2D5,
        dispatch::kParAutovecJacobi2D9, dispatch::kParAutovecJacobi3D7,
        dispatch::kParAutovecLife, dispatch::kMultiloadJacobi1D3,
        dispatch::kReorgJacobi1D3, dispatch::kDltJacobi1D3,
        dispatch::kMultiloadJacobi2D5, dispatch::kMultiloadJacobi2D9,
        dispatch::kMultiloadJacobi3D7, dispatch::kMultiloadLife,
        dispatch::kDiamondJacobi1D3, dispatch::kDiamondJacobi2D5,
        dispatch::kDiamondJacobi2D9, dispatch::kDiamondLife,
        dispatch::kDiamondJacobi3D7, dispatch::kParallelogramGs1D3,
        dispatch::kParallelogramGs2D5, dispatch::kParallelogramGs3D7,
        dispatch::kLcsWavefront}) {
    EXPECT_TRUE(has(id)) << id << " not registered";
  }
}

TEST(Registry, DownwardFallbackSemantics) {
  const KernelRegistry& reg = KernelRegistry::instance();
  // Fallback never selects a higher backend than asked for.
  EXPECT_EQ(reg.resolved_backend_at(dispatch::kTvJacobi1D3, Backend::kScalar),
            Backend::kScalar);
  if (reg.has_backend(Backend::kAvx2)) {
    EXPECT_EQ(reg.resolved_backend_at(dispatch::kTvJacobi1D3, Backend::kAvx2),
              Backend::kAvx2);
    // A width-pinned lookup falls back too: vl=8 doubles have no AVX2
    // engine (AVX2 has no 8-wide double type), so the pin resolves down to
    // the scalar backend's ScalarVec<double, 8> registration.
    EXPECT_EQ(reg.resolved_backend_at(dispatch::kTvJacobi2D5, Backend::kAvx2,
                                      8),
              Backend::kScalar);
  }
}

// Since the lane-generic refactor the avx512 backend compiles every kernel
// TU at its native width: every id must resolve at avx512 WITHOUT downward
// fallback whenever that backend is in the binary (registration does not
// execute backend code, so this holds on any host).
TEST(Registry, Avx512CoversEveryKernelNatively) {
  const KernelRegistry& reg = KernelRegistry::instance();
  if (!reg.has_backend(Backend::kAvx512))
    GTEST_SKIP() << "avx512 backend not compiled in";
  for (std::string_view id : reg.kernel_ids()) {
    EXPECT_NE(reg.find(id, Backend::kAvx512), nullptr)
        << id << " has no avx512 variant";
    EXPECT_EQ(reg.resolved_backend_at(id, Backend::kAvx512), Backend::kAvx512)
        << id << " falls back below avx512";
  }
}

// Every FP temporal engine id, the redundancy-eliminated ones included.
constexpr std::string_view kFpTvIds[] = {
    dispatch::kTvJacobi1D3,   dispatch::kTvJacobi1D5,
    dispatch::kTvJacobi2D5,   dispatch::kTvJacobi2D9,
    dispatch::kTvJacobi3D7,   dispatch::kTvJacobi1D3Re,
    dispatch::kTvJacobi1D5Re, dispatch::kTvJacobi2D5Re,
    dispatch::kTvJacobi2D9Re, dispatch::kTvJacobi3D7Re,
    dispatch::kTvGs1D3,       dispatch::kTvGs2D5,
    dispatch::kTvGs3D7};

TEST(Registry, WidthAxis) {
  const KernelRegistry& reg = KernelRegistry::instance();
  // Every double-typed temporal kernel resolves width-pinned at 4 and 8
  // lanes on any host (vl = 8 via the scalar backend when avx512 is
  // absent); the int32 kernels at 8 and 16.  The scalar backend registers
  // exactly those widths (its native one and the wide pins), so a width
  // pin dropped from or added to a registrar fails here.
  for (std::string_view id : kFpTvIds) {
    EXPECT_EQ(reg.registered_widths(id, Backend::kAvx512),
              (std::vector<int>{4, 8}))
        << id;
    EXPECT_EQ(reg.registered_widths(id, Backend::kScalar),
              (std::vector<int>{4, 8}))
        << id;
    EXPECT_NE(reg.resolve_at(id, Backend::kScalar, 4), nullptr) << id;
    EXPECT_NE(reg.resolve_at(id, Backend::kScalar, 8), nullptr) << id;
  }
  for (std::string_view id : {dispatch::kTvLife, dispatch::kTvLcsRows}) {
    EXPECT_EQ(reg.registered_widths(id, Backend::kAvx512),
              (std::vector<int>{8, 16}))
        << id;
    EXPECT_NE(reg.resolve_at(id, Backend::kScalar, 16), nullptr) << id;
  }
  EXPECT_EQ(reg.registered_widths(dispatch::kTvLife, Backend::kScalar),
            (std::vector<int>{8, 16}));
  // A pinned width that no engine was instantiated at is an error.
  EXPECT_THROW(reg.resolve_at(dispatch::kTvJacobi1D3, Backend::kAvx512, 16),
               std::runtime_error);
  // Native-ordering invariant: the unpinned per-backend entry (what public
  // dispatch uses) must be the backend's NATIVE engine, not a width-pinned
  // extra — i.e. registrars register the native width first.  All widths
  // are bit-identical, so only this check catches an ordering regression.
  for (const Backend b : available_backends()) {
    const int native_bytes = b == Backend::kAvx512 ? 64 : 32;
    for (const std::string_view id : reg.kernel_ids()) {
      if (!id.starts_with("tv_")) continue;
      EXPECT_EQ(reg.find(id, b),
                reg.find(id, b, dispatch::kAnyVl, reg.default_dtype(id)))
          << id << " at " << dispatch::backend_name(b);
      for (const dispatch::DType dt : reg.registered_dtypes(id, b)) {
        const int native =
            native_bytes / static_cast<int>(dispatch::dtype_size(dt));
        const dispatch::AnyFn first = reg.find(id, b, dispatch::kAnyVl, dt);
        EXPECT_NE(first, nullptr)
            << id << " " << dispatch::dtype_name(dt) << " at "
            << dispatch::backend_name(b);
        EXPECT_EQ(first, reg.find(id, b, native, dt))
            << id << " " << dispatch::dtype_name(dt) << " at "
            << dispatch::backend_name(b) << ": first registration is not vl="
            << native;
      }
    }
  }
  // A vl = 8 pin never resolves to the avx2 backend (no 8-wide double).
  if (reg.has_backend(Backend::kAvx2)) {
    EXPECT_EQ(reg.resolved_backend_at(dispatch::kTvJacobi2D5, Backend::kAvx2, 8),
              Backend::kScalar);
    EXPECT_EQ(reg.resolved_backend_at(dispatch::kTvJacobi2D5, Backend::kAvx2, 4),
              Backend::kAvx2);
  }
  if (reg.has_backend(Backend::kAvx512)) {
    EXPECT_EQ(
        reg.resolved_backend_at(dispatch::kTvJacobi2D5, Backend::kAvx512, 8),
        Backend::kAvx512);
  }
}

// The dtype axis: every FP temporal kernel carries a float engine family
// at doubled lane counts (8/16) next to the double one (4/8); the int32
// kernels are tagged kI32.  Lookups without a dtype keep resolving the
// id's default dtype, so they can never hand a float engine to a
// double-signature caller.
TEST(Registry, DtypeAxis) {
  using dispatch::DType;
  const KernelRegistry& reg = KernelRegistry::instance();
  for (std::string_view id : kFpTvIds) {
    EXPECT_EQ(reg.default_dtype(id), DType::kF64) << id;
    EXPECT_EQ(reg.registered_dtypes(id, Backend::kAvx512),
              (std::vector<DType>{DType::kF64, DType::kF32}))
        << id;
    // Float engines: twice the lanes of the double family, resolvable on
    // every host (vl = 16 via the scalar backend when avx512 is absent).
    EXPECT_EQ(reg.registered_widths(id, Backend::kAvx512, DType::kF32),
              (std::vector<int>{8, 16}))
        << id;
    EXPECT_EQ(reg.registered_widths(id, Backend::kScalar, DType::kF32),
              (std::vector<int>{8, 16}))
        << id;
    EXPECT_NE(reg.resolve_at(id, Backend::kScalar, 8, DType::kF32), nullptr)
        << id;
    EXPECT_NE(reg.resolve_at(id, Backend::kScalar, 16, DType::kF32), nullptr)
        << id;
    // The default-dtype widths are unchanged by the float registrations.
    EXPECT_EQ(reg.registered_widths(id, Backend::kAvx512),
              (std::vector<int>{4, 8}))
        << id;
    // A dtype-less width-pinned lookup never returns a float engine: the
    // vl = 8 double pin and the vl = 8 float pin resolve to different
    // functions.
    EXPECT_NE(reg.resolve_at(id, Backend::kAvx512, 8),
              reg.resolve_at(id, Backend::kAvx512, 8, DType::kF32))
        << id;
  }
  for (std::string_view id : {dispatch::kTvLife, dispatch::kTvLcsRows}) {
    EXPECT_EQ(reg.default_dtype(id), DType::kI32) << id;
    EXPECT_EQ(reg.registered_dtypes(id, Backend::kAvx512),
              (std::vector<DType>{DType::kI32}))
        << id;
  }
  // The tiled drivers the planner may route floats to: every Jacobi
  // diamond carries an f32 driver next to its f64 default, on every
  // backend; the Gauss-Seidel parallelograms stay f64 only.
  for (std::string_view id :
       {dispatch::kDiamondJacobi1D3, dispatch::kDiamondJacobi2D5,
        dispatch::kDiamondJacobi2D9, dispatch::kDiamondJacobi3D7}) {
    EXPECT_EQ(reg.default_dtype(id), DType::kF64) << id;
    EXPECT_EQ(reg.registered_dtypes(id, Backend::kScalar),
              (std::vector<DType>{DType::kF64, DType::kF32}))
        << id;
    EXPECT_NE(reg.resolve_at(id, Backend::kAvx512, dispatch::kAnyVl),
              reg.resolve_at(id, Backend::kAvx512, dispatch::kAnyVl,
                             DType::kF32))
        << id;
  }
  for (std::string_view id :
       {dispatch::kParallelogramGs1D3, dispatch::kParallelogramGs2D5,
        dispatch::kParallelogramGs3D7}) {
    EXPECT_EQ(reg.registered_dtypes(id, Backend::kAvx512),
              (std::vector<DType>{DType::kF64}))
        << id;
  }
  // An unregistered dtype pin is an error naming the dtype.
  try {
    reg.resolve_at(dispatch::kTvLife, Backend::kAvx512, 8, DType::kF32);
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("f32"), std::string::npos)
        << e.what();
  }
  // vl = kAnyVl + dtype = the backend's native float width: 8 under
  // scalar/avx2, 16 under avx512.
  if (reg.has_backend(Backend::kAvx2)) {
    EXPECT_EQ(reg.resolve_at(dispatch::kTvJacobi2D5, Backend::kAvx2,
                             dispatch::kAnyVl, DType::kF32),
              reg.resolve_at(dispatch::kTvJacobi2D5, Backend::kAvx2, 8,
                             DType::kF32));
  }
  if (reg.has_backend(Backend::kAvx512)) {
    EXPECT_EQ(reg.resolve_at(dispatch::kTvJacobi2D5, Backend::kAvx512,
                             dispatch::kAnyVl, DType::kF32),
              reg.resolve_at(dispatch::kTvJacobi2D5, Backend::kAvx512, 16,
                             DType::kF32));
  }
}

// The Solver resolves every engine pinned to the problem's dtype.  Pinning
// an id to its default dtype must pick exactly the function the dtype-less
// lookup picks, at the native width and at every registered width.
TEST(Registry, DefaultDtypePinResolvesTheSameEngine) {
  const KernelRegistry& reg = KernelRegistry::instance();
  for (const Backend b : available_backends()) {
    for (const std::string_view id : reg.kernel_ids()) {
      const dispatch::DType dt = reg.default_dtype(id);
      EXPECT_EQ(reg.resolve_at(id, b, dispatch::kAnyVl, dt),
                reg.resolve_at(id, b))
          << id << " at " << dispatch::backend_name(b);
      for (const int vl : reg.registered_widths(id, b)) {
        if (vl == dispatch::kAnyVl) continue;
        EXPECT_EQ(reg.resolve_at(id, b, vl, dt), reg.resolve_at(id, b, vl))
            << id << " at " << dispatch::backend_name(b) << " vl=" << vl;
      }
    }
  }
}

TEST(Dtype, NamesRoundTrip) {
  using dispatch::DType;
  for (DType d : {DType::kF64, DType::kF32, DType::kI32}) {
    const auto parsed = dispatch::parse_dtype(dispatch::dtype_name(d));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, d);
  }
  EXPECT_FALSE(dispatch::parse_dtype("f16").has_value());
  EXPECT_EQ(dispatch::dtype_size(DType::kF64), 8u);
  EXPECT_EQ(dispatch::dtype_size(DType::kF32), 4u);
}

TEST(Registry, UnknownIdThrowsListingRegisteredIds) {
  try {
    KernelRegistry::instance().resolve_at("no_such_kernel", Backend::kScalar);
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("no_such_kernel"), std::string::npos) << msg;
    // The error names the registered ids so a missed registrar is obvious.
    EXPECT_NE(msg.find("tv_jacobi1d3"), std::string::npos) << msg;
    EXPECT_NE(msg.find("lcs_wavefront"), std::string::npos) << msg;
  }
}

// ---- lane-for-lane equality vs the scalar oracles, per backend -------------

template <class Fn>
Fn* at(std::string_view id, Backend b) {
  return KernelRegistry::instance().get_at<Fn>(id, b);
}

// Width-pinned lookup on the registry's vector-length axis.
template <class Fn>
Fn* at_vl(std::string_view id, Backend b, int vl) {
  return KernelRegistry::instance().get_at<Fn>(id, b, vl);
}

grid::Grid1D<double> random1d(int nx, unsigned seed) {
  std::mt19937_64 rng(seed);
  grid::Grid1D<double> g(nx);
  g.fill_random(rng, -1.0, 1.0);
  return g;
}

grid::Grid2D<double> random2d(int nx, int ny, unsigned seed) {
  std::mt19937_64 rng(seed);
  grid::Grid2D<double> g(nx, ny);
  g.fill_random(rng, -1.0, 1.0);
  return g;
}

grid::Grid3D<double> random3d(int nx, int ny, int nz, unsigned seed) {
  std::mt19937_64 rng(seed);
  grid::Grid3D<double> g(nx, ny, nz);
  g.fill_random(rng, -1.0, 1.0);
  return g;
}

grid::Grid2D<std::int32_t> random_life(int nx, int ny, unsigned seed) {
  std::mt19937_64 rng(seed);
  grid::Grid2D<std::int32_t> g(nx, ny);
  g.fill_random(rng, 0, 1);
  return g;
}

// Fills the boundary and halo cells of g — the cells a diamond driver
// mirrors from the even grid into the odd one before its first step — with
// `v`.  A finite sentinel rather than NaN: max_abs_diff's std::max would
// drop a NaN difference.
void poison_halo(grid::Grid1D<double>& g, double v) {
  for (int x = -grid::kPad; x <= 0; ++x) g.at(x) = v;
  for (int x = g.nx() + 1; x <= g.nx() + 1 + grid::kPad; ++x) g.at(x) = v;
}

template <class T>
void poison_halo(grid::Grid2D<T>& g, T v) {
  for (int x = 0; x <= g.nx() + 1; ++x)
    for (int y = -grid::kPad; y <= g.ny() + 1 + grid::kPad; ++y)
      if (x == 0 || x == g.nx() + 1 || y <= 0 || y >= g.ny() + 1)
        g.at(x, y) = v;
}

void poison_halo(grid::Grid3D<double>& g, double v) {
  for (int x = 0; x <= g.nx() + 1; ++x)
    for (int y = 0; y <= g.ny() + 1; ++y)
      for (int z = -grid::kPad; z <= g.nz() + 1 + grid::kPad; ++z)
        if (x == 0 || x == g.nx() + 1 || y == 0 || y == g.ny() + 1 ||
            z <= 0 || z >= g.nz() + 1)
          g.at(x, y, z) = v;
}

constexpr double kSentinel = 1e30;

class LaneForLane : public ::testing::TestWithParam<Backend> {};

INSTANTIATE_TEST_SUITE_P(Backends, LaneForLane,
                         ::testing::ValuesIn(available_backends()),
                         [](const auto& info) {
                           return std::string(
                               tvs::dispatch::backend_name(info.param));
                         });

TEST_P(LaneForLane, TvJacobi1D) {
  const Backend b = GetParam();
  const stencil::C1D3 c3 = stencil::heat1d(0.25);
  auto ref = random1d(103, 11);
  auto got = random1d(103, 11);
  stencil::jacobi1d3_run(c3, ref, 9);
  at<dispatch::TvJacobi1D3Fn>(dispatch::kTvJacobi1D3, b)(c3, got, 9, 7);
  EXPECT_EQ(grid::max_abs_diff(ref, got), 0.0);

  const stencil::C1D5 c5{0.05, 0.2, 0.5, 0.15, 0.1};
  auto ref5 = random1d(131, 12);
  auto got5 = random1d(131, 12);
  stencil::jacobi1d5_run(c5, ref5, 9);
  at<dispatch::TvJacobi1D5Fn>(dispatch::kTvJacobi1D5, b)(c5, got5, 9, 7);
  EXPECT_EQ(grid::max_abs_diff(ref5, got5), 0.0);
}

TEST_P(LaneForLane, TvJacobi2D) {
  const Backend b = GetParam();
  const stencil::C2D5 c5{0.3, 0.2, 0.18, 0.17, 0.15};
  auto ref = random2d(40, 18, 21);
  auto got = random2d(40, 18, 21);
  stencil::jacobi2d5_run(c5, ref, 9);
  at<dispatch::TvJacobi2D5Fn>(dispatch::kTvJacobi2D5, b)(c5, got, 9, 2);
  EXPECT_EQ(grid::max_abs_diff(ref, got), 0.0);

  const stencil::C2D9 c9{0.2, 0.14, 0.12, 0.1, 0.09, 0.08, 0.09, 0.09, 0.09};
  auto ref9 = random2d(41, 17, 22);
  auto got9 = random2d(41, 17, 22);
  stencil::jacobi2d9_run(c9, ref9, 10);
  at<dispatch::TvJacobi2D9Fn>(dispatch::kTvJacobi2D9, b)(c9, got9, 10, 2);
  EXPECT_EQ(grid::max_abs_diff(ref9, got9), 0.0);
}

TEST_P(LaneForLane, TvJacobi2D3DVl8) {
  const Backend b = GetParam();
  const stencil::C2D5 c5{0.3, 0.2, 0.18, 0.17, 0.15};
  auto ref = random2d(40, 12, 31);
  auto got = random2d(40, 12, 31);
  stencil::jacobi2d5_run(c5, ref, 9);
  at_vl<dispatch::TvJacobi2D5Fn>(dispatch::kTvJacobi2D5, b, 8)(c5, got, 9, 2);
  EXPECT_EQ(grid::max_abs_diff(ref, got), 0.0);

  const stencil::C2D9 c9{0.2, 0.14, 0.12, 0.1, 0.09, 0.08, 0.09, 0.09, 0.09};
  auto ref9 = random2d(40, 12, 32);
  auto got9 = random2d(40, 12, 32);
  stencil::jacobi2d9_run(c9, ref9, 17);
  at_vl<dispatch::TvJacobi2D9Fn>(dispatch::kTvJacobi2D9, b, 8)(c9, got9, 17,
                                                               2);
  EXPECT_EQ(grid::max_abs_diff(ref9, got9), 0.0);

  const stencil::C3D7 c7{0.28, 0.13, 0.12, 0.12, 0.11, 0.13, 0.11};
  auto ref3 = random3d(40, 8, 8, 33);
  auto got3 = random3d(40, 8, 8, 33);
  stencil::jacobi3d7_run(c7, ref3, 9);
  at_vl<dispatch::TvJacobi3D7Fn>(dispatch::kTvJacobi3D7, b, 8)(c7, got3, 9, 2);
  EXPECT_EQ(grid::max_abs_diff(ref3, got3), 0.0);
}

TEST_P(LaneForLane, TvJacobi3D) {
  const Backend b = GetParam();
  const stencil::C3D7 c{0.28, 0.13, 0.12, 0.12, 0.11, 0.13, 0.11};
  auto ref = random3d(24, 10, 8, 41);
  auto got = random3d(24, 10, 8, 41);
  stencil::jacobi3d7_run(c, ref, 9);
  at<dispatch::TvJacobi3D7Fn>(dispatch::kTvJacobi3D7, b)(c, got, 9, 2);
  EXPECT_EQ(grid::max_abs_diff(ref, got), 0.0);
}

TEST_P(LaneForLane, TvGaussSeidel) {
  const Backend b = GetParam();
  const stencil::C1D3 c3 = stencil::heat1d(0.25);
  auto ref = random1d(120, 51);
  auto got = random1d(120, 51);
  stencil::gs1d3_run(c3, ref, 10);
  at<dispatch::TvGs1D3Fn>(dispatch::kTvGs1D3, b)(c3, got, 10, 3);
  EXPECT_EQ(grid::max_abs_diff(ref, got), 0.0);

  const stencil::C2D5 c5{0.3, 0.2, 0.18, 0.17, 0.15};
  auto ref2 = random2d(40, 12, 52);
  auto got2 = random2d(40, 12, 52);
  stencil::gs2d5_run(c5, ref2, 6);
  at<dispatch::TvGs2D5Fn>(dispatch::kTvGs2D5, b)(c5, got2, 6, 2);
  EXPECT_EQ(grid::max_abs_diff(ref2, got2), 0.0);

  const stencil::C3D7 c7{0.28, 0.13, 0.12, 0.12, 0.11, 0.13, 0.11};
  auto ref3 = random3d(24, 8, 8, 53);
  auto got3 = random3d(24, 8, 8, 53);
  stencil::gs3d7_run(c7, ref3, 5);
  at<dispatch::TvGs3D7Fn>(dispatch::kTvGs3D7, b)(c7, got3, 5, 2);
  EXPECT_EQ(grid::max_abs_diff(ref3, got3), 0.0);
}

TEST_P(LaneForLane, TvLifeAndLcs) {
  const Backend b = GetParam();
  const stencil::LifeRule rule{};
  auto ref = random_life(40, 20, 61);
  auto got = random_life(40, 20, 61);
  stencil::life_run(rule, ref, 8);
  at<dispatch::TvLifeFn>(dispatch::kTvLife, b)(rule, got, 8, 2);
  EXPECT_EQ(grid::max_abs_diff(ref, got), 0.0);

  std::mt19937_64 rng(62);
  std::uniform_int_distribution<std::int32_t> d(0, 3);
  std::vector<std::int32_t> a(150), bb(130);
  for (auto& v : a) v = d(rng);
  for (auto& v : bb) v = d(rng);
  const auto expect = stencil::lcs_ref_row(a, bb);
  std::vector<std::int32_t> row(bb.size() + 1 + tvs::tv::kLcsRowPad, 0);
  at<dispatch::TvLcsRowsFn>(dispatch::kTvLcsRows, b)(a, bb, row.data());
  for (std::size_t i = 0; i < expect.size(); ++i)
    ASSERT_EQ(row[i], expect[i]) << "i=" << i;
}

TEST_P(LaneForLane, BaselinesBitExact) {
  const Backend b = GetParam();
  const stencil::C1D3 c3 = stencil::heat1d(0.25);
  for (std::string_view id :
       {dispatch::kMultiloadJacobi1D3, dispatch::kReorgJacobi1D3,
        dispatch::kDltJacobi1D3}) {
    auto ref = random1d(95, 71);
    auto got = random1d(95, 71);
    stencil::jacobi1d3_run(c3, ref, 6);
    at<dispatch::BlJacobi1DFn>(id, b)(c3, got, 6);
    EXPECT_EQ(grid::max_abs_diff(ref, got), 0.0) << id;
  }

  const stencil::C2D5 c5{0.3, 0.2, 0.18, 0.17, 0.15};
  auto ref2 = random2d(40, 18, 72);
  auto got2 = random2d(40, 18, 72);
  stencil::jacobi2d5_run(c5, ref2, 6);
  at<dispatch::BlJacobi2D5Fn>(dispatch::kMultiloadJacobi2D5, b)(c5, got2, 6);
  EXPECT_EQ(grid::max_abs_diff(ref2, got2), 0.0);

  const stencil::C2D9 c9{0.2, 0.14, 0.12, 0.1, 0.09, 0.08, 0.09, 0.09, 0.09};
  auto ref9 = random2d(40, 18, 73);
  auto got9 = random2d(40, 18, 73);
  stencil::jacobi2d9_run(c9, ref9, 6);
  at<dispatch::BlJacobi2D9Fn>(dispatch::kMultiloadJacobi2D9, b)(c9, got9, 6);
  EXPECT_EQ(grid::max_abs_diff(ref9, got9), 0.0);

  const stencil::LifeRule rule{};
  auto refl = random_life(40, 20, 74);
  auto gotl = random_life(40, 20, 74);
  stencil::life_run(rule, refl, 6);
  at<dispatch::BlLifeFn>(dispatch::kMultiloadLife, b)(rule, gotl, 6);
  EXPECT_EQ(grid::max_abs_diff(refl, gotl), 0.0);

  const stencil::C3D7 c7{0.28, 0.13, 0.12, 0.12, 0.11, 0.13, 0.11};
  auto ref3 = random3d(20, 8, 8, 75);
  auto got3 = random3d(20, 8, 8, 75);
  stencil::jacobi3d7_run(c7, ref3, 5);
  at<dispatch::BlJacobi3D7Fn>(dispatch::kMultiloadJacobi3D7, b)(c7, got3, 5);
  EXPECT_EQ(grid::max_abs_diff(ref3, got3), 0.0);
}

TEST_P(LaneForLane, BaselinesAutovec) {
  // The compiler-vectorized TUs may contract differently per backend, so
  // these compare with the same tolerance the baseline suite uses.
  const Backend b = GetParam();
  const stencil::C1D3 c3 = stencil::heat1d(0.25);
  for (std::string_view id :
       {dispatch::kAutovecJacobi1D3, dispatch::kParAutovecJacobi1D3}) {
    auto ref = random1d(95, 81);
    auto got = random1d(95, 81);
    stencil::jacobi1d3_run(c3, ref, 6);
    at<dispatch::BlJacobi1DFn>(id, b)(c3, got, 6);
    EXPECT_LT(grid::max_abs_diff(ref, got), 1e-12) << id;
  }
  const stencil::C1D5 c1d5{0.05, 0.2, 0.5, 0.15, 0.1};
  auto ref5 = random1d(95, 82);
  auto got5 = random1d(95, 82);
  stencil::jacobi1d5_run(c1d5, ref5, 6);
  at<dispatch::BlJacobi1D5Fn>(dispatch::kAutovecJacobi1D5, b)(c1d5, got5, 6);
  EXPECT_LT(grid::max_abs_diff(ref5, got5), 1e-12);

  const stencil::C2D5 c5{0.3, 0.2, 0.18, 0.17, 0.15};
  for (std::string_view id :
       {dispatch::kAutovecJacobi2D5, dispatch::kParAutovecJacobi2D5}) {
    auto ref = random2d(40, 18, 83);
    auto got = random2d(40, 18, 83);
    stencil::jacobi2d5_run(c5, ref, 6);
    at<dispatch::BlJacobi2D5Fn>(id, b)(c5, got, 6);
    EXPECT_LT(grid::max_abs_diff(ref, got), 1e-12) << id;
  }
  const stencil::C2D9 c9{0.2, 0.14, 0.12, 0.1, 0.09, 0.08, 0.09, 0.09, 0.09};
  for (std::string_view id :
       {dispatch::kAutovecJacobi2D9, dispatch::kParAutovecJacobi2D9}) {
    auto ref = random2d(40, 18, 84);
    auto got = random2d(40, 18, 84);
    stencil::jacobi2d9_run(c9, ref, 6);
    at<dispatch::BlJacobi2D9Fn>(id, b)(c9, got, 6);
    EXPECT_LT(grid::max_abs_diff(ref, got), 1e-12) << id;
  }
  const stencil::LifeRule rule{};
  for (std::string_view id :
       {dispatch::kAutovecLife, dispatch::kParAutovecLife}) {
    auto ref = random_life(40, 20, 85);
    auto got = random_life(40, 20, 85);
    stencil::life_run(rule, ref, 6);
    at<dispatch::BlLifeFn>(id, b)(rule, got, 6);
    EXPECT_EQ(grid::max_abs_diff(ref, got), 0.0) << id;  // integers: exact
  }
  const stencil::C3D7 c7{0.28, 0.13, 0.12, 0.12, 0.11, 0.13, 0.11};
  for (std::string_view id :
       {dispatch::kAutovecJacobi3D7, dispatch::kParAutovecJacobi3D7}) {
    auto ref = random3d(20, 8, 8, 86);
    auto got = random3d(20, 8, 8, 86);
    stencil::jacobi3d7_run(c7, ref, 5);
    at<dispatch::BlJacobi3D7Fn>(id, b)(c7, got, 5);
    EXPECT_LT(grid::max_abs_diff(ref, got), 1e-12) << id;
  }
}

// The PingPong-form drivers own the parity-pair invariant: the odd grid's
// boundary and halo cells start as a sentinel, and the drivers must still
// match the oracle exactly.
TEST_P(LaneForLane, TilingDiamond) {
  const Backend b = GetParam();
  const stencil::C1D3 c3 = stencil::heat1d(0.25);
  {
    auto ref = random1d(200, 91);
    grid::PingPong<grid::Grid1D<double>> pp(200);
    for (int x = -grid::kPad; x <= 200 + 1 + grid::kPad; ++x)
      pp.even().at(x) = ref.at(x);
    poison_halo(pp.odd(), kSentinel);
    const long steps = 18;
    stencil::jacobi1d3_run(c3, ref, steps);
    at<dispatch::DiamondJacobi1D3Fn>(dispatch::kDiamondJacobi1D3, b)(
        c3, pp, steps, tiling::TileOptions{16384, 128, 7});
    EXPECT_EQ(grid::max_abs_diff(ref, pp.by_parity(steps)), 0.0);
  }
  {
    const stencil::C2D5 c5{0.3, 0.2, 0.18, 0.17, 0.15};
    auto ref = random2d(48, 14, 92);
    grid::PingPong<grid::Grid2D<double>> pp(48, 14);
    for (int x = 0; x <= 48 + 1; ++x)
      for (int y = -grid::kPad; y <= 14 + 1 + grid::kPad; ++y)
        pp.even().at(x, y) = ref.at(x, y);
    poison_halo(pp.odd(), kSentinel);
    const long steps = 10;
    stencil::jacobi2d5_run(c5, ref, steps);
    at<dispatch::DiamondJacobi2D5Fn>(dispatch::kDiamondJacobi2D5, b)(
        c5, pp, steps, tiling::TileOptions{256, 32, 2});
    EXPECT_EQ(grid::max_abs_diff(ref, pp.by_parity(steps)), 0.0);
  }
  {
    const stencil::C2D9 c9{0.2, 0.14, 0.12, 0.1, 0.09, 0.08, 0.09, 0.09, 0.09};
    auto ref = random2d(48, 14, 93);
    grid::PingPong<grid::Grid2D<double>> pp(48, 14);
    for (int x = 0; x <= 48 + 1; ++x)
      for (int y = -grid::kPad; y <= 14 + 1 + grid::kPad; ++y)
        pp.even().at(x, y) = ref.at(x, y);
    poison_halo(pp.odd(), kSentinel);
    const long steps = 9;
    stencil::jacobi2d9_run(c9, ref, steps);
    at<dispatch::DiamondJacobi2D9Fn>(dispatch::kDiamondJacobi2D9, b)(
        c9, pp, steps, tiling::TileOptions{256, 32, 2});
    EXPECT_EQ(grid::max_abs_diff(ref, pp.by_parity(steps)), 0.0);
  }
  {
    const stencil::LifeRule rule{};
    auto ref = random_life(48, 14, 94);
    grid::PingPong<grid::Grid2D<std::int32_t>> pp(48, 14);
    for (int x = 0; x <= 48 + 1; ++x)
      for (int y = -grid::kPad; y <= 14 + 1 + grid::kPad; ++y)
        pp.even().at(x, y) = ref.at(x, y);
    poison_halo(pp.odd(), std::int32_t{7});
    const long steps = 9;
    stencil::life_run(rule, ref, steps);
    at<dispatch::DiamondLifeFn>(dispatch::kDiamondLife, b)(
        rule, pp, steps, tiling::TileOptions{256, 32, 2});
    EXPECT_EQ(grid::max_abs_diff(ref, pp.by_parity(steps)), 0.0);
  }
  {
    const stencil::C3D7 c7{0.28, 0.13, 0.12, 0.12, 0.11, 0.13, 0.11};
    auto ref = random3d(24, 8, 8, 95);
    grid::PingPong<grid::Grid3D<double>> pp(24, 8, 8);
    for (int x = 0; x <= 24 + 1; ++x)
      for (int y = 0; y <= 8 + 1; ++y)
        for (int z = -grid::kPad; z <= 8 + 1 + grid::kPad; ++z)
          pp.even().at(x, y, z) = ref.at(x, y, z);
    poison_halo(pp.odd(), kSentinel);
    const long steps = 9;
    stencil::jacobi3d7_run(c7, ref, steps);
    at<dispatch::DiamondJacobi3D7Fn>(dispatch::kDiamondJacobi3D7, b)(
        c7, pp, steps, tiling::TileOptions{32, 8, 2});
    EXPECT_EQ(grid::max_abs_diff(ref, pp.by_parity(steps)), 0.0);
  }
}

// Every element of g's storage, the padding included.
template <class T>
std::span<T> storage(grid::Grid1D<T>& g) {
  return {g.p() - grid::kPad,
          static_cast<std::size_t>(g.nx() + 2 + 2 * grid::kPad)};
}
template <class T>
std::span<T> storage(grid::Grid2D<T>& g) {
  return {g.row(0) - grid::kPad,
          static_cast<std::size_t>(g.nx() + 2) *
              static_cast<std::size_t>(g.stride())};
}
template <class T>
std::span<T> storage(grid::Grid3D<T>& g) {
  return {g.line(0, 0) - grid::kPad,
          static_cast<std::size_t>(g.nx() + 2) *
              static_cast<std::size_t>(g.ny() + 2) *
              static_cast<std::size_t>(g.zstride())};
}

// Garbage for a whole odd grid: NaN for the FP grids, a non-cell value for
// Life.
template <class T>
T garbage() {
  if constexpr (std::is_floating_point_v<T>) {
    return std::numeric_limits<T>::quiet_NaN();
  } else {
    return T{0x5A5A5A5A};
  }
}

// Runs the diamond driver `id` (signature Fn, element type dt) on a grid
// from make() twice: once on a fresh, zeroed partner and once on a partner
// whose whole storage holds garbage, as a partner kept from an earlier run
// may.  The two results must be bit-identical, on every stage executor,
// at an odd and an even step count.
template <class Fn, class C, class Make>
void expect_partner_ignored(Backend b, std::string_view id, dispatch::DType dt,
                            const C& c, const tiling::TileOptions& base,
                            Make make) {
  Fn* const run =
      KernelRegistry::instance().get_at<Fn>(id, b, dispatch::kAnyVl, dt);
  for (const long steps : {13L, 16L})
    for (const tiling::StageExec* exec : test::kStageExecs) {
      SCOPED_TRACE(::testing::Message()
                   << id << " dtype=" << dispatch::dtype_name(dt)
                   << " steps=" << steps << " exec=" << test::exec_name(exec));
      const tiling::TileOptions opt{base.width, base.height, base.stride, true,
                                    exec};
      auto zeroed = make();
      tiling::with_pingpong(zeroed, steps,
                            [&](auto& pp) { run(c, pp, steps, opt); });
      auto got = make();
      auto partner = tv::grid_like(got);
      using T = typename decltype(storage(got))::value_type;
      std::ranges::fill(storage(partner), garbage<T>());
      tiling::with_pingpong(got, partner, steps,
                            [&](auto& pp) { run(c, pp, steps, opt); });
      const auto want = storage(zeroed);
      const auto have = storage(got);
      ASSERT_EQ(want.size(), have.size());
      EXPECT_EQ(std::memcmp(want.data(), have.data(), want.size_bytes()), 0);
    }
}

// A Solver keeps its diamond partner across runs (solver/solver.cpp), so
// every diamond driver must ignore all of the odd grid's prior contents,
// not only its boundary and halo cells.
TEST_P(LaneForLane, TilingDiamondIgnoresOddGrid) {
  const Backend b = GetParam();
  using dispatch::DType;
  const auto grid1d = [](auto v, unsigned seed) {
    return [=] {
      std::mt19937_64 rng(seed);
      grid::Grid1D<decltype(v)> g(300);
      g.fill_random(rng, decltype(v){-1}, decltype(v){1});
      return g;
    };
  };
  const auto grid2d = [](auto lo, auto hi, unsigned seed) {
    return [=] {
      std::mt19937_64 rng(seed);
      grid::Grid2D<decltype(lo)> g(48, 14);
      g.fill_random(rng, lo, hi);
      return g;
    };
  };
  const auto grid3d = [](auto v, unsigned seed) {
    return [=] {
      std::mt19937_64 rng(seed);
      grid::Grid3D<decltype(v)> g(24, 8, 8);
      g.fill_random(rng, decltype(v){-1}, decltype(v){1});
      return g;
    };
  };
  const tiling::TileOptions t1{64, 16, 7}, t2{16, 16, 2}, t3{8, 8, 2};
  expect_partner_ignored<dispatch::DiamondJacobi1D3Fn>(
      b, dispatch::kDiamondJacobi1D3, DType::kF64, stencil::heat1d(0.25), t1,
      grid1d(0.0, 101));
  expect_partner_ignored<dispatch::DiamondJacobi1D3F32Fn>(
      b, dispatch::kDiamondJacobi1D3, DType::kF32,
      stencil::heat1d<float>(0.25), t1, grid1d(0.0f, 102));
  const stencil::C2D5 c5{0.3, 0.2, 0.18, 0.17, 0.15};
  const stencil::C2D5f c5f{0.31f, 0.2f, 0.17f, 0.17f, 0.15f};
  expect_partner_ignored<dispatch::DiamondJacobi2D5Fn>(
      b, dispatch::kDiamondJacobi2D5, DType::kF64, c5, t2,
      grid2d(-1.0, 1.0, 103));
  expect_partner_ignored<dispatch::DiamondJacobi2D5F32Fn>(
      b, dispatch::kDiamondJacobi2D5, DType::kF32, c5f, t2,
      grid2d(-1.0f, 1.0f, 104));
  const stencil::C2D9 c9{0.2, 0.14, 0.12, 0.1, 0.09, 0.08, 0.09, 0.09, 0.09};
  const stencil::C2D9f c9f{0.2f,  0.14f, 0.12f, 0.1f, 0.09f,
                           0.08f, 0.09f, 0.09f, 0.09f};
  expect_partner_ignored<dispatch::DiamondJacobi2D9Fn>(
      b, dispatch::kDiamondJacobi2D9, DType::kF64, c9, t2,
      grid2d(-1.0, 1.0, 105));
  expect_partner_ignored<dispatch::DiamondJacobi2D9F32Fn>(
      b, dispatch::kDiamondJacobi2D9, DType::kF32, c9f, t2,
      grid2d(-1.0f, 1.0f, 106));
  expect_partner_ignored<dispatch::DiamondLifeFn>(
      b, dispatch::kDiamondLife, DType::kI32, stencil::LifeRule{}, t2,
      grid2d(std::int32_t{0}, std::int32_t{1}, 107));
  const stencil::C3D7 c7{0.28, 0.13, 0.12, 0.12, 0.11, 0.13, 0.11};
  const stencil::C3D7f c7f{0.28f, 0.13f, 0.12f, 0.12f, 0.11f, 0.13f, 0.11f};
  expect_partner_ignored<dispatch::DiamondJacobi3D7Fn>(
      b, dispatch::kDiamondJacobi3D7, DType::kF64, c7, t3, grid3d(0.0, 108));
  expect_partner_ignored<dispatch::DiamondJacobi3D7F32Fn>(
      b, dispatch::kDiamondJacobi3D7, DType::kF32, c7f, t3,
      grid3d(0.0f, 109));
}

TEST_P(LaneForLane, TilingParallelogramAndWavefront) {
  const Backend b = GetParam();
  const stencil::C1D3 c3 = stencil::heat1d(0.25);
  {
    auto ref = random1d(160, 96);
    auto got = random1d(160, 96);
    stencil::gs1d3_run(c3, ref, 10);
    at<dispatch::ParallelogramGs1D3Fn>(dispatch::kParallelogramGs1D3, b)(
        c3, got, 10, tiling::TileOptions{2048, 64, 3});
    EXPECT_EQ(grid::max_abs_diff(ref, got), 0.0);
  }
  {
    const stencil::C2D5 c5{0.3, 0.2, 0.18, 0.17, 0.15};
    auto ref = random2d(40, 12, 97);
    auto got = random2d(40, 12, 97);
    stencil::gs2d5_run(c5, ref, 6);
    at<dispatch::ParallelogramGs2D5Fn>(dispatch::kParallelogramGs2D5, b)(
        c5, got, 6, tiling::TileOptions{128, 32, 2});
    EXPECT_EQ(grid::max_abs_diff(ref, got), 0.0);
  }
  {
    const stencil::C3D7 c7{0.28, 0.13, 0.12, 0.12, 0.11, 0.13, 0.11};
    auto ref = random3d(24, 8, 8, 98);
    auto got = random3d(24, 8, 8, 98);
    stencil::gs3d7_run(c7, ref, 5);
    at<dispatch::ParallelogramGs3D7Fn>(dispatch::kParallelogramGs3D7, b)(
        c7, got, 5, tiling::TileOptions{128, 32, 2});
    EXPECT_EQ(grid::max_abs_diff(ref, got), 0.0);
  }
  {
    std::mt19937_64 rng(99);
    std::uniform_int_distribution<std::int32_t> d(0, 3);
    std::vector<std::int32_t> a(300), bb(270);
    for (auto& v : a) v = d(rng);
    for (auto& v : bb) v = d(rng);
    const std::int32_t expect = stencil::lcs_ref(a, bb);
    const tiling::TileOptions opt{64, 64, 1};
    EXPECT_EQ(at<dispatch::LcsWavefrontFn>(dispatch::kLcsWavefront, b)(a, bb,
                                                                       opt),
              expect);
  }
}

}  // namespace
