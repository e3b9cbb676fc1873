// The one family/dtype/extent validation behind the unified Solver front
// door: Solver::run(Workload) and Solver::submit(Workload) both call it
// before any kernel runs, so a payload rejected once is rejected
// everywhere.
#include <string>
#include <variant>

#include "solver/error.hpp"
#include "solver/workload.hpp"
#include "util/checked_idx.hpp"

namespace tvs::solver {

namespace {

// Per-coefficient-set payload facts: display stem, the families that
// consume it, and the element type its grid carries (T of the coefficient
// template, int32 for Life).  The dtype lives here (not on the grid type)
// so Life's int32 grid maps to kI32 without the grid classes growing a
// dispatch dependency.
template <class C>
struct PayloadTraits;

template <class T>
struct PayloadTraits<stencil::C1D3T<T>> {
  using Elem = T;
  static constexpr std::string_view kStem = "C1D3";
  static constexpr Family kFamilies[] = {Family::kJacobi1D3, Family::kGs1D3};
};
template <class T>
struct PayloadTraits<stencil::C1D5T<T>> {
  using Elem = T;
  static constexpr std::string_view kStem = "C1D5";
  static constexpr Family kFamilies[] = {Family::kJacobi1D5};
};
template <class T>
struct PayloadTraits<stencil::C2D5T<T>> {
  using Elem = T;
  static constexpr std::string_view kStem = "C2D5";
  static constexpr Family kFamilies[] = {Family::kJacobi2D5, Family::kGs2D5};
};
template <class T>
struct PayloadTraits<stencil::C2D9T<T>> {
  using Elem = T;
  static constexpr std::string_view kStem = "C2D9";
  static constexpr Family kFamilies[] = {Family::kJacobi2D9};
};
template <class T>
struct PayloadTraits<stencil::C3D7T<T>> {
  using Elem = T;
  static constexpr std::string_view kStem = "C3D7";
  static constexpr Family kFamilies[] = {Family::kJacobi3D7, Family::kGs3D7};
};
template <>
struct PayloadTraits<stencil::LifeRule> {
  using Elem = std::int32_t;
  static constexpr std::string_view kStem = "LifeRule";
  static constexpr Family kFamilies[] = {Family::kLife};
};

void check_payload_family(const StencilProblem& p, std::string_view payload,
                          const Family* fams, std::size_t nfams) {
  for (std::size_t i = 0; i < nfams; ++i) {
    if (p.family == fams[i]) return;
  }
  throw Error(Errc::kBadWorkload,
              "Solver::run: a " + std::string(payload) +
                  " payload cannot serve family " +
                  std::string(family_name(p.family)) + " (problem " +
                  p.signature() + ")",
              p.signature());
}

void check_payload_dtype(const StencilProblem& p, std::string_view payload,
                         dispatch::DType dt) {
  if (p.effective_dtype() == dt) return;
  throw Error(Errc::kUnsupportedDtype,
              "Solver::run: a " + std::string(payload) +
                  " payload does not match the problem's element type "
                  "(problem " +
                  p.signature() + ")",
              p.signature());
}

void check_payload_extents(const StencilProblem& p, int nx, int ny, int nz) {
  const int dim = family_dim(p.family);
  if (nx == p.nx && (dim < 2 || ny == p.ny) && (dim < 3 || nz == p.nz)) {
    return;
  }
  throw Error(Errc::kBadExtents,
              "Solver::run: payload extents disagree with the "
              "StencilProblem descriptor (problem " +
                  p.signature() + ")",
              p.signature());
}

template <class C, class G>
void check_stencil_job(const StencilProblem& p,
                       const detail::StencilJob<C, G>& job) {
  using Traits = PayloadTraits<C>;
  constexpr dispatch::DType kDtype =
      dispatch::dtype_of<typename Traits::Elem>::value;
  static const std::string name = std::string(Traits::kStem) + "/" +
                                  std::string(dispatch::dtype_name(kDtype));
  // An owning constructor given a null shared_ptr, or a moved-from
  // workload: reject before the extent probes dereference it.
  if (job.grid == nullptr) {
    throw Error(Errc::kBadWorkload,
                "Solver::run: a " + name +
                    " payload holds a null grid (problem " + p.signature() +
                    ")",
                p.signature());
  }
  constexpr std::size_t kNFams =
      sizeof(Traits::kFamilies) / sizeof(Traits::kFamilies[0]);
  check_payload_family(p, name, Traits::kFamilies, kNFams);
  check_payload_dtype(p, name, kDtype);
  if constexpr (requires { job.grid->nz(); }) {
    check_payload_extents(p, job.grid->nx(), job.grid->ny(), job.grid->nz());
  } else if constexpr (requires { job.grid->ny(); }) {
    check_payload_extents(p, job.grid->nx(), job.grid->ny(), 0);
  } else {
    check_payload_extents(p, job.grid->nx(), 0, 0);
  }
}

void check_lcs_job(const StencilProblem& p, const detail::LcsJob& job) {
  if (p.family != Family::kLcs) {
    throw Error(Errc::kBadWorkload,
                "Solver::run: an LCS payload cannot serve family " +
                    std::string(family_name(p.family)) + " (problem " +
                    p.signature() + ")",
                p.signature());
  }
  // checked_int, not static_cast: a 2^31-element sequence must raise, not
  // wrap into a bogus extent comparison.
  check_payload_extents(p, util::checked_int(job.a.size()),
                        util::checked_int(job.b.size()), 0);
}

}  // namespace

void validate_workload(const StencilProblem& p, const Workload& w) {
  std::visit(
      [&](const auto& job) {
        using Job = std::decay_t<decltype(job)>;
        if constexpr (std::is_same_v<Job, detail::LcsJob>) {
          check_lcs_job(p, job);
        } else {
          check_stencil_job(p, job);
        }
      },
      w.payload());
}

}  // namespace tvs::solver
