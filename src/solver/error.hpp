// The solver's error taxonomy: every rejection the facade can issue —
// unknown family, extents that disagree with the descriptor, a malformed
// TVS_PLAN spec, an unsupported element type, an illegal stride — throws
// one class, tvs::solver::Error, carrying a machine-checkable code and the
// signature of the problem it was raised for.
//
// Error derives std::invalid_argument so every pre-taxonomy call site
// (EXPECT_THROW(..., std::invalid_argument), catch blocks, the tuner's
// candidate filter) keeps working unchanged; new code can catch Error and
// switch on code() instead of string-matching what().  The two
// environment-shaped failures (backend not compiled in / not executable on
// this CPU) share the taxonomy under kBackendUnavailable, so they moved
// from std::runtime_error to the same base — nothing in the tree caught
// them as runtime_error specifically.
#pragma once

#include <stdexcept>
#include <string>
#include <string_view>

namespace tvs::solver {

enum class Errc : int {
  kBadFamily = 0,        // unknown family name/id
  kBadExtents,           // grid/span extents disagree with the descriptor,
                         // or a builder was given the wrong arity
  kBadSteps,             // negative step/sweep count
  kBadThreads,           // negative thread request
  kBadPlanSpec,          // malformed TVS_PLAN clause
  kUnsupportedDtype,     // family cannot run at the requested element type,
                         // or a payload of the other precision
  kBadStride,            // §3.2 stride legality / ring capacity violation
  kBadVl,                // no engine registered at the pinned vector length
  kBadPath,              // plan path the family cannot serve
  kBadVariant,           // variant=re outside the Jacobi serial engines
  kBackendUnavailable,   // backend not compiled in or not executable here
  kBadWorkload,          // a Workload payload the problem cannot run
};

// "bad-family", "bad-plan-spec", ... (stable, for logs and tests).
std::string_view errc_name(Errc code);

class Error : public std::invalid_argument {
 public:
  Error(Errc code, const std::string& what, std::string signature = "")
      : std::invalid_argument(what),
        code_(code),
        signature_(std::move(signature)) {}

  Errc code() const noexcept { return code_; }
  // signature() of the StencilProblem the error was raised for; empty when
  // the failure precedes a problem (e.g. parsing a family name).
  const std::string& problem_signature() const noexcept { return signature_; }

 private:
  Errc code_;
  std::string signature_;
};

}  // namespace tvs::solver
