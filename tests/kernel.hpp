// Registry lookup for the engine and driver tests.
//
// The tests reach a kernel the way the Solver's router does: by kernel id
// and element type through the registry (dispatch/kernels.hpp names both
// and the signature alias Fn), at the selected backend — so a forced
// backend (TVS_FORCE_BACKEND) runs the same test on its own engines — and
// at that backend's native width for the dtype, or at a registered width
// vl.
#pragma once

#include <string_view>

#include "dispatch/kernels.hpp"
#include "dispatch/registry.hpp"

namespace tvs::test {

template <class Fn>
Fn* resolve(std::string_view id, dispatch::DType dt = dispatch::DType::kF64,
            int vl = dispatch::kAnyVl) {
  return dispatch::KernelRegistry::instance().get_at<Fn>(
      id, dispatch::selected_backend(), vl, dt);
}

}  // namespace tvs::test
