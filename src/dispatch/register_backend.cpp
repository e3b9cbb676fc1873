// Per-backend registration entry point, compiled once per backend library.
//
// This TU turns the archive's passive object files into a reachable graph:
// common code references tvs_register_backend_<id> (registry.cpp), the
// linker pulls this object from the backend archive, and its calls to the
// per-module registrars pull every kernel object of the backend in turn.
// No static-initializer registration, no --whole-archive.
//
// Every backend level compiles the same module set: since the temporal
// engines became lane-count generic, each backend simply instantiates them
// at its native width (BackendVec in backend_variant.hpp) — there is no
// wide-kernel carve-out any more, and the avx512 backend registers every
// kernel id itself instead of falling back to avx2.
#include "dispatch/backend_variant.hpp"

#define TVS_DECLARE_MODULE(mod) \
  extern "C" void TVS_KREG_NAME(mod)(tvs::dispatch::KernelRegistry*)

TVS_DECLARE_MODULE(tv1d);
TVS_DECLARE_MODULE(tv2d);
TVS_DECLARE_MODULE(tv3d);
TVS_DECLARE_MODULE(tv_lcs);
TVS_DECLARE_MODULE(autovec1d);
TVS_DECLARE_MODULE(autovec2d);
TVS_DECLARE_MODULE(autovec3d);
TVS_DECLARE_MODULE(multiload1d);
TVS_DECLARE_MODULE(reorg1d);
TVS_DECLARE_MODULE(dlt1d);
TVS_DECLARE_MODULE(spatial2d);
TVS_DECLARE_MODULE(spatial3d);
TVS_DECLARE_MODULE(diamond1d);
TVS_DECLARE_MODULE(diamond2d);
TVS_DECLARE_MODULE(diamond3d);
TVS_DECLARE_MODULE(parallelogram1d);
TVS_DECLARE_MODULE(parallelogram2d);
TVS_DECLARE_MODULE(lcs_wavefront);

extern "C" __attribute__((visibility("default"))) void TVS_BACKEND_ENTRY_NAME(
    tvs::dispatch::KernelRegistry* r) {
  TVS_KREG_NAME(tv1d)(r);
  TVS_KREG_NAME(tv2d)(r);
  TVS_KREG_NAME(tv3d)(r);
  TVS_KREG_NAME(tv_lcs)(r);
  TVS_KREG_NAME(autovec1d)(r);
  TVS_KREG_NAME(autovec2d)(r);
  TVS_KREG_NAME(autovec3d)(r);
  TVS_KREG_NAME(multiload1d)(r);
  TVS_KREG_NAME(reorg1d)(r);
  TVS_KREG_NAME(dlt1d)(r);
  TVS_KREG_NAME(spatial2d)(r);
  TVS_KREG_NAME(spatial3d)(r);
  TVS_KREG_NAME(diamond1d)(r);
  TVS_KREG_NAME(diamond2d)(r);
  TVS_KREG_NAME(diamond3d)(r);
  TVS_KREG_NAME(parallelogram1d)(r);
  TVS_KREG_NAME(parallelogram2d)(r);
  TVS_KREG_NAME(lcs_wavefront)(r);
}
