# SIMD backend resolution for the multi-backend runtime-dispatch build.
#
# Since the dispatch refactor the vector ISA is a *runtime* choice: the
# scalar, AVX2 and AVX-512 variants of every kernel are compiled side by
# side into one binary (per-backend TUs with per-file flags, see
# src/CMakeLists.txt) and selected via CPUID at first call.  Configure time
# therefore only answers "which backends can this *compiler* produce?" —
# the host CPU no longer gates the build, only which tests can execute.
#
#   TVS_SIMD = AUTO    compile every backend the compiler supports (default)
#              scalar  scalar backend only (fully portable library)
#              avx2    scalar + avx2            (-mavx2 -mfma)
#              avx512  scalar + avx2 + avx512   (+ -mavx512f)
#
# Outputs:
#   TVS_BACKEND_AVX2        TRUE when the avx2 backend objects are built
#   TVS_BACKEND_AVX2_FLAGS  its per-file compile flags
#   TVS_BACKEND_AVX512 / TVS_BACKEND_AVX512_FLAGS   likewise
#   TVS_SIMD_LEVEL          highest compiled backend (scalar|avx2|avx512)
#   TVS_CPU_HAS_AVX2 / TVS_CPU_HAS_AVX512
#                           host-CPU probe results — used only to decide
#                           which forced-backend CTest variants to register,
#                           never to drop a backend from the build
#   TVS_FP_FLAGS            FP-determinism flags (see below)
#   TVS_KERNEL_INLINE_FLAGS the kernel TUs' inlining budget (see below)

include(CheckCXXCompilerFlag)

set(TVS_SIMD "AUTO" CACHE STRING
    "Highest SIMD backend to compile: AUTO, scalar, avx2, avx512")
set_property(CACHE TVS_SIMD PROPERTY STRINGS AUTO scalar avx2 avx512)
string(TOLOWER "${TVS_SIMD}" _tvs_simd_req)

# ---- compiler support ------------------------------------------------------
check_cxx_compiler_flag("-mavx2" TVS_COMPILER_HAS_MAVX2)
check_cxx_compiler_flag("-mfma" TVS_COMPILER_HAS_MFMA)
check_cxx_compiler_flag("-mavx512f" TVS_COMPILER_HAS_MAVX512F)

set(_tvs_compiler_avx2 FALSE)
if(TVS_COMPILER_HAS_MAVX2 AND TVS_COMPILER_HAS_MFMA)
  set(_tvs_compiler_avx2 TRUE)
endif()
set(_tvs_compiler_avx512 FALSE)
if(_tvs_compiler_avx2 AND TVS_COMPILER_HAS_MAVX512F)
  set(_tvs_compiler_avx512 TRUE)
endif()

# ---- resolve the requested ceiling against compiler support ----------------
if(_tvs_simd_req STREQUAL "auto")
  set(_tvs_want_avx2 ${_tvs_compiler_avx2})
  set(_tvs_want_avx512 ${_tvs_compiler_avx512})
elseif(_tvs_simd_req STREQUAL "scalar")
  set(_tvs_want_avx2 FALSE)
  set(_tvs_want_avx512 FALSE)
elseif(_tvs_simd_req STREQUAL "avx2")
  if(NOT _tvs_compiler_avx2)
    message(FATAL_ERROR "TVS_SIMD=avx2 but the compiler rejects -mavx2/-mfma")
  endif()
  set(_tvs_want_avx2 TRUE)
  set(_tvs_want_avx512 FALSE)
elseif(_tvs_simd_req STREQUAL "avx512")
  if(NOT _tvs_compiler_avx512)
    message(FATAL_ERROR "TVS_SIMD=avx512 but the compiler rejects the "
                        "required -mavx2/-mfma/-mavx512f flags")
  endif()
  set(_tvs_want_avx2 TRUE)
  set(_tvs_want_avx512 TRUE)
else()
  message(FATAL_ERROR "Unknown TVS_SIMD value '${TVS_SIMD}' "
                      "(expected AUTO, scalar, avx2, or avx512)")
endif()

set(TVS_BACKEND_AVX2 ${_tvs_want_avx2})
set(TVS_BACKEND_AVX2_FLAGS -mavx2 -mfma)
set(TVS_BACKEND_AVX512 ${_tvs_want_avx512})
set(TVS_BACKEND_AVX512_FLAGS -mavx2 -mfma -mavx512f)

if(TVS_BACKEND_AVX512)
  set(TVS_SIMD_LEVEL "avx512")
elseif(TVS_BACKEND_AVX2)
  set(TVS_SIMD_LEVEL "avx2")
else()
  set(TVS_SIMD_LEVEL "scalar")
endif()

# ---- host CPU probes (test registration only) ------------------------------
# try_run compiles a probe with the candidate flags and executes one
# instruction from the set; SIGILL on an older CPU fails the probe and the
# forced-backend CTest variants for that backend are simply not registered.
# Cross builds cannot execute target code and register none of them.
function(_tvs_try_run_probe out_var probe_src flags)
  if(CMAKE_CROSSCOMPILING)
    set(${out_var} FALSE PARENT_SCOPE)
    return()
  endif()
  try_run(_run_result _compile_result
          ${CMAKE_BINARY_DIR}/tvs_simd_probe
          ${probe_src}
          COMPILE_DEFINITIONS ${flags})
  if(_compile_result AND _run_result EQUAL 0)
    set(${out_var} TRUE PARENT_SCOPE)
  else()
    set(${out_var} FALSE PARENT_SCOPE)
  endif()
endfunction()

set(TVS_CPU_HAS_AVX2 FALSE)
set(TVS_CPU_HAS_AVX512 FALSE)
if(TVS_BACKEND_AVX2)
  _tvs_try_run_probe(TVS_CPU_HAS_AVX2
                     ${CMAKE_CURRENT_LIST_DIR}/check_avx2.cpp
                     "-mavx2;-mfma")
endif()
if(TVS_BACKEND_AVX512)
  _tvs_try_run_probe(TVS_CPU_HAS_AVX512
                     ${CMAKE_CURRENT_LIST_DIR}/check_avx512.cpp
                     "-mavx512f")
endif()

# ---- backend isolation (localization) --------------------------------------
# Per-backend TUs are merged with `ld -r --force-group-allocation` and have
# their hidden symbols localized with objcopy, so the linker can never
# satisfy a common-code reference with backend-flagged code.  STB_GNU_UNIQUE
# symbols resist both steps; -fno-gnu-unique demotes them to ordinary weak.
check_cxx_compiler_flag("-fno-gnu-unique" TVS_COMPILER_HAS_NO_GNU_UNIQUE)
set(TVS_BACKEND_VIS_FLAGS -fvisibility=hidden -fvisibility-inlines-hidden)
if(TVS_COMPILER_HAS_NO_GNU_UNIQUE)
  list(APPEND TVS_BACKEND_VIS_FLAGS -fno-gnu-unique)
endif()

set(TVS_LOCALIZE_BACKENDS FALSE)
if(CMAKE_OBJCOPY AND CMAKE_LINKER AND NOT TVS_SANITIZE
   AND CMAKE_SYSTEM_NAME STREQUAL "Linux")
  # --force-group-allocation dissolves COMDAT groups during the ld -r step;
  # without it the final link could discard a (by then local) group in
  # favour of a same-named group from another object and strand references.
  execute_process(COMMAND ${CMAKE_LINKER} --help
                  OUTPUT_VARIABLE _tvs_ld_help ERROR_QUIET)
  if(_tvs_ld_help MATCHES "force-group-allocation")
    set(TVS_LOCALIZE_BACKENDS TRUE)
  endif()
endif()

if(NOT TVS_LOCALIZE_BACKENDS)
  # Without the localization pass, a weak template instantiation compiled in
  # a backend-flagged TU could win final-link deduplication and be reached
  # from common code.  That is only safe when this host can execute every
  # compiled backend, so fall back to host-gating the backend set (the
  # pre-dispatch behaviour).  Applies to sanitizer builds, non-Linux hosts,
  # and toolchains without binutils' --force-group-allocation.
  if(TVS_BACKEND_AVX512 AND NOT TVS_CPU_HAS_AVX512)
    message(STATUS "TVS: no symbol localization available - dropping the "
                   "avx512 backend (host CPU cannot execute it)")
    set(TVS_BACKEND_AVX512 FALSE)
  endif()
  if(TVS_BACKEND_AVX2 AND NOT TVS_CPU_HAS_AVX2)
    message(STATUS "TVS: no symbol localization available - dropping the "
                   "avx2 backend (host CPU cannot execute it)")
    set(TVS_BACKEND_AVX2 FALSE)
  endif()
  if(TVS_BACKEND_AVX512)
    set(TVS_SIMD_LEVEL "avx512")
  elseif(TVS_BACKEND_AVX2)
    set(TVS_SIMD_LEVEL "avx2")
  else()
    set(TVS_SIMD_LEVEL "scalar")
  endif()
endif()

# ---- FP determinism --------------------------------------------------------
# The bit-for-bit vector-vs-scalar-oracle contract requires that the ONLY
# fused multiply-adds are the explicit fma() calls in the kernels and
# references.  GCC/Clang default to -ffp-contract=fast, which would let the
# compiler fuse arbitrary a*b+c expressions differently per backend, so
# contraction is pinned off; explicit std::fma / _mm*_fmadd are unaffected.
check_cxx_compiler_flag("-ffp-contract=off" TVS_COMPILER_HAS_FP_CONTRACT)
if(TVS_COMPILER_HAS_FP_CONTRACT)
  set(TVS_FP_FLAGS -ffp-contract=off)
else()
  set(TVS_FP_FLAGS "")
endif()

# ---- kernel inlining budget -------------------------------------------------
# GCC caps the inlining growth of a translation unit larger than
# large-unit-insns at inline-unit-growth percent (default 40).  One kernel
# TU instantiates every engine of its dimension (tv/tv2d.cpp: 11 per SIMD
# backend, 22 on the scalar one), so the default cap binds and leaves hot
# helpers of some instantiations out of line; in tv/tv2d.cpp that was the
# per-point operand lambda of the plane residual, and jacobi2d9 f32 and
# Life ran 25-30x slower.  Raised far enough that only the per-function
# limits decide, as they do in a TU holding one engine (200 already clears
# the engine TUs; at 1000 no kernel TU reaches it).  GCC only: LLVM's
# inliner has no TU-wide growth cap, and clang reports an unknown --param
# as an unused argument, which TVS_STRICT_WARNINGS turns into an error.
# The `inline_budget` lint test (tools/inline_budget/) fails when a kernel
# engine TU reaches the cap again.
set(TVS_KERNEL_INLINE_FLAGS "")
if(CMAKE_CXX_COMPILER_ID STREQUAL "GNU")
  set(TVS_KERNEL_INLINE_FLAGS --param=inline-unit-growth=1000)
endif()

message(STATUS "TVS SIMD: compiled backends = scalar"
               " avx2=${TVS_BACKEND_AVX2} avx512=${TVS_BACKEND_AVX512}"
               " (requested: ${TVS_SIMD}); host cpu:"
               " avx2=${TVS_CPU_HAS_AVX2} avx512=${TVS_CPU_HAS_AVX512}")
