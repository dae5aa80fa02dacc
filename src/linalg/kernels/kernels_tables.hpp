// Internal: per-tier table accessors wired together by dispatch.cpp.
// The SIMD accessors return nullptr when the tier was not compiled in
// (non-x86 target or a toolchain without the -m flags). Each accessor
// is instantiated for double (fp64) and float (fp32 storage) in its
// tier's translation unit; the two tables share one set of kernel
// bodies and always ship together.
#pragma once

#include "linalg/kernels/kernels.hpp"

namespace parlap::kernels {

template <typename T = double>
const KernelTableT<T>& scalar_table() noexcept;
template <typename T = double>
const KernelTableT<T>* avx2_table() noexcept;
template <typename T = double>
const KernelTableT<T>* avx512_table() noexcept;

}  // namespace parlap::kernels
