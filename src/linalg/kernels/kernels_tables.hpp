// Internal: per-tier table accessors wired together by dispatch.cpp.
// The SIMD accessors return nullptr when the tier was not compiled in
// (non-x86 target or a toolchain without the -m flags). Every tier
// exports a double (fp64) and a float (fp32-storage) table; the two are
// built from the same kernel bodies and always ship together.
#pragma once

#include "linalg/kernels/kernels.hpp"

namespace parlap::kernels {

const KernelTable& scalar_table() noexcept;
const KernelTableF32& scalar_table_f32() noexcept;
const KernelTable* avx2_table() noexcept;
const KernelTableF32* avx2_table_f32() noexcept;
const KernelTable* avx512_table() noexcept;
const KernelTableF32* avx512_table_f32() noexcept;

}  // namespace parlap::kernels
