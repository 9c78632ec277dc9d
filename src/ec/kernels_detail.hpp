// Internal plumbing between the per-backend kernel translation units and the
// dispatcher. Not part of the public ec API.
#pragma once

#include "ec/kernels.hpp"

namespace mlec::ec::detail {

/// Per-backend kernel tables. The SIMD tables are nullptr when the build
/// targets a non-x86 architecture (the dispatcher then reports those
/// backends unsupported regardless of cpuid).
const Kernels* scalar_kernel_table();
const Kernels* avx2_kernel_table();
const Kernels* avx512_kernel_table();
const Kernels* gfni_kernel_table();

/// Scalar loops, exposed so the vector kernels can delegate sub-strip tails
/// and so tests can reach the reference directly.
void mul_acc_scalar(const MulTable& table, const byte_t* src, byte_t* dst, std::size_t len);
void mul_assign_scalar(const MulTable& table, const byte_t* src, byte_t* dst, std::size_t len);
void dot_scalar(const MulTable* tables, std::size_t k, std::size_t p, const byte_t* const* src,
                byte_t* const* dst, std::size_t len, bool accumulate);

}  // namespace mlec::ec::detail
