// The one softmax row routine behind ops::softmax_lastdim, the autograd
// softmax forward and ops::attention_heads.
//
// Two bodies issue the same float operations in the same order:
//   * an AVX2+FMA body (softmax_avx2.cpp, compiled with -mavx2 -mfma)
//     that works on 8 lanes at a time with a polynomial exp, and
//   * a portable scalar twin (softmax.cpp) that emulates those 8 lanes
//     one at a time, using std::fma wherever the vector body fuses.
// softmax_row() picks the AVX2 body when it was compiled in and the CPU
// has AVX2+FMA (kernel_config.cpp's CPUID gate), the twin otherwise. The
// choice depends on the CPU only, never on the kernel backend, so the
// naive, blocked and parallel backends stay bit-identical to each other,
// and the two bodies are bit-identical to each other on every input.
//
// The exp is Cephes' expf: x = n ln2 + r with |r| <= ln2/2, a degree-5
// polynomial in r, then a scale by 2^n built in the exponent bits. Its
// relative error against std::exp is below 1e-6 on [-87, 0]. Arguments
// below kExpUnderflow (where 2^n would leave the normal range) return
// exactly 0, as std::exp underflows for large negative arguments; NaN
// propagates, so a row holding NaN or +inf comes out all-NaN exactly as
// the std::exp row did.
#pragma once

#include "tensor/shape.hpp"

namespace dchag::tensor::softmax {

/// exp() returns 0 below this argument (ln 2^-126, rounded up).
inline constexpr float kExpUnderflow = -87.33654f;

/// orow[j] = exp(row[j] - max(row)) / sum; orow may alias row. D >= 1.
void softmax_row(const float* row, float* orow, Index D);

/// True when softmax_row runs the AVX2 body on this process.
[[nodiscard]] bool avx2_active();

namespace detail {
/// The portable twin; callable on every CPU.
void softmax_row_scalar(const float* row, float* orow, Index D);
/// y[i] = exp(x[i]) with the twin's exp.
void exp_row_scalar(const float* x, float* y, Index n);
/// The AVX2 bodies; only callable when avx2_active().
void softmax_row_avx2(const float* row, float* orow, Index D);
void exp_row_avx2(const float* x, float* y, Index n);
}  // namespace detail

}  // namespace dchag::tensor::softmax
