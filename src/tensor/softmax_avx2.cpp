// AVX2+FMA body of the softmax row (see softmax.hpp). Compiled with
// -mavx2 -mfma next to gemm.cpp when DCHAG_KERNELS_AVX2 is on, and with
// -ffp-contract=off so only the written fmadds fuse; softmax.cpp only
// calls in here after the CPUID gate. Every float operation below has a
// scalar counterpart in softmax.cpp's twin, in the same order.
#include "tensor/check.hpp"
#include "tensor/softmax.hpp"

#if defined(DCHAG_GEMM_AVX2)
#include <immintrin.h>
#endif

namespace dchag::tensor::softmax::detail {

#if defined(DCHAG_GEMM_AVX2)

namespace {

constexpr Index kLanes = 8;

/// Lanes [0, rem) of a tail chunk, as an integer mask for maskload.
inline __m256i tail_mask(Index rem) {
  return _mm256_cmpgt_epi32(_mm256_set1_epi32(static_cast<int>(rem)),
                            _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
}

inline __m256 exp8(__m256 x) {
  const __m256 t = _mm256_fmadd_ps(x, _mm256_set1_ps(1.44269504088896341f),
                                   _mm256_set1_ps(12582912.0f));
  const __m256 n = _mm256_sub_ps(t, _mm256_set1_ps(12582912.0f));
  __m256 r = _mm256_fmadd_ps(n, _mm256_set1_ps(-0.693359375f), x);
  r = _mm256_fmadd_ps(n, _mm256_set1_ps(2.12194440e-4f), r);
  __m256 p = _mm256_fmadd_ps(_mm256_set1_ps(1.9875691500e-4f), r,
                             _mm256_set1_ps(1.3981999507e-3f));
  p = _mm256_fmadd_ps(p, r, _mm256_set1_ps(8.3334519073e-3f));
  p = _mm256_fmadd_ps(p, r, _mm256_set1_ps(4.1665795894e-2f));
  p = _mm256_fmadd_ps(p, r, _mm256_set1_ps(1.6666665459e-1f));
  p = _mm256_fmadd_ps(p, r, _mm256_set1_ps(5.0000001201e-1f));
  const __m256 z = _mm256_mul_ps(r, r);
  const __m256 y =
      _mm256_add_ps(_mm256_fmadd_ps(p, z, r), _mm256_set1_ps(1.0f));
  const __m256i bits = _mm256_slli_epi32(
      _mm256_add_epi32(_mm256_castps_si256(t),
                       _mm256_set1_epi32(127 - 0x4B400000)),
      23);
  const __m256 e = _mm256_mul_ps(y, _mm256_castsi256_ps(bits));
  const __m256 under =
      _mm256_cmp_ps(x, _mm256_set1_ps(kExpUnderflow), _CMP_LT_OQ);
  return _mm256_andnot_ps(under, e);
}

/// op(op(op(v0, v4), op(v2, v6)), op(op(v1, v5), op(v3, v7))) in every
/// lane: the twin's reduce8, computed in-register and broadcast.
template <typename Op>
inline __m256 reduce8(__m256 v, Op op) {
  v = op(v, _mm256_permute2f128_ps(v, v, 1));
  v = op(v, _mm256_permute_ps(v, _MM_SHUFFLE(1, 0, 3, 2)));
  v = op(v, _mm256_permute_ps(v, _MM_SHUFFLE(2, 3, 0, 1)));
  return _mm256_broadcastss_ps(_mm256_castps256_ps128(v));
}

}  // namespace

void softmax_row_avx2(const float* row, float* orow, Index D) {
  const Index full = D - D % kLanes;
  const Index rem = D - full;
  const __m256i mask = tail_mask(rem);

  __m256 vm = _mm256_set1_ps(row[0]);
  for (Index j = 0; j < full; j += kLanes)
    vm = _mm256_max_ps(vm, _mm256_loadu_ps(row + j));
  if (rem > 0) {
    const __m256 tail = _mm256_maskload_ps(row + full, mask);
    vm = _mm256_max_ps(vm,
                       _mm256_blendv_ps(vm, tail, _mm256_castsi256_ps(mask)));
  }
  const __m256 vmx =
      reduce8(vm, [](__m256 a, __m256 b) { return _mm256_max_ps(a, b); });

  __m256 vs = _mm256_setzero_ps();
  for (Index j = 0; j < full; j += kLanes) {
    const __m256 e = exp8(_mm256_sub_ps(_mm256_loadu_ps(row + j), vmx));
    _mm256_storeu_ps(orow + j, e);
    vs = _mm256_add_ps(vs, e);
  }
  if (rem > 0) {
    const __m256 e =
        exp8(_mm256_sub_ps(_mm256_maskload_ps(row + full, mask), vmx));
    _mm256_maskstore_ps(orow + full, mask, e);
    vs = _mm256_add_ps(vs, _mm256_and_ps(e, _mm256_castsi256_ps(mask)));
  }
  const __m256 vinv = _mm256_div_ps(
      _mm256_set1_ps(1.0f),
      reduce8(vs, [](__m256 a, __m256 b) { return _mm256_add_ps(a, b); }));
  for (Index j = 0; j < full; j += kLanes)
    _mm256_storeu_ps(orow + j, _mm256_mul_ps(_mm256_loadu_ps(orow + j), vinv));
  if (rem > 0)
    _mm256_maskstore_ps(
        orow + full, mask,
        _mm256_mul_ps(_mm256_maskload_ps(orow + full, mask), vinv));
}

void exp_row_avx2(const float* x, float* y, Index n) {
  const Index full = n - n % kLanes;
  for (Index i = 0; i < full; i += kLanes)
    _mm256_storeu_ps(y + i, exp8(_mm256_loadu_ps(x + i)));
  if (n > full) {
    const __m256i mask = tail_mask(n - full);
    _mm256_maskstore_ps(y + full, mask,
                        exp8(_mm256_maskload_ps(x + full, mask)));
  }
}

#else  // built without AVX2: softmax.cpp never routes here

void softmax_row_avx2(const float*, float*, Index) {
  DCHAG_FAIL("softmax AVX2 body was not compiled in");
}

void exp_row_avx2(const float*, float*, Index) {
  DCHAG_FAIL("softmax AVX2 body was not compiled in");
}

#endif

}  // namespace dchag::tensor::softmax::detail
