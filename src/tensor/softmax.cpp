// Portable twin of the AVX2 softmax row and the CPU dispatch. Built with
// -ffp-contract=off (src/tensor/CMakeLists.txt): a multiply and add fused
// behind the twin's back would round differently from the vector body.
#include "tensor/softmax.hpp"

#include <cmath>
#include <cstdint>
#include <cstring>

#include "tensor/gemm.hpp"
#include "tensor/kernel_config.hpp"

namespace dchag::tensor::softmax {

namespace {

constexpr int kLanes = 8;

// Cephes expf constants; softmax_avx2.cpp holds the same values.
constexpr float kLog2e = 1.44269504088896341f;
constexpr float kRound = 12582912.0f;  // 1.5 * 2^23: round-to-int by add
constexpr float kNegLn2Hi = -0.693359375f;
constexpr float kNegLn2Lo = 2.12194440e-4f;
constexpr float kP0 = 1.9875691500e-4f;
constexpr float kP1 = 1.3981999507e-3f;
constexpr float kP2 = 8.3334519073e-3f;
constexpr float kP3 = 4.1665795894e-2f;
constexpr float kP4 = 1.6666665459e-1f;
constexpr float kP5 = 5.0000001201e-1f;
constexpr std::uint32_t kExpBias = 127u - 0x4B400000u;  // wraps, as epi32

/// _mm256_max_ps lane semantics: the second operand unless a > b.
inline float max_lane(float a, float b) { return a > b ? a : b; }

/// The AVX2 body's in-register reduction tree: lanes l and l + 4, then
/// l and l + 2, then l and l + 1, each with the lower lane first.
template <typename Op>
inline float reduce8(const float (&v)[kLanes], Op op) {
  return op(op(op(v[0], v[4]), op(v[2], v[6])),
            op(op(v[1], v[5]), op(v[3], v[7])));
}

inline float exp_lane(float x) {
  const float t = std::fma(x, kLog2e, kRound);
  const float n = t - kRound;
  float r = std::fma(n, kNegLn2Hi, x);
  r = std::fma(n, kNegLn2Lo, r);
  float p = std::fma(kP0, r, kP1);
  p = std::fma(p, r, kP2);
  p = std::fma(p, r, kP3);
  p = std::fma(p, r, kP4);
  p = std::fma(p, r, kP5);
  const float z = r * r;
  const float y = std::fma(p, z, r) + 1.0f;
  std::uint32_t bits;
  std::memcpy(&bits, &t, sizeof bits);
  bits = (bits + kExpBias) << 23;
  float pow2n;
  std::memcpy(&pow2n, &bits, sizeof pow2n);
  const float e = y * pow2n;
  return x < kExpUnderflow ? 0.0f : e;
}

}  // namespace

void softmax_row(const float* row, float* orow, Index D) {
  if (avx2_active()) {
    detail::softmax_row_avx2(row, orow, D);
  } else {
    detail::softmax_row_scalar(row, orow, D);
  }
}

bool avx2_active() {
  static const bool ok =
      gemm::compiled_with_avx2() && cpu_supports_avx2_fma();
  return ok;
}

namespace detail {

void softmax_row_scalar(const float* row, float* orow, Index D) {
  // Lane l sees elements l, l + 8, ...; the AVX2 body's vector registers.
  float m[kLanes];
  for (float& v : m) v = row[0];
  for (Index j = 0; j < D; ++j) m[j % kLanes] = max_lane(m[j % kLanes], row[j]);
  const float mx = reduce8(m, max_lane);

  float s[kLanes] = {};
  for (Index j = 0; j < D; ++j) {
    orow[j] = exp_lane(row[j] - mx);
    s[j % kLanes] = s[j % kLanes] + orow[j];
  }
  const float inv = 1.0f / reduce8(s, [](float a, float b) { return a + b; });
  for (Index j = 0; j < D; ++j) orow[j] = orow[j] * inv;
}

void exp_row_scalar(const float* x, float* y, Index n) {
  for (Index i = 0; i < n; ++i) y[i] = exp_lane(x[i]);
}

}  // namespace detail

}  // namespace dchag::tensor::softmax
