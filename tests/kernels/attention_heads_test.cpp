// ops::attention_heads against the composition it replaces — split heads,
// matmul with the transposed keys, scale, softmax, matmul with the values,
// merge heads — built here from plain ops. The kernel must be
// bit-identical to it on the naive, blocked and parallel (1, 2, 4 lanes)
// backends, for the shapes the model feeds it:
//   * channel-token mode, Nq = Nk, at widths off the MR = 6 / NR = 16 grid;
//   * learned-query mode, Nq = 1;
//   * the final aggregator, Nk = P partial tokens for P = 1, 2, 4 ranks;
//   * 1 and 4 heads.
// The FLOP ledger must count the composition's two matmuls exactly.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "tensor/kernel_config.hpp"
#include "tensor/ops.hpp"
#include "tensor/plan.hpp"
#include "tensor/rng.hpp"

namespace dchag::tensor {
namespace {

namespace ops = tensor::ops;

// Pin the pool to 4 lanes before its first use (see kernel_parity_test).
const bool kForceLanes = [] {
  setenv("DCHAG_THREADS", "4", /*overwrite=*/1);
  return true;
}();

struct Backend {
  KernelBackend backend;
  int threads;
  std::string name;
};

const std::vector<Backend>& backends() {
  static const std::vector<Backend> all = {
      {KernelBackend::kNaive, 0, "naive"},
      {KernelBackend::kBlocked, 0, "blocked"},
      {KernelBackend::kParallel, 1, "parallel/1"},
      {KernelBackend::kParallel, 2, "parallel/2"},
      {KernelBackend::kParallel, 4, "parallel/4"}};
  return all;
}

/// [*, N, D] -> [*, h, N, dh].
Tensor split(const Tensor& x, Index heads) {
  auto dims = x.shape().dims();
  const Index rank = x.rank();
  dims.back() /= heads;
  dims.insert(dims.end() - 1, heads);
  std::vector<Index> perm(static_cast<std::size_t>(rank + 1));
  for (Index i = 0; i <= rank; ++i) perm[static_cast<std::size_t>(i)] = i;
  std::swap(perm[static_cast<std::size_t>(rank - 1)],
            perm[static_cast<std::size_t>(rank - 2)]);
  return ops::permute(x.reshape(Shape(std::move(dims))), perm);
}

/// [*, h, N, dh] -> [*, N, h * dh].
Tensor merge(const Tensor& x) {
  const Index rank = x.rank();
  std::vector<Index> perm(static_cast<std::size_t>(rank));
  for (Index i = 0; i < rank; ++i) perm[static_cast<std::size_t>(i)] = i;
  std::swap(perm[static_cast<std::size_t>(rank - 2)],
            perm[static_cast<std::size_t>(rank - 3)]);
  Tensor y = ops::permute(x, perm);
  auto dims = y.shape().dims();
  const Index dh = dims.back();
  dims.pop_back();
  dims.back() *= dh;
  return y.reshape(Shape(std::move(dims)));
}

Tensor composition(const Tensor& q, const Tensor& k, const Tensor& v,
                   Index heads, float s) {
  Tensor scores = ops::scale(
      ops::matmul(split(q, heads), ops::transpose_last2(split(k, heads))), s);
  return merge(ops::matmul(ops::softmax_lastdim(scores), split(v, heads)));
}

bool bit_identical(const Tensor& a, const Tensor& b) {
  if (a.shape() != b.shape()) return false;
  return std::memcmp(a.data(), b.data(),
                     static_cast<std::size_t>(a.numel()) * sizeof(float)) == 0;
}

/// q [lead..., Nq, D], k/v [lead..., Nk, D]; `spread` scales q so large
/// logits drive some probabilities to exactly 0 (naive's zero skip).
void expect_parity(std::vector<Index> lead, Index Nq, Index Nk, Index D,
                   Index heads, std::uint64_t seed, float spread = 1.0f) {
  auto shape = [&](Index n) {
    std::vector<Index> dims = lead;
    dims.push_back(n);
    dims.push_back(D);
    return Shape(std::move(dims));
  };
  Rng rng(seed);
  const float s = 1.0f / std::sqrt(static_cast<float>(D / heads));
  Tensor q = rng.normal_tensor(shape(Nq), 0.0f, spread);
  Tensor k = rng.normal_tensor(shape(Nk));
  Tensor v = rng.normal_tensor(shape(Nk));
  for (const Backend& b : backends()) {
    runtime::Scope scope(
        runtime::ContextPatch::with_kernels({b.backend, b.threads}));
    const std::uint64_t f0 = ops::flops_executed();
    Tensor oracle = composition(q, k, v, heads, s);
    const std::uint64_t f1 = ops::flops_executed();
    Tensor got = ops::attention_heads(q, k, v, heads, s);
    const std::uint64_t f2 = ops::flops_executed();
    EXPECT_TRUE(bit_identical(got, oracle))
        << b.name << ": q " << q.shape().to_string() << " k "
        << k.shape().to_string() << " heads " << heads
        << " max diff " << ops::max_abs_diff(got, oracle);
    EXPECT_EQ(f2 - f1, f1 - f0) << b.name << ": FLOP ledger drifted";
  }
}

TEST(AttentionHeads, ChannelTokensOffTheTileGrid) {
  // Nq = Nk = C channel tokens; none of 7, 13, 23, 37 is a multiple of
  // MR = 6 or NR = 16, and dh runs from 4 to 48.
  for (Index heads : {1, 4}) {
    expect_parity({2, 3}, 7, 7, 20, heads, 1);
    expect_parity({2, 3}, 13, 13, 32, heads, 2);
    expect_parity({1, 5}, 23, 23, 48, heads, 3);
    expect_parity({3}, 37, 37, 16, heads, 4);
  }
}

TEST(AttentionHeads, LearnedQuerySingleRow) {
  for (Index heads : {1, 4}) {
    for (Index C : {1, 5, 17, 32})
      expect_parity({2, 4}, 1, C, 32, heads, 10 + C);
  }
}

TEST(AttentionHeads, FinalAggregatorOverRankPartials) {
  // Nk = P partial tokens, one per rank; both query modes.
  for (Index P : {1, 2, 4}) {
    for (Index heads : {1, 4}) {
      expect_parity({2, 16}, P, P, 32, heads, 20 + P);
      expect_parity({2, 16}, 1, P, 32, heads, 30 + P);
    }
  }
}

TEST(AttentionHeads, ParallelFanOutSplitsRowsAndHeads) {
  // 12,288 (row, head) units at ~768 flops each: several grains, so the
  // 2- and 4-lane runs really split inside and across heads.
  expect_parity({2, 64}, 24, 24, 32, 4, 40);
}

TEST(AttentionHeads, UnderflowingProbabilitiesAndBlockEdges) {
  // Large logits: probabilities underflow to exactly 0.
  expect_parity({2, 2}, 9, 19, 16, 4, 50, /*spread=*/40.0f);
  // Nq above the kernel's 120-row block, Nk past NC = 512, dh past KC = 256.
  expect_parity({1}, 130, 11, 8, 1, 51);
  expect_parity({1}, 3, 520, 8, 1, 52);
  expect_parity({}, 5, 9, 600, 2, 53);
}

TEST(AttentionHeads, RejectsMismatchedOperands) {
  Tensor q(Shape{2, 3, 8});
  Tensor k(Shape{2, 5, 8});
  EXPECT_THROW((void)ops::attention_heads(q, k, k, 3, 1.0f), Error);
  EXPECT_THROW((void)ops::attention_heads(q, Tensor(Shape{3, 5, 8}),
                                          Tensor(Shape{3, 5, 8}), 2, 1.0f),
               Error);
  EXPECT_THROW((void)ops::attention_heads(q, k, Tensor(Shape{2, 4, 8}), 2,
                                          1.0f),
               Error);
}

TEST(AttentionHeads, SteadyStateAllocatesOnlyItsOutput) {
  // The score scratch is per lane and reused: under an arena, repeat
  // calls draw their one output buffer from the pool and nothing else.
  Rng rng(60);
  Tensor q = rng.normal_tensor(Shape{4, 32, 32});
  Tensor k = rng.normal_tensor(Shape{4, 32, 32});
  for (const Backend& b : backends()) {
    runtime::Scope scope(
        runtime::ContextPatch::with_kernels({b.backend, b.threads}));
    plan::Arena arena;
    plan::ArenaScope arena_scope(arena);
    Tensor out = ops::attention_heads(q, k, k, 4, 0.5f);  // warm-up
    out = Tensor();
    const std::uint64_t before = plan::thread_buffer_allocations();
    out = ops::attention_heads(q, k, k, 4, 0.5f);
    EXPECT_EQ(plan::thread_buffer_allocations() - before, 0u) << b.name;
  }
}

}  // namespace
}  // namespace dchag::tensor
