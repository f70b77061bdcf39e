/// Vectorized-kernel tests: every SIMD tier must produce byte-identical
/// output to the scalar reference on randomized inputs seeded with
/// ±inf / denormal / signed-zero edge values (NaN-free — the engine never
/// feeds NaN into a sweep); reductions must follow the one canonical
/// blocked order documented in kernels.hpp at every tier; and at the
/// engine level the staged kernel sweeps, the legacy per-node sweeps, the
/// level-contiguous and original graph layouts, and every dispatch tier
/// must all land on the same timing-state bits at 1 and 4 threads. The
/// tier-1 script re-runs Kernel* under ASan+UBSan and under MGBA_SIMD
/// overrides.

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <limits>
#include <optional>
#include <vector>

#include <gtest/gtest.h>

#include "netlist/design.hpp"
#include "sta/kernels.hpp"
#include "sta/state_signature.hpp"
#include "sta/timer.hpp"
#include "test_helpers.hpp"
#include "util/rng.hpp"
#include "util/simd.hpp"
#include "util/thread_pool.hpp"

namespace mgba {
namespace {

using testing_helpers::GeneratedStack;
using testing_helpers::small_options;

struct ThreadGuard {
  std::size_t saved = num_threads();
  ~ThreadGuard() { set_num_threads(saved); }
};

/// Restores the dispatch tier and the staged-sweep switch on scope exit so
/// test order cannot leak MGBA_SIMD-style overrides across suites.
struct DispatchGuard {
  simd::Tier tier = simd::active_tier();
  bool staged = simd::staged_enabled();
  ~DispatchGuard() {
    simd::set_tier(tier);
    simd::set_staged_enabled(staged);
  }
};

std::vector<simd::Tier> host_tiers() {
  std::vector<simd::Tier> tiers{simd::Tier::Scalar};
  if (simd::supported(simd::Tier::SSE2)) tiers.push_back(simd::Tier::SSE2);
  if (simd::supported(simd::Tier::AVX2)) tiers.push_back(simd::Tier::AVX2);
  return tiers;
}

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kDenorm = std::numeric_limits<double>::denorm_min();

/// Randomized doubles with every NaN-free edge class the sweeps can see:
/// ±infinity (unconstrained-path sentinels), denormals, both signed zeros,
/// and magnitudes from 1e-300 to 1e300.
std::vector<double> edge_vec(std::size_t n, std::uint64_t seed) {
  std::vector<double> v(n);
  Rng rng(seed);
  for (std::size_t i = 0; i < n; ++i) {
    switch (rng.uniform_index(12)) {
      case 0:
        v[i] = kInf;
        break;
      case 1:
        v[i] = -kInf;
        break;
      case 2:
        v[i] = 0.0;
        break;
      case 3:
        v[i] = -0.0;
        break;
      case 4:
        v[i] = kDenorm * static_cast<double>(1 + rng.uniform_index(9));
        break;
      case 5:
        v[i] = -kDenorm * static_cast<double>(1 + rng.uniform_index(9));
        break;
      case 6:
        v[i] = rng.uniform(-1e300, 1e300);
        break;
      case 7:
        v[i] = rng.uniform(-1e-300, 1e-300);
        break;
      default:
        v[i] = rng.uniform(-5000.0, 5000.0);
        break;
    }
  }
  return v;
}

std::vector<std::uint32_t> index_vec(std::size_t n, std::size_t bound,
                                     std::uint64_t seed) {
  std::vector<std::uint32_t> idx(n);
  Rng rng(seed);
  for (std::size_t i = 0; i < n; ++i) {
    idx[i] = static_cast<std::uint32_t>(rng.uniform_index(bound));
  }
  return idx;
}

bool bytes_equal(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

/// Lengths that straddle vector widths, unrolled bodies and the kBlock
/// reduction boundary (0, tails of every width, one/many blocks ± 1).
const std::size_t kLengths[] = {0,
                               1,
                               2,
                               3,
                               5,
                               8,
                               13,
                               31,
                               257,
                               kernels::kBlock - 1,
                               kernels::kBlock,
                               kernels::kBlock + 1,
                               3 * kernels::kBlock - 3,
                               3 * kernels::kBlock + 5};

// --- tier byte-equality on raw kernels --------------------------------------

TEST(KernelTierEquality, ElementwiseKernels) {
  DispatchGuard guard;
  for (const std::size_t n : kLengths) {
    const std::vector<double> base = edge_vec(n, 1000 + n);
    const std::vector<double> fd = edge_vec(n, 2000 + n);
    const std::vector<double> fw = edge_vec(n, 3000 + n);
    const std::vector<double> arr = edge_vec(n, 4000 + n);
    const std::vector<double> y0 = edge_vec(n, 5000 + n);
    const std::vector<std::uint32_t> idx =
        index_vec(n, n == 0 ? 1 : n, 6000 + n);

    struct Out {
      std::vector<double> eff, cand, sub, axpy, scale, gather, factor;
      std::vector<std::uint8_t> ne;
    };
    std::optional<Out> reference;
    for (const simd::Tier tier : host_tiers()) {
      simd::set_tier(tier);
      Out out;
      out.eff.resize(n);
      out.cand.resize(n);
      out.sub.resize(n);
      out.gather.resize(n);
      out.factor.resize(n);
      out.ne.resize(n);
      out.axpy = y0;
      out.scale = y0;
      kernels::eff_cand(base.data(), fd.data(), fw.data(), arr.data(),
                        out.eff.data(), out.cand.data(), n);
      kernels::subtract(base.data(), fd.data(), out.sub.data(), n);
      kernels::axpy(1.75, fw.data(), out.axpy.data(), n);
      kernels::scale(-0.375, out.scale.data(), n);
      kernels::gather(arr.data(), idx.data(), out.gather.data(), n);
      kernels::weight_factor(base.data(), 0.05, out.factor.data(), n);
      kernels::flag_ne(base.data(), fd.data(), out.ne.data(), n);
      if (!reference.has_value()) {
        ASSERT_EQ(tier, simd::Tier::Scalar);
        reference = std::move(out);
        continue;
      }
      EXPECT_TRUE(bytes_equal(out.eff, reference->eff))
          << "eff n=" << n << " tier=" << simd::tier_name(tier);
      EXPECT_TRUE(bytes_equal(out.cand, reference->cand))
          << "cand n=" << n << " tier=" << simd::tier_name(tier);
      EXPECT_TRUE(bytes_equal(out.sub, reference->sub))
          << "subtract n=" << n << " tier=" << simd::tier_name(tier);
      EXPECT_TRUE(bytes_equal(out.axpy, reference->axpy))
          << "axpy n=" << n << " tier=" << simd::tier_name(tier);
      EXPECT_TRUE(bytes_equal(out.scale, reference->scale))
          << "scale n=" << n << " tier=" << simd::tier_name(tier);
      EXPECT_TRUE(bytes_equal(out.gather, reference->gather))
          << "gather n=" << n << " tier=" << simd::tier_name(tier);
      EXPECT_TRUE(bytes_equal(out.factor, reference->factor))
          << "weight_factor n=" << n << " tier=" << simd::tier_name(tier);
      EXPECT_EQ(out.ne, reference->ne)
          << "flag_ne n=" << n << " tier=" << simd::tier_name(tier);
    }
  }
}

TEST(KernelTierEquality, ProbeKernel) {
  DispatchGuard guard;
  for (const std::size_t n : kLengths) {
    const std::vector<double> slew = edge_vec(n, 7000 + n);
    std::vector<std::uint64_t> memo_bits(n);
    std::vector<std::uint32_t> memo_key(n), want_key(n);
    Rng rng(7100 + n);
    for (std::size_t i = 0; i < n; ++i) {
      want_key[i] = static_cast<std::uint32_t>(rng.uniform_index(1u << 20));
      memo_key[i] = want_key[i];
      memo_bits[i] = std::bit_cast<std::uint64_t>(slew[i]);
      // ~30% misses, split between a stale key and stale slew bits.
      const std::size_t miss = rng.uniform_index(10);
      if (miss < 2) memo_key[i] ^= 1u;
      if (miss >= 2 && miss < 3) memo_bits[i] ^= 0x10u;
    }
    std::optional<std::vector<std::uint8_t>> ref_hit;
    std::size_t ref_count = 0;
    for (const simd::Tier tier : host_tiers()) {
      simd::set_tier(tier);
      std::vector<std::uint8_t> hit(n);
      const std::size_t count =
          kernels::probe(slew.data(), memo_bits.data(), memo_key.data(),
                         want_key.data(), hit.data(), n);
      if (!ref_hit.has_value()) {
        ref_hit = std::move(hit);
        ref_count = count;
        continue;
      }
      EXPECT_EQ(count, ref_count)
          << "n=" << n << " tier=" << simd::tier_name(tier);
      EXPECT_EQ(hit, *ref_hit) << "n=" << n
                               << " tier=" << simd::tier_name(tier);
    }
  }
}

TEST(KernelTierEquality, Reductions) {
  DispatchGuard guard;
  for (const std::size_t n : kLengths) {
    const std::vector<double> x = edge_vec(n, 8000 + n);
    const std::vector<double> vals = edge_vec(n, 8100 + n);
    const std::vector<std::uint32_t> cols =
        index_vec(n, n == 0 ? 1 : n, 8200 + n);

    simd::set_tier(simd::Tier::Scalar);
    const double ref_min = kernels::reduce_min(x.data(), n);
    const double ref_sum = kernels::reduce_sum_neg(x.data(), n);
    const std::size_t ref_cnt = kernels::count_neg(x.data(), n);
    const double ref_dot =
        kernels::dot_gather(vals.data(), cols.data(), x.data(), n);

    for (const simd::Tier tier : host_tiers()) {
      simd::set_tier(tier);
      EXPECT_EQ(std::bit_cast<std::uint64_t>(kernels::reduce_min(x.data(), n)),
                std::bit_cast<std::uint64_t>(ref_min))
          << "reduce_min n=" << n << " tier=" << simd::tier_name(tier);
      EXPECT_EQ(
          std::bit_cast<std::uint64_t>(kernels::reduce_sum_neg(x.data(), n)),
          std::bit_cast<std::uint64_t>(ref_sum))
          << "reduce_sum_neg n=" << n << " tier=" << simd::tier_name(tier);
      EXPECT_EQ(kernels::count_neg(x.data(), n), ref_cnt)
          << "count_neg n=" << n << " tier=" << simd::tier_name(tier);
      EXPECT_EQ(std::bit_cast<std::uint64_t>(
                    kernels::dot_gather(vals.data(), cols.data(), x.data(), n)),
                std::bit_cast<std::uint64_t>(ref_dot))
          << "dot_gather n=" << n << " tier=" << simd::tier_name(tier);
    }
  }
}

// --- canonical blocked reduction order ---------------------------------------

// minpd semantics: MIN(p, q) = p < q ? p : q — resolves -0.0/+0.0 ties the
// same way at every tier.
double vmin(double p, double q) { return p < q ? p : q; }

/// Independent reimplementation of the canonical order documented in
/// kernels.hpp: kBlock-element blocks, four interleaved accumulators
/// (element j of a block feeds accumulator j % 4), the fixed combine
/// (a0 op a2) op (a1 op a3), and a sequential fold of block results.
double canonical_min(const double* x, std::size_t n) {
  double total = kInf;
  for (std::size_t b = 0; b < n; b += kernels::kBlock) {
    const std::size_t m = std::min(kernels::kBlock, n - b);
    double acc[4] = {kInf, kInf, kInf, kInf};
    for (std::size_t j = 0; j < m; ++j) acc[j & 3] = vmin(acc[j & 3], x[b + j]);
    total = vmin(total, vmin(vmin(acc[0], acc[2]), vmin(acc[1], acc[3])));
  }
  return total;
}

double canonical_sum_neg(const double* x, std::size_t n) {
  double total = 0.0;
  for (std::size_t b = 0; b < n; b += kernels::kBlock) {
    const std::size_t m = std::min(kernels::kBlock, n - b);
    double acc[4] = {0.0, 0.0, 0.0, 0.0};
    for (std::size_t j = 0; j < m; ++j) {
      acc[j & 3] += x[b + j] < 0.0 ? x[b + j] : 0.0;
    }
    total += (acc[0] + acc[2]) + (acc[1] + acc[3]);
  }
  return total;
}

TEST(KernelReduction, MatchesCanonicalBlockOrderAtEveryTier) {
  DispatchGuard guard;
  for (const std::size_t n : kLengths) {
    // Finite values only: sums over random ±inf mixes produce NaN, which
    // never compares equal and is not a state the engine feeds reductions.
    std::vector<double> x(n);
    Rng rng(9000 + n);
    for (std::size_t i = 0; i < n; ++i) x[i] = rng.uniform(-3000.0, 1000.0);
    const double want_min = canonical_min(x.data(), n);
    const double want_sum = canonical_sum_neg(x.data(), n);
    for (const simd::Tier tier : host_tiers()) {
      simd::set_tier(tier);
      EXPECT_EQ(std::bit_cast<std::uint64_t>(kernels::reduce_min(x.data(), n)),
                std::bit_cast<std::uint64_t>(want_min))
          << "n=" << n << " tier=" << simd::tier_name(tier);
      EXPECT_EQ(
          std::bit_cast<std::uint64_t>(kernels::reduce_sum_neg(x.data(), n)),
          std::bit_cast<std::uint64_t>(want_sum))
          << "n=" << n << " tier=" << simd::tier_name(tier);
    }
  }
}

TEST(KernelReduction, MinInvariantUnderIdentityPadding) {
  // Appending +inf identity elements extends or adds blocks but must not
  // move any existing element to a different accumulator — the result is
  // bit-identical at every tier and every padded length.
  DispatchGuard guard;
  const std::size_t n = 2 * kernels::kBlock + 7;
  const std::vector<double> x = edge_vec(n, 9500);
  simd::set_tier(simd::Tier::Scalar);
  const std::uint64_t want =
      std::bit_cast<std::uint64_t>(kernels::reduce_min(x.data(), n));
  for (const std::size_t pad :
       {std::size_t{1}, std::size_t{3}, kernels::kBlock - 7,
        kernels::kBlock + 9}) {
    std::vector<double> padded = x;
    padded.resize(n + pad, kInf);
    for (const simd::Tier tier : host_tiers()) {
      simd::set_tier(tier);
      EXPECT_EQ(std::bit_cast<std::uint64_t>(
                    kernels::reduce_min(padded.data(), padded.size())),
                want)
          << "pad=" << pad << " tier=" << simd::tier_name(tier);
    }
  }
}

// --- engine-level bit-identity ----------------------------------------------

std::optional<std::size_t> sizable_sibling(const Library& library,
                                           const Design& design,
                                           InstanceId inst) {
  const LibCell& cell = design.cell_of(inst);
  if (cell.kind == CellKind::FlipFlop) return std::nullopt;
  for (std::size_t j = 0; j < library.num_cells(); ++j) {
    const LibCell& c = library.cell(j);
    if (c.footprint == cell.footprint && c.name != cell.name) return j;
  }
  return std::nullopt;
}

/// A deterministic sequence of sizable (instance, sibling cell) pairs.
std::vector<std::pair<InstanceId, std::size_t>> resize_plan(
    const Library& library, const Design& design, std::size_t count,
    std::uint64_t seed) {
  std::vector<std::pair<InstanceId, std::size_t>> plan;
  Rng rng(seed);
  while (plan.size() < count) {
    const auto inst =
        static_cast<InstanceId>(rng.uniform_index(design.num_instances()));
    const auto sibling = sizable_sibling(library, design, inst);
    if (!sibling.has_value()) continue;
    if (design.instance(inst).cell == *sibling) continue;
    plan.emplace_back(inst, *sibling);
  }
  return plan;
}

std::vector<double> make_weights(std::size_t num_instances,
                                 std::uint64_t seed) {
  std::vector<double> w(num_instances);
  Rng rng(seed);
  for (double& v : w) v = rng.uniform(-0.15, 0.25);
  return w;
}

/// Full update, a weight refit, then an incremental resize sequence — the
/// three sweep shapes — returning the signature after every step.
std::vector<std::vector<double>> sweep_trace(GeneratedStack& stack,
                                             std::uint64_t seed) {
  std::vector<std::vector<double>> sigs;
  sigs.push_back(state_signature(*stack.timer));
  stack.timer->set_instance_weights(
      make_weights(stack.design().num_instances(), seed));
  stack.timer->update_timing();
  sigs.push_back(state_signature(*stack.timer));
  for (const auto& [inst, cell] :
       resize_plan(stack.library, stack.design(), 6, seed + 17)) {
    stack.design().resize_instance(inst, cell);
    stack.timer->invalidate_instance(inst);
    stack.timer->update_timing();
    sigs.push_back(state_signature(*stack.timer));
  }
  return sigs;
}

TEST(KernelSweep, RenumberedLayoutBitIdenticalToOriginal) {
  ThreadGuard thread_guard;
  DispatchGuard guard;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    set_num_threads(threads);
    GeneratedStack contiguous(small_options(901), 4000.0,
                              GraphLayout::LevelContiguous);
    GeneratedStack original(small_options(901), 4000.0, GraphLayout::Original);
    const auto a = sweep_trace(contiguous, 911);
    const auto b = sweep_trace(original, 911);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
      ASSERT_TRUE(same_bits(a[i], b[i]))
          << "step " << i << " threads=" << threads;
    }
  }
}

TEST(KernelSweep, StagedSweepsMatchLegacySweeps) {
  ThreadGuard thread_guard;
  DispatchGuard guard;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    set_num_threads(threads);
    simd::set_staged_enabled(false);  // MGBA_SIMD=off: legacy per-node path
    GeneratedStack legacy(small_options(903));
    const auto want = sweep_trace(legacy, 933);
    simd::set_staged_enabled(true);
    for (const simd::Tier tier : host_tiers()) {
      simd::set_tier(tier);
      GeneratedStack staged(small_options(903));
      const auto got = sweep_trace(staged, 933);
      ASSERT_EQ(got.size(), want.size());
      for (std::size_t i = 0; i < got.size(); ++i) {
        ASSERT_TRUE(same_bits(got[i], want[i]))
            << "step " << i << " threads=" << threads
            << " tier=" << simd::tier_name(tier);
      }
    }
  }
}

}  // namespace
}  // namespace mgba
