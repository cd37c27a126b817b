// Parity of the SIMD-dispatched kernels against the scalar reference tier
// (DESIGN.md §5.5).
//
// Tolerance policy: 0 ULP. On the default build (-O3, no -march/-ffast-math)
// every vector kernel in nn/simd.hpp is bit-identical to the scalar reference
// by construction — multiplies and adds are emitted separately under
// fp-contract=off, each SIMD lane owns one output element with the scalar
// accumulation order, and remainder columns run the exact scalar expressions.
// These tests therefore assert exact equality (EXPECT_EQ on doubles). If a
// build ever forces FP contraction on the *scalar reference* TU
// (-march=native with -ffast-math style flags), the guarantee documented in
// nn/simd.hpp degrades to ~1 ULP per fused pair and this suite is the loud
// early warning.
//
// Shapes deliberately include 1s, primes, and non-multiples of the 4/8-wide
// panels so every masked tail and remainder path executes.
#include "nn/simd.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "nn/ops.hpp"
#include "nn/tensor.hpp"

namespace sc::nn {
namespace {

struct Shape {
  std::size_t n, k, m;
};

const Shape kShapes[] = {
    {1, 1, 1}, {2, 3, 1},  {5, 7, 3},    {17, 5, 21},
    {33, 6, 2}, {8, 9, 13}, {64, 48, 24}, {130, 70, 34},
};

std::vector<double> randn(std::size_t n, Rng& rng) {
  std::vector<double> v(n);
  for (double& x : v) x = rng.normal();
  return v;
}

void expect_bitwise(const std::vector<double>& want, const std::vector<double>& got,
                    const char* what) {
  ASSERT_EQ(want.size(), got.size()) << what;
  for (std::size_t i = 0; i < want.size(); ++i) {
    ASSERT_EQ(want[i], got[i]) << what << " diverges at element " << i;
  }
}

/// Every tier available on this machine, scalar first. Tiers the hardware
/// lacks are clamped away by simd::set_tier, so the sweep is exactly the set
/// the dispatcher could ever pick here.
std::vector<simd::Tier> available_tiers() {
  std::vector<simd::Tier> tiers{simd::Tier::Scalar};
  for (const int t : {1, 2, 3}) {
    if (t <= static_cast<int>(simd::detect())) tiers.push_back(static_cast<simd::Tier>(t));
  }
  return tiers;
}

/// Restores the dispatch state (toggle + tier) on scope exit.
struct DispatchGuard {
  bool prev_simd = kernels::simd_enabled();
  bool prev_blocked = kernels::blocked_enabled();
  simd::Tier prev_tier = simd::active();
  ~DispatchGuard() {
    kernels::set_simd(prev_simd);
    kernels::set_blocked(prev_blocked);
    simd::set_tier(prev_tier);
  }
};

TEST(SimdKernels, GemmParityAcrossTiersAndBlocking) {
  DispatchGuard guard;
  Rng rng(2024);
  for (const Shape s : kShapes) {
    const std::vector<double> a = randn(s.n * s.k, rng);
    const std::vector<double> b = randn(s.k * s.m, rng);
    const std::vector<double> ant = randn(s.n * s.m, rng);  // gemm_nt A (n,m)
    const std::vector<double> seed_c = randn(s.n * s.m, rng);

    for (const bool blocked : {false, true}) {
      kernels::set_blocked(blocked);

      // Reference: the scalar tier (simd off) at the SAME blocking setting.
      // The SIMD contract is bit-identity against the scalar loops it
      // replaces; blocked-vs-naive accumulation-order differences are a
      // separate, tolerance-based contract covered by test_gemm_blocked.
      kernels::set_simd(false);
      std::vector<double> ref_nn(s.n * s.m);
      kernels::gemm_nn(a.data(), b.data(), ref_nn.data(), s.n, s.k, s.m, false);
      std::vector<double> ref_nn_acc = seed_c;
      kernels::gemm_nn(a.data(), b.data(), ref_nn_acc.data(), s.n, s.k, s.m, true);
      std::vector<double> ref_nt(s.n * s.k, 0.0);
      kernels::gemm_nt(ant.data(), b.data(), ref_nt.data(), s.n, s.m, s.k);
      std::vector<double> ref_tn(s.k * s.m, 0.0);
      kernels::gemm_tn(a.data(), ant.data(), ref_tn.data(), s.n, s.k, s.m);

      for (const simd::Tier tier : available_tiers()) {
        kernels::set_simd(true);
        simd::set_tier(tier);
        const std::string ctx = std::string("shape {") + std::to_string(s.n) + "," +
                                std::to_string(s.k) + "," + std::to_string(s.m) +
                                "} tier " + simd::tier_name(tier) +
                                (blocked ? " blocked" : " unblocked");

        std::vector<double> c(s.n * s.m);
        kernels::gemm_nn(a.data(), b.data(), c.data(), s.n, s.k, s.m, false);
        expect_bitwise(ref_nn, c, (ctx + " gemm_nn").c_str());

        std::vector<double> c_acc = seed_c;
        kernels::gemm_nn(a.data(), b.data(), c_acc.data(), s.n, s.k, s.m, true);
        expect_bitwise(ref_nn_acc, c_acc, (ctx + " gemm_nn+acc").c_str());

        std::vector<double> cnt(s.n * s.k, 0.0);
        kernels::gemm_nt(ant.data(), b.data(), cnt.data(), s.n, s.m, s.k);
        expect_bitwise(ref_nt, cnt, (ctx + " gemm_nt").c_str());

        std::vector<double> ctn(s.k * s.m, 0.0);
        kernels::gemm_tn(a.data(), ant.data(), ctn.data(), s.n, s.k, s.m);
        expect_bitwise(ref_tn, ctn, (ctx + " gemm_tn").c_str());
      }
    }
  }
}

TEST(SimdKernels, ElementwiseOpParityAcrossToggle) {
  DispatchGuard guard;
  Rng rng(7);
  // Odd sizes exercise the vector tails of every element-wise loop; bias-row
  // add exercises the per-row broadcast path.
  for (const std::size_t rows : {1u, 3u, 17u}) {
    for (const std::size_t cols : {1u, 5u, 31u}) {
      const Tensor a0 = Tensor::randn({rows, cols}, rng, 1.0, true);
      const Tensor b0 = Tensor::randn({rows, cols}, rng, 1.0, true);
      const Tensor bias0 = Tensor::randn({cols}, rng, 1.0, true);

      struct Run {
        std::vector<double> value, ga, gb;
      };
      const auto run_case = [&](bool simd_on, auto&& build) {
        kernels::set_simd(simd_on);
        Tensor a = Tensor::from(a0.value(), a0.shape(), true);
        Tensor b = Tensor::from(b0.value(), b0.shape(), true);
        Tensor bias = Tensor::from(bias0.value(), bias0.shape(), true);
        Tensor out = build(a, b, bias);
        Tensor loss = sum(mul(out, out));
        loss.backward();
        return Run{out.value(), a.data().grad, b.data().grad};
      };
      const auto check = [&](const char* what, auto&& build) {
        const Run on = run_case(true, build);
        const Run off = run_case(false, build);
        expect_bitwise(off.value, on.value, what);
        expect_bitwise(off.ga, on.ga, (std::string(what) + " grad-a").c_str());
        expect_bitwise(off.gb, on.gb, (std::string(what) + " grad-b").c_str());
      };

      check("add", [](Tensor a, Tensor b, Tensor) { return add(a, b); });
      check("add-bias", [](Tensor a, Tensor, Tensor bias) { return add(a, bias); });
      check("sub", [](Tensor a, Tensor b, Tensor) { return sub(a, b); });
      check("mul", [](Tensor a, Tensor b, Tensor) { return mul(a, b); });
      check("scale", [](Tensor a, Tensor, Tensor) { return scale(a, -1.75); });
      check("add_scalar", [](Tensor a, Tensor, Tensor) { return add_scalar(a, 0.5); });
    }
  }
}

TEST(SimdKernels, FusedOpsParityAcrossToggle) {
  DispatchGuard guard;
  Rng rng(91);
  const std::size_t n = 23, k = 11, m = 7, edges = 31;
  const Tensor x = Tensor::randn({n, k}, rng, 0.5, false);
  const Tensor w0 = Tensor::randn({k, m}, rng, 0.5, true);
  const Tensor b0 = Tensor::randn({m}, rng, 0.5, true);
  const Tensor base0 = Tensor::randn({n, m}, rng, 0.5, true);
  const Tensor add0 = Tensor::randn({edges, m}, rng, 0.5, true);
  std::vector<std::size_t> index(edges);
  for (std::size_t e = 0; e < edges; ++e) index[e] = rng.index(n);

  const auto run_linear = [&](bool simd_on) {
    kernels::set_simd(simd_on);
    Tensor w = Tensor::from(w0.value(), w0.shape(), true);
    Tensor b = Tensor::from(b0.value(), b0.shape(), true);
    Tensor out = linear_tanh(x, w, b);
    sum(out).backward();
    return std::pair(out.value(), std::pair(w.data().grad, b.data().grad));
  };
  const auto lin_on = run_linear(true);
  const auto lin_off = run_linear(false);
  expect_bitwise(lin_off.first, lin_on.first, "linear_tanh value");
  expect_bitwise(lin_off.second.first, lin_on.second.first, "linear_tanh grad-w");
  expect_bitwise(lin_off.second.second, lin_on.second.second, "linear_tanh grad-b");

  const auto run_gather = [&](bool simd_on) {
    kernels::set_simd(simd_on);
    Tensor base = Tensor::from(base0.value(), base0.shape(), true);
    Tensor addend = Tensor::from(add0.value(), add0.shape(), true);
    Tensor out = gather_add_tanh(base, index, addend);
    sum(out).backward();
    return std::pair(out.value(), std::pair(base.data().grad, addend.data().grad));
  };
  const auto gat_on = run_gather(true);
  const auto gat_off = run_gather(false);
  expect_bitwise(gat_off.first, gat_on.first, "gather_add_tanh value");
  expect_bitwise(gat_off.second.first, gat_on.second.first, "gather_add_tanh grad-base");
  expect_bitwise(gat_off.second.second, gat_on.second.second, "gather_add_tanh grad-add");
}

TEST(SimdKernels, TierAdministration) {
  DispatchGuard guard;
  // set_tier clamps to the hardware ceiling and returns the previous tier.
  const simd::Tier hw = simd::detect();
  simd::set_tier(simd::Tier::Scalar);
  EXPECT_EQ(simd::active(), simd::Tier::Scalar);
  const simd::Tier prev = simd::set_tier(simd::Tier::Avx512);
  EXPECT_EQ(prev, simd::Tier::Scalar);
  EXPECT_LE(static_cast<int>(simd::active()), static_cast<int>(hw));

  // The kernels' dispatch tier honours the A/B toggle.
  kernels::set_simd(false);
  EXPECT_EQ(kernels::simd_tier(), simd::Tier::Scalar);
  EXPECT_FALSE(kernels::simd_enabled());
  const bool was = kernels::set_simd(true);
  EXPECT_FALSE(was);
  EXPECT_EQ(kernels::simd_tier(), simd::active());

  // Name/parse round trips.
  EXPECT_STREQ(simd::tier_name(simd::Tier::Scalar), "scalar");
  EXPECT_STREQ(simd::tier_name(simd::Tier::Neon), "neon");
  EXPECT_STREQ(simd::tier_name(simd::Tier::Avx2), "avx2");
  EXPECT_STREQ(simd::tier_name(simd::Tier::Avx512), "avx512");
  EXPECT_EQ(simd::parse_tier("off"), simd::Tier::Scalar);
  EXPECT_EQ(simd::parse_tier("scalar"), simd::Tier::Scalar);
  EXPECT_EQ(simd::parse_tier("AVX2"), simd::Tier::Avx2);
  EXPECT_EQ(simd::parse_tier("avx512"), simd::Tier::Avx512);
  EXPECT_EQ(simd::parse_tier("neon"), simd::Tier::Neon);
  EXPECT_EQ(simd::parse_tier("auto"), simd::detect());
  EXPECT_THROW(simd::parse_tier("pentium"), Error);
}

TEST(SimdKernels, MatmulEndToEndParityAcrossToggle) {
  DispatchGuard guard;
  Rng rng(55);
  const Tensor a0 = Tensor::randn({19, 13}, rng, 1.0, true);
  const Tensor b0 = Tensor::randn({13, 9}, rng, 1.0, true);
  const auto run = [&](bool simd_on) {
    kernels::set_simd(simd_on);
    Tensor a = Tensor::from(a0.value(), a0.shape(), true);
    Tensor b = Tensor::from(b0.value(), b0.shape(), true);
    Tensor out = matmul(a, b);
    sum(mul(out, out)).backward();
    return std::pair(out.value(), std::pair(a.data().grad, b.data().grad));
  };
  const auto on = run(true);
  const auto off = run(false);
  expect_bitwise(off.first, on.first, "matmul value");
  expect_bitwise(off.second.first, on.second.first, "matmul grad-a");
  expect_bitwise(off.second.second, on.second.second, "matmul grad-b");
}

// ---- tanh kernel -------------------------------------------------------------

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

/// Distance in units in the last place between two finite doubles, counted
/// across zero on the sign-magnitude number line.
std::uint64_t ulp_distance(double a, double b) {
  const auto ordered = [](double x) {
    const auto u = static_cast<std::int64_t>(bits(x));
    return u < 0 ? std::numeric_limits<std::int64_t>::min() - u : u;
  };
  const std::int64_t d = ordered(a) - ordered(b);
  return d < 0 ? static_cast<std::uint64_t>(-d) : static_cast<std::uint64_t>(d);
}

std::vector<double> tanh_tier(simd::Tier tier, const std::vector<double>& in) {
  std::vector<double> out(in.size());
  simd::tanh(tier, in.data(), out.data(), in.size());
  return out;
}

/// Bitwise (not ==) so NaN payloads and the sign of zero count too.
void expect_same_bits(const std::vector<double>& want, const std::vector<double>& got,
                      const std::string& what) {
  ASSERT_EQ(want.size(), got.size()) << what;
  for (std::size_t i = 0; i < want.size(); ++i) {
    ASSERT_EQ(bits(want[i]), bits(got[i])) << what << " diverges at element " << i;
  }
}

TEST(SimdTanh, EveryTierMatchesScalarAtEveryTailLength) {
  Rng rng(4242);
  for (std::size_t n = 0; n <= 67; ++n) {
    std::vector<double> in(n);
    for (std::size_t i = 0; i < n; ++i) {
      in[i] = rng.normal() * (i % 3 == 0 ? 0.2 : 4.0);  // both kernel branches
    }
    const std::vector<double> ref = tanh_tier(simd::Tier::Scalar, in);
    for (const simd::Tier tier : available_tiers()) {
      const std::string ctx = std::string(simd::tier_name(tier)) + " n=" + std::to_string(n);
      expect_same_bits(ref, tanh_tier(tier, in), ctx);
      std::vector<double> inplace = in;  // out may alias in
      simd::tanh(tier, inplace.data(), inplace.data(), n);
      expect_same_bits(ref, inplace, ctx + " in place");
    }
  }
}

TEST(SimdTanh, WithinFourUlpOfLibmOnDenseSweep) {
  std::vector<double> xs;
  constexpr int kLog = 2'000'000;  // magnitudes 2^-30 .. 2^5, both signs
  for (int i = 0; i < kLog; ++i) {
    const double mag = std::exp2(-30.0 + 35.0 * i / (kLog - 1));
    xs.push_back(mag);
    xs.push_back(-mag);
  }
  for (int i = -250'000; i <= 250'000; ++i) xs.push_back(i * 1e-4);  // [-25, 25]

  const std::vector<double> ref = tanh_tier(simd::Tier::Scalar, xs);
  std::uint64_t worst = 0;
  double worst_x = 0.0;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    const std::uint64_t d = ulp_distance(ref[i], std::tanh(xs[i]));
    if (d > worst) {
      worst = d;
      worst_x = xs[i];
    }
  }
  EXPECT_LE(worst, 4u) << "worst at x = " << worst_x;
  std::printf("simd::tanh max error vs std::tanh: %llu ULP at x = %.17g (%zu points)\n",
              static_cast<unsigned long long>(worst), worst_x, xs.size());
  for (const simd::Tier tier : available_tiers()) {
    expect_same_bits(ref, tanh_tier(tier, xs), simd::tier_name(tier));
  }
}

TEST(SimdTanh, SpecialValuesAndBranchPoints) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double denorm_min = std::numeric_limits<double>::denorm_min();
  const double clamp = simd::detail::kTanhClamp;
  const double small = simd::detail::kTanhSmall;
  for (const simd::Tier tier : available_tiers()) {
    const std::string ctx = simd::tier_name(tier);
    const auto t = [tier](double x) {
      double y = 0.0;
      simd::tanh(tier, &x, &y, 1);
      return y;
    };
    EXPECT_EQ(bits(t(0.0)), bits(0.0)) << ctx;
    EXPECT_EQ(bits(t(-0.0)), bits(-0.0)) << ctx;
    for (const double d : {denorm_min, 1e-310, 2.2e-308}) {
      EXPECT_EQ(bits(t(d)), bits(d)) << ctx << " x=" << d;
      EXPECT_EQ(bits(t(-d)), bits(-d)) << ctx << " x=" << -d;
    }
    EXPECT_EQ(t(inf), 1.0) << ctx;
    EXPECT_EQ(t(-inf), -1.0) << ctx;
    EXPECT_TRUE(std::isnan(t(nan))) << ctx;
    EXPECT_TRUE(std::isnan(t(-nan))) << ctx;
    EXPECT_EQ(t(std::numeric_limits<double>::max()), 1.0) << ctx;
    EXPECT_EQ(t(-1e300), -1.0) << ctx;
    // The saturation clamp, the small-|x| polynomial cutoff, and the point
    // from which e / (e + 2) rounds to 1.
    for (const double p : {clamp, small, 19.06}) {
      for (const double x : {std::nextafter(p, 0.0), p, std::nextafter(p, inf)}) {
        EXPECT_LE(ulp_distance(t(x), std::tanh(x)), 4u) << ctx << " x=" << x;
        EXPECT_LE(ulp_distance(t(-x), std::tanh(-x)), 4u) << ctx << " x=" << -x;
      }
    }
    EXPECT_EQ(t(clamp), 1.0) << ctx;
    EXPECT_EQ(t(-std::nextafter(clamp, inf)), -1.0) << ctx;
    // Monotone across the polynomial cutoff.
    EXPECT_LE(t(std::nextafter(small, 0.0)), t(small)) << ctx;
    EXPECT_LE(t(small), t(std::nextafter(small, inf))) << ctx;
  }
}

/// Applies the dispatched kernel to a pre-activation tensor.
std::vector<double> kernel_tanh(const Tensor& pre) {
  return tanh_tier(kernels::simd_tier(), pre.value());
}

/// True when libm's tanh disagrees with the kernel somewhere in `pre`, i.e.
/// the site comparison below could tell a libm call from the kernel.
bool libm_differs(const Tensor& pre) {
  const std::vector<double> k = kernel_tanh(pre);
  for (std::size_t i = 0; i < k.size(); ++i) {
    if (bits(k[i]) != bits(std::tanh(pre.value()[i]))) return true;
  }
  return false;
}

TEST(SimdTanh, EveryTanhSiteIsTheKernelOnItsPreActivation) {
  DispatchGuard guard;
  const bool prev_fused = fused::enabled();
  Rng rng(77);
  const std::size_t n = 29, k = 13, m = 11, edges = 53;
  const Tensor x = Tensor::randn({n, k}, rng, 1.0, true);
  const Tensor w = Tensor::randn({k, m}, rng, 1.0, true);
  const Tensor b = Tensor::randn({m}, rng, 1.0, true);
  const Tensor base = Tensor::randn({n, m}, rng, 1.5, true);
  const Tensor addend = Tensor::randn({edges, m}, rng, 1.5, true);
  std::vector<std::size_t> index(edges);
  for (std::size_t e = 0; e < edges; ++e) index[e] = rng.index(n);

  for (const simd::Tier tier : available_tiers()) {
    simd::set_tier(tier);
    for (const bool fused_on : {true, false}) {
      fused::set_enabled(fused_on);
      const std::string ctx = std::string(simd::tier_name(tier)) +
                              (fused_on ? " fused" : " unfused");
      Tensor pre_lin, pre_lin_bias, pre_gather, pre_gather_add;
      {
        NoGradGuard no_grad;
        pre_lin = matmul(x, w);
        pre_lin_bias = add(pre_lin, b);
        pre_gather = gather_rows(base, index);
        pre_gather_add = add(pre_gather, addend);
      }
      ASSERT_TRUE(libm_differs(pre_lin_bias)) << "inputs too easy to detect libm";

      expect_same_bits(kernel_tanh(pre_lin_bias), tanh_op(pre_lin_bias).value(),
                       ctx + " tanh_op");
      expect_same_bits(kernel_tanh(pre_lin_bias), linear_tanh(x, w, b).value(),
                       ctx + " linear_tanh+bias");
      expect_same_bits(kernel_tanh(pre_lin), linear_tanh(x, w, Tensor()).value(),
                       ctx + " linear_tanh");
      expect_same_bits(kernel_tanh(pre_gather_add),
                       gather_add_tanh(base, index, addend).value(),
                       ctx + " gather_add_tanh+addend");
      expect_same_bits(kernel_tanh(pre_gather), gather_add_tanh(base, index, Tensor()).value(),
                       ctx + " gather_add_tanh");
    }
  }
  fused::set_enabled(prev_fused);
}

}  // namespace
}  // namespace sc::nn
