// Runtime-dispatched SIMD kernels for the dense nn hot paths.
//
// This header is the repo's single home for raw vector intrinsics (enforced
// by the sc_lint `no-raw-intrinsics` rule): AVX2 and AVX-512 on x86-64, NEON
// on aarch64, each behind feature macros with a scalar fallback that is the
// reference implementation. The active tier is chosen once at startup by
// CPUID detection (see simd.cpp), can be capped with the SC_SIMD environment
// variable (OFF|scalar|neon|avx2|avx512|auto), and can be overridden per
// process with set_tier (clamped to what the hardware supports).
//
// Determinism contract: every vector kernel below performs, per output
// element, exactly the same IEEE-754 operation sequence as the scalar
// reference — same multiply/add split (no FMA contraction), same ascending-p
// accumulation order, same zero-skip branches. Vector lanes always hold
// *distinct* output elements, never partial sums of one element, so there is
// no horizontal reduction and no reassociation. On builds where the compiler
// does not contract the scalar reference into FMA (the default baseline
// x86-64 and aarch64 build of this repo), results are therefore bit-identical
// across tiers; with -ffast-math/-march=native style contraction of the
// scalar code, parity degrades to the documented 1e-12 kernel tolerance
// (DESIGN.md §5.5). The x86 kernels deliberately use mul+add rather than
// vfmadd for exactly this reason.
#pragma once

#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>

#if defined(__x86_64__) || defined(_M_X64)
#include <immintrin.h>
#define SC_SIMD_X86 1
#elif defined(__aarch64__) && defined(__ARM_NEON)
#include <arm_neon.h>
#define SC_SIMD_NEON 1
#endif

namespace sc::nn::simd {

/// Dispatch tiers, ordered so that a numerically larger tier is "wider".
/// Neon never coexists with the x86 tiers; the ordering only matters for
/// clamping requested tiers against the detected ceiling.
enum class Tier : int { Scalar = 0, Neon = 1, Avx2 = 2, Avx512 = 3 };

/// Highest tier this process may use: hardware ceiling from CPUID (or the
/// NEON compile-time gate), further capped by the SC_SIMD environment
/// variable. Computed once and cached.
Tier detect();

/// The tier kernels dispatch on right now (<= detect()).
Tier active();

/// Forces the active tier (clamped to detect()); returns the previous tier.
/// Used by the A/B toggle and the parity tests.
Tier set_tier(Tier tier);

const char* tier_name(Tier tier);

/// Parses "off"/"scalar"/"neon"/"avx2"/"avx512"/"auto" (case-insensitive);
/// "auto" and "on" mean the detected ceiling. SC_CHECKs on anything else.
Tier parse_tier(const char* name);

// ---- Per-tier kernel implementations ---------------------------------------
// The *_scalar functions are the reference semantics; the vector versions
// replicate their per-element operation sequence exactly (see header comment).

namespace detail {

/// Rows [i0, i1) of C += A·B (row-major, A is n×k, B is k×m). Four-row
/// register blocking with ascending-p accumulation and an all-zero skip.
inline void gemm_nn_rows_scalar(const double* a, const double* b, double* c,
                                std::size_t i0, std::size_t i1, std::size_t k,
                                std::size_t m) {
  std::size_t i = i0;
  for (; i + 4 <= i1; i += 4) {
    const double* a0 = a + i * k;
    const double* a1 = a0 + k;
    const double* a2 = a1 + k;
    const double* a3 = a2 + k;
    double* c0 = c + i * m;
    double* c1 = c0 + m;
    double* c2 = c1 + m;
    double* c3 = c2 + m;
    for (std::size_t p = 0; p < k; ++p) {
      const double av0 = a0[p], av1 = a1[p], av2 = a2[p], av3 = a3[p];
      if (av0 == 0.0 && av1 == 0.0 && av2 == 0.0 && av3 == 0.0) continue;
      const double* brow = b + p * m;
      for (std::size_t j = 0; j < m; ++j) {
        const double bv = brow[j];
        c0[j] += av0 * bv;
        c1[j] += av1 * bv;
        c2[j] += av2 * bv;
        c3[j] += av3 * bv;
      }
    }
  }
  for (; i < i1; ++i) {
    double* crow = c + i * m;
    for (std::size_t p = 0; p < k; ++p) {
      const double av = a[i * k + p];
      if (av == 0.0) continue;
      const double* brow = b + p * m;
      for (std::size_t j = 0; j < m; ++j) crow[j] += av * brow[j];
    }
  }
}

/// Rows [i0, i1) of C (n,k) += A (n,m)·B (k,m)^T: per-element single
/// accumulator over ascending p (4×4 output tiles in the scalar reference;
/// the tiling never changes the per-element operation sequence).
inline void gemm_nt_rows_scalar(const double* a, const double* b, double* c,
                                std::size_t i0, std::size_t i1, std::size_t m,
                                std::size_t k) {
  for (std::size_t i = i0; i < i1; i += 4) {
    const std::size_t ir = i1 - i < 4 ? i1 - i : 4;
    for (std::size_t j = 0; j < k; j += 4) {
      const std::size_t jr = k - j < 4 ? k - j : 4;
      double acc[4][4] = {};
      for (std::size_t p = 0; p < m; ++p) {
        for (std::size_t r = 0; r < ir; ++r) {
          const double av = a[(i + r) * m + p];
          for (std::size_t s = 0; s < jr; ++s) acc[r][s] += av * b[(j + s) * m + p];
        }
      }
      for (std::size_t r = 0; r < ir; ++r) {
        for (std::size_t s = 0; s < jr; ++s) c[(i + r) * k + j + s] += acc[r][s];
      }
    }
  }
}

/// Output rows [p0, p1) of C (k,m) += A(n,k)^T·B (n,m): four input rows
/// folded per pass, left-associated partial sums, ascending-i outer order.
inline void gemm_tn_cols_scalar(const double* a, const double* b, double* c,
                                std::size_t p0, std::size_t p1, std::size_t n,
                                std::size_t k, std::size_t m) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const double* a0 = a + i * k;
    const double* a1 = a0 + k;
    const double* a2 = a1 + k;
    const double* a3 = a2 + k;
    const double* b0 = b + i * m;
    const double* b1 = b0 + m;
    const double* b2 = b1 + m;
    const double* b3 = b2 + m;
    for (std::size_t p = p0; p < p1; ++p) {
      const double av0 = a0[p], av1 = a1[p], av2 = a2[p], av3 = a3[p];
      if (av0 == 0.0 && av1 == 0.0 && av2 == 0.0 && av3 == 0.0) continue;
      double* crow = c + p * m;
      for (std::size_t j = 0; j < m; ++j) {
        crow[j] += av0 * b0[j] + av1 * b1[j] + av2 * b2[j] + av3 * b3[j];
      }
    }
  }
  for (; i < n; ++i) {
    const double* arow = a + i * k;
    const double* brow = b + i * m;
    for (std::size_t p = p0; p < p1; ++p) {
      const double av = arow[p];
      if (av == 0.0) continue;
      double* crow = c + p * m;
      for (std::size_t j = 0; j < m; ++j) crow[j] += av * brow[j];
    }
  }
}

// tanh for every tier. |x| < 0.3 uses the odd Taylor polynomial
// x + x·(s·P(s)), s = x², through x^23. Above that, tanh = e / (e + 2) with
// e = expm1(2|x|): the Cody–Waite reduction 2|x| = k·ln2 + r, |r| <= ln2/2, a
// degree-13 Taylor polynomial p ≈ expm1(r), and e = 2^k·p + (2^k − 1). k is
// rounded to nearest even by the 1.5·2^52 shifter, whose low mantissa bits
// then hold k, so 2^k is built with integer ops and no tier depends on a
// rounding-mode instruction. |x| is clamped to 22 first: from ≈19.1 up
// e/(e+2) already rounds to exactly 1, so the clamp saturates to ±1 without a
// branch. The sign is restored last, so ±0 keeps its sign and a denormal comes
// out as itself (s·P(s) underflows to 0); NaN is passed through unchanged.
// Error against glibc tanh: at most 3 ULP (DESIGN.md §5.5).
inline constexpr double kTanhSmall = 0.3;
inline constexpr double kTanhClamp = 22.0;
inline constexpr double kTanhCoef[] = {  // x^3 .. x^23 of tanh's Taylor series
    -0x1.5555555555555p-2, 0x1.1111111111111p-3,  -0x1.ba1ba1ba1ba1cp-5,
    0x1.664f4882c10fap-6,  -0x1.226e355e6c23dp-7, 0x1.d6d3d0e157de0p-9,
    -0x1.7da36452b75e3p-10, 0x1.3558248036744p-11, -0x1.f57d7734d1664p-13,
    0x1.967e18afcafadp-14, -0x1.497d8eea25259p-15,
};
inline constexpr int kTanhTerms = sizeof(kTanhCoef) / sizeof(kTanhCoef[0]);
inline constexpr double kInvLn2 = 0x1.71547652b82fep0;
inline constexpr double kLn2Hi = 0x1.62e42feep-1;  // low 21 bits zero: k·kLn2Hi exact
inline constexpr double kLn2Lo = 0x1.a39ef35793c76p-33;
inline constexpr double kRoundShift = 0x1.8p52;
inline constexpr double kExpm1Coef[] = {  // 1/2! .. 1/13!
    1.0 / 2,       1.0 / 6,        1.0 / 24,        1.0 / 120,
    1.0 / 720,     1.0 / 5040,     1.0 / 40320,     1.0 / 362880,
    1.0 / 3628800, 1.0 / 39916800, 1.0 / 479001600, 1.0 / 6227020800,
};
inline constexpr int kExpm1Terms = sizeof(kExpm1Coef) / sizeof(kExpm1Coef[0]);

// The scalar reference is the op sequence every tier replicates, so it gets
// the same fp-contract barrier as the vector kernels below.
#pragma GCC push_options
#pragma GCC optimize("fp-contract=off")

inline double tanh_scalar(double x) {
  if (x != x) return x;
  double a = std::fabs(x);
  double t;
  if (a < kTanhSmall) {
    const double s = a * a;
    double q = kTanhCoef[kTanhTerms - 1];
    for (int j = kTanhTerms - 2; j >= 0; --j) q = kTanhCoef[j] + s * q;
    t = a + a * (s * q);
  } else {
    a = a < kTanhClamp ? a : kTanhClamp;
    const double y = a + a;
    const double kd = y * kInvLn2 + kRoundShift;
    const std::uint64_t kbits = std::bit_cast<std::uint64_t>(kd) -
                                std::bit_cast<std::uint64_t>(kRoundShift);
    const double two_k = std::bit_cast<double>((kbits + 1023) << 52);
    const double kf = kd - kRoundShift;
    const double r = (y - kf * kLn2Hi) - kf * kLn2Lo;
    double q = kExpm1Coef[kExpm1Terms - 1];
    for (int j = kExpm1Terms - 2; j >= 0; --j) q = kExpm1Coef[j] + r * q;
    const double p = r + (r * r) * q;
    const double e = two_k * p + (two_k - 1.0);
    t = e / (e + 2.0);
  }
  return std::copysign(t, x);
}

#pragma GCC pop_options

#if defined(SC_SIMD_X86)

// The x86 kernels are compiled with per-function target attributes so the
// translation unit itself stays baseline x86-64; dispatch guarantees a tier's
// code only runs on hardware that supports it.
//
// fp-contract must be forced off here: GCC's default -ffp-contract=fast
// happily fuses _mm512_add_pd(_mm512_mul_pd(...)) pairs into vfmadd (vector
// intrinsics are not contraction barriers), which would silently break the
// mul+add determinism contract above with 1-ulp drift per accumulation.
#pragma GCC push_options
#pragma GCC optimize("fp-contract=off")

__attribute__((target("avx2"))) inline void gemm_nn_rows_avx2(
    const double* a, const double* b, double* c, std::size_t i0, std::size_t i1,
    std::size_t k, std::size_t m) {
  std::size_t i = i0;
  for (; i + 4 <= i1; i += 4) {
    const double* a0 = a + i * k;
    const double* a1 = a0 + k;
    const double* a2 = a1 + k;
    const double* a3 = a2 + k;
    double* c0 = c + i * m;
    double* c1 = c0 + m;
    double* c2 = c1 + m;
    double* c3 = c2 + m;
    for (std::size_t p = 0; p < k; ++p) {
      const double av0 = a0[p], av1 = a1[p], av2 = a2[p], av3 = a3[p];
      if (av0 == 0.0 && av1 == 0.0 && av2 == 0.0 && av3 == 0.0) continue;
      const double* brow = b + p * m;
      const __m256d va0 = _mm256_set1_pd(av0);
      const __m256d va1 = _mm256_set1_pd(av1);
      const __m256d va2 = _mm256_set1_pd(av2);
      const __m256d va3 = _mm256_set1_pd(av3);
      std::size_t j = 0;
      for (; j + 4 <= m; j += 4) {
        const __m256d vb = _mm256_loadu_pd(brow + j);
        _mm256_storeu_pd(c0 + j, _mm256_add_pd(_mm256_loadu_pd(c0 + j),
                                               _mm256_mul_pd(va0, vb)));
        _mm256_storeu_pd(c1 + j, _mm256_add_pd(_mm256_loadu_pd(c1 + j),
                                               _mm256_mul_pd(va1, vb)));
        _mm256_storeu_pd(c2 + j, _mm256_add_pd(_mm256_loadu_pd(c2 + j),
                                               _mm256_mul_pd(va2, vb)));
        _mm256_storeu_pd(c3 + j, _mm256_add_pd(_mm256_loadu_pd(c3 + j),
                                               _mm256_mul_pd(va3, vb)));
      }
      for (; j < m; ++j) {
        const double bv = brow[j];
        c0[j] += av0 * bv;
        c1[j] += av1 * bv;
        c2[j] += av2 * bv;
        c3[j] += av3 * bv;
      }
    }
  }
  for (; i < i1; ++i) {
    double* crow = c + i * m;
    for (std::size_t p = 0; p < k; ++p) {
      const double av = a[i * k + p];
      if (av == 0.0) continue;
      const double* brow = b + p * m;
      const __m256d va = _mm256_set1_pd(av);
      std::size_t j = 0;
      for (; j + 4 <= m; j += 4) {
        _mm256_storeu_pd(crow + j, _mm256_add_pd(_mm256_loadu_pd(crow + j),
                                                 _mm256_mul_pd(va, _mm256_loadu_pd(brow + j))));
      }
      for (; j < m; ++j) crow[j] += av * brow[j];
    }
  }
}

/// Register-accumulating gemm_nn for narrow outputs (m <= 8 * NV, NV <= 4).
///
/// The generic kernel below streams the C rows through memory once per p
/// step, so its C traffic is k times the output size — for this model's
/// narrow layers (m in {1, 8, 24, 32}, k up to 48) that read-modify-write
/// dominates the whole forward pass. Here each 4-row block keeps C in
/// 4*NV zmm accumulators across the entire p loop and touches memory once.
///
/// Determinism: per output element this performs the identical operation
/// sequence as the scalar reference and the generic kernel — same mul+add
/// split, same ascending-p order, same 4-row zero-skip predicate; only the
/// residence of the partial sums (register vs memory) changes, which cannot
/// alter IEEE-754 results. Masked loads/stores keep lanes past m untouched
/// and fault-suppressed.
template <int NV>
__attribute__((target("avx512f"))) inline void gemm_nn_rows_avx512_acc(
    const double* a, const double* b, double* c, std::size_t i0, std::size_t i1,
    std::size_t k, std::size_t m) {
  static_assert(NV >= 1 && NV <= 4, "4 rows x NV accumulators must fit in 32 zmm");
  const std::size_t tail_lanes = m - static_cast<std::size_t>(NV - 1) * 8;
  const __mmask8 tail =
      tail_lanes >= 8 ? static_cast<__mmask8>(0xFF)
                      : static_cast<__mmask8>((1u << tail_lanes) - 1u);
  const auto lane_mask = [tail](int v) {
    return v == NV - 1 ? tail : static_cast<__mmask8>(0xFF);
  };
  std::size_t i = i0;
  for (; i + 4 <= i1; i += 4) {
    const double* a0 = a + i * k;
    const double* a1 = a0 + k;
    const double* a2 = a1 + k;
    const double* a3 = a2 + k;
    double* c0 = c + i * m;
    double* c1 = c0 + m;
    double* c2 = c1 + m;
    double* c3 = c2 + m;
    __m512d acc0[NV], acc1[NV], acc2[NV], acc3[NV];
    for (int v = 0; v < NV; ++v) {
      const __mmask8 mk = lane_mask(v);
      acc0[v] = _mm512_maskz_loadu_pd(mk, c0 + 8 * v);
      acc1[v] = _mm512_maskz_loadu_pd(mk, c1 + 8 * v);
      acc2[v] = _mm512_maskz_loadu_pd(mk, c2 + 8 * v);
      acc3[v] = _mm512_maskz_loadu_pd(mk, c3 + 8 * v);
    }
    for (std::size_t p = 0; p < k; ++p) {
      const double av0 = a0[p], av1 = a1[p], av2 = a2[p], av3 = a3[p];
      if (av0 == 0.0 && av1 == 0.0 && av2 == 0.0 && av3 == 0.0) continue;
      const double* brow = b + p * m;
      const __m512d va0 = _mm512_set1_pd(av0);
      const __m512d va1 = _mm512_set1_pd(av1);
      const __m512d va2 = _mm512_set1_pd(av2);
      const __m512d va3 = _mm512_set1_pd(av3);
      for (int v = 0; v < NV; ++v) {
        const __m512d vb = _mm512_maskz_loadu_pd(lane_mask(v), brow + 8 * v);
        acc0[v] = _mm512_add_pd(acc0[v], _mm512_mul_pd(va0, vb));
        acc1[v] = _mm512_add_pd(acc1[v], _mm512_mul_pd(va1, vb));
        acc2[v] = _mm512_add_pd(acc2[v], _mm512_mul_pd(va2, vb));
        acc3[v] = _mm512_add_pd(acc3[v], _mm512_mul_pd(va3, vb));
      }
    }
    for (int v = 0; v < NV; ++v) {
      const __mmask8 mk = lane_mask(v);
      _mm512_mask_storeu_pd(c0 + 8 * v, mk, acc0[v]);
      _mm512_mask_storeu_pd(c1 + 8 * v, mk, acc1[v]);
      _mm512_mask_storeu_pd(c2 + 8 * v, mk, acc2[v]);
      _mm512_mask_storeu_pd(c3 + 8 * v, mk, acc3[v]);
    }
  }
  for (; i < i1; ++i) {
    const double* arow = a + i * k;
    double* crow = c + i * m;
    __m512d acc[NV];
    for (int v = 0; v < NV; ++v) {
      acc[v] = _mm512_maskz_loadu_pd(lane_mask(v), crow + 8 * v);
    }
    for (std::size_t p = 0; p < k; ++p) {
      const double av = arow[p];
      if (av == 0.0) continue;
      const double* brow = b + p * m;
      const __m512d va = _mm512_set1_pd(av);
      for (int v = 0; v < NV; ++v) {
        const __m512d vb = _mm512_maskz_loadu_pd(lane_mask(v), brow + 8 * v);
        acc[v] = _mm512_add_pd(acc[v], _mm512_mul_pd(va, vb));
      }
    }
    for (int v = 0; v < NV; ++v) {
      _mm512_mask_storeu_pd(crow + 8 * v, lane_mask(v), acc[v]);
    }
  }
}

__attribute__((target("avx512f"))) inline void gemm_nn_rows_avx512(
    const double* a, const double* b, double* c, std::size_t i0, std::size_t i1,
    std::size_t k, std::size_t m) {
  if (m > 0 && m <= 32) {
    switch ((m + 7) / 8) {
      case 1: return gemm_nn_rows_avx512_acc<1>(a, b, c, i0, i1, k, m);
      case 2: return gemm_nn_rows_avx512_acc<2>(a, b, c, i0, i1, k, m);
      case 3: return gemm_nn_rows_avx512_acc<3>(a, b, c, i0, i1, k, m);
      default: return gemm_nn_rows_avx512_acc<4>(a, b, c, i0, i1, k, m);
    }
  }
  std::size_t i = i0;
  for (; i + 4 <= i1; i += 4) {
    const double* a0 = a + i * k;
    const double* a1 = a0 + k;
    const double* a2 = a1 + k;
    const double* a3 = a2 + k;
    double* c0 = c + i * m;
    double* c1 = c0 + m;
    double* c2 = c1 + m;
    double* c3 = c2 + m;
    for (std::size_t p = 0; p < k; ++p) {
      const double av0 = a0[p], av1 = a1[p], av2 = a2[p], av3 = a3[p];
      if (av0 == 0.0 && av1 == 0.0 && av2 == 0.0 && av3 == 0.0) continue;
      const double* brow = b + p * m;
      const __m512d va0 = _mm512_set1_pd(av0);
      const __m512d va1 = _mm512_set1_pd(av1);
      const __m512d va2 = _mm512_set1_pd(av2);
      const __m512d va3 = _mm512_set1_pd(av3);
      std::size_t j = 0;
      for (; j + 8 <= m; j += 8) {
        const __m512d vb = _mm512_loadu_pd(brow + j);
        _mm512_storeu_pd(c0 + j, _mm512_add_pd(_mm512_loadu_pd(c0 + j),
                                               _mm512_mul_pd(va0, vb)));
        _mm512_storeu_pd(c1 + j, _mm512_add_pd(_mm512_loadu_pd(c1 + j),
                                               _mm512_mul_pd(va1, vb)));
        _mm512_storeu_pd(c2 + j, _mm512_add_pd(_mm512_loadu_pd(c2 + j),
                                               _mm512_mul_pd(va2, vb)));
        _mm512_storeu_pd(c3 + j, _mm512_add_pd(_mm512_loadu_pd(c3 + j),
                                               _mm512_mul_pd(va3, vb)));
      }
      if (j < m) {
        const __mmask8 tail = static_cast<__mmask8>((1u << (m - j)) - 1u);
        const __m512d vb = _mm512_maskz_loadu_pd(tail, brow + j);
        _mm512_mask_storeu_pd(
            c0 + j, tail,
            _mm512_add_pd(_mm512_maskz_loadu_pd(tail, c0 + j), _mm512_mul_pd(va0, vb)));
        _mm512_mask_storeu_pd(
            c1 + j, tail,
            _mm512_add_pd(_mm512_maskz_loadu_pd(tail, c1 + j), _mm512_mul_pd(va1, vb)));
        _mm512_mask_storeu_pd(
            c2 + j, tail,
            _mm512_add_pd(_mm512_maskz_loadu_pd(tail, c2 + j), _mm512_mul_pd(va2, vb)));
        _mm512_mask_storeu_pd(
            c3 + j, tail,
            _mm512_add_pd(_mm512_maskz_loadu_pd(tail, c3 + j), _mm512_mul_pd(va3, vb)));
      }
    }
  }
  for (; i < i1; ++i) {
    double* crow = c + i * m;
    for (std::size_t p = 0; p < k; ++p) {
      const double av = a[i * k + p];
      if (av == 0.0) continue;
      const double* brow = b + p * m;
      const __m512d va = _mm512_set1_pd(av);
      std::size_t j = 0;
      for (; j + 8 <= m; j += 8) {
        _mm512_storeu_pd(crow + j, _mm512_add_pd(_mm512_loadu_pd(crow + j),
                                                 _mm512_mul_pd(va, _mm512_loadu_pd(brow + j))));
      }
      if (j < m) {
        const __mmask8 tail = static_cast<__mmask8>((1u << (m - j)) - 1u);
        _mm512_mask_storeu_pd(
            crow + j, tail,
            _mm512_add_pd(_mm512_maskz_loadu_pd(tail, crow + j),
                          _mm512_mul_pd(va, _mm512_maskz_loadu_pd(tail, brow + j))));
      }
    }
  }
}

// gemm_nt keeps one accumulator per output element (lanes hold adjacent j
// columns, never partial sums of one dot product), which requires the B tile
// transposed so consecutive j values for a fixed p are contiguous. The pack
// is a pure data movement — it cannot change numerics — and is amortised over
// the whole row panel.

inline constexpr std::size_t kNtTile = 8;

/// Packs bt[p * jr_padded + s] = b[(j + s) * m + p] for s in [0, jr).
inline void pack_bt(const double* b, double* bt, std::size_t j, std::size_t jr,
                    std::size_t m) {
  for (std::size_t p = 0; p < m; ++p) {
    for (std::size_t s = 0; s < jr; ++s) bt[p * kNtTile + s] = b[(j + s) * m + p];
    for (std::size_t s = jr; s < kNtTile; ++s) bt[p * kNtTile + s] = 0.0;
  }
}

__attribute__((target("avx2"))) inline void gemm_nt_rows_avx2(
    const double* a, const double* b, double* c, double* bt, std::size_t i0,
    std::size_t i1, std::size_t m, std::size_t k) {
  for (std::size_t j = 0; j < k; j += 4) {
    const std::size_t jr = k - j < 4 ? k - j : 4;
    pack_bt(b, bt, j, jr, m);
    for (std::size_t i = i0; i < i1; ++i) {
      const double* arow = a + i * m;
      __m256d acc = _mm256_setzero_pd();
      for (std::size_t p = 0; p < m; ++p) {
        const __m256d va = _mm256_set1_pd(arow[p]);
        const __m256d vb = _mm256_loadu_pd(bt + p * kNtTile);
        acc = _mm256_add_pd(acc, _mm256_mul_pd(va, vb));
      }
      double lanes[4];
      _mm256_storeu_pd(lanes, acc);
      for (std::size_t s = 0; s < jr; ++s) c[i * k + j + s] += lanes[s];
    }
  }
}

__attribute__((target("avx512f"))) inline void gemm_nt_rows_avx512(
    const double* a, const double* b, double* c, double* bt, std::size_t i0,
    std::size_t i1, std::size_t m, std::size_t k) {
  for (std::size_t j = 0; j < k; j += kNtTile) {
    const std::size_t jr = k - j < kNtTile ? k - j : kNtTile;
    pack_bt(b, bt, j, jr, m);
    for (std::size_t i = i0; i < i1; ++i) {
      const double* arow = a + i * m;
      __m512d acc = _mm512_setzero_pd();
      for (std::size_t p = 0; p < m; ++p) {
        const __m512d va = _mm512_set1_pd(arow[p]);
        const __m512d vb = _mm512_loadu_pd(bt + p * kNtTile);
        acc = _mm512_add_pd(acc, _mm512_mul_pd(va, vb));
      }
      double lanes[kNtTile];
      _mm512_storeu_pd(lanes, acc);
      for (std::size_t s = 0; s < jr; ++s) c[i * k + j + s] += lanes[s];
    }
  }
}

__attribute__((target("avx2"))) inline void gemm_tn_cols_avx2(
    const double* a, const double* b, double* c, std::size_t p0, std::size_t p1,
    std::size_t n, std::size_t k, std::size_t m) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const double* a0 = a + i * k;
    const double* a1 = a0 + k;
    const double* a2 = a1 + k;
    const double* a3 = a2 + k;
    const double* b0 = b + i * m;
    const double* b1 = b0 + m;
    const double* b2 = b1 + m;
    const double* b3 = b2 + m;
    for (std::size_t p = p0; p < p1; ++p) {
      const double av0 = a0[p], av1 = a1[p], av2 = a2[p], av3 = a3[p];
      if (av0 == 0.0 && av1 == 0.0 && av2 == 0.0 && av3 == 0.0) continue;
      double* crow = c + p * m;
      const __m256d va0 = _mm256_set1_pd(av0);
      const __m256d va1 = _mm256_set1_pd(av1);
      const __m256d va2 = _mm256_set1_pd(av2);
      const __m256d va3 = _mm256_set1_pd(av3);
      std::size_t j = 0;
      for (; j + 4 <= m; j += 4) {
        // Left-associated exactly like the scalar reference:
        // ((av0*b0 + av1*b1) + av2*b2) + av3*b3, then one add into C.
        __m256d t = _mm256_mul_pd(va0, _mm256_loadu_pd(b0 + j));
        t = _mm256_add_pd(t, _mm256_mul_pd(va1, _mm256_loadu_pd(b1 + j)));
        t = _mm256_add_pd(t, _mm256_mul_pd(va2, _mm256_loadu_pd(b2 + j)));
        t = _mm256_add_pd(t, _mm256_mul_pd(va3, _mm256_loadu_pd(b3 + j)));
        _mm256_storeu_pd(crow + j, _mm256_add_pd(_mm256_loadu_pd(crow + j), t));
      }
      for (; j < m; ++j) {
        crow[j] += av0 * b0[j] + av1 * b1[j] + av2 * b2[j] + av3 * b3[j];
      }
    }
  }
  for (; i < n; ++i) {
    const double* arow = a + i * k;
    const double* brow = b + i * m;
    for (std::size_t p = p0; p < p1; ++p) {
      const double av = arow[p];
      if (av == 0.0) continue;
      double* crow = c + p * m;
      const __m256d va = _mm256_set1_pd(av);
      std::size_t j = 0;
      for (; j + 4 <= m; j += 4) {
        _mm256_storeu_pd(crow + j, _mm256_add_pd(_mm256_loadu_pd(crow + j),
                                                 _mm256_mul_pd(va, _mm256_loadu_pd(brow + j))));
      }
      for (; j < m; ++j) crow[j] += av * brow[j];
    }
  }
}

__attribute__((target("avx512f"))) inline void gemm_tn_cols_avx512(
    const double* a, const double* b, double* c, std::size_t p0, std::size_t p1,
    std::size_t n, std::size_t k, std::size_t m) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const double* a0 = a + i * k;
    const double* a1 = a0 + k;
    const double* a2 = a1 + k;
    const double* a3 = a2 + k;
    const double* b0 = b + i * m;
    const double* b1 = b0 + m;
    const double* b2 = b1 + m;
    const double* b3 = b2 + m;
    for (std::size_t p = p0; p < p1; ++p) {
      const double av0 = a0[p], av1 = a1[p], av2 = a2[p], av3 = a3[p];
      if (av0 == 0.0 && av1 == 0.0 && av2 == 0.0 && av3 == 0.0) continue;
      double* crow = c + p * m;
      const __m512d va0 = _mm512_set1_pd(av0);
      const __m512d va1 = _mm512_set1_pd(av1);
      const __m512d va2 = _mm512_set1_pd(av2);
      const __m512d va3 = _mm512_set1_pd(av3);
      std::size_t j = 0;
      for (; j + 8 <= m; j += 8) {
        __m512d t = _mm512_mul_pd(va0, _mm512_loadu_pd(b0 + j));
        t = _mm512_add_pd(t, _mm512_mul_pd(va1, _mm512_loadu_pd(b1 + j)));
        t = _mm512_add_pd(t, _mm512_mul_pd(va2, _mm512_loadu_pd(b2 + j)));
        t = _mm512_add_pd(t, _mm512_mul_pd(va3, _mm512_loadu_pd(b3 + j)));
        _mm512_storeu_pd(crow + j, _mm512_add_pd(_mm512_loadu_pd(crow + j), t));
      }
      for (; j < m; ++j) {
        crow[j] += av0 * b0[j] + av1 * b1[j] + av2 * b2[j] + av3 * b3[j];
      }
    }
  }
  for (; i < n; ++i) {
    const double* arow = a + i * k;
    const double* brow = b + i * m;
    for (std::size_t p = p0; p < p1; ++p) {
      const double av = arow[p];
      if (av == 0.0) continue;
      double* crow = c + p * m;
      const __m512d va = _mm512_set1_pd(av);
      std::size_t j = 0;
      for (; j + 8 <= m; j += 8) {
        _mm512_storeu_pd(crow + j, _mm512_add_pd(_mm512_loadu_pd(crow + j),
                                                 _mm512_mul_pd(va, _mm512_loadu_pd(brow + j))));
      }
      for (; j < m; ++j) crow[j] += av * brow[j];
    }
  }
}

// Elementwise x86 kernels: single-rounding per scalar op, so vector and
// scalar paths are bit-identical unconditionally.

#define SC_SIMD_EW_AVX2(NAME, VEXPR, SEXPR)                                         \
  __attribute__((target("avx2"))) inline void NAME##_avx2(                          \
      const double* a, const double* b, double* o, std::size_t n) {                 \
    std::size_t i = 0;                                                              \
    for (; i + 4 <= n; i += 4) {                                                    \
      const __m256d va = _mm256_loadu_pd(a + i);                                    \
      const __m256d vb = _mm256_loadu_pd(b + i);                                    \
      _mm256_storeu_pd(o + i, VEXPR);                                               \
    }                                                                               \
    for (; i < n; ++i) o[i] = SEXPR;                                                \
  }

#define SC_SIMD_EW_AVX512(NAME, VEXPR, SEXPR)                                       \
  __attribute__((target("avx512f"))) inline void NAME##_avx512(                     \
      const double* a, const double* b, double* o, std::size_t n) {                 \
    std::size_t i = 0;                                                              \
    for (; i + 8 <= n; i += 8) {                                                    \
      const __m512d va = _mm512_loadu_pd(a + i);                                    \
      const __m512d vb = _mm512_loadu_pd(b + i);                                    \
      _mm512_storeu_pd(o + i, VEXPR);                                               \
    }                                                                               \
    for (; i < n; ++i) o[i] = SEXPR;                                                \
  }

SC_SIMD_EW_AVX2(add, _mm256_add_pd(va, vb), a[i] + b[i])
SC_SIMD_EW_AVX512(add, _mm512_add_pd(va, vb), a[i] + b[i])
SC_SIMD_EW_AVX2(sub, _mm256_sub_pd(va, vb), a[i] - b[i])
SC_SIMD_EW_AVX512(sub, _mm512_sub_pd(va, vb), a[i] - b[i])
SC_SIMD_EW_AVX2(mul, _mm256_mul_pd(va, vb), a[i] * b[i])
SC_SIMD_EW_AVX512(mul, _mm512_mul_pd(va, vb), a[i] * b[i])

#undef SC_SIMD_EW_AVX2
#undef SC_SIMD_EW_AVX512

__attribute__((target("avx2"))) inline void scale_avx2(const double* a, double s,
                                                       double* o, std::size_t n) {
  const __m256d vs = _mm256_set1_pd(s);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_pd(o + i, _mm256_mul_pd(vs, _mm256_loadu_pd(a + i)));
  }
  for (; i < n; ++i) o[i] = s * a[i];
}

__attribute__((target("avx512f"))) inline void scale_avx512(const double* a, double s,
                                                            double* o, std::size_t n) {
  const __m512d vs = _mm512_set1_pd(s);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm512_storeu_pd(o + i, _mm512_mul_pd(vs, _mm512_loadu_pd(a + i)));
  }
  for (; i < n; ++i) o[i] = s * a[i];
}

__attribute__((target("avx2"))) inline void add_scalar_avx2(const double* a, double s,
                                                            double* o, std::size_t n) {
  const __m256d vs = _mm256_set1_pd(s);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_pd(o + i, _mm256_add_pd(_mm256_loadu_pd(a + i), vs));
  }
  for (; i < n; ++i) o[i] = a[i] + s;
}

__attribute__((target("avx512f"))) inline void add_scalar_avx512(const double* a,
                                                                 double s, double* o,
                                                                 std::size_t n) {
  const __m512d vs = _mm512_set1_pd(s);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm512_storeu_pd(o + i, _mm512_add_pd(_mm512_loadu_pd(a + i), vs));
  }
  for (; i < n; ++i) o[i] = a[i] + s;
}

__attribute__((target("avx2"))) inline void accumulate_avx2(double* dst,
                                                            const double* src,
                                                            std::size_t n) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_pd(dst + i,
                     _mm256_add_pd(_mm256_loadu_pd(dst + i), _mm256_loadu_pd(src + i)));
  }
  for (; i < n; ++i) dst[i] += src[i];
}

__attribute__((target("avx512f"))) inline void accumulate_avx512(double* dst,
                                                                 const double* src,
                                                                 std::size_t n) {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm512_storeu_pd(dst + i,
                     _mm512_add_pd(_mm512_loadu_pd(dst + i), _mm512_loadu_pd(src + i)));
  }
  for (; i < n; ++i) dst[i] += src[i];
}

__attribute__((target("avx2"))) inline void accumulate_neg_avx2(double* dst,
                                                                const double* src,
                                                                std::size_t n) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_pd(dst + i,
                     _mm256_sub_pd(_mm256_loadu_pd(dst + i), _mm256_loadu_pd(src + i)));
  }
  for (; i < n; ++i) dst[i] -= src[i];
}

__attribute__((target("avx512f"))) inline void accumulate_neg_avx512(double* dst,
                                                                     const double* src,
                                                                     std::size_t n) {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm512_storeu_pd(dst + i,
                     _mm512_sub_pd(_mm512_loadu_pd(dst + i), _mm512_loadu_pd(src + i)));
  }
  for (; i < n; ++i) dst[i] -= src[i];
}

__attribute__((target("avx2"))) inline void accumulate_scaled_avx2(double* dst,
                                                                   const double* src,
                                                                   double s,
                                                                   std::size_t n) {
  const __m256d vs = _mm256_set1_pd(s);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_pd(dst + i, _mm256_add_pd(_mm256_loadu_pd(dst + i),
                                            _mm256_mul_pd(vs, _mm256_loadu_pd(src + i))));
  }
  for (; i < n; ++i) dst[i] += s * src[i];
}

__attribute__((target("avx512f"))) inline void accumulate_scaled_avx512(
    double* dst, const double* src, double s, std::size_t n) {
  const __m512d vs = _mm512_set1_pd(s);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm512_storeu_pd(dst + i, _mm512_add_pd(_mm512_loadu_pd(dst + i),
                                            _mm512_mul_pd(vs, _mm512_loadu_pd(src + i))));
  }
  for (; i < n; ++i) dst[i] += s * src[i];
}

__attribute__((target("avx2"))) inline void accumulate_mul_avx2(double* dst,
                                                                const double* a,
                                                                const double* b,
                                                                std::size_t n) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_pd(dst + i,
                     _mm256_add_pd(_mm256_loadu_pd(dst + i),
                                   _mm256_mul_pd(_mm256_loadu_pd(a + i),
                                                 _mm256_loadu_pd(b + i))));
  }
  for (; i < n; ++i) dst[i] += a[i] * b[i];
}

__attribute__((target("avx512f"))) inline void accumulate_mul_avx512(double* dst,
                                                                     const double* a,
                                                                     const double* b,
                                                                     std::size_t n) {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm512_storeu_pd(dst + i,
                     _mm512_add_pd(_mm512_loadu_pd(dst + i),
                                   _mm512_mul_pd(_mm512_loadu_pd(a + i),
                                                 _mm512_loadu_pd(b + i))));
  }
  for (; i < n; ++i) dst[i] += a[i] * b[i];
}

// tanh lanes: tanh_scalar's op sequence, one element per lane. Both branches
// are evaluated on min(|x|, 22) and blended on |x| < 0.3 (the clamp leaves
// the small branch's inputs untouched); NaN lanes are restored from x last.
// The 2^k bit trick and the sign restore are integer/bitwise and cannot round.

__attribute__((target("avx2"))) inline __m256d tanh_lanes_avx2(__m256d x) {
  const __m256d sign = _mm256_set1_pd(-0.0);
  const __m256d ax = _mm256_andnot_pd(sign, x);
  const __m256d a = _mm256_min_pd(ax, _mm256_set1_pd(kTanhClamp));

  const __m256d s = _mm256_mul_pd(a, a);
  __m256d sq = _mm256_set1_pd(kTanhCoef[kTanhTerms - 1]);
  for (int j = kTanhTerms - 2; j >= 0; --j) {
    sq = _mm256_add_pd(_mm256_set1_pd(kTanhCoef[j]), _mm256_mul_pd(s, sq));
  }
  const __m256d small = _mm256_add_pd(a, _mm256_mul_pd(a, _mm256_mul_pd(s, sq)));

  const __m256d y = _mm256_add_pd(a, a);
  const __m256d shift = _mm256_set1_pd(kRoundShift);
  const __m256d kd = _mm256_add_pd(_mm256_mul_pd(y, _mm256_set1_pd(kInvLn2)), shift);
  const __m256i kbits =
      _mm256_sub_epi64(_mm256_castpd_si256(kd), _mm256_castpd_si256(shift));
  const __m256d two_k = _mm256_castsi256_pd(
      _mm256_slli_epi64(_mm256_add_epi64(kbits, _mm256_set1_epi64x(1023)), 52));
  const __m256d kf = _mm256_sub_pd(kd, shift);
  const __m256d r =
      _mm256_sub_pd(_mm256_sub_pd(y, _mm256_mul_pd(kf, _mm256_set1_pd(kLn2Hi))),
                    _mm256_mul_pd(kf, _mm256_set1_pd(kLn2Lo)));
  __m256d q = _mm256_set1_pd(kExpm1Coef[kExpm1Terms - 1]);
  for (int j = kExpm1Terms - 2; j >= 0; --j) {
    q = _mm256_add_pd(_mm256_set1_pd(kExpm1Coef[j]), _mm256_mul_pd(r, q));
  }
  const __m256d p = _mm256_add_pd(r, _mm256_mul_pd(_mm256_mul_pd(r, r), q));
  const __m256d e =
      _mm256_add_pd(_mm256_mul_pd(two_k, p), _mm256_sub_pd(two_k, _mm256_set1_pd(1.0)));
  const __m256d large = _mm256_div_pd(e, _mm256_add_pd(e, _mm256_set1_pd(2.0)));

  const __m256d is_small = _mm256_cmp_pd(ax, _mm256_set1_pd(kTanhSmall), _CMP_LT_OQ);
  const __m256d t = _mm256_blendv_pd(large, small, is_small);
  const __m256d signed_t = _mm256_or_pd(t, _mm256_and_pd(sign, x));
  return _mm256_blendv_pd(signed_t, x, _mm256_cmp_pd(x, x, _CMP_UNORD_Q));
}

__attribute__((target("avx2"))) inline void tanh_avx2(const double* in, double* out,
                                                      std::size_t n) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_pd(out + i, tanh_lanes_avx2(_mm256_loadu_pd(in + i)));
  }
  for (; i < n; ++i) out[i] = tanh_scalar(in[i]);
}

__attribute__((target("avx512f"))) inline __m512d tanh_lanes_avx512(__m512d x) {
  // Unmasked _mm512_andnot_si512/_mm512_min_pd/_mm512_slli_epi64 trip GCC
  // 12's -Wmaybe-uninitialized inside the intrinsic headers, hence the and,
  // compare+blend and maskz forms.
  const __m512i sign = _mm512_set1_epi64(static_cast<long long>(0x8000000000000000ULL));
  const __m512i xi = _mm512_castpd_si512(x);
  const __m512d ax =
      _mm512_castsi512_pd(_mm512_and_si512(_mm512_set1_epi64(0x7FFFFFFFFFFFFFFFLL), xi));
  const __m512d clamp = _mm512_set1_pd(kTanhClamp);
  const __m512d a =
      _mm512_mask_blend_pd(_mm512_cmp_pd_mask(ax, clamp, _CMP_LT_OQ), clamp, ax);

  const __m512d s = _mm512_mul_pd(a, a);
  __m512d sq = _mm512_set1_pd(kTanhCoef[kTanhTerms - 1]);
  for (int j = kTanhTerms - 2; j >= 0; --j) {
    sq = _mm512_add_pd(_mm512_set1_pd(kTanhCoef[j]), _mm512_mul_pd(s, sq));
  }
  const __m512d small = _mm512_add_pd(a, _mm512_mul_pd(a, _mm512_mul_pd(s, sq)));

  const __m512d y = _mm512_add_pd(a, a);
  const __m512d shift = _mm512_set1_pd(kRoundShift);
  const __m512d kd = _mm512_add_pd(_mm512_mul_pd(y, _mm512_set1_pd(kInvLn2)), shift);
  const __m512i kbits =
      _mm512_sub_epi64(_mm512_castpd_si512(kd), _mm512_castpd_si512(shift));
  const __m512d two_k = _mm512_castsi512_pd(
      _mm512_maskz_slli_epi64(0xFF, _mm512_add_epi64(kbits, _mm512_set1_epi64(1023)), 52));
  const __m512d kf = _mm512_sub_pd(kd, shift);
  const __m512d r =
      _mm512_sub_pd(_mm512_sub_pd(y, _mm512_mul_pd(kf, _mm512_set1_pd(kLn2Hi))),
                    _mm512_mul_pd(kf, _mm512_set1_pd(kLn2Lo)));
  __m512d q = _mm512_set1_pd(kExpm1Coef[kExpm1Terms - 1]);
  for (int j = kExpm1Terms - 2; j >= 0; --j) {
    q = _mm512_add_pd(_mm512_set1_pd(kExpm1Coef[j]), _mm512_mul_pd(r, q));
  }
  const __m512d p = _mm512_add_pd(r, _mm512_mul_pd(_mm512_mul_pd(r, r), q));
  const __m512d e =
      _mm512_add_pd(_mm512_mul_pd(two_k, p), _mm512_sub_pd(two_k, _mm512_set1_pd(1.0)));
  const __m512d large = _mm512_div_pd(e, _mm512_add_pd(e, _mm512_set1_pd(2.0)));

  const __mmask8 is_small = _mm512_cmp_pd_mask(ax, _mm512_set1_pd(kTanhSmall), _CMP_LT_OQ);
  const __m512d t = _mm512_mask_blend_pd(is_small, large, small);
  const __m512d signed_t = _mm512_castsi512_pd(
      _mm512_or_si512(_mm512_castpd_si512(t), _mm512_and_si512(sign, xi)));
  return _mm512_mask_blend_pd(_mm512_cmp_pd_mask(x, x, _CMP_UNORD_Q), signed_t, x);
}

__attribute__((target("avx512f"))) inline void tanh_avx512(const double* in, double* out,
                                                           std::size_t n) {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm512_storeu_pd(out + i, tanh_lanes_avx512(_mm512_loadu_pd(in + i)));
  }
  if (i < n) {
    const __mmask8 tail = static_cast<__mmask8>((1u << (n - i)) - 1u);
    _mm512_mask_storeu_pd(out + i, tail,
                          tanh_lanes_avx512(_mm512_maskz_loadu_pd(tail, in + i)));
  }
}

#pragma GCC pop_options

#endif  // SC_SIMD_X86

#if defined(SC_SIMD_NEON)

// NEON (aarch64, 2-wide doubles). Same determinism contract: mul+add split
// (no vfmaq), ascending accumulation, scalar tails with identical ops —
// and the same fp-contract barrier, since vmulq/vaddq pairs contract into
// vfmaq just as readily.
#pragma GCC push_options
#pragma GCC optimize("fp-contract=off")

inline void gemm_nn_rows_neon(const double* a, const double* b, double* c,
                              std::size_t i0, std::size_t i1, std::size_t k,
                              std::size_t m) {
  std::size_t i = i0;
  for (; i + 4 <= i1; i += 4) {
    const double* a0 = a + i * k;
    const double* a1 = a0 + k;
    const double* a2 = a1 + k;
    const double* a3 = a2 + k;
    double* c0 = c + i * m;
    double* c1 = c0 + m;
    double* c2 = c1 + m;
    double* c3 = c2 + m;
    for (std::size_t p = 0; p < k; ++p) {
      const double av0 = a0[p], av1 = a1[p], av2 = a2[p], av3 = a3[p];
      if (av0 == 0.0 && av1 == 0.0 && av2 == 0.0 && av3 == 0.0) continue;
      const double* brow = b + p * m;
      const float64x2_t va0 = vdupq_n_f64(av0);
      const float64x2_t va1 = vdupq_n_f64(av1);
      const float64x2_t va2 = vdupq_n_f64(av2);
      const float64x2_t va3 = vdupq_n_f64(av3);
      std::size_t j = 0;
      for (; j + 2 <= m; j += 2) {
        const float64x2_t vb = vld1q_f64(brow + j);
        vst1q_f64(c0 + j, vaddq_f64(vld1q_f64(c0 + j), vmulq_f64(va0, vb)));
        vst1q_f64(c1 + j, vaddq_f64(vld1q_f64(c1 + j), vmulq_f64(va1, vb)));
        vst1q_f64(c2 + j, vaddq_f64(vld1q_f64(c2 + j), vmulq_f64(va2, vb)));
        vst1q_f64(c3 + j, vaddq_f64(vld1q_f64(c3 + j), vmulq_f64(va3, vb)));
      }
      for (; j < m; ++j) {
        const double bv = brow[j];
        c0[j] += av0 * bv;
        c1[j] += av1 * bv;
        c2[j] += av2 * bv;
        c3[j] += av3 * bv;
      }
    }
  }
  for (; i < i1; ++i) {
    double* crow = c + i * m;
    for (std::size_t p = 0; p < k; ++p) {
      const double av = a[i * k + p];
      if (av == 0.0) continue;
      const double* brow = b + p * m;
      const float64x2_t va = vdupq_n_f64(av);
      std::size_t j = 0;
      for (; j + 2 <= m; j += 2) {
        vst1q_f64(crow + j, vaddq_f64(vld1q_f64(crow + j), vmulq_f64(va, vld1q_f64(brow + j))));
      }
      for (; j < m; ++j) crow[j] += av * brow[j];
    }
  }
}

inline void add_neon(const double* a, const double* b, double* o, std::size_t n) {
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) vst1q_f64(o + i, vaddq_f64(vld1q_f64(a + i), vld1q_f64(b + i)));
  for (; i < n; ++i) o[i] = a[i] + b[i];
}

inline void sub_neon(const double* a, const double* b, double* o, std::size_t n) {
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) vst1q_f64(o + i, vsubq_f64(vld1q_f64(a + i), vld1q_f64(b + i)));
  for (; i < n; ++i) o[i] = a[i] - b[i];
}

inline void mul_neon(const double* a, const double* b, double* o, std::size_t n) {
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) vst1q_f64(o + i, vmulq_f64(vld1q_f64(a + i), vld1q_f64(b + i)));
  for (; i < n; ++i) o[i] = a[i] * b[i];
}

inline void accumulate_neon(double* dst, const double* src, std::size_t n) {
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    vst1q_f64(dst + i, vaddq_f64(vld1q_f64(dst + i), vld1q_f64(src + i)));
  }
  for (; i < n; ++i) dst[i] += src[i];
}

#pragma GCC pop_options

#endif  // SC_SIMD_NEON

}  // namespace detail

// ---- Dispatched entry points ------------------------------------------------
// Each takes the tier explicitly (callers read it once per op, so one op never
// mixes tiers even if set_tier races). Tiers the build does not include fall
// through to the scalar reference.

inline void gemm_nn_rows(Tier tier, const double* a, const double* b, double* c,
                         std::size_t i0, std::size_t i1, std::size_t k,
                         std::size_t m) {
#if defined(SC_SIMD_X86)
  if (tier == Tier::Avx512) return detail::gemm_nn_rows_avx512(a, b, c, i0, i1, k, m);
  if (tier == Tier::Avx2) return detail::gemm_nn_rows_avx2(a, b, c, i0, i1, k, m);
#elif defined(SC_SIMD_NEON)
  if (tier == Tier::Neon) return detail::gemm_nn_rows_neon(a, b, c, i0, i1, k, m);
#endif
  (void)tier;
  detail::gemm_nn_rows_scalar(a, b, c, i0, i1, k, m);
}

/// `bt` must point to at least `m * detail::kNtTile` doubles of scratch for
/// the packed B tile (ignored by the scalar tier).
inline void gemm_nt_rows(Tier tier, const double* a, const double* b, double* c,
                         double* bt, std::size_t i0, std::size_t i1, std::size_t m,
                         std::size_t k) {
#if defined(SC_SIMD_X86)
  if (tier == Tier::Avx512) return detail::gemm_nt_rows_avx512(a, b, c, bt, i0, i1, m, k);
  if (tier == Tier::Avx2) return detail::gemm_nt_rows_avx2(a, b, c, bt, i0, i1, m, k);
#endif
  (void)tier;
  (void)bt;
  detail::gemm_nt_rows_scalar(a, b, c, i0, i1, m, k);
}

inline void gemm_tn_cols(Tier tier, const double* a, const double* b, double* c,
                         std::size_t p0, std::size_t p1, std::size_t n,
                         std::size_t k, std::size_t m) {
#if defined(SC_SIMD_X86)
  if (tier == Tier::Avx512) return detail::gemm_tn_cols_avx512(a, b, c, p0, p1, n, k, m);
  if (tier == Tier::Avx2) return detail::gemm_tn_cols_avx2(a, b, c, p0, p1, n, k, m);
#endif
  (void)tier;
  detail::gemm_tn_cols_scalar(a, b, c, p0, p1, n, k, m);
}

inline void add(Tier tier, const double* a, const double* b, double* o, std::size_t n) {
#if defined(SC_SIMD_X86)
  if (tier == Tier::Avx512) return detail::add_avx512(a, b, o, n);
  if (tier == Tier::Avx2) return detail::add_avx2(a, b, o, n);
#elif defined(SC_SIMD_NEON)
  if (tier == Tier::Neon) return detail::add_neon(a, b, o, n);
#endif
  (void)tier;
  for (std::size_t i = 0; i < n; ++i) o[i] = a[i] + b[i];
}

inline void sub(Tier tier, const double* a, const double* b, double* o, std::size_t n) {
#if defined(SC_SIMD_X86)
  if (tier == Tier::Avx512) return detail::sub_avx512(a, b, o, n);
  if (tier == Tier::Avx2) return detail::sub_avx2(a, b, o, n);
#elif defined(SC_SIMD_NEON)
  if (tier == Tier::Neon) return detail::sub_neon(a, b, o, n);
#endif
  (void)tier;
  for (std::size_t i = 0; i < n; ++i) o[i] = a[i] - b[i];
}

inline void mul(Tier tier, const double* a, const double* b, double* o, std::size_t n) {
#if defined(SC_SIMD_X86)
  if (tier == Tier::Avx512) return detail::mul_avx512(a, b, o, n);
  if (tier == Tier::Avx2) return detail::mul_avx2(a, b, o, n);
#elif defined(SC_SIMD_NEON)
  if (tier == Tier::Neon) return detail::mul_neon(a, b, o, n);
#endif
  (void)tier;
  for (std::size_t i = 0; i < n; ++i) o[i] = a[i] * b[i];
}

inline void scale(Tier tier, const double* a, double s, double* o, std::size_t n) {
#if defined(SC_SIMD_X86)
  if (tier == Tier::Avx512) return detail::scale_avx512(a, s, o, n);
  if (tier == Tier::Avx2) return detail::scale_avx2(a, s, o, n);
#endif
  (void)tier;
  for (std::size_t i = 0; i < n; ++i) o[i] = s * a[i];
}

inline void add_scalar(Tier tier, const double* a, double s, double* o, std::size_t n) {
#if defined(SC_SIMD_X86)
  if (tier == Tier::Avx512) return detail::add_scalar_avx512(a, s, o, n);
  if (tier == Tier::Avx2) return detail::add_scalar_avx2(a, s, o, n);
#endif
  (void)tier;
  for (std::size_t i = 0; i < n; ++i) o[i] = a[i] + s;
}

/// dst[i] += src[i]
inline void accumulate(Tier tier, double* dst, const double* src, std::size_t n) {
#if defined(SC_SIMD_X86)
  if (tier == Tier::Avx512) return detail::accumulate_avx512(dst, src, n);
  if (tier == Tier::Avx2) return detail::accumulate_avx2(dst, src, n);
#elif defined(SC_SIMD_NEON)
  if (tier == Tier::Neon) return detail::accumulate_neon(dst, src, n);
#endif
  (void)tier;
  for (std::size_t i = 0; i < n; ++i) dst[i] += src[i];
}

/// dst[i] -= src[i]
inline void accumulate_neg(Tier tier, double* dst, const double* src, std::size_t n) {
#if defined(SC_SIMD_X86)
  if (tier == Tier::Avx512) return detail::accumulate_neg_avx512(dst, src, n);
  if (tier == Tier::Avx2) return detail::accumulate_neg_avx2(dst, src, n);
#endif
  (void)tier;
  for (std::size_t i = 0; i < n; ++i) dst[i] -= src[i];
}

/// dst[i] += s * src[i] (mul then add — never contracted to FMA)
inline void accumulate_scaled(Tier tier, double* dst, const double* src, double s,
                              std::size_t n) {
#if defined(SC_SIMD_X86)
  if (tier == Tier::Avx512) return detail::accumulate_scaled_avx512(dst, src, s, n);
  if (tier == Tier::Avx2) return detail::accumulate_scaled_avx2(dst, src, s, n);
#endif
  (void)tier;
  for (std::size_t i = 0; i < n; ++i) dst[i] += s * src[i];
}

/// dst[i] += a[i] * b[i] (mul then add — never contracted to FMA)
inline void accumulate_mul(Tier tier, double* dst, const double* a, const double* b,
                           std::size_t n) {
#if defined(SC_SIMD_X86)
  if (tier == Tier::Avx512) return detail::accumulate_mul_avx512(dst, a, b, n);
  if (tier == Tier::Avx2) return detail::accumulate_mul_avx2(dst, a, b, n);
#endif
  (void)tier;
  for (std::size_t i = 0; i < n; ++i) dst[i] += a[i] * b[i];
}

/// out[i] = tanh(in[i]); `out` may alias `in`. Every tier is bitwise equal to
/// detail::tanh_scalar; NEON runs that scalar reference.
inline void tanh(Tier tier, const double* in, double* out, std::size_t n) {
#if defined(SC_SIMD_X86)
  if (tier == Tier::Avx512) return detail::tanh_avx512(in, out, n);
  if (tier == Tier::Avx2) return detail::tanh_avx2(in, out, n);
#endif
  (void)tier;
  for (std::size_t i = 0; i < n; ++i) out[i] = detail::tanh_scalar(in[i]);
}

/// Scratch size gemm_nt_rows needs for its packed tile.
inline std::size_t gemm_nt_scratch_doubles(std::size_t m) {
  return m * detail::kNtTile;
}

}  // namespace sc::nn::simd
