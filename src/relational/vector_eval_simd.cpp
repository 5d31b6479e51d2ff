// AVX2 specializations of the hot compare kernels. This TU is the only
// one compiled with -mavx2 (see src/relational/CMakeLists.txt); the rest
// of the library stays at the baseline ISA and picks these up through the
// runtime-dispatched cmp_kernels() table, so the same binary runs on
// pre-AVX2 hardware. -DGEMS_DISABLE_SIMD drops the TU entirely and the
// dispatcher keeps the scalar table.
//
// Semantics contract (property-tested against the row oracle): identical
// bit output to cmp_lanes_scalar, including double NaN lanes — cmp3
// treats an unordered pair as "equal", hence the _UQ/_OQ predicate picks
// below (EQ_UQ accepts unordered, NEQ_OQ rejects it, etc.).
#include "relational/vector_eval.hpp"

#if defined(__AVX2__)

#include <immintrin.h>

namespace gems::relational {

namespace {

// ---- 4-lane comparison blocks → 4-bit masks ------------------------------

template <int Op>
inline std::uint32_t mask4_i64(const std::int64_t* a,
                               const std::int64_t* b) noexcept {
  const __m256i va = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a));
  const __m256i vb = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b));
  __m256i m;
  bool invert = false;
  if constexpr (Op == 0) {  // ==
    m = _mm256_cmpeq_epi64(va, vb);
  } else if constexpr (Op == 1) {  // !=
    m = _mm256_cmpeq_epi64(va, vb);
    invert = true;
  } else if constexpr (Op == 2) {  // <
    m = _mm256_cmpgt_epi64(vb, va);
  } else if constexpr (Op == 3) {  // <=  (= !(a > b))
    m = _mm256_cmpgt_epi64(va, vb);
    invert = true;
  } else if constexpr (Op == 4) {  // >
    m = _mm256_cmpgt_epi64(va, vb);
  } else {  // >=  (= !(a < b))
    m = _mm256_cmpgt_epi64(vb, va);
    invert = true;
  }
  const std::uint32_t bits = static_cast<std::uint32_t>(
      _mm256_movemask_pd(_mm256_castsi256_pd(m)));
  return invert ? bits ^ 0xFu : bits;
}

template <int Op>
inline std::uint32_t mask4_f64(const double* a, const double* b) noexcept {
  const __m256d va = _mm256_loadu_pd(a);
  const __m256d vb = _mm256_loadu_pd(b);
  __m256d m;
  if constexpr (Op == 0) {  // cmp3 == 0: equal OR unordered (NaN lanes pass)
    m = _mm256_cmp_pd(va, vb, _CMP_EQ_UQ);
  } else if constexpr (Op == 1) {  // cmp3 != 0: ordered and not equal
    m = _mm256_cmp_pd(va, vb, _CMP_NEQ_OQ);
  } else if constexpr (Op == 2) {  // cmp3 < 0: ordered less
    m = _mm256_cmp_pd(va, vb, _CMP_LT_OQ);
  } else if constexpr (Op == 3) {  // cmp3 <= 0: not greater (NaN passes)
    m = _mm256_cmp_pd(va, vb, _CMP_NGT_US);
  } else if constexpr (Op == 4) {  // cmp3 > 0: ordered greater
    m = _mm256_cmp_pd(va, vb, _CMP_GT_OQ);
  } else {  // cmp3 >= 0: not less (NaN passes)
    m = _mm256_cmp_pd(va, vb, _CMP_NLT_US);
  }
  return static_cast<std::uint32_t>(_mm256_movemask_pd(m));
}

// ---- Scalar tails (same formulas as the portable kernels) ----------------

template <typename T, int Op>
inline bool tail_pred(T x, T y) noexcept {
  if constexpr (Op == 0) {
    return !(x < y) && !(y < x);
  } else if constexpr (Op == 1) {
    return (x < y) || (y < x);
  } else if constexpr (Op == 2) {
    return x < y;
  } else if constexpr (Op == 3) {
    return !(y < x);
  } else if constexpr (Op == 4) {
    return y < x;
  } else {
    return !(x < y);
  }
}

// ---- Word assembly driver ------------------------------------------------

template <typename T, int Op, std::uint32_t (*Mask4)(const T*, const T*)>
void cmp_lanes_avx2(const T* a, const T* b, std::size_t n,
                    std::uint64_t* out) {
  std::size_t i = 0;
  std::size_t w = 0;
  const std::size_t full = (n / 64) * 64;
  for (; i < full; i += 64, ++w) {
    std::uint64_t word = 0;
    for (std::size_t k = 0; k < 64; k += 4) {
      word |= static_cast<std::uint64_t>(Mask4(a + i + k, b + i + k)) << k;
    }
    out[w] = word;
  }
  if (i < n) {
    std::uint64_t word = 0;
    std::size_t k = 0;
    for (; i + k + 4 <= n; k += 4) {
      word |= static_cast<std::uint64_t>(Mask4(a + i + k, b + i + k)) << k;
    }
    for (; i + k < n; ++k) {
      word |= static_cast<std::uint64_t>(
                  tail_pred<T, Op>(a[i + k], b[i + k]) ? 1 : 0)
              << k;
    }
    out[w] = word;
  }
}

template <int Op>
void cmp_i64_avx2(const std::int64_t* a, const std::int64_t* b, std::size_t n,
                  std::uint64_t* out) {
  cmp_lanes_avx2<std::int64_t, Op, mask4_i64<Op>>(a, b, n, out);
}

template <int Op>
void cmp_f64_avx2(const double* a, const double* b, std::size_t n,
                  std::uint64_t* out) {
  cmp_lanes_avx2<double, Op, mask4_f64<Op>>(a, b, n, out);
}

constexpr CmpKernels kAvx2Kernels = {
    {cmp_i64_avx2<0>, cmp_i64_avx2<1>, cmp_i64_avx2<2>, cmp_i64_avx2<3>,
     cmp_i64_avx2<4>, cmp_i64_avx2<5>},
    {cmp_f64_avx2<0>, cmp_f64_avx2<1>, cmp_f64_avx2<2>, cmp_f64_avx2<3>,
     cmp_f64_avx2<4>, cmp_f64_avx2<5>},
};

}  // namespace

const CmpKernels& avx2_cmp_kernels() noexcept { return kAvx2Kernels; }

}  // namespace gems::relational

#endif  // defined(__AVX2__)
