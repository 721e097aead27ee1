#pragma once

#include <cmath>
#include <cstddef>
#include <cstdint>

#include "nn/kernel_backend.h"  // kQuantTile / quant_packed_index layout

/// Internal declarations of the per-backend kernel implementations. Each
/// backend lives in its own translation unit (nn/kernel_<backend>.cpp)
/// compiled with exactly the ISA flags it needs plus -ffp-contract=off, so
/// no mul+add can fuse into FMA and change rounding. Only the registry
/// (nn/kernel_backend.cpp) and the dispatchers (nn/matrix.cpp) include this
/// header; everything else goes through kernel_backend.h.
namespace imap::nn::kernel::detail {

// --- shared elementwise serving math ---------------------------------------
// Inlined into every backend's quant_act (vector bodies replicate the exact
// op DAG with intrinsics; scalar tails call these directly). Each operation
// is a single IEEE rounding, so any evaluation — scalar, SSE epilogue, AVX
// lane — of the same input is bitwise identical.

/// Branchless rational tanh for the int8 serving path: the Padé(7,6)
/// approximant x·(135135 + 17325x² + 378x⁴ + x⁶) / (135135 + 62370x² +
/// 3150x⁴ + 28x⁶) with the input clamped to [-5, 5]. Max absolute error
/// ≈ 1.1e-4 over the real line — two orders of magnitude inside
/// kQuantActionTolerance and on par with the int8 quantization noise, at a
/// tenth of the libm cost.
inline float quant_fast_tanh(float x) {
  x = x < -5.0f ? -5.0f : x;
  x = x > 5.0f ? 5.0f : x;
  const float x2 = x * x;
  const float p = x * (135135.0f + x2 * (17325.0f + x2 * (378.0f + x2)));
  const float q = 135135.0f + x2 * (62370.0f + x2 * (3150.0f + 28.0f * x2));
  return p / q;
}

/// Round-to-nearest-even int8 code of `v` (already scaled into ±127 plus
/// rounding slack), clamped. Matches _mm*_cvtps_epi32 under the default
/// MXCSR/FPCR rounding mode.
inline std::int16_t quant_code(float v) {
  long code = std::lrintf(v);
  code = code < -127 ? -127 : code;
  code = code > 127 ? 127 : code;
  return static_cast<std::int16_t>(code);
}

// --- scalar reference (always compiled) ------------------------------------
void scalar_batch_affine(const double* w, const double* wt, const double* b,
                         std::size_t out, std::size_t in, const double* x,
                         std::size_t batch, double* y);
void scalar_batch_matvec_t(const double* w, std::size_t out, std::size_t in,
                           const double* g, std::size_t batch, double* gin);
void scalar_batch_outer_acc(const double* g, const double* x,
                            std::size_t batch, std::size_t out, std::size_t in,
                            double* dw, double* db);
void scalar_quant_affine(const std::int16_t* wq_packed, const float* row_scale,
                         const float* bias, std::size_t out,
                         std::size_t in_pairs, const std::int16_t* xq,
                         const float* xscale, std::size_t batch, float* y);
void scalar_quant_act(float* h, std::size_t batch, std::size_t width,
                      std::size_t out_pairs, std::int16_t* qx, float* qscale);
void scalar_knn_scan(const double* data, std::size_t stride, std::size_t rows,
                     std::size_t dim, const double* queries, std::size_t nq,
                     std::size_t k, double* best);

// --- avx2 (x86-64; TU compiled with -mavx2 -mno-fma) -----------------------
#ifdef IMAP_KERNEL_AVX2
void avx2_batch_affine(const double* w, const double* wt, const double* b,
                       std::size_t out, std::size_t in, const double* x,
                       std::size_t batch, double* y);
void avx2_batch_matvec_t(const double* w, std::size_t out, std::size_t in,
                         const double* g, std::size_t batch, double* gin);
void avx2_batch_outer_acc(const double* g, const double* x, std::size_t batch,
                          std::size_t out, std::size_t in, double* dw,
                          double* db);
void avx2_quant_affine(const std::int16_t* wq_packed, const float* row_scale,
                       const float* bias, std::size_t out,
                       std::size_t in_pairs, const std::int16_t* xq,
                       const float* xscale, std::size_t batch, float* y);
void avx2_quant_act(float* h, std::size_t batch, std::size_t width,
                    std::size_t out_pairs, std::int16_t* qx, float* qscale);
void avx2_knn_scan(const double* data, std::size_t stride, std::size_t rows,
                   std::size_t dim, const double* queries, std::size_t nq,
                   std::size_t k, double* best);
#endif

// --- avx512 (x86-64; TU compiled with -mavx512f -mavx512bw) ----------------
#ifdef IMAP_KERNEL_AVX512
void avx512_batch_affine(const double* w, const double* wt, const double* b,
                         std::size_t out, std::size_t in, const double* x,
                         std::size_t batch, double* y);
void avx512_batch_matvec_t(const double* w, std::size_t out, std::size_t in,
                           const double* g, std::size_t batch, double* gin);
void avx512_batch_outer_acc(const double* g, const double* x,
                            std::size_t batch, std::size_t out, std::size_t in,
                            double* dw, double* db);
void avx512_quant_affine(const std::int16_t* wq_packed, const float* row_scale,
                         const float* bias, std::size_t out,
                         std::size_t in_pairs, const std::int16_t* xq,
                         const float* xscale, std::size_t batch, float* y);
void avx512_quant_act(float* h, std::size_t batch, std::size_t width,
                      std::size_t out_pairs, std::int16_t* qx, float* qscale);
void avx512_knn_scan(const double* data, std::size_t stride, std::size_t rows,
                     std::size_t dim, const double* queries, std::size_t nq,
                     std::size_t k, double* best);
#endif

}  // namespace imap::nn::kernel::detail
