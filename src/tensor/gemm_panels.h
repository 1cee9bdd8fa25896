// Shared packed-panel GEMM machinery — the cache-tiling skeleton every
// register-blocked backend (blocked, simd) instantiates.
//
// The driver and the packing routines are templated over a Traits type so
// each backend picks its own register-tile geometry while reusing one
// panel walk:
//
//   struct Traits {
//     static constexpr std::size_t kMr;  // micro-tile rows
//     static constexpr std::size_t kNr;  // micro-tile cols
//     static constexpr std::size_t kKc;  // k panel depth
//     static constexpr std::size_t kMc;  // row block per packed A panel
//     static constexpr std::size_t kNc;  // col panel width
//     // One kMr x kNr output tile accumulated over a packed k panel:
//     // must seed the accumulators from C (zero on the fringe past
//     // rows/cols), reduce the panel in ascending k order, apply `epi`
//     // when non-null (the driver passes it only on the last k panel) and
//     // write back clipped to rows x cols.
//     static void tile(const float* ap, const float* bp, std::size_t kc,
//                      float* c, std::size_t ldc, std::size_t rows,
//                      std::size_t cols, const Epilogue* epi,
//                      std::size_t row0, std::size_t col0);
//   };
//
// Because the packed layout is a pure function of (kMr, kNr, kKc, kMc,
// kNc), two backends sharing the same constants produce interchangeable
// panels; differing constants are caught by PackedWeights::owner.
//
// Numerical contract (inherited by every instantiation): each output
// element is ONE sequential reduction chain in ascending k order — the
// driver seeds tiles from C and visits k panels in order — so results are
// independent of m, n, tile position, work split and thread count. Whether two
// backends agree bitwise is then decided solely by their tile() arithmetic
// (the blocked tile's separate mul+add vs the simd tile's FMA).
#pragma once

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/fan_out.h"
#include "tensor/backend.h"

namespace orco::tensor::detail {

/// Whether an (m x k) · (k x n) GEMM issued on this thread spreads its
/// work units over common::FanOut::global(): parallelism is on process-wide
/// and on this thread (set_gemm_parallelism /
/// set_thread_gemm_parallelism), the process has helper threads, and the
/// GEMM has at least the fan-out floor of multiply-accumulates. Defined in
/// backend.cpp.
bool gemm_fans_out(std::size_t m, std::size_t n, std::size_t k);

// ORCO_HOT_PATH BEGIN (GEMM dispatch: the unit callable is passed by
// reference as a function pointer plus context, never type-erased)
/// Runs unit(0) .. unit(units - 1): over the process fan-out when
/// `fan_out`, else inline in ascending order, occupying the caller's core
/// either way so that no other GEMM's helpers take it. Units write
/// disjoint outputs.
template <class F>
void run_units(bool fan_out, std::size_t units, F& unit) {
  common::FanOut& fan = common::FanOut::global();
  if (fan_out) {
    fan.run(units, unit);
  } else {
    fan.run_here(units, unit);
  }
}
// ORCO_HOT_PATH END

constexpr std::size_t round_up(std::size_t v, std::size_t t) {
  return (v + t - 1) / t * t;
}

/// Epilogue activation — must mirror nn/activations.h exactly: fusing an
/// activation into the GEMM epilogue may not change a single value versus
/// the standalone layer.
inline float apply_act(float v, EpilogueAct act, float alpha) {
  switch (act) {
    case EpilogueAct::kNone:      return v;
    case EpilogueAct::kReLU:      return v > 0.0f ? v : 0.0f;
    case EpilogueAct::kLeakyReLU: return v > 0.0f ? v : alpha * v;
    case EpilogueAct::kSigmoid:   return 1.0f / (1.0f + std::exp(-v));
    case EpilogueAct::kTanh:      return std::tanh(v);
  }
  return v;
}

/// The left GEMM operand, in one of three storages:
///   * f32 row-major (m x k), or its transpose source (k x m) when `trans`;
///   * int8 codes (m x k, lda == k) with per-row affine dequantisation
///     x = lo[i] + q * scale[i] applied while packing (the quantized-uplink
///     decode path: codes stream straight from the request payload);
///   * absent (nullptr everywhere) when the driver receives prepacked A.
struct AView {
  const float* f32 = nullptr;
  std::size_t lda = 0;
  bool trans = false;
  const std::uint8_t* q8 = nullptr;  // when set, f32 must be null
  const float* q_lo = nullptr;       // [m] per-row offset
  const float* q_scale = nullptr;    // [m] per-row step
};

/// Packs A[i0:i0+mc, p0:p0+kc] into kMr-interleaved panels: panel ip holds
/// kMr consecutive rows laid out [p][ii], zero-padded past mc. The
/// quantized source dequantises element-wise while packing — same float
/// expression as core::dequantize-into-scratch, so the fused path and the
/// dequantise-then-gemm fallback agree bitwise.
template <std::size_t MR>
void pack_a_panel(const AView& a, std::size_t i0, std::size_t p0,
                  std::size_t mc, std::size_t kc, float* ap) {
  for (std::size_t ip = 0; ip < mc; ip += MR) {
    float* dst = ap + (ip / MR) * (MR * kc);
    for (std::size_t ii = 0; ii < MR; ++ii) {
      const std::size_t i = i0 + ip + ii;
      if (ip + ii < mc) {
        if (a.q8 != nullptr) {
          const std::uint8_t* src = a.q8 + i * a.lda + p0;
          const float lo = a.q_lo[i];
          const float scale = a.q_scale[i];
          for (std::size_t p = 0; p < kc; ++p) {
            dst[p * MR + ii] = lo + static_cast<float>(src[p]) * scale;
          }
        } else if (a.trans) {
          for (std::size_t p = 0; p < kc; ++p) {
            dst[p * MR + ii] = a.f32[(p0 + p) * a.lda + i];
          }
        } else {
          const float* src = a.f32 + i * a.lda + p0;
          for (std::size_t p = 0; p < kc; ++p) dst[p * MR + ii] = src[p];
        }
      } else {
        for (std::size_t p = 0; p < kc; ++p) dst[p * MR + ii] = 0.0f;
      }
    }
  }
}

/// Packs B[p0:p0+kc, j0:j0+nc] (or the transpose-source equivalent when
/// `trans`, with `b` stored (n x k)) into kNr-interleaved panels: panel jp
/// holds kNr consecutive columns laid out [p][jj], zero-padded past nc.
template <std::size_t NR>
void pack_b_panel(const float* b, std::size_t ldb, bool trans, std::size_t p0,
                  std::size_t j0, std::size_t kc, std::size_t nc, float* bp) {
  for (std::size_t jp = 0; jp < nc; jp += NR) {
    float* dst = bp + (jp / NR) * (NR * kc);
    if (trans) {
      for (std::size_t jj = 0; jj < NR; ++jj) {
        const std::size_t j = j0 + jp + jj;
        if (jp + jj < nc) {
          const float* src = b + j * ldb + p0;
          for (std::size_t p = 0; p < kc; ++p) dst[p * NR + jj] = src[p];
        } else {
          for (std::size_t p = 0; p < kc; ++p) dst[p * NR + jj] = 0.0f;
        }
      }
    } else {
      const std::size_t cols = nc - jp < NR ? nc - jp : NR;
      for (std::size_t p = 0; p < kc; ++p) {
        const float* src = b + (p0 + p) * ldb + j0 + jp;
        float* row = dst + p * NR;
        for (std::size_t jj = 0; jj < cols; ++jj) row[jj] = src[jj];
        for (std::size_t jj = cols; jj < NR; ++jj) row[jj] = 0.0f;
      }
    }
  }
}

/// Seeds an accumulator tile from C (zero on the padded fringe) so that
/// across k panels every output element stays one sequential reduction.
template <std::size_t MR, std::size_t NR>
void load_tile(const float* c, std::size_t ldc, std::size_t rows,
               std::size_t cols, float acc[MR][NR]) {
  for (std::size_t ii = 0; ii < MR; ++ii) {
    if (ii < rows) {
      const float* ci = c + ii * ldc;
      for (std::size_t jj = 0; jj < NR; ++jj) {
        acc[ii][jj] = jj < cols ? ci[jj] : 0.0f;
      }
    } else {
      for (std::size_t jj = 0; jj < NR; ++jj) acc[ii][jj] = 0.0f;
    }
  }
}

/// Writes a micro-tile back, clipping the zero-padded fringe; when `epi` is
/// set (last k panel of a fused GEMM) the epilogue is applied while the
/// tile is still hot.
template <std::size_t MR, std::size_t NR>
void store_tile(float* c, std::size_t ldc, const float acc[MR][NR],
                std::size_t rows, std::size_t cols, const Epilogue* epi,
                std::size_t row0, std::size_t col0) {
  for (std::size_t ii = 0; ii < rows; ++ii) {
    float* ci = c + ii * ldc;
    for (std::size_t jj = 0; jj < cols; ++jj) {
      float v = acc[ii][jj];
      if (epi) {
        if (epi->bias) {
          v += epi->bias_per_row ? epi->bias[row0 + ii] : epi->bias[col0 + jj];
        }
        v = apply_act(v, epi->act, epi->leaky_alpha);
      }
      ci[jj] = v;
    }
  }
}

/// The portable MR x NR micro-kernel: plain loops with constant trip counts
/// the compiler unrolls and auto-vectorizes over jj. Separate mul+add (the
/// TU is built with -ffp-contract=off), so instantiations agree bitwise
/// with the reference ikj kernel.
template <std::size_t MR, std::size_t NR>
void generic_micro_kernel(const float* ap, const float* bp, std::size_t kc,
                          float acc[MR][NR]) {
  for (std::size_t p = 0; p < kc; ++p) {
    const float* a = ap + p * MR;
    const float* b = bp + p * NR;
    for (std::size_t ii = 0; ii < MR; ++ii) {
      const float aip = a[ii];
      for (std::size_t jj = 0; jj < NR; ++jj) {
        acc[ii][jj] += aip * b[jj];
      }
    }
  }
}

/// tile() built from the portable pieces — the blocked backend's kernel,
/// and the scalar fallback a SIMD-less simd build degrades to.
template <std::size_t MR, std::size_t NR>
void generic_tile(const float* ap, const float* bp, std::size_t kc, float* c,
                  std::size_t ldc, std::size_t rows, std::size_t cols,
                  const Epilogue* epi, std::size_t row0, std::size_t col0) {
  float acc[MR][NR];
  load_tile<MR, NR>(c, ldc, rows, cols, acc);
  generic_micro_kernel<MR, NR>(ap, bp, kc, acc);
  store_tile<MR, NR>(c, ldc, acc, rows, cols, epi, row0, col0);
}

/// Bytes... floats a pack_b-produced panel set occupies for (k, n).
template <class Traits>
std::size_t packed_b_floats(std::size_t k, std::size_t n) {
  std::size_t total = 0;
  for (std::size_t pc = 0; pc < k; pc += Traits::kKc) {
    const std::size_t kc = k - pc < Traits::kKc ? k - pc : Traits::kKc;
    for (std::size_t jc = 0; jc < n; jc += Traits::kNc) {
      const std::size_t nc = n - jc < Traits::kNc ? n - jc : Traits::kNc;
      total += round_up(nc, Traits::kNr) * kc;
    }
  }
  return total;
}

template <class Traits>
std::size_t packed_a_floats(std::size_t m, std::size_t k) {
  std::size_t total = 0;
  for (std::size_t pc = 0; pc < k; pc += Traits::kKc) {
    const std::size_t kc = k - pc < Traits::kKc ? k - pc : Traits::kKc;
    total += round_up(m, Traits::kMr) * kc;
  }
  return total;
}

/// Fills a PackedWeights with B panels in the exact (pc, jc) order
/// panel_run walks, so the prepacked GEMM streams the stored panels at the
/// offsets the on-the-fly path would have packed them to.
template <class Traits>
void pack_b_full(const Backend* owner, const float* b, std::size_t k,
                 std::size_t n, bool transpose_b, PackedWeights& packed) {
  packed.owner = owner;
  packed.side = 'B';
  packed.rows = k;
  packed.cols = n;
  const std::size_t ldb = transpose_b ? k : n;
  packed.data.resize(packed_b_floats<Traits>(k, n));
  std::size_t off = 0;
  for (std::size_t pc = 0; pc < k; pc += Traits::kKc) {
    const std::size_t kc = k - pc < Traits::kKc ? k - pc : Traits::kKc;
    for (std::size_t jc = 0; jc < n; jc += Traits::kNc) {
      const std::size_t nc = n - jc < Traits::kNc ? n - jc : Traits::kNc;
      pack_b_panel<Traits::kNr>(b, ldb, transpose_b, pc, jc, kc, nc,
                                packed.data.data() + off);
      off += round_up(nc, Traits::kNr) * kc;
    }
  }
}

/// Fills a PackedWeights with A panels in (pc, ic-block) order.
template <class Traits>
void pack_a_full(const Backend* owner, const float* a, std::size_t m,
                 std::size_t k, PackedWeights& packed) {
  packed.owner = owner;
  packed.side = 'A';
  packed.rows = m;
  packed.cols = k;
  packed.data.resize(packed_a_floats<Traits>(m, k));
  std::size_t off = 0;
  for (std::size_t pc = 0; pc < k; pc += Traits::kKc) {
    const std::size_t kc = k - pc < Traits::kKc ? k - pc : Traits::kKc;
    for (std::size_t ic = 0; ic < m; ic += Traits::kMc) {
      const std::size_t mc = m - ic < Traits::kMc ? m - ic : Traits::kMc;
      AView av;
      av.f32 = a;
      av.lda = k;
      pack_a_panel<Traits::kMr>(av, ic, pc, mc, kc, packed.data.data() + off);
      off += round_up(mc, Traits::kMr) * kc;
    }
  }
}

/// The panel walk. k is split into kKc panels and n into kNc panels of
/// kNr-wide column strips (B packed per (pc, jc) unless prepacked); rows
/// are split into kMc blocks of kMr-tall strips (A packed per block unless
/// prepacked); Traits::tile() runs on every micro-tile. `epi` is applied on
/// the last k panel only. packed_a / packed_b point at pack_a_full /
/// pack_b_full layouts; non-null skips the corresponding per-call packing.
///
/// Work is split over the process fan-out when gemm_fans_out() allows:
///   * m <= kMc with B prepacked (every serving decode GEMM): A is packed
///     once for all k panels, then the unit of work is one kNr column strip
///     taken through every k panel — one fan-out job per GEMM;
///   * otherwise, per (pc, jc) panel: the unit is one kMc row block.
/// Units write disjoint tiles, and each tile still reduces its k panels in
/// ascending order seeded from C, so the split never changes a value: the
/// fanned-out result is bitwise the inline one.
template <class Traits>
void panel_run(const AView& a, const float* b, std::size_t ldb, bool tb,
               float* c, std::size_t m, std::size_t k, std::size_t n,
               const Epilogue* epi, const float* packed_a,
               const float* packed_b) {
  constexpr std::size_t kMr = Traits::kMr;
  constexpr std::size_t kNr = Traits::kNr;
  constexpr std::size_t kKc = Traits::kKc;
  constexpr std::size_t kMc = Traits::kMc;
  constexpr std::size_t kNc = Traits::kNc;
  static_assert(kMc % kMr == 0, "row blocks must be whole micro-tiles");
  static_assert(kNc % kNr == 0, "column panels must be whole strips");
  if (m == 0 || n == 0) return;
  if (k == 0) {
    if (epi) apply_epilogue(c, m, n, *epi);
    return;
  }
  const bool fan_out = gemm_fans_out(m, n, k);
  const std::size_t a_rows = round_up(m, kMr);  // A floats per k step

  if (m <= kMc && packed_b != nullptr) {
    // Every k panel of the prepacked B covers all round_up(n, kNr) columns
    // (kNc is a whole number of strips), and k panel pc starts pc full
    // panels in, so the strip at column j0 of panel pc sits at
    // b_cols*pc + j0*kc. The packed A panel of pc starts a_rows*pc in.
    const float* ap = packed_a;
    if (ap == nullptr) {
      thread_local std::vector<float> a_all;  // grows once, then reused
      a_all.resize(a_rows * k);
      for (std::size_t pc = 0; pc < k; pc += kKc) {
        const std::size_t kc = k - pc < kKc ? k - pc : kKc;
        pack_a_panel<kMr>(a, 0, pc, m, kc, a_all.data() + a_rows * pc);
      }
      ap = a_all.data();
    }
    const std::size_t b_cols = round_up(n, kNr);
    const auto strip = [&](std::size_t s) {
      const std::size_t j0 = s * kNr;
      const std::size_t cols = n - j0 < kNr ? n - j0 : kNr;
      for (std::size_t pc = 0; pc < k; pc += kKc) {
        const std::size_t kc = k - pc < kKc ? k - pc : kKc;
        const Epilogue* tile_epi = (epi && pc + kc == k) ? epi : nullptr;
        const float* apan = ap + a_rows * pc;
        const float* bpan = packed_b + b_cols * pc + j0 * kc;
        for (std::size_t ir = 0; ir < m; ir += kMr) {
          const std::size_t rows = m - ir < kMr ? m - ir : kMr;
          Traits::tile(apan + ir * kc, bpan, kc, c + ir * n + j0, n, rows,
                       cols, tile_epi, ir, j0);
        }
      }
    };
    run_units(fan_out, b_cols / kNr, strip);
    return;
  }

  thread_local std::vector<float> bp_buf;
  std::size_t b_off = 0;   // walk of the prepacked B panels (pc-major)
  std::size_t a_base = 0;  // prepacked A offset of the current k panel
  const std::size_t row_blocks = (m + kMc - 1) / kMc;
  for (std::size_t pc = 0; pc < k; pc += kKc) {
    const std::size_t kc = k - pc < kKc ? k - pc : kKc;
    const Epilogue* tile_epi = (epi && pc + kc == k) ? epi : nullptr;
    for (std::size_t jc = 0; jc < n; jc += kNc) {
      const std::size_t nc = n - jc < kNc ? n - jc : kNc;
      const float* bp;
      if (packed_b != nullptr) {
        bp = packed_b + b_off;
      } else {
        bp_buf.resize(round_up(nc, kNr) * kc);
        pack_b_panel<kNr>(b, ldb, tb, pc, jc, kc, nc, bp_buf.data());
        bp = bp_buf.data();
      }
      b_off += round_up(nc, kNr) * kc;

      // A unit is a whole row block, its A packed once.
      const auto unit = [&](std::size_t blk) {
        thread_local std::vector<float> ap_buf;
        const std::size_t ic = blk * kMc;
        const std::size_t mc = m - ic < kMc ? m - ic : kMc;
        const float* apan;
        if (packed_a != nullptr) {
          // Block blk starts ic rows into the panel; full blocks are
          // kMr-aligned (kMc % kMr == 0), so its offset is exactly ic*kc
          // floats past the panel base.
          apan = packed_a + a_base + ic * kc;
        } else {
          ap_buf.resize(round_up(mc, kMr) * kc);
          pack_a_panel<kMr>(a, ic, pc, mc, kc, ap_buf.data());
          apan = ap_buf.data();
        }
        for (std::size_t jr = 0; jr < nc; jr += kNr) {
          const float* bpan = bp + jr * kc;
          const std::size_t cols = nc - jr < kNr ? nc - jr : kNr;
          for (std::size_t ir = 0; ir < mc; ir += kMr) {
            const std::size_t rows = mc - ir < kMr ? mc - ir : kMr;
            Traits::tile(apan + ir * kc, bpan, kc, c + (ic + ir) * n + jc + jr,
                         n, rows, cols, tile_epi, ic + ir, jc + jr);
          }
        }
      };
      run_units(fan_out, row_blocks, unit);
    }
    a_base += a_rows * kc;
  }
}

}  // namespace orco::tensor::detail
