// Vector stages of Rng::FillNormal (see rng.h). rng_simd.cc is built with
// the vector ISA flags ops_simd.cc gets (-mavx2 -mfma -ffp-contract=off on
// x86) and honours the same APT_FORCE_SCALAR switch; rng.cc is the only
// intended caller besides tests and benches that stamp the active stage.
//
// Each function does the part of its stage that fits whole four-pair
// vector steps and returns how much it did; rng.cc finishes the rest with
// the scalar stage. A build without the AVX2 backend (forced scalar, NEON,
// or no host support) does nothing here, so FillNormal runs all-scalar.
// Every vector operation is the IEEE-exact counterpart of one scalar
// operation (convert, add, multiply, divide, sqrt, double-to-float round,
// compare) with contraction off, so both stages write the same bits.
#pragma once

#include <cstdint>

namespace aptserve {
namespace rng_simd {

/// True when this build carries the vector stages (AVX2).
bool Available();

/// The polar method's accept/reject, four pairs at a time, over the words
/// the engine will draw next: pair j is (words[2j], words[2j+1]), mapped by
/// CanonicalFromBits to x = 2u - 1. Accepted pairs (0 < x*x + y*y <= 1)
/// are appended at xs/ys/r2s[*k], in order, until *k == want or fewer than
/// eight words remain. Returns the words consumed: every pair examined, up
/// to and including the one that brought *k to `want`, never a pair past
/// it. Writes below index `want` only.
int AcceptPairs(const uint64_t* words, int available, double* xs, double* ys,
                double* r2s, int64_t* k, int64_t want);

/// For the first 4 * floor(pairs / 4) pairs j, writes
/// out[2j] = float(ys[j] * m) * scale and out[2j + 1] = float(xs[j] * m)
/// * scale, with m = sqrt(-2 * logs[j] / r2s[j]) and logs[j] = log(r2s[j]).
/// Returns the pairs written.
int64_t ScalePairs(const double* xs, const double* ys, const double* r2s,
                   const double* logs, int64_t pairs, float scale,
                   float* out);

}  // namespace rng_simd
}  // namespace aptserve
