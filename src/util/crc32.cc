#include "src/util/crc32.h"

#include <array>
#include <cstring>

#if defined(__PCLMUL__) && defined(__SSE4_1__)
#define PF_HAVE_PCLMUL 1
#else
#define PF_HAVE_PCLMUL 0
#endif

#if PF_HAVE_PCLMUL
#include <immintrin.h>
#endif

namespace prefixfilter {
namespace {

constexpr uint32_t kPoly = 0xEDB88320u;

// kTables[0] is the classic byte-at-a-time table; kTables[k][b] is the CRC
// contribution of byte b followed by k zero bytes, so eight lookups advance
// the CRC by eight bytes at once.
constexpr std::array<std::array<uint32_t, 256>, 8> kTables = [] {
  std::array<std::array<uint32_t, 256>, 8> t{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int k = 0; k < 8; ++k) c = (c & 1) ? kPoly ^ (c >> 1) : c >> 1;
    t[0][i] = c;
  }
  for (size_t k = 1; k < 8; ++k) {
    for (size_t i = 0; i < 256; ++i) {
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFF];
    }
  }
  return t;
}();

// Advances the (pre-inverted) CRC state over `len` bytes.  Words are read
// little-endian, like every fixed-width field of the wire format.
uint32_t Slice8(const uint8_t* p, size_t len, uint32_t crc) {
  for (; len >= 8; p += 8, len -= 8) {
    uint64_t w = 0;
    std::memcpy(&w, p, 8);
    w ^= crc;
    crc = kTables[7][w & 0xFF] ^ kTables[6][(w >> 8) & 0xFF] ^
          kTables[5][(w >> 16) & 0xFF] ^ kTables[4][(w >> 24) & 0xFF] ^
          kTables[3][(w >> 32) & 0xFF] ^ kTables[2][(w >> 40) & 0xFF] ^
          kTables[1][(w >> 48) & 0xFF] ^ kTables[0][w >> 56];
  }
  for (; len != 0; ++p, --len) {
    crc = kTables[0][(crc ^ *p) & 0xFF] ^ (crc >> 8);
  }
  return crc;
}

#if PF_HAVE_PCLMUL
inline __m128i Load128(const uint8_t* p) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}

// Folds `x` forward by the distance its constant pair encodes and adds `next`.
inline __m128i Fold(__m128i x, __m128i k, __m128i next) {
  const __m128i lo = _mm_clmulepi64_si128(x, k, 0x00);
  const __m128i hi = _mm_clmulepi64_si128(x, k, 0x11);
  return _mm_xor_si128(_mm_xor_si128(hi, lo), next);
}

// Advances the (pre-inverted) CRC state over `len` bytes; len >= 64 and a
// multiple of 16.  With P the unreflected polynomial 0x104C11DB7 and ' bit
// reflection, k = (x^n mod P)' << 1 for n = 4*128+32 and 4*128-32 (k1, k2:
// fold by 64 bytes), 128+32 and 128-32 (k3, k4: fold by 16 bytes) and 64
// (k5: 64 -> 32 bits); Barrett uses P' and mu' = floor(x^64 / P)'.
uint32_t FoldPclmul(const uint8_t* p, size_t len, uint32_t crc) {
  const __m128i k1k2 = _mm_set_epi64x(0x1c6e41596, 0x154442bd4);
  const __m128i k3k4 = _mm_set_epi64x(0x0ccaa009e, 0x1751997d0);
  const __m128i k5 = _mm_set_epi64x(0, 0x163cd6124);
  const __m128i poly_mu = _mm_set_epi64x(0x1f7011641, 0x1db710641);
  const __m128i low32 = _mm_setr_epi32(~0, 0, ~0, 0);

  __m128i x1 =
      _mm_xor_si128(Load128(p), _mm_cvtsi32_si128(static_cast<int>(crc)));
  __m128i x2 = Load128(p + 16);
  __m128i x3 = Load128(p + 32);
  __m128i x4 = Load128(p + 48);
  for (p += 64, len -= 64; len >= 64; p += 64, len -= 64) {
    x1 = Fold(x1, k1k2, Load128(p));
    x2 = Fold(x2, k1k2, Load128(p + 16));
    x3 = Fold(x3, k1k2, Load128(p + 32));
    x4 = Fold(x4, k1k2, Load128(p + 48));
  }
  // Four lanes into one, then the remaining whole 16-byte blocks.
  x1 = Fold(x1, k3k4, x2);
  x1 = Fold(x1, k3k4, x3);
  x1 = Fold(x1, k3k4, x4);
  for (; len >= 16; p += 16, len -= 16) x1 = Fold(x1, k3k4, Load128(p));

  // 128 -> 64 bits.
  x1 = _mm_xor_si128(_mm_srli_si128(x1, 8),
                     _mm_clmulepi64_si128(x1, k3k4, 0x10));
  x1 = _mm_xor_si128(_mm_srli_si128(x1, 4),
                     _mm_clmulepi64_si128(_mm_and_si128(x1, low32), k5, 0x00));
  // Barrett reduction 64 -> 32 bits.
  __m128i t = _mm_clmulepi64_si128(_mm_and_si128(x1, low32), poly_mu, 0x10);
  t = _mm_clmulepi64_si128(_mm_and_si128(t, low32), poly_mu, 0x00);
  return static_cast<uint32_t>(_mm_extract_epi32(_mm_xor_si128(x1, t), 1));
}
#endif

}  // namespace

uint32_t Crc32(const void* data, size_t len) {
  const uint8_t* p = static_cast<const uint8_t*>(data);
  uint32_t crc = 0xFFFFFFFFu;
#if PF_HAVE_PCLMUL
  if (len >= 64) {
    const size_t folded = len & ~size_t{15};
    crc = FoldPclmul(p, folded, crc);
    p += folded;
    len -= folded;
  }
#endif
  return ~Slice8(p, len, crc);
}

uint32_t Crc32Portable(const void* data, size_t len) {
  return ~Slice8(static_cast<const uint8_t*>(data), len, 0xFFFFFFFFu);
}

}  // namespace prefixfilter
