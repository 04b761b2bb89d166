// CRC-32 (IEEE 802.3: reflected polynomial 0xEDB88320, init and final XOR
// 0xFFFFFFFF) — the wire-frame checksum of src/net/protocol.h.
//
// Two kernels compute the same function, chosen at compile time:
//   * PCLMULQDQ folding (Intel, "Fast CRC Computation for Generic Polynomials
//     Using PCLMULQDQ Instruction"): four 128-bit lanes fold 64 bytes per
//     step, then collapse to 128 and 64 bits and Barrett-reduce to 32.
//     Compiled when the target has PCLMUL and SSE4.1 (PF_NATIVE=ON on any
//     x86-64 from 2010 on); it takes inputs of 64 bytes or more in whole
//     16-byte blocks and leaves the tail to the portable kernel.
//   * Slice-by-8 tables: eight bytes per step, everywhere else.
// Both give byte-identical checksums; tests/kernel_differential_test.cc
// holds them to a bit-at-a-time reference.
#ifndef PREFIXFILTER_SRC_UTIL_CRC32_H_
#define PREFIXFILTER_SRC_UTIL_CRC32_H_

#include <cstddef>
#include <cstdint>

namespace prefixfilter {

// CRC-32 of `len` bytes with the fastest kernel this build has.
// Crc32(nullptr, 0) == 0.
uint32_t Crc32(const void* data, size_t len);

// The slice-by-8 kernel alone, always compiled, so native builds can
// difference it against Crc32().
uint32_t Crc32Portable(const void* data, size_t len);

}  // namespace prefixfilter

#endif  // PREFIXFILTER_SRC_UTIL_CRC32_H_
