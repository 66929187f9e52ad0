// Run-length encoding of FM bitmap banks, after Palmer et al.'s ANF tool
// [17]. The paper relies on this codec to fit 40 32-bit Sum synopses into a
// single 48-byte TinyDB message; we use it for message-size (and therefore
// energy) accounting.
//
// An FM bitmap is, with high probability, a prefix of ones, a short noisy
// "fringe", then zeros. The codec stores, per bitmap:
//   - the length of the leading run of ones   (5 bits)
//   - the length of the fringe                (5 bits)
//   - the fringe bits verbatim                (fringe-length bits)
// which compresses a typical populated bitmap to well under a byte.
//
// The bank codec (EncodeBankRle / BankRleBytes) is the message-size unit of
// every simulated epoch: each SD broadcast sizes two banks. It runs as a
// row-window transition kernel over the position-major stream, whose row r
// is bit r of every bitmap. One AND/OR pass over the bank classifies the 32
// rows: a row set in the AND is all ones and a row clear in the OR is all
// zeros, so it can only start a run at its first bit. Only the mixed rows
// are gathered (SSE2 movemask on x86-64, a portable loop elsewhere), and
// their run starts are the set bits of one XOR of each gathered word against
// itself shifted by the previous stream bit. The encoded size is
// 1 + runs + 2 * sum(floor(log2 run)) bits; the encoder writes each run as
// an Elias-gamma code. On the 50k-sensor SD benchmark a 40-bitmap bank
// averages 6.1 mixed rows of 32 and 55 runs. Sizing and encoding share the
// one kernel.
#ifndef TD_SKETCH_RLE_H_
#define TD_SKETCH_RLE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/status.h"

namespace td {

/// Append-only bit stream writer (LSB-first within bytes).
class BitWriter {
 public:
  void WriteBit(bool bit);
  /// Writes the low `nbits` of `value`, LSB first. nbits in [0, 64].
  void WriteBits(uint64_t value, int nbits);
  /// Elias-gamma code for n >= 1 (floor(log2 n) zeros, then n MSB-first).
  void WriteGamma(uint64_t n);

  size_t bit_count() const { return bit_count_; }
  size_t ByteCount() const { return (bit_count_ + 7) / 8; }
  const std::vector<uint8_t>& bytes() const { return bytes_; }

 private:
  std::vector<uint8_t> bytes_;
  size_t bit_count_ = 0;
};

/// Reader matching BitWriter's layout.
class BitReader {
 public:
  explicit BitReader(const std::vector<uint8_t>& bytes) : bytes_(bytes) {}

  bool ReadBit();
  uint64_t ReadBits(int nbits);
  uint64_t ReadGamma();
  bool AtEnd() const { return pos_ >= bytes_.size() * 8; }

  /// Non-aborting variants for decoding untrusted input: return false
  /// instead of CHECK-failing when the stream ends mid-value.
  bool TryReadBit(bool* out);
  bool TryReadGamma(uint64_t* out);

 private:
  const std::vector<uint8_t>& bytes_;
  size_t pos_ = 0;
};

/// Encodes a bank of 32-bit FM bitmaps; lossless.
std::vector<uint8_t> EncodeBitmapsRle(const std::vector<uint32_t>& bitmaps);

/// Inverse of EncodeBitmapsRle. `count` is the number of bitmaps encoded.
std::vector<uint32_t> DecodeBitmapsRle(const std::vector<uint8_t>& bytes,
                                       size_t count);

/// Encoded size in bytes without materializing the encoding.
size_t RleEncodedBytes(const std::vector<uint32_t>& bitmaps);

/// Bank codec: the whole bitmap bank transposed to bit-position-major order
/// and run-length encoded with Elias-gamma lengths. Because all FM bitmaps
/// in a bank fill to a similar level, the transposed stream is long runs of
/// ones (low positions), long runs of zeros (high positions), and a short
/// mixed fringe -- this is what lets a 40-bitmap Sum synopsis bank fit a
/// single 48-byte TinyDB message as the paper reports. Lossless.
std::vector<uint8_t> EncodeBankRle(const std::vector<uint32_t>& bitmaps);

/// Inverse of EncodeBankRle; `count` is the number of bitmaps. Corrupt
/// input is a checked error, not a silent truncation: a run that overruns
/// the bank returns OutOfRange, a stream that ends mid-code returns
/// InvalidArgument.
StatusOr<std::vector<uint32_t>> DecodeBankRle(const std::vector<uint8_t>& bytes,
                                              size_t count);

/// Encoded size in bytes of the bank codec.
size_t BankRleBytes(const std::vector<uint32_t>& bitmaps);

/// Span form of BankRleBytes for callers that hold a bank as a slice of a
/// larger arena (the SoA engine core keeps every node's bank in one
/// contiguous position-major array); sizing a slot must not force a copy
/// into a temporary vector. Bit-identical to the vector overload.
size_t BankRleBytes(const uint32_t* bitmaps, size_t count);

}  // namespace td

#endif  // TD_SKETCH_RLE_H_
