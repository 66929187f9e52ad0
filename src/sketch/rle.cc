#include "sketch/rle.h"

#include <bit>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

#include "obs/telemetry.h"
#include "util/check.h"

namespace td {

namespace {

constexpr int kPrefixBits = 5;  // prefix length in [0, 31] (32 is re-coded)
constexpr int kFringeBits = 6;  // fringe length in [0, 32]

// Splits a 32-bit bitmap into (ones-prefix length, fringe bits, fringe len).
// The fringe spans from the first zero to the last one, inclusive; all bits
// above the fringe are zero.
struct SplitBitmap {
  int prefix;   // leading run of ones
  int fringe;   // number of fringe bits
  uint32_t fringe_bits;
};

SplitBitmap Split(uint32_t bm) {
  SplitBitmap s;
  s.prefix = std::countr_one(bm);
  if (s.prefix >= 32) {
    // All-ones bitmap: re-code as a 31-bit prefix plus a single fringe one so
    // the prefix field stays within 5 bits.
    s.prefix = 31;
    s.fringe = 1;
    s.fringe_bits = 1;
    return s;
  }
  uint32_t rest = bm >> s.prefix;  // bit 0 of rest is the first zero
  int top = rest == 0 ? -1 : 31 - std::countl_zero(rest);
  s.fringe = top + 1;  // 0 when there are no ones above the prefix
  s.fringe_bits = rest & (s.fringe >= 32 ? ~0u : ((1u << s.fringe) - 1));
  return s;
}

}  // namespace

void BitWriter::WriteBit(bool bit) {
  size_t byte = bit_count_ / 8;
  if (byte >= bytes_.size()) bytes_.push_back(0);
  if (bit) bytes_[byte] |= static_cast<uint8_t>(1u << (bit_count_ % 8));
  ++bit_count_;
}

void BitWriter::WriteBits(uint64_t value, int nbits) {
  TD_CHECK_GE(nbits, 0);
  TD_CHECK_LE(nbits, 64);
  // Byte-at-a-time: OR up to 8 bits into the current partial byte per step.
  while (nbits > 0) {
    size_t byte = bit_count_ / 8;
    int off = static_cast<int>(bit_count_ % 8);
    if (byte >= bytes_.size()) bytes_.push_back(0);
    int take = 8 - off;
    if (take > nbits) take = nbits;
    bytes_[byte] |= static_cast<uint8_t>((value & ((1u << take) - 1)) << off);
    value >>= take;
    nbits -= take;
    bit_count_ += static_cast<size_t>(take);
  }
}

void BitWriter::WriteGamma(uint64_t n) {
  TD_CHECK_GE(n, 1u);
  int len = 63 - std::countl_zero(n);  // floor(log2 n)
  // len zeros, then the len+1 bits of n MSB-first. The stream is LSB-first,
  // so MSB-first emission is WriteBits of the bit-reversed value.
  WriteBits(0, len);
  uint64_t rev = 0;
  for (int i = 0; i <= len; ++i) rev |= ((n >> i) & 1) << (len - i);
  WriteBits(rev, len + 1);
}

bool BitReader::ReadBit() {
  TD_CHECK(!AtEnd());
  bool bit = (bytes_[pos_ / 8] >> (pos_ % 8)) & 1;
  ++pos_;
  return bit;
}

uint64_t BitReader::ReadBits(int nbits) {
  TD_CHECK_GE(nbits, 0);
  TD_CHECK_LE(nbits, 64);
  TD_CHECK(pos_ + static_cast<size_t>(nbits) <= bytes_.size() * 8);
  uint64_t v = 0;
  int got = 0;
  while (got < nbits) {
    size_t byte = pos_ / 8;
    int off = static_cast<int>(pos_ % 8);
    int take = 8 - off;
    if (take > nbits - got) take = nbits - got;
    uint64_t chunk = (static_cast<uint64_t>(bytes_[byte]) >> off) &
                     ((1u << take) - 1);
    v |= chunk << got;
    got += take;
    pos_ += static_cast<size_t>(take);
  }
  return v;
}

uint64_t BitReader::ReadGamma() {
  int len = 0;
  while (!ReadBit()) ++len;
  uint64_t n = 1;
  for (int i = 0; i < len; ++i) n = (n << 1) | (ReadBit() ? 1 : 0);
  return n;
}

bool BitReader::TryReadBit(bool* out) {
  if (AtEnd()) return false;
  *out = ReadBit();
  return true;
}

bool BitReader::TryReadGamma(uint64_t* out) {
  int len = 0;
  bool bit;
  for (;;) {
    if (!TryReadBit(&bit)) return false;
    if (bit) break;
    // A 64-bit value has at most 63 leading zeros in its gamma code; more
    // means the value would wrap modulo 2^64 -- malformed, not decodable.
    if (++len > 63) return false;
  }
  uint64_t n = 1;
  for (int i = 0; i < len; ++i) {
    if (!TryReadBit(&bit)) return false;
    n = (n << 1) | (bit ? 1 : 0);
  }
  *out = n;
  return true;
}

std::vector<uint8_t> EncodeBitmapsRle(const std::vector<uint32_t>& bitmaps) {
  BitWriter w;
  for (uint32_t bm : bitmaps) {
    SplitBitmap s = Split(bm);
    w.WriteBits(static_cast<uint64_t>(s.prefix), kPrefixBits);
    w.WriteBits(static_cast<uint64_t>(s.fringe), kFringeBits);
    w.WriteBits(s.fringe_bits, s.fringe);
  }
  return w.bytes();
}

std::vector<uint32_t> DecodeBitmapsRle(const std::vector<uint8_t>& bytes,
                                       size_t count) {
  BitReader r(bytes);
  std::vector<uint32_t> out;
  out.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    int prefix = static_cast<int>(r.ReadBits(kPrefixBits));
    int fringe = static_cast<int>(r.ReadBits(kFringeBits));
    uint32_t fringe_bits = static_cast<uint32_t>(r.ReadBits(fringe));
    uint32_t bm = prefix >= 32 ? ~0u : ((prefix == 0) ? 0u : ((1u << prefix) - 1));
    bm |= fringe_bits << prefix;
    out.push_back(bm);
  }
  return out;
}

size_t RleEncodedBytes(const std::vector<uint32_t>& bitmaps) {
  size_t bits = 0;
  for (uint32_t bm : bitmaps) {
    SplitBitmap s = Split(bm);
    bits += kPrefixBits + kFringeBits + static_cast<size_t>(s.fringe);
  }
  return (bits + 7) / 8;
}

namespace {

// The bank codec's hot core: the row-window transition kernel described in
// rle.h. Row r of the position-major stream is stream bits
// [r*count, (r+1)*count), bit r of every bitmap in bank order.

// Gathers bit `row` of p[0..n), n <= 64, into bits 0..n-1 of a word.
inline uint64_t GatherRowWord(const uint32_t* p, size_t n, int row) {
  uint64_t w = 0;
  size_t j = 0;
#if defined(__SSE2__)
  // Shift the row's bit into each lane's sign bit; signed-saturating packs
  // keep the sign, so one byte movemask collects 16 bitmaps.
  const __m128i shift = _mm_cvtsi32_si128(31 - row);
  auto lanes = [&](size_t k) {
    return _mm_sll_epi32(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(p + k)), shift);
  };
  for (; j + 16 <= n; j += 16) {
    const __m128i lo = _mm_packs_epi32(lanes(j), lanes(j + 4));
    const __m128i hi = _mm_packs_epi32(lanes(j + 8), lanes(j + 12));
    w |= static_cast<uint64_t>(static_cast<uint32_t>(
             _mm_movemask_epi8(_mm_packs_epi16(lo, hi))))
         << j;
  }
  for (; j + 4 <= n; j += 4) {
    w |= static_cast<uint64_t>(_mm_movemask_ps(_mm_castsi128_ps(lanes(j))))
         << j;
  }
#endif
  // The portable gather: the whole row off x86, the < 4-bitmap tail on it.
  for (; j < n; ++j) w |= static_cast<uint64_t>((p[j] >> row) & 1u) << j;
  return w;
}

/// Calls fn(run_length) for each maximal run of equal bits of the bank's
/// position-major stream (bit pos*count + j is bit `pos` of bitmaps[j]), in
/// stream order. The first run's bit value is bit 0 of bitmaps[0], and
/// values alternate from there. count >= 1.
template <typename Fn>
void ForEachRun(const uint32_t* bitmaps, size_t count, Fn&& fn) {
  uint32_t all = ~0u;
  uint32_t any = 0u;
  for (size_t j = 0; j < count; ++j) {
    all &= bitmaps[j];
    any |= bitmaps[j];
  }
  const uint32_t mixed = all ^ any;
  // Bit r: the stream bit just before row r (row 0 reads as its own first).
  const uint32_t before = bitmaps[count - 1] << 1 | (bitmaps[0] & 1u);
  // Rows to visit: mixed ones, and uniform ones whose bit differs from the
  // one before them (they start a run at their first bit).
  uint32_t rows = mixed | (bitmaps[0] ^ before);
  size_t run_start = 0;
  while (rows != 0) {
    const int row = std::countr_zero(rows);
    rows &= rows - 1;
    const size_t row_start = static_cast<size_t>(row) * count;
    if ((mixed >> row & 1u) == 0) {
      fn(row_start - run_start);
      run_start = row_start;
      continue;
    }
    uint64_t prev = before >> row & 1u;
    for (size_t j = 0; j < count; j += 64) {
      const size_t n = count - j < 64 ? count - j : 64;
      const uint64_t w = GatherRowWord(bitmaps + j, n, row);
      uint64_t starts = w ^ (w << 1 | prev);
      if (n < 64) starts &= (1ULL << n) - 1;
      while (starts != 0) {
        const size_t at =
            row_start + j + static_cast<size_t>(std::countr_zero(starts));
        starts &= starts - 1;
        fn(at - run_start);
        run_start = at;
      }
      prev = w >> 63;  // carries into the next word only after a full one
    }
  }
  fn(count * 32 - run_start);
}

inline size_t GammaBits(uint64_t n) {
  int len = 63 - std::countl_zero(n);
  return static_cast<size_t>(2 * len + 1);
}

// Sets bits [begin, end) of the packed word array.
void SetBitRange(std::vector<uint64_t>* words, size_t begin, size_t end) {
  if (begin >= end) return;
  const size_t wb = begin >> 6;
  const size_t we = (end - 1) >> 6;
  const uint64_t first = ~0ULL << (begin & 63);
  const uint64_t last = ~0ULL >> (63 - ((end - 1) & 63));
  if (wb == we) {
    (*words)[wb] |= first & last;
    return;
  }
  (*words)[wb] |= first;
  for (size_t w = wb + 1; w < we; ++w) (*words)[w] = ~0ULL;
  (*words)[we] |= last;
}

}  // namespace

std::vector<uint8_t> EncodeBankRle(const std::vector<uint32_t>& bitmaps) {
  TD_PROFILE_SCOPE(obs::Phase::kRleEncode);
  BitWriter w;
  if (bitmaps.empty()) return w.bytes();
  w.WriteBit(bitmaps[0] & 1u);
  ForEachRun(bitmaps.data(), bitmaps.size(),
             [&w](uint64_t run) { w.WriteGamma(run); });
  return w.bytes();
}

StatusOr<std::vector<uint32_t>> DecodeBankRle(const std::vector<uint8_t>& bytes,
                                              size_t count) {
  std::vector<uint32_t> bitmaps(count, 0u);
  if (count == 0) return bitmaps;
  BitReader r(bytes);
  const size_t total = count * 32;
  bool current;
  if (!r.TryReadBit(&current)) {
    return Status::InvalidArgument("bank RLE: empty stream");
  }
  // Rebuild the transposed word stream run by run, then un-transpose by
  // iterating only the set bits.
  std::vector<uint64_t> words((total + 63) / 64, 0);
  size_t i = 0;
  while (i < total) {
    uint64_t run;
    if (!r.TryReadGamma(&run)) {
      return Status::InvalidArgument("bank RLE: stream ends mid-run");
    }
    if (run > total - i) {
      return Status::OutOfRange("bank RLE: run overruns the bank");
    }
    if (current) SetBitRange(&words, i, i + static_cast<size_t>(run));
    i += static_cast<size_t>(run);
    current = !current;
  }
  for (size_t w = 0; w < words.size(); ++w) {
    uint64_t bits = words[w];
    while (bits != 0) {
      size_t idx = w * 64 + static_cast<size_t>(std::countr_zero(bits));
      bits &= bits - 1;
      bitmaps[idx % count] |= (1u << (idx / count));
    }
  }
  return bitmaps;
}

size_t BankRleBytes(const std::vector<uint32_t>& bitmaps) {
  return BankRleBytes(bitmaps.data(), bitmaps.size());
}

size_t BankRleBytes(const uint32_t* bitmaps, size_t count) {
  TD_PROFILE_SCOPE(obs::Phase::kRleEncode);
  if (count == 0) return 0;
  size_t bits = 1;
  ForEachRun(bitmaps, count, [&bits](uint64_t run) { bits += GammaBits(run); });
  return (bits + 7) / 8;
}

}  // namespace td
