/**
 * @file
 * CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320, init and final
 * xor ~0), the checksum guarding trace-file headers and chunks and
 * checkpoint-journal lines. Computed by slicing-by-16 (Kounavis &
 * Berry, ISCC 2005): sixteen 256-entry tables, generated at compile
 * time, fold 16 bytes per step with independent loads; a tail under
 * 16 bytes goes through table 0 a byte at a time. The implementation
 * is self-contained so checksums are bit-identical across platforms.
 */

#ifndef MRP_UTIL_CRC32_HPP
#define MRP_UTIL_CRC32_HPP

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>

namespace mrp {

// The 16-byte step reads its input as little-endian u64s, and the
// trace file already stores native-endian integers.
static_assert(std::endian::native == std::endian::little,
              "CRC-32 slicing and the trace format assume a "
              "little-endian host");

namespace detail {

constexpr std::array<std::uint32_t, 256>
makeCrc32Table()
{
    std::array<std::uint32_t, 256> table{};
    for (std::uint32_t i = 0; i < 256; ++i) {
        std::uint32_t c = i;
        for (int k = 0; k < 8; ++k)
            c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
        table[i] = c;
    }
    return table;
}

inline constexpr std::array<std::uint32_t, 256> kCrc32Table =
    makeCrc32Table();

/** Slice k maps a byte to its CRC contribution when k more zero bytes
 * follow it: slice 0 is kCrc32Table, slice k folds slice k-1 through
 * one more byte. */
constexpr std::array<std::array<std::uint32_t, 256>, 16>
makeCrc32Slices()
{
    std::array<std::array<std::uint32_t, 256>, 16> slices{};
    slices[0] = kCrc32Table;
    for (std::size_t k = 1; k < 16; ++k)
        for (std::size_t i = 0; i < 256; ++i) {
            const std::uint32_t c = slices[k - 1][i];
            slices[k][i] = kCrc32Table[c & 0xFFu] ^ (c >> 8);
        }
    return slices;
}

inline constexpr std::array<std::array<std::uint32_t, 256>, 16>
    kCrc32Slices = makeCrc32Slices();

} // namespace detail

/** Incremental CRC-32 accumulator. */
class Crc32
{
  public:
    /** Fold @p size bytes at @p data into the running checksum. */
    void
    update(const void* data, std::size_t size)
    {
        const auto& t = detail::kCrc32Slices;
        const auto* p = static_cast<const unsigned char*>(data);
        std::uint32_t c = state_;
        for (; size >= 16; p += 16, size -= 16) {
            std::uint64_t lo = 0;
            std::uint64_t hi = 0;
            std::memcpy(&lo, p, 8);
            std::memcpy(&hi, p + 8, 8);
            lo ^= c;
            // Byte j of the 16 is followed by 15 - j more bytes.
            c = t[15][lo & 0xFFu] ^ t[14][(lo >> 8) & 0xFFu] ^
                t[13][(lo >> 16) & 0xFFu] ^ t[12][(lo >> 24) & 0xFFu] ^
                t[11][(lo >> 32) & 0xFFu] ^ t[10][(lo >> 40) & 0xFFu] ^
                t[9][(lo >> 48) & 0xFFu] ^ t[8][lo >> 56] ^
                t[7][hi & 0xFFu] ^ t[6][(hi >> 8) & 0xFFu] ^
                t[5][(hi >> 16) & 0xFFu] ^ t[4][(hi >> 24) & 0xFFu] ^
                t[3][(hi >> 32) & 0xFFu] ^ t[2][(hi >> 40) & 0xFFu] ^
                t[1][(hi >> 48) & 0xFFu] ^ t[0][hi >> 56];
        }
        for (; size > 0; ++p, --size)
            c = t[0][(c ^ *p) & 0xFFu] ^ (c >> 8);
        state_ = c;
    }

    /** Final checksum of everything updated so far. */
    std::uint32_t value() const { return ~state_; }

    /** One-shot checksum of a buffer. */
    static std::uint32_t
    of(const void* data, std::size_t size)
    {
        Crc32 crc;
        crc.update(data, size);
        return crc.value();
    }

  private:
    std::uint32_t state_ = 0xFFFFFFFFu;
};

} // namespace mrp

#endif // MRP_UTIL_CRC32_HPP
