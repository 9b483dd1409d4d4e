#ifndef OVERGEN_COMMON_HEX_H
#define OVERGEN_COMMON_HEX_H

/**
 * @file
 * Lossless text codec for 64-bit values. The JSON layer stores every
 * number as a double, which silently rounds integers above 2^53 —
 * fingerprints and RNG seeds do not survive that round-trip, so the
 * overlay library and the serve wire protocol carry them as fixed-
 * width hex strings instead.
 */

#include <cstdint>
#include <string>

namespace overgen {

/** @return @p value as a 16-digit lowercase hex string ("0x" free,
 * zero padded — a fixed-width, byte-stable encoding). */
inline std::string
hexU64(uint64_t value)
{
    static const char digits[] = "0123456789abcdef";
    std::string out(16, '0');
    for (int i = 15; i >= 0; --i) {
        out[static_cast<size_t>(i)] = digits[value & 0xf];
        value >>= 4;
    }
    return out;
}

/** Decode a hexU64() string. @return whether @p text was a valid
 * 1..16 digit hex value (result in @p out). */
inline bool
tryParseHexU64(const std::string &text, uint64_t &out)
{
    if (text.empty() || text.size() > 16)
        return false;
    uint64_t value = 0;
    for (char c : text) {
        int digit;
        if (c >= '0' && c <= '9')
            digit = c - '0';
        else if (c >= 'a' && c <= 'f')
            digit = c - 'a' + 10;
        else
            return false;
        value = (value << 4) | static_cast<uint64_t>(digit);
    }
    out = value;
    return true;
}

} // namespace overgen

#endif // OVERGEN_COMMON_HEX_H
