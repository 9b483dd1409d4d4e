#ifndef OVERGEN_TESTS_SIM_SNAPSHOT_EDIT_H
#define OVERGEN_TESTS_SIM_SNAPSHOT_EDIT_H

/**
 * @file
 * Test helpers that read and forge snapshot sections through the
 * documented encode() image: an 8-byte magic, the digest pair and the
 * payload length (8 bytes each), then the payload — one tag byte per
 * value followed by a little-endian u64, or, for strings and section
 * markers, by a u64 length and that many bytes.
 *
 * A forged snapshot is rebuilt value by value through the public
 * writer and resealed, so it passes the digest check and reaches the
 * component restore() validation that must reject it.
 */

#include <bit>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/logging.h"
#include "sim/snapshot.h"

namespace overgen::sim::test {

/** Rewrites integer value @p index (counted from 0 after the section
 * marker) in place. */
using ValuePatch = std::function<void(size_t index, uint64_t &value)>;

/** Rewrites a string value in place. */
using StringPatch = std::function<void(std::string &value)>;

/**
 * Re-encode @p in, passing every u64/i64 value of section @p section
 * (up to the next section marker) through @p patch and, when given,
 * every string value through @p patch_string, and seal the result.
 */
inline Snapshot
patchSection(const Snapshot &in, const std::string &section,
             const ValuePatch &patch,
             const StringPatch &patch_string = nullptr)
{
    std::vector<uint8_t> bytes = in.encode();
    auto read_u64 = [&bytes](size_t pos) {
        OG_ASSERT(pos + 8 <= bytes.size(), "truncated snapshot image");
        uint64_t v = 0;
        for (int i = 0; i < 8; ++i)
            v |= static_cast<uint64_t>(bytes[pos + i]) << (8 * i);
        return v;
    };
    Snapshot out;
    bool inside = false;
    size_t index = 0;
    for (size_t pos = 32; pos < bytes.size();) {
        char tag = static_cast<char>(bytes[pos]);
        uint64_t v = read_u64(pos + 1);
        pos += 9;
        if (tag == 's' || tag == 'S') {
            std::string s(bytes.begin() + static_cast<ptrdiff_t>(pos),
                          bytes.begin() + static_cast<ptrdiff_t>(pos + v));
            pos += v;
            if (tag == 's') {
                if (inside && patch_string)
                    patch_string(s);
                out.putString(s);
            } else {
                out.beginSection(s);
                inside = s == section;
                index = 0;
            }
            continue;
        }
        if (inside && (tag == 'Q' || tag == 'q'))
            patch(index++, v);
        switch (tag) {
          case 'Q':
            out.putU64(v);
            break;
          case 'q':
            out.putI64(static_cast<int64_t>(v));
            break;
          case 'd':
            out.putDouble(std::bit_cast<double>(v));
            break;
          case 'b':
            out.putBool(v != 0);
            break;
          default:
            OG_FATAL("unknown snapshot tag '", tag, "'");
        }
    }
    out.seal();
    return out;
}

/** @return the u64/i64 values of section @p section, in order. */
inline std::vector<uint64_t>
sectionValues(const Snapshot &in, const std::string &section)
{
    std::vector<uint64_t> values;
    (void)patchSection(in, section, [&values](size_t, uint64_t &v) {
        values.push_back(v);
    });
    return values;
}

} // namespace overgen::sim::test

#endif // OVERGEN_TESTS_SIM_SNAPSHOT_EDIT_H
