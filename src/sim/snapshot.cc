#include "sim/snapshot.h"

#include <bit>
#include <cstring>

#include "common/logging.h"

namespace overgen::sim {

namespace {

/** Header of an encode() image: magic, version, digest pair. The
 * version bumps whenever a component's section layout changes (02:
 * the memory system's per-engine completion rings; 03: the engine
 * section without the drain-window counters). */
constexpr char kMagic[8] = { 'O', 'G', 'S', 'N', 'A', 'P', '0', '3' };

uint64_t
fnv1a(const std::vector<uint8_t> &bytes, uint64_t salt)
{
    uint64_t h = 1469598103934665603ull ^ salt;
    for (uint8_t b : bytes) {
        h ^= b;
        h *= 1099511628211ull;
    }
    return h;
}

/** Independent salts for the two digest passes (arbitrary odd
 * constants; what matters is that they differ). */
constexpr uint64_t kSaltLo = 0x9e3779b97f4a7c15ull;
constexpr uint64_t kSaltHi = 0xc2b2ae3d27d4eb4full;

void
appendU64(std::vector<uint8_t> &out, uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        out.push_back(static_cast<uint8_t>(v >> (8 * i)));
}

uint64_t
readU64(const std::vector<uint8_t> &in, size_t pos)
{
    uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
        v |= static_cast<uint64_t>(in[pos + i]) << (8 * i);
    return v;
}

} // namespace

void
Snapshot::putRaw(uint8_t tag, uint64_t v)
{
    OG_ASSERT(!sealed, "write to a sealed snapshot");
    payload.push_back(tag);
    appendU64(payload, v);
}

uint64_t
Snapshot::getRaw(uint8_t tag) const
{
    OG_ASSERT(rpos + 9 <= payload.size(),
              "snapshot read past the end at offset ", rpos);
    OG_ASSERT(payload[rpos] == tag, "snapshot type mismatch at offset ",
              rpos, ": expected tag '", static_cast<char>(tag),
              "', found '", static_cast<char>(payload[rpos]), "'");
    uint64_t v = readU64(payload, rpos + 1);
    rpos += 9;
    return v;
}

void
Snapshot::putDouble(double v)
{
    putRaw(kTagDouble, std::bit_cast<uint64_t>(v));
}

double
Snapshot::getDouble() const
{
    return std::bit_cast<double>(getRaw(kTagDouble));
}

void
Snapshot::putBytes(uint8_t tag, const std::string &s)
{
    OG_ASSERT(!sealed, "write to a sealed snapshot");
    payload.push_back(tag);
    appendU64(payload, s.size());
    payload.insert(payload.end(), s.begin(), s.end());
}

std::string
Snapshot::getBytes(uint8_t tag) const
{
    OG_ASSERT(rpos + 9 <= payload.size(),
              "snapshot read past the end at offset ", rpos);
    OG_ASSERT(payload[rpos] == tag, "snapshot type mismatch at offset ",
              rpos, ": expected tag '", static_cast<char>(tag),
              "', found '", static_cast<char>(payload[rpos]), "'");
    uint64_t len = readU64(payload, rpos + 1);
    OG_ASSERT(rpos + 9 + len <= payload.size(),
              "snapshot string of ", len, " bytes overruns the payload");
    std::string s(payload.begin() + static_cast<ptrdiff_t>(rpos + 9),
                  payload.begin() +
                      static_cast<ptrdiff_t>(rpos + 9 + len));
    rpos += 9 + len;
    return s;
}

void
Snapshot::putString(const std::string &s)
{
    putBytes(kTagString, s);
}

std::string
Snapshot::getString() const
{
    return getBytes(kTagString);
}

void
Snapshot::beginSection(const std::string &name)
{
    putBytes(kTagSection, name);
}

void
Snapshot::expectSection(const std::string &name) const
{
    std::string found = getBytes(kTagSection);
    OG_ASSERT(found == name, "snapshot section mismatch: expected '",
              name, "', found '", found, "'");
}

void
Snapshot::seal()
{
    OG_ASSERT(!sealed, "snapshot sealed twice");
    digestLo = fnv1a(payload, kSaltLo);
    digestHi = fnv1a(payload, kSaltHi);
    sealed = true;
    rpos = 0;
}

bool
Snapshot::verify() const
{
    return sealed && digestLo == fnv1a(payload, kSaltLo) &&
           digestHi == fnv1a(payload, kSaltHi);
}

uint64_t
Snapshot::digest() const
{
    OG_ASSERT(sealed, "digest of an unsealed snapshot");
    return digestLo ^ (digestHi * 1099511628211ull);
}

std::vector<uint8_t>
Snapshot::encode() const
{
    OG_ASSERT(sealed, "encode of an unsealed snapshot");
    std::vector<uint8_t> out;
    out.reserve(sizeof(kMagic) + 24 + payload.size());
    for (char c : kMagic)
        out.push_back(static_cast<uint8_t>(c));
    appendU64(out, digestLo);
    appendU64(out, digestHi);
    appendU64(out, payload.size());
    out.insert(out.end(), payload.begin(), payload.end());
    return out;
}

bool
Snapshot::decode(const std::vector<uint8_t> &bytes, Snapshot &out)
{
    if (bytes.size() < sizeof(kMagic) + 24)
        return false;
    if (std::memcmp(bytes.data(), kMagic, sizeof(kMagic)) != 0)
        return false;
    uint64_t lo = readU64(bytes, sizeof(kMagic));
    uint64_t hi = readU64(bytes, sizeof(kMagic) + 8);
    uint64_t len = readU64(bytes, sizeof(kMagic) + 16);
    if (bytes.size() != sizeof(kMagic) + 24 + len)
        return false;
    Snapshot snap;
    snap.payload.assign(bytes.begin() +
                            static_cast<ptrdiff_t>(sizeof(kMagic) + 24),
                        bytes.end());
    snap.digestLo = lo;
    snap.digestHi = hi;
    snap.sealed = true;
    if (!snap.verify())
        return false;
    out = std::move(snap);
    return true;
}

} // namespace overgen::sim
