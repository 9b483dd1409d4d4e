#ifndef OVERGEN_SIM_SNAPSHOT_H
#define OVERGEN_SIM_SNAPSHOT_H

/**
 * @file
 * Serialized simulator state. A Snapshot is a tagged byte stream each
 * ClockedComponent appends its state to (save) and later reads back in
 * the same order (restore), finished with a salted FNV digest so a
 * restore can prove it is looking at an intact image of the same run.
 *
 * The format is deliberately simple rather than general:
 *  - every value carries a one-byte type tag, so a component whose
 *    save/restore drift out of sync fails loudly at the first
 *    misaligned read instead of silently reinterpreting bytes;
 *  - sections are named markers (expectSection checks the name), one
 *    per component, bracketing drift to the component that caused it;
 *  - seal() computes a double-salted FNV-1a digest over the payload;
 *    verify() recomputes it, catching truncation and bit corruption.
 *
 * Snapshots are taken by SimEngine at quiescent checkpoint sites (see
 * SimConfig::checkpointEvery) and consumed by sim::resumeFrom, which
 * is bit-identical to the uninterrupted run — see DESIGN.md
 * "Snapshots and resume".
 */

#include <cstdint>
#include <string>
#include <vector>

namespace overgen::sim {

/** A sealed, digest-protected image of one simulation's state. */
class Snapshot
{
  public:
    /** @name Writing (append-only until seal()) */
    /// @{
    void putU64(uint64_t v) { putRaw(kTagU64, v); }
    void putI64(int64_t v)
    {
        putRaw(kTagI64, static_cast<uint64_t>(v));
    }
    /** Doubles round-trip through their bit pattern: budgets stay on
     * exact values, so restore must reproduce the same bits. */
    void putDouble(double v);
    void putBool(bool v) { putRaw(kTagBool, v ? 1 : 0); }
    void putString(const std::string &s);
    /** Start a named section (one per component). */
    void beginSection(const std::string &name);
    /** Close the payload and compute the salted digest. */
    void seal();
    /// @}

    /** @name Reading (sequential, in write order) */
    /// @{
    /** Reset the read cursor to the first value. */
    void rewind() const { rpos = 0; }
    uint64_t getU64() const { return getRaw(kTagU64); }
    int64_t getI64() const
    {
        return static_cast<int64_t>(getRaw(kTagI64));
    }
    double getDouble() const;
    bool getBool() const { return getRaw(kTagBool) != 0; }
    std::string getString() const;
    /** Read a section marker; fatal when the name differs. */
    void expectSection(const std::string &name) const;
    /// @}

    /** @return whether the payload matches the sealed digest (false
     * for unsealed, truncated, or corrupted snapshots). */
    bool verify() const;

    /** @return the sealed digest (salted; fatal when unsealed). */
    uint64_t digest() const;

    /** @return payload size in bytes. */
    size_t sizeBytes() const { return payload.size(); }

    /** @name Byte image (pinned by SnapshotPin.*, fault injection) */
    /// @{
    /** Encode the sealed snapshot (header + digest + payload). */
    std::vector<uint8_t> encode() const;
    /** Decode an encode() image. @return false on a malformed header
     * or digest mismatch. */
    static bool decode(const std::vector<uint8_t> &bytes,
                       Snapshot &out);
    /// @}

  private:
    static constexpr uint8_t kTagU64 = 'Q';
    static constexpr uint8_t kTagI64 = 'q';
    static constexpr uint8_t kTagDouble = 'd';
    static constexpr uint8_t kTagBool = 'b';
    static constexpr uint8_t kTagString = 's';
    static constexpr uint8_t kTagSection = 'S';

    void putRaw(uint8_t tag, uint64_t v);
    uint64_t getRaw(uint8_t tag) const;
    void putBytes(uint8_t tag, const std::string &s);
    std::string getBytes(uint8_t tag) const;

    std::vector<uint8_t> payload;
    bool sealed = false;
    /** Double-salted FNV-1a over the payload (two independent salts:
     * a single 64-bit FNV can collide under adversarial edits; two
     * salted passes make an accidental pass astronomically unlikely). */
    uint64_t digestLo = 0;
    uint64_t digestHi = 0;
    mutable size_t rpos = 0;
};

/**
 * Receiver of engine checkpoints (SimConfig::checkpointSink). The
 * engine moves each sealed snapshot in; the sink owns it afterwards.
 */
class SnapshotSink
{
  public:
    virtual ~SnapshotSink() = default;
    /** @p cycle is the checkpoint's cycle (snapshot start-of-cycle
     * state); the snapshot is sealed. */
    virtual void accept(uint64_t cycle, Snapshot &&snap) = 0;
};

/** A SnapshotSink that keeps only the most recent checkpoint (what a
 * resumable consumer wants: older checkpoints are strictly dominated). */
class LatestSnapshotSink : public SnapshotSink
{
  public:
    void
    accept(uint64_t at, Snapshot &&snap) override
    {
        cycle = at;
        latest = std::move(snap);
        taken = true;
    }

    bool hasSnapshot() const { return taken; }

    uint64_t cycle = 0;
    Snapshot latest;

  private:
    bool taken = false;
};

/** A SnapshotSink that keeps every checkpoint, in capture order. */
class SnapshotCollector : public SnapshotSink
{
  public:
    void
    accept(uint64_t cycle, Snapshot &&snap) override
    {
        cycles.push_back(cycle);
        snaps.push_back(std::move(snap));
    }

    std::vector<uint64_t> cycles;
    std::vector<Snapshot> snaps;
};

} // namespace overgen::sim

#endif // OVERGEN_SIM_SNAPSHOT_H
