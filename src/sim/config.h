#ifndef OVERGEN_SIM_CONFIG_H
#define OVERGEN_SIM_CONFIG_H

/**
 * @file
 * Technology and microarchitecture constants of the cycle-level system
 * simulator (the stand-in for FPGA execution — see DESIGN.md
 * "Substitutions"). Latencies are in overlay cycles at the ~93 MHz
 * fabric clock of the paper's quad-tile floorplan.
 */

#include <cstdint>
#include <string>

namespace overgen::telemetry {
class Sink;
} // namespace overgen::telemetry

namespace overgen::sim {

/** Simulator configuration. */
struct SimConfig
{
    /** @name Shared memory system */
    /// @{
    int cacheLineBytes = 64;
    /** L2 hit latency (request + response, including NoC pipeline). */
    int l2HitLatency = 18;
    /** Associativity of each L2 bank. */
    int l2Ways = 8;
    /** MSHRs per L2 bank (sized for the latency-bandwidth product of
     * the DRAM path). */
    int l2MshrsPerBank = 32;
    /** Extra DRAM latency on an L2 miss. */
    int dramLatency = 60;
    /** DRAM bandwidth per channel (bytes/cycle at the ~93 MHz overlay
     * clock; DDR4 ~18 GB/s). */
    int dramChannelBandwidthBytes = 192;
    /** L2 bank bandwidth (bytes/cycle per bank). */
    int l2BankBandwidthBytes = 32;
    /// @}

    /** @name Stream dispatcher (paper §VI-B) */
    /// @{
    /** Cycles per stream-parameter configuration write. */
    int configCyclesPerStream = 1;
    /** Minimum RISC-V-to-dispatch latency (config + dispatch). */
    int dispatchLatency = 2;
    /** Extra pipeline stages on the dispatch bus (paper §VI-D
     * "conservative pipeline" for die-crossing timing). */
    int dispatchBusStages = 2;
    /// @}

    /** @name Stream engines (paper §VI-C) */
    /// @{
    /** Scratchpad access latency. */
    int spadLatency = 2;
    /** One-hot stream-table bypass (paper Fig. 11): when off, a lone
     * active stream issues every other cycle. */
    bool oneHotBypass = true;
    /** Latency of the recurrence forwarding path. */
    int recurrenceLatency = 3;
    /// @}

    /** Fabric pipeline drain allowance before declaring deadlock. */
    uint64_t maxCycles = 200'000'000ull;

    /** @name Simulation engine (see DESIGN.md "SimEngine and
     * event-horizon fast-forward") */
    /// @{
    /** Tick every component every cycle (the reference loop) instead
     * of event-horizon fast-forwarding provably dead cycles. Results
     * are bit-identical either way; this is the A/B and debugging
     * path (`--no-fast-forward` in the benches). */
    bool noFastForward = false;
    /** Debug mode: compute horizons as usual but execute the skipped
     * cycles anyway, asserting each one was genuinely quiescent
     * (no progress, frozen fingerprints). Much slower; test-only. */
    bool checkFastForward = false;
    /** Watchdog: abort with a per-component diagnostic dump when no
     * component makes forward progress for this many cycles
     * (0 disables). Real stall windows top out around the DRAM
     * round-trip (~100 cycles), so the default only fires on genuine
     * deadlocks — long before the maxCycles spin would end. */
    uint64_t deadlockCycles = 2'000'000ull;
    /// @}

    /**
     * Telemetry sink (counters + Chrome trace). Null disables all
     * observation: instrumentation sites guard on this pointer and
     * never affect simulated behavior either way.
     */
    telemetry::Sink *sink = nullptr;

    /**
     * Timeline run label (`"run"` in interval time-series rows).
     * Empty uses the kernel name; batch drivers set a unique
     * "<index>:<kernel>" so runs serialize in a deterministic order
     * for every batch thread count.
     */
    std::string runLabel;
};

} // namespace overgen::sim

#endif // OVERGEN_SIM_CONFIG_H
