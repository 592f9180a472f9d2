/**
 * @file
 * Uncore idle-skip tests: the event-horizon queries every skip decision
 * rests on, the active-router mesh worklist against the reference
 * full-sweep tick, the sequential engine's parked-core bookkeeping, and
 * the replicate-or-change-nothing contract where the watchdog, periodic
 * checkpoints and the idle-epoch give-up are live at skipped barriers.
 * The on/off identity of stats, traces and checkpoints across engines
 * and workers is the idleSkip row of tests/test_fastpath_identity.cpp.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "mem/noc_axi_memctrl.hpp"
#include "noc/network.hpp"
#include "obs/trace_io.hpp"
#include "platform/prototype.hpp"
#include "riscv/interrupts.hpp"
#include "sim/event_queue.hpp"
#include "sim/random.hpp"
#include "sim/watchdog.hpp"
#include "snap/snapshot.hpp"
#include "support/identity.hpp"

namespace smappic
{
namespace
{

// ------------------------------------------------- horizon queries

TEST(IdleSkipHorizon, EventQueueNextDeadline)
{
    sim::EventQueue eq;
    EXPECT_EQ(eq.nextDeadline(), sim::kNoDeadline);
    int fired = 0;
    eq.schedule(40, [&] { ++fired; });
    eq.schedule(10, [&] { ++fired; });
    EXPECT_EQ(eq.nextDeadline(), 10u);
    eq.runUntil(10);
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(eq.nextDeadline(), 40u);
    eq.runUntil(100);
    EXPECT_EQ(eq.nextDeadline(), sim::kNoDeadline);
}

TEST(IdleSkipHorizon, ClintNextTimerCycle)
{
    riscv::ClintController clint(2);
    // Reset mtimecmp (~0) never counts as an armed timer.
    EXPECT_EQ(clint.nextTimerCycle(), sim::kNoDeadline);
    clint.write(riscv::kClintMtimecmpBase, 500, 8);
    clint.write(riscv::kClintMtimecmpBase + 8, 300, 8);
    EXPECT_EQ(clint.nextTimerCycle(), 300u);
    clint.setTime(300); // Hart 1's timer fires; hart 0's still pending.
    EXPECT_EQ(clint.nextTimerCycle(), 500u);
    clint.setTime(600);
    EXPECT_EQ(clint.nextTimerCycle(), sim::kNoDeadline);
}

TEST(IdleSkipHorizon, MeshNextBusyCycleAndAdvance)
{
    noc::MeshNetwork net(noc::MeshTopology(4));
    int delivered = 0;
    for (TileId t = 0; t < 4; ++t)
        net.setDeliverFn(t, [&](const noc::Packet &) { ++delivered; });
    EXPECT_TRUE(net.idle());
    EXPECT_EQ(net.nextBusyCycle(), sim::kNoDeadline);

    net.advance(1000);
    EXPECT_EQ(net.now(), 1000u);
    EXPECT_TRUE(net.idle());

    noc::Packet p;
    p.srcTile = 0;
    p.dstTile = 3;
    p.payload.assign(4, 9);
    net.inject(p);
    EXPECT_FALSE(net.idle());
    EXPECT_EQ(net.nextBusyCycle(), net.now());
    net.run(100);
    EXPECT_EQ(delivered, 1);
    EXPECT_TRUE(net.idle());
    EXPECT_EQ(net.nextBusyCycle(), sim::kNoDeadline);
}

TEST(IdleSkipHorizon, WatchdogNextDeadline)
{
    sim::WatchdogConfig cfg;
    cfg.stallCycles = 100;
    sim::Watchdog wd(cfg, 2, nullptr);
    EXPECT_EQ(wd.nextDeadline(), sim::kNoDeadline); // Unprimed.
    wd.observe(50, {10, 20}, {true, true});
    EXPECT_EQ(wd.nextDeadline(), 150u);
    // Node 0 commits at 120: its window re-arms; node 1 doesn't.
    wd.observe(120, {15, 20}, {true, true});
    EXPECT_EQ(wd.nextDeadline(), 150u);
    auto verdict = wd.observe(150, {15, 20}, {true, true});
    EXPECT_TRUE(verdict.stallDetected);
    ASSERT_EQ(verdict.stalledNodes.size(), 1u);
    EXPECT_EQ(verdict.stalledNodes[0], 1u);
    EXPECT_EQ(wd.nextDeadline(), 220u); // Node 1 rebased at the fire.
}

// --------------------------- active-router worklist vs full sweep

/** Drives two identically configured meshes — one on the active-router
 *  worklist, one forced onto the reference full sweep — through the
 *  same randomized schedule of bursts and idle gaps, diffing the entire
 *  observable surface every cycle: delivery log, hop/delivery counters,
 *  buffered-flit occupancy, idle() and the binary trace. */
TEST(IdleSkipMeshEquivalence, RandomTrafficMatchesFullSweep)
{
    constexpr std::uint32_t kTiles = 12;
    noc::MeshNetwork active{noc::MeshTopology(kTiles)};
    noc::MeshNetwork sweep{noc::MeshTopology(kTiles)};
    sweep.setSweepTick(true);

    obs::Tracer activeTracer;
    obs::Tracer sweepTracer;
    obs::TraceConfig tc;
    tc.enabled = true;
    activeTracer.configure(tc, 1);
    sweepTracer.configure(tc, 1);
    active.setTracer(&activeTracer);
    sweep.setTracer(&sweepTracer);

    std::vector<std::string> activeLog;
    std::vector<std::string> sweepLog;
    auto logTo = [](std::vector<std::string> &log, TileId tile) {
        return [&log, tile](const noc::Packet &p) {
            std::ostringstream os;
            os << tile << ":" << p.srcTile << ":" << int(p.mshr) << ":"
               << p.payload.size();
            log.push_back(os.str());
        };
    };
    for (TileId t = 0; t < kTiles; ++t) {
        active.setDeliverFn(t, logTo(activeLog, t));
        sweep.setDeliverFn(t, logTo(sweepLog, t));
    }

    sim::Xoroshiro rng(1234);
    std::uint8_t mshr = 0;
    for (int step = 0; step < 400; ++step) {
        // Random burst: 0-3 packets with random endpoints and lengths,
        // with occasional multi-hundred-cycle idle gaps to force the
        // worklist through drain/compact/reactivate transitions.
        std::uint64_t burst = rng.below(4);
        for (std::uint64_t i = 0; i < burst; ++i) {
            noc::Packet p;
            p.srcTile = static_cast<TileId>(rng.below(kTiles));
            p.dstTile = static_cast<TileId>(rng.below(kTiles));
            if (p.dstTile == p.srcTile)
                p.dstTile = (p.dstTile + 1) % kTiles;
            p.mshr = mshr++;
            p.payload.assign(rng.below(9), 0x5a);
            active.inject(p);
            sweep.inject(p);
        }
        Cycles gap = rng.below(10) == 0 ? 200 + rng.below(300)
                                        : 1 + rng.below(4);
        for (Cycles c = 0; c < gap; ++c) {
            active.tick();
            sweep.tick();
            ASSERT_EQ(active.now(), sweep.now());
            ASSERT_EQ(active.idle(), sweep.idle());
            ASSERT_EQ(active.bufferedFlits(), sweep.bufferedFlits());
            ASSERT_EQ(active.deliveredPackets(), sweep.deliveredPackets());
            ASSERT_EQ(active.flitHops(), sweep.flitHops());
        }
        ASSERT_EQ(activeLog, sweepLog) << "diverged at step " << step;
    }
    // Drain whatever is still in flight and compare the final surface.
    active.run(2000);
    sweep.run(2000);
    EXPECT_TRUE(active.idle());
    EXPECT_TRUE(sweep.idle());
    EXPECT_EQ(activeLog, sweepLog);
    EXPECT_GT(activeLog.size(), 100u) << "workload too light to mean much";

    std::ostringstream activeBin;
    std::ostringstream sweepBin;
    obs::writeBinary(activeTracer, activeBin);
    obs::writeBinary(sweepTracer, sweepBin);
    EXPECT_EQ(activeBin.str() == sweepBin.str(), true)
        << "hop/delivery traces diverged";
}

/** Bulk advance over an idle span is exactly the same as ticking the
 *  cycles away — including for traffic injected afterwards. */
TEST(IdleSkipMeshEquivalence, AdvanceMatchesIdleTicks)
{
    noc::MeshNetwork jumped(noc::MeshTopology(6));
    noc::MeshNetwork ticked(noc::MeshTopology(6));
    std::vector<std::string> jumpedLog;
    std::vector<std::string> tickedLog;
    auto logTo = [](std::vector<std::string> &log, TileId tile) {
        return [&log, tile](const noc::Packet &p) {
            log.push_back(std::to_string(tile) + ":" +
                          std::to_string(int(p.mshr)));
        };
    };
    for (TileId t = 0; t < 6; ++t) {
        jumped.setDeliverFn(t, logTo(jumpedLog, t));
        ticked.setDeliverFn(t, logTo(tickedLog, t));
    }

    jumped.advance(5000);
    for (Cycles c = 0; c < 5000; ++c)
        ticked.tick();
    ASSERT_EQ(jumped.now(), ticked.now());

    noc::Packet p;
    p.srcTile = 5;
    p.dstTile = 0;
    p.mshr = 42;
    p.payload.assign(6, 1);
    jumped.inject(p);
    ticked.inject(p);
    jumped.run(200);
    ticked.run(200);
    EXPECT_EQ(jumpedLog, tickedLog);
    EXPECT_EQ(jumped.flitHops(), ticked.flitHops());
    EXPECT_EQ(jumped.now(), ticked.now());
}

// ------------------------------- sequential engine parked cores

/** Regression for the historical all-wfi predicate: hart 0 sleeps on a
 *  timer set far past hart 1's exit. The old bookkeeping classified the
 *  run as all-idle the moment hart 0 was the only live core, advanced
 *  device time by a token 1000 cycles and marked hart 0 done without
 *  ever delivering its interrupt; the parked flag plus the horizon
 *  fast-forward must instead wake it and let it exit. */
constexpr const char *kParkedRegressionSource = R"(
_start:
    csrr t0, 0xf14
    bnez t0, hart1
    la t0, handler
    csrw 0x305, t0       # mtvec
    li t1, 0x80
    csrw 0x304, t1       # mie.MTIE
    csrr t2, 0x300
    ori t2, t2, 8
    csrw 0x300, t2       # mstatus.MIE
    li t3, 0x02004000    # mtimecmp[0] = 500000, long after hart 1 exits
    li t4, 500000
    sd t4, 0(t3)
idle:
    wfi
    j idle
handler:
    li a0, 55
    li a7, 93
    ecall
hart1:
    li t5, 100           # Short compute loop, then exit.
busy:
    addi t5, t5, -1
    bnez t5, busy
    li a0, 7
    li a7, 93
    ecall
)";

class IdleSkipSequential : public ::testing::TestWithParam<bool>
{
};

TEST_P(IdleSkipSequential, ParkedCoreWakesAfterSiblingExits)
{
    platform::PrototypeConfig cfg = platform::PrototypeConfig::parse("1x1x2");
    cfg.uncore.idleSkip = GetParam();
    platform::Prototype proto(cfg);
    proto.loadSource(kParkedRegressionSource);
    proto.runCores({0, 1}, 50'000);
    EXPECT_EQ(proto.core(1).exitCode(), 7);
    EXPECT_EQ(proto.core(0).exitCode(), 55)
        << "parked hart was never woken by its timer";
    // (No mtime assertion: after the wake the engine re-syncs mtime to
    // the max core clock, deliberately preserving the historical
    // rewind behavior — identical with the skip on or off.)
}

INSTANTIATE_TEST_SUITE_P(OnAndOff, IdleSkipSequential,
                         ::testing::Values(true, false));

// -------------------------------------- replicate-or-change-nothing

/** Phased 2x1x2 with two workers and the skip on or off. */
platform::PrototypeConfig
phasedConfig(bool idleSkip)
{
    platform::PrototypeConfig cfg = test::engineConfig("2x1x2", 2);
    cfg.uncore.idleSkip = idleSkip;
    return cfg;
}

/** The skip must see the watchdog's deadline: a live node whose only
 *  core is parked commits nothing for whole stall windows, so report-
 *  mode stall verdicts fire at idle barriers — the exact barriers a
 *  naive skip would jump over. The verdict sequence (and so the stats
 *  dump) must be identical with the skip on or off. */
TEST(IdleSkipIdentity, WatchdogVerdictsMatchOff)
{
    auto dumpFor = [](bool idleSkip) {
        platform::PrototypeConfig cfg = phasedConfig(idleSkip);
        cfg.watchdog.stallCycles = 4000;
        cfg.watchdog.action = sim::WatchdogAction::kReport;
        platform::Prototype proto(cfg);
        proto.loadSourceReplicated(test::kWfiTimerSource);
        proto.runCores({0, 1, 2, 3}, 60'000);
        return std::make_pair(
            test::statsDump(proto),
            proto.stats().counterValue("watchdog.stallsDetected"));
    };
    auto on = dumpFor(true);
    auto off = dumpFor(false);
    EXPECT_EQ(on.first, off.first);
    EXPECT_EQ(on.second, off.second);
    EXPECT_GT(on.second, 0u) << "workload never tripped the watchdog — "
                                "the deadline interaction went untested";
}

/** Periodic checkpoints land on interval marks the skip must not jump
 *  past: the mid-run checkpoint sets must be byte-identical on/off. */
TEST(IdleSkipIdentity, PeriodicCheckpointsMatchOff)
{
    auto checkpointsFor = [](bool idleSkip, const test::fs::path &dir) {
        platform::PrototypeConfig cfg = test::resumeConfig(dir, 20'000);
        cfg.uncore.idleSkip = idleSkip;
        platform::Prototype proto(cfg);
        proto.loadSourceReplicated(test::kWfiTimerSource);
        proto.runCores({0, 1, 2, 3}, 60'000);
        return snap::listCheckpoints(dir.string());
    };
    auto on = checkpointsFor(true, test::scratchDir("on"));
    auto off = checkpointsFor(false, test::scratchDir("off"));
    ASSERT_GE(on.size(), 2u) << "workload too short to checkpoint";
    ASSERT_EQ(on.size(), off.size());
    for (std::size_t i = 0; i < on.size(); ++i) {
        EXPECT_EQ(test::fs::path(on[i]).filename(),
                  test::fs::path(off[i]).filename());
        EXPECT_EQ(test::slurp(on[i]) == test::slurp(off[i]), true)
            << "checkpoint " << i << " diverged";
    }
}

/** A run whose parked core has no wake source at all ends through the
 *  idle-epoch give-up; the skip collapses the idle barrier walk into
 *  one jump, and the observable surface must not notice. */
constexpr const char *kNoWakeSource = R"(
_start:
    csrr t0, 0xf14
    bnez t0, finish
    wfi                  # No timer, no handler: parked forever.
    j _start
finish:
    li a0, 0
    li a7, 93
    ecall
)";

TEST(IdleSkipIdentity, GiveUpAfterIdleBudgetMatchesOff)
{
    test::fs::path dir = test::scratchDir("giveup");
    test::Surface on = test::runSurface(phasedConfig(true), kNoWakeSource,
                                        20'000, dir);
    test::Surface off = test::runSurface(phasedConfig(false), kNoWakeSource,
                                         20'000, dir);
    test::Verdict v;
    v.compare("off", on, off);
    EXPECT_TRUE(v.identical()) << v.report;
}

} // namespace
} // namespace smappic
