/**
 * @file
 * L1D fast-path tests: side-effect parity of MemPort::loadFastHit /
 * storeFastHit against the full CoherentSystem::access() walk in the
 * bail-heavy regimes where the audit looked for double side effects:
 * shared-line bounces (the fast path attempts and bails mid-run), armed
 * test mutations and attached coherence observers (the fast path must
 * not engage at all). The on/off identity of stats, traces and
 * checkpoints across engines and workers is the dataFastPath row of
 * tests/test_fastpath_identity.cpp.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>

#include "cache/coherent_system.hpp"
#include "platform/prototype.hpp"
#include "support/identity.hpp"

namespace smappic
{
namespace
{

/** Sequential 2x1x2 with the data fast path on or off. */
platform::PrototypeConfig
mixConfig(bool fastPath)
{
    platform::PrototypeConfig cfg = test::engineConfig("2x1x2", 0);
    cfg.core.dataFastPath = fastPath;
    return cfg;
}

// ------------------------------------------ bail-parity (audit pins)

/** Audit pin: a bailing fast-path attempt must leave no side effect
 *  behind before the slow path re-runs the same access. The shared
 *  line bounces between harts, so store attempts bail on every
 *  post-recall iteration; any LRU touch or counter bump leaked by a
 *  failed attempt would shift the stats dump. */
TEST(L1dFastPathBail, SharedLineBounceStatsMatchOff)
{
    auto dumpFor = [](bool fastPath) {
        platform::Prototype proto(mixConfig(fastPath));
        proto.loadSourceReplicated(test::kShareMixSource);
        proto.runCores({0, 1, 2, 3}, 40'000);
        return test::statsDump(proto);
    };
    EXPECT_EQ(dumpFor(true), dumpFor(false));
}

/** Audit pin: an armed TestMutation must force every access down the
 *  slow path (the stale-copy bookkeeping lives there), and the armed
 *  runs must be stats-identical with the fast path on or off. */
TEST(L1dFastPathBail, ArmedMutationStatsMatchOff)
{
    auto runFor = [](bool fastPath) {
        platform::Prototype proto(mixConfig(fastPath));
        riscv::Program prog =
            proto.loadSourceReplicated(test::kShareMixSource);
        Addr shared = 0;
        for (const auto &sym : prog.symbols) {
            if (sym.first == "shared")
                shared = sym.second;
        }
        EXPECT_NE(shared, 0u);
        proto.memorySystem().setTestMutation(
            cache::TestMutation::kLostInvalidation, shared);
        proto.runCores({0, 1, 2, 3}, 40'000);
        return std::make_pair(test::statsDump(proto),
                              proto.memorySystem().staleCopyActive());
    };
    auto on = runFor(true);
    auto off = runFor(false);
    EXPECT_EQ(on.first, off.first);
    EXPECT_EQ(on.second, off.second);
}

/** Audit pin: with a coherence checker attached the fast path must not
 *  engage (observers contract to see full transitions), and the run
 *  stays stats-identical and violation-free either way. */
TEST(L1dFastPathBail, AttachedCheckerStatsMatchOff)
{
    auto runFor = [](bool fastPath) {
        platform::PrototypeConfig cfg = mixConfig(fastPath);
        cfg.check.enabled = true;
        platform::Prototype proto(cfg);
        proto.loadSourceReplicated(test::kShareMixSource);
        proto.runCores({0, 1, 2, 3}, 40'000);
        EXPECT_EQ(proto.checker()->violations().size(), 0u);
        return test::statsDump(proto);
    };
    EXPECT_EQ(runFor(true), runFor(false));
}

/** Direct unit probe of the bail contract: a missing line returns
 *  false having mutated nothing — the subsequent access() must behave
 *  exactly as on a system that never saw the fast-path attempt. */
TEST(L1dFastPathUnit, FailedAttemptLeavesNoTrace)
{
    auto build = [] {
        cache::Geometry geo;
        geo.nodes = 1;
        geo.tilesPerNode = 2;
        geo.dramBase = 0x8000'0000;
        geo.memPerNode = 1ull << 20;
        geo.llcSliceBytes = 1ull << 16;
        return geo;
    };
    sim::StatRegistry stats_a;
    sim::StatRegistry stats_b;
    cache::TimingParams timing;
    cache::CoherentSystem a(build(), timing,
                            cache::HomingPolicy::kAddressNode, &stats_a);
    cache::CoherentSystem b(build(), timing,
                            cache::HomingPolicy::kAddressNode, &stats_b);

    // `a` suffers a barrage of failed fast-path attempts, `b` none.
    Cycles lat = 0;
    for (int i = 0; i < 16; ++i) {
        EXPECT_FALSE(a.loadFastHit(0, 0x8000'0000, lat));
        EXPECT_FALSE(a.storeFastHit(0, 0x8000'0000, lat));
    }

    // Identical access sequences from here on must produce identical
    // timing and identical stats on both systems.
    for (cache::AccessType t :
         {cache::AccessType::kLoad, cache::AccessType::kStore,
          cache::AccessType::kLoad}) {
        auto ra = a.access(0, 0x8000'0000, t, 8, 100);
        auto rb = b.access(0, 0x8000'0000, t, 8, 100);
        EXPECT_EQ(ra.latency, rb.latency);
    }
    std::ostringstream da;
    std::ostringstream db;
    stats_a.dump(da);
    stats_b.dump(db);
    EXPECT_EQ(da.str(), db.str());

    // And a successful fast hit replays the slow hit exactly.
    Cycles fast_lat = 0;
    ASSERT_TRUE(a.loadFastHit(0, 0x8000'0000, fast_lat));
    auto slow = b.access(0, 0x8000'0000, cache::AccessType::kLoad, 8, 200);
    EXPECT_EQ(fast_lat, slow.latency);
    ASSERT_TRUE(a.storeFastHit(0, 0x8000'0000, fast_lat));
    auto slow_st =
        b.access(0, 0x8000'0000, cache::AccessType::kStore, 8, 300);
    EXPECT_EQ(fast_lat, slow_st.latency);
    std::ostringstream da2;
    std::ostringstream db2;
    stats_a.dump(da2);
    stats_b.dump(db2);
    EXPECT_EQ(da2.str(), db2.str());
}

} // namespace
} // namespace smappic
