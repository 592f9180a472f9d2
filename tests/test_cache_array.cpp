/**
 * @file
 * Unit and property tests for the set-associative CacheArray.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>

#include "cache/cache_array.hpp"
#include "sim/log.hpp"
#include "sim/random.hpp"
#include "snap/state_io.hpp"

namespace smappic::cache
{
namespace
{

TEST(CacheArray, GeometryDerivation)
{
    CacheArray c(8 << 10, 4, 64); // Table 2 L1D: 8 KB, 4 ways.
    EXPECT_EQ(c.sets(), 32u);
    EXPECT_EQ(c.ways(), 4u);
    EXPECT_EQ(c.lineBytes(), 64u);
}

TEST(CacheArray, RejectsBadGeometry)
{
    EXPECT_THROW(CacheArray(1000, 3, 64), FatalError);
    EXPECT_THROW(CacheArray(8 << 10, 0, 64), FatalError);
    EXPECT_THROW(CacheArray(8 << 10, 4, 48), FatalError);
}

TEST(CacheArray, InsertThenHit)
{
    CacheArray c(4 << 10, 4);
    EXPECT_FALSE(c.lookup(0x1000));
    EXPECT_FALSE(c.insert(0x1000, 7).has_value());
    EXPECT_TRUE(c.lookup(0x1000));
    EXPECT_TRUE(c.lookup(0x103f)); // Same line.
    EXPECT_FALSE(c.lookup(0x1040)); // Next line.
    EXPECT_EQ(c.state(0x1000), 7u);
}

TEST(CacheArray, LookupIfStateMatchesProbeStateLookupFusion)
{
    CacheArray c(256, 4, 64); // One set, 4 ways.
    c.insert(0x000, 2);
    c.insert(0x100, 3);
    // State mismatch: no hit, and crucially no LRU movement.
    EXPECT_FALSE(c.lookupIfState(0x000, 3));
    EXPECT_FALSE(c.lookupIfState(0x200, 2)); // Not resident.
    // Matching state hits and touches LRU exactly like lookup():
    // after touching only line 0x100, line 0x000 must be the victim.
    EXPECT_TRUE(c.lookupIfState(0x100, 3));
    c.insert(0x200, 0);
    c.insert(0x300, 0);
    auto victim = c.insert(0x400, 0);
    ASSERT_TRUE(victim.has_value());
    EXPECT_EQ(victim->line, 0x000u);
}

TEST(CacheArray, LruEviction)
{
    CacheArray c(256, 4, 64); // One set, 4 ways.
    // Fill the set; all map to set 0.
    for (Addr a = 0; a < 4; ++a)
        EXPECT_FALSE(c.insert(a * 256 * 1, 0).has_value());
    // Touch lines 1..3, leaving line 0 LRU.
    for (Addr a = 1; a < 4; ++a)
        EXPECT_TRUE(c.lookup(a * 256));
    auto victim = c.insert(4 * 256, 0);
    ASSERT_TRUE(victim.has_value());
    EXPECT_EQ(victim->line, 0u);
}

TEST(CacheArray, VictimCarriesState)
{
    CacheArray c(64, 1, 64); // Direct-mapped, one set.
    c.insert(0x0, 42);
    auto victim = c.insert(0x40 * 1, 0); // Same set? sets=1, yes.
    ASSERT_TRUE(victim.has_value());
    EXPECT_EQ(victim->state, 42u);
}

TEST(CacheArray, InvalidateReturnsState)
{
    CacheArray c(4 << 10, 4);
    c.insert(0x2000, 3);
    auto st = c.invalidate(0x2000);
    ASSERT_TRUE(st.has_value());
    EXPECT_EQ(*st, 3u);
    EXPECT_FALSE(c.lookup(0x2000));
    EXPECT_FALSE(c.invalidate(0x2000).has_value());
}

TEST(CacheArray, DoubleInsertPanics)
{
    CacheArray c(4 << 10, 4);
    c.insert(0x3000);
    EXPECT_THROW(c.insert(0x3000), PanicError);
}

TEST(CacheArray, FlushAndOccupancy)
{
    CacheArray c(4 << 10, 4);
    for (Addr a = 0; a < 10; ++a)
        c.insert(a * 64);
    EXPECT_EQ(c.occupancy(), 10u);
    c.flush();
    EXPECT_EQ(c.occupancy(), 0u);
}

TEST(CacheArray, ForEachLineEnumerates)
{
    CacheArray c(4 << 10, 4);
    std::set<Addr> inserted;
    for (Addr a = 0; a < 16; ++a) {
        c.insert(a * 64, static_cast<std::uint32_t>(a));
        inserted.insert(a * 64);
    }
    std::set<Addr> seen;
    c.forEachLine([&](Addr line, std::uint32_t state) {
        seen.insert(line);
        EXPECT_EQ(state, line / 64);
    });
    EXPECT_EQ(seen, inserted);
}

TEST(CacheArray, SlotsAreStableUntilEviction)
{
    CacheArray c(256, 4, 64); // One set, 4 ways.
    ASSERT_EQ(c.slots(), 4u);
    for (Addr a = 0; a < 4; ++a) {
        std::uint32_t slot = CacheArray::kNoSlot;
        c.insert(a * 256, 0, &slot);
        EXPECT_EQ(slot, a);
        EXPECT_EQ(c.slotOf(a * 256 + 8), a);
        EXPECT_EQ(c.lineAt(slot), a * 256);
    }
    c.invalidate(256);
    EXPECT_EQ(c.slotOf(256), CacheArray::kNoSlot);
    EXPECT_FALSE(c.lineAt(1).has_value());

    // A fill takes the first empty slot, then the LRU victim's slot.
    std::uint32_t slot = CacheArray::kNoSlot;
    EXPECT_FALSE(c.insert(4 * 256, 0, &slot).has_value());
    EXPECT_EQ(slot, 1u);
    c.lookup(0);
    auto victim = c.insert(5 * 256, 0, &slot);
    ASSERT_TRUE(victim.has_value());
    EXPECT_EQ(victim->line, 2 * 256u);
    EXPECT_EQ(slot, 2u);
    EXPECT_EQ(c.lineAt(2), 5 * 256u);
}

TEST(CacheArray, VictimSlotPredictsInsertAndMutatesNothing)
{
    CacheArray c(256, 4, 64); // One set, 4 ways.
    for (Addr a = 0; a < 3; ++a) {
        EXPECT_EQ(c.victimSlot(a * 256), CacheArray::kNoSlot);
        c.insert(a * 256, 0);
    }
    EXPECT_EQ(c.victimSlot(3 * 256), CacheArray::kNoSlot);
    c.insert(3 * 256, 0);
    c.lookup(0);
    c.lookup(256);
    // Line 2 is LRU; asking twice changes nothing.
    EXPECT_EQ(c.victimSlot(9 * 256), 2u);
    EXPECT_EQ(c.victimSlot(9 * 256), 2u);
    std::uint32_t slot = CacheArray::kNoSlot;
    auto victim = c.insert(9 * 256, 0, &slot);
    ASSERT_TRUE(victim.has_value());
    EXPECT_EQ(victim->line, 2 * 256u);
    EXPECT_EQ(slot, 2u);
    EXPECT_EQ(c.victimSlot(10 * 256), 3u);
}

TEST(CacheArray, RestoreRejectsLineInTheWrongSet)
{
    // Two sets: line 0x40 belongs to set 1, never to slot 0 of set 0.
    CacheArray src(256, 2, 64);
    src.insert(0x00, 5);
    std::ostringstream os;
    snap::Writer w(os);
    w.begin(snap::Section::kCache);
    src.saveState(w);
    w.end();
    w.finish();
    // Past the file and section headers (24 + 24 bytes) the payload
    // holds geometry and clock (20 bytes), then slot 0's valid byte and
    // line. Rewrite the payload with slot 0 holding a set-1 line.
    std::string payload = os.str().substr(24 + 24);
    const Addr misplaced = 0x40;
    payload.replace(20 + 1, sizeof(misplaced),
                    reinterpret_cast<const char *>(&misplaced),
                    sizeof(misplaced));
    std::ostringstream edited;
    snap::Writer w2(edited);
    w2.begin(snap::Section::kCache);
    w2.bytes(payload.data(), payload.size());
    w2.end();
    w2.finish();

    namespace fs = std::filesystem;
    fs::path path = fs::path(::testing::TempDir()) / "cache_array_wrong_set";
    std::ofstream(path, std::ios::binary | std::ios::trunc) << edited.str();
    snap::Reader r(path.string());
    r.open(snap::Section::kCache);
    CacheArray dst(256, 2, 64);
    EXPECT_THROW(dst.restoreState(r), FatalError);
}

/** Property: occupancy never exceeds capacity; a hit after insert-without-
 *  eviction is guaranteed. */
TEST(CacheArray, PropertyRandomizedOccupancyBound)
{
    sim::Xoroshiro rng(123);
    CacheArray c(2 << 10, 2);
    std::uint64_t capacity = c.sets() * c.ways();
    for (int i = 0; i < 20000; ++i) {
        Addr addr = rng.below(1 << 20) & ~0x3fULL;
        if (!c.probe(addr))
            c.insert(addr);
        ASSERT_LE(c.occupancy(), capacity);
        ASSERT_TRUE(c.probe(addr)); // Just-inserted line is resident.
    }
}

/** Property: a working set no larger than one set's ways never thrashes. */
TEST(CacheArray, PropertyNoConflictWithinAssociativity)
{
    CacheArray c(8 << 10, 4);
    // Four lines in the same set must all stay resident.
    std::uint64_t set_stride = 64ULL * c.sets();
    for (int w = 0; w < 4; ++w)
        c.insert(0x100000 + w * set_stride);
    for (int w = 0; w < 4; ++w)
        EXPECT_TRUE(c.probe(0x100000 + w * set_stride));
}

} // namespace
} // namespace smappic::cache
