/**
 * @file
 * Pins the CoherentSystem miss walk's observable bytes — SMCK cache
 * section and stats dump — over a seeded trace that exercises LLC
 * evictions with private recalls, owner downgrades, store upgrades,
 * atomics and cross-node misses, and checks the checkpoint round trip,
 * the rejection of corrupt directory sections and the stat-handle rules
 * (lazy registration; by-name lookups under the phased engine).
 */

#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "cache/coherent_system.hpp"
#include "sim/log.hpp"
#include "sim/random.hpp"
#include "snap/state_io.hpp"

namespace smappic::cache
{
namespace
{

namespace fs = std::filesystem;

/** SMCK file header plus one section header precede the first payload. */
constexpr std::size_t kFirstPayload = 24 + 24;

Geometry
layoutGeo()
{
    Geometry g;
    g.nodes = 4;
    g.tilesPerNode = 4;
    g.memPerNode = 1ULL << 30;
    g.llcSliceBytes = 8 << 10;
    return g;
}

std::uint64_t
fnv1a(const std::string &bytes)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (unsigned char c : bytes) {
        h ^= c;
        h *= 0x100000001b3ULL;
    }
    return h;
}

/** One SMCK file holding @p tag's payload as written by @p save. */
template <typename Save>
std::string
smckBytes(snap::Section tag, Save save)
{
    std::ostringstream os;
    snap::Writer w(os);
    w.begin(tag);
    save(w);
    w.end();
    w.finish();
    return os.str();
}

std::string
cacheBytes(const CoherentSystem &cs)
{
    return smckBytes(snap::Section::kCache,
                     [&](snap::Writer &w) { cs.saveState(w); });
}

std::string
statsBytes(const sim::StatRegistry &reg)
{
    return smckBytes(snap::Section::kStats,
                     [&](snap::Writer &w) { snap::saveRegistry(w, reg); });
}

std::string
statsJson(const sim::StatRegistry &reg)
{
    std::ostringstream os;
    reg.dumpJson(os);
    return os.str();
}

/** Writes @p bytes to a per-test file and opens it at @p tag. */
snap::Reader
openBytes(const std::string &name, const std::string &bytes,
          snap::Section tag)
{
    fs::path path = fs::path(::testing::TempDir()) / ("misswalk_" + name);
    {
        std::ofstream os(path, std::ios::binary | std::ios::trunc);
        os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    }
    snap::Reader r(path.string());
    r.open(tag);
    return r;
}

/**
 * Seeded mixed trace over all 16 tiles: a hot set shared by every tile
 * (downgrades, invalidations, upgrades, atomics) and a cold set per node
 * eight times larger than the node's LLC (evictions with recalls).
 */
std::vector<Cycles>
runTrace(CoherentSystem &cs, std::uint64_t seed, Cycles &now, int count)
{
    sim::Xoroshiro rng(seed);
    const Geometry &geo = cs.geometry();
    std::vector<Cycles> latencies;
    latencies.reserve(static_cast<std::size_t>(count));
    for (int i = 0; i < count; ++i) {
        auto gid = static_cast<GlobalTileId>(rng.below(geo.totalTiles()));
        Addr node_base = rng.below(geo.nodes) * geo.memPerNode;
        Addr line = rng.chance(0.3) ? rng.below(48) : 64 + rng.below(4096);
        Addr addr = node_base + line * kCacheLineBytes + rng.below(8) * 8;
        AccessType type;
        std::uint64_t pick = rng.below(20);
        if (pick < 9)
            type = AccessType::kLoad;
        else if (pick < 10)
            type = AccessType::kFetch;
        else if (pick < 17)
            type = AccessType::kStore;
        else
            type = AccessType::kAtomic;
        now += 1 + rng.below(40);
        latencies.push_back(cs.access(gid, addr, type, 8, now).latency);
    }
    return latencies;
}

struct Pinned
{
    HomingPolicy homing;
    std::uint64_t cacheFnv;
    std::uint64_t statsFnv;
};

void
PrintTo(const Pinned &pin, std::ostream *os)
{
    *os << "homing " << static_cast<int>(pin.homing);
}

class MissWalkPinned : public ::testing::TestWithParam<Pinned>
{
};

TEST_P(MissWalkPinned, CheckpointAndStatsBytesAreUnchanged)
{
    const Pinned &pin = GetParam();
    sim::StatRegistry stats_a;
    CoherentSystem a(layoutGeo(), TimingParams{}, pin.homing, &stats_a);
    Cycles now = 0;
    runTrace(a, 0x5eed'0001, now, 20000);

    // The trace reaches every protocol path the layout change touches.
    for (const char *name :
         {"cs.llc.evictions", "cs.llc.writebacks", "cs.dir.invalidations",
          "cs.dir.ownerRecalls", "cs.dir.downgrades", "cs.atomics",
          "cs.bpc.writebacks", "cs.bridge.crossings",
          "cs.serviced.llcRemote", "cs.serviced.dramRemote"})
        EXPECT_GT(stats_a.counterValue(name), 0u) << name;
    ASSERT_TRUE(a.checkDirectory());
    ASSERT_TRUE(a.checkInclusion());

    const std::string saved = cacheBytes(a);
    EXPECT_EQ(fnv1a(saved), pin.cacheFnv);
    EXPECT_EQ(fnv1a(statsJson(stats_a)), pin.statsFnv);

    // Restore cache state and stats into a fresh system.
    sim::StatRegistry stats_b;
    CoherentSystem b(layoutGeo(), TimingParams{}, pin.homing, &stats_b);
    const std::string tag =
        std::to_string(static_cast<int>(pin.homing));
    {
        snap::Reader r =
            openBytes("cache" + tag, saved, snap::Section::kCache);
        b.restoreState(r);
    }
    {
        snap::Reader r = openBytes("stats" + tag, statsBytes(stats_a),
                                   snap::Section::kStats);
        snap::restoreRegistry(r, stats_b);
    }
    EXPECT_EQ(cacheBytes(b), saved);
    EXPECT_TRUE(b.checkDirectory());
    EXPECT_TRUE(b.checkInclusion());

    // Both systems continue identically.
    Cycles now_b = now;
    std::vector<Cycles> lat_a = runTrace(a, 0x5eed'0002, now, 5000);
    std::vector<Cycles> lat_b = runTrace(b, 0x5eed'0002, now_b, 5000);
    EXPECT_EQ(lat_a, lat_b);
    EXPECT_EQ(statsJson(stats_a), statsJson(stats_b));
    EXPECT_EQ(cacheBytes(a), cacheBytes(b));
}

// Constants computed on the hash-map directory implementation; the
// in-LLC directory must reproduce them bit for bit.
INSTANTIATE_TEST_SUITE_P(
    Homing, MissWalkPinned,
    ::testing::Values(Pinned{HomingPolicy::kAddressNode,
                             5847851656040928946ULL, 16283645315352071361ULL},
                      Pinned{HomingPolicy::kGlobalHash, 1118289726434878520ULL,
                             2828493715279735264ULL}),
    [](const ::testing::TestParamInfo<Pinned> &info) {
        return info.param.homing == HomingPolicy::kAddressNode
                   ? std::string("AddressNode")
                   : std::string("GlobalHash");
    });

TEST(MissWalkLayout, RejectsDirectoryEntryForNonResidentLine)
{
    CoherentSystem a(layoutGeo(), TimingParams{}, HomingPolicy::kAddressNode);
    Cycles now = 0;
    runTrace(a, 0x5eed'0003, now, 2000);
    const std::string saved = cacheBytes(a);

    // Payload: u32 nodes, u32 tiles, u64 count, then entries that start
    // with their u64 line. Point the first entry at a line the trace
    // never touched, so no home slice holds it.
    std::string payload = saved.substr(kFirstPayload);
    std::uint64_t count = 0;
    std::memcpy(&count, payload.data() + 8, sizeof(count));
    ASSERT_GT(count, 0u);
    const Addr absent = 0x3000'0000;
    ASSERT_FALSE(a.inspectLine(absent).homeSliceHolds);
    std::memcpy(payload.data() + 16, &absent, sizeof(absent));
    const std::string corrupt =
        smckBytes(snap::Section::kCache, [&](snap::Writer &w) {
            w.bytes(payload.data(), payload.size());
        });

    CoherentSystem b(layoutGeo(), TimingParams{}, HomingPolicy::kAddressNode);
    snap::Reader r = openBytes("corrupt", corrupt, snap::Section::kCache);
    EXPECT_THROW(b.restoreState(r), FatalError);

    // The unedited bytes restore cleanly into the same kind of system.
    CoherentSystem c(layoutGeo(), TimingParams{}, HomingPolicy::kAddressNode);
    snap::Reader ok = openBytes("uncorrupt", saved, snap::Section::kCache);
    c.restoreState(ok);
    EXPECT_EQ(cacheBytes(c), saved);
}

TEST(MissWalkLayout, StatsRegisterLazilyOnFirstUse)
{
    // Warm a system, then move its cache state (not its stats) into a
    // fresh one that only takes L1 hits: no miss-path stat may appear.
    CoherentSystem warm(layoutGeo(), TimingParams{},
                        HomingPolicy::kAddressNode);
    warm.access(0, 0x1000, AccessType::kLoad, 8, 0);
    warm.access(0, 0x2000, AccessType::kFetch, 8, 1000);
    warm.access(0, 0x3000, AccessType::kStore, 8, 2000);

    sim::StatRegistry stats;
    CoherentSystem cs(layoutGeo(), TimingParams{}, HomingPolicy::kAddressNode,
                      &stats);
    std::ostringstream empty;
    stats.dump(empty);
    EXPECT_EQ(empty.str(), "");

    snap::Reader r =
        openBytes("lazy", cacheBytes(warm), snap::Section::kCache);
    cs.restoreState(r);
    EXPECT_EQ(cs.access(0, 0x1008, AccessType::kLoad, 8, 5000).level,
              ServiceLevel::kL1);
    Cycles lat = 0;
    EXPECT_TRUE(cs.loadFastHit(0, 0x1010, lat));
    EXPECT_TRUE(cs.fetchFastHit(0, 0x2000, lat));
    EXPECT_TRUE(cs.storeFastHit(0, 0x3000, lat));

    std::ostringstream os;
    stats.dump(os);
    const std::string dump = os.str();
    EXPECT_NE(dump.find("cs.l1.hits 3"), std::string::npos) << dump;
    EXPECT_NE(dump.find("cs.l1.storeHits 1"), std::string::npos) << dump;
    for (const char *name :
         {"cs.bridge.crossings", "cs.llc.fills", "cs.missLatency",
          "cs.bpc.misses", "cs.dram.accesses"})
        EXPECT_EQ(dump.find(name), std::string::npos) << name << "\n"
                                                       << dump;
}

TEST(MissWalkLayout, ParallelModeBypassesCachedHandles)
{
    sim::StatRegistry root;
    CoherentSystem cs(layoutGeo(), TimingParams{}, HomingPolicy::kAddressNode,
                      &root);
    // Serial misses and hits resolve and cache the handles in the root.
    const Addr remote = layoutGeo().memPerNode + 0x4000;
    cs.access(0, 0x1000, AccessType::kLoad, 8, 0);
    cs.access(0, remote, AccessType::kLoad, 8, 1000);
    Cycles lat = 0;
    ASSERT_TRUE(cs.loadFastHit(0, 0x1000, lat));
    const std::uint64_t root_misses = root.counterValue("cs.bpc.misses");
    const std::uint64_t root_hits = root.counterValue("cs.l1.hits");
    const std::uint64_t root_crossings =
        root.counterValue("cs.bridge.crossings");
    const std::uint64_t root_samples =
        root.summaries().at("cs.missLatency").count();

    // Under the phased engine the same stats must land in the shard.
    cs.setParallel(true);
    sim::StatRegistry shard;
    {
        sim::StatRegistry::Redirect redirect(&root, &shard);
        cs.access(4, remote + 0x40, AccessType::kLoad, 8, 2000);
        cs.access(4, 0x1000, AccessType::kStore, 8, 3000);
        ASSERT_TRUE(cs.loadFastHit(4, remote + 0x40, lat));
    }
    cs.setParallel(false);

    EXPECT_EQ(shard.counterValue("cs.bpc.misses"), 2u);
    EXPECT_EQ(shard.counterValue("cs.l1.hits"), 1u);
    EXPECT_GT(shard.counterValue("cs.bridge.crossings"), 0u);
    EXPECT_GT(shard.counterValue("cs.dir.invalidations"), 0u);
    EXPECT_EQ(shard.summaries().at("cs.missLatency").count(), 2u);
    EXPECT_EQ(root.counterValue("cs.bpc.misses"), root_misses);
    EXPECT_EQ(root.counterValue("cs.l1.hits"), root_hits);
    EXPECT_EQ(root.counterValue("cs.bridge.crossings"), root_crossings);
    EXPECT_EQ(root.counterValue("cs.dir.invalidations"), 0u);
    EXPECT_EQ(root.summaries().at("cs.missLatency").count(), root_samples);

    // Back in serial mode the cached root handles are used again.
    cs.access(8, 0x1000, AccessType::kLoad, 8, 4000);
    EXPECT_EQ(root.counterValue("cs.bpc.misses"), root_misses + 1);
    EXPECT_EQ(shard.counterValue("cs.bpc.misses"), 2u);
}

} // namespace
} // namespace smappic::cache
