#include "cache/coherent_system.hpp"

#include <algorithm>
#include <set>

#include "obs/tracer.hpp"
#include "sim/log.hpp"
#include "sim/parallel.hpp"
#include "snap/state_io.hpp"

namespace smappic::cache
{

namespace
{

/** Request packet wire footprint: header + address flit. */
constexpr std::uint32_t kReqBytes = 16;
/** Data packet wire footprint: header + address + 8 data flits. */
constexpr std::uint32_t kDataBytes = 16 + kCacheLineBytes;

/**
 * Registry names of CoherentSystem::Stat, in enum order. Held as strings
 * so that resolving a handle constructs none.
 */
const std::string kStatNames[] = {
    "cs.l1.hits",
    "cs.l1.storeHits",
    "cs.bpc.hits",
    "cs.bpc.misses",
    "cs.bpc.writebacks",
    "cs.bpc.cleanEvicts",
    "cs.bridge.crossings",
    "cs.bridge.bytes",
    "cs.dram.accesses",
    "cs.dir.ownerRecalls",
    "cs.dir.invalidations",
    "cs.dir.downgrades",
    "cs.dir.storeMisses",
    "cs.llc.fills",
    "cs.llc.evictions",
    "cs.llc.writebacks",
    "cs.atomics",
    "cs.device.loads",
    "cs.device.stores",
    "cs.nc.accesses",
    "cs.cdr.uncachedRemote",
    "cs.serviced.llcLocal",
    "cs.serviced.llcRemote",
    "cs.serviced.dramLocal",
    "cs.serviced.dramRemote",
    "cs.mutation.lostInvalidations",
    "cs.mutation.droppedOwnerUpdates",
};
const std::string kMissLatencyName = "cs.missLatency";

std::uint64_t
mixLine(Addr line)
{
    std::uint64_t x = line >> 6;
    x ^= x >> 33;
    x *= 0xff51afd7ed558ccdULL;
    x ^= x >> 33;
    return x;
}

} // namespace

CoherentSystem::CoherentSystem(const Geometry &geo, const TimingParams &timing,
                               HomingPolicy homing, sim::StatRegistry *stats)
    : geo_(geo), timing_(timing), homing_(homing)
{
    static_assert(std::size(kStatNames) ==
                  static_cast<std::size_t>(Stat::kCount));
    fatalIf(geo.nodes == 0 || geo.tilesPerNode == 0,
            "system needs at least one node and one tile");
    fatalIf(geo.totalTiles() > 64,
            "directory sharer mask supports at most 64 tiles");

    if (stats) {
        stats_ = stats;
    } else {
        ownedStats_ = std::make_unique<sim::StatRegistry>();
        stats_ = ownedStats_.get();
    }

    std::uint32_t total = geo.totalTiles();
    l1i_.reserve(total);
    l1d_.reserve(total);
    bpc_.reserve(total);
    llc_.reserve(total);
    for (std::uint32_t g = 0; g < total; ++g) {
        l1i_.emplace_back(geo.l1iBytes, geo.l1iWays);
        l1d_.emplace_back(geo.l1dBytes, geo.l1dWays);
        bpc_.emplace_back(geo.bpcBytes, geo.bpcWays);
        llc_.emplace_back(geo.llcSliceBytes, geo.llcWays);
    }
    llcSlots_ = llc_.front().slots();
    dir_ = std::make_unique_for_overwrite<DirEntry[]>(
        static_cast<std::size_t>(total) * llcSlots_);
    tileMu_ = std::make_unique<std::mutex[]>(total);
    statHandles_.resize(geo.nodes + 1);

    // Hop tables: every (from, to) pair of tiles plus the off-chip port,
    // which MeshTopology places north of tile 0.
    noc::MeshTopology topo(geo.tilesPerNode);
    std::uint32_t ports = geo.tilesPerNode + 1;
    auto port_tile = [&](std::uint32_t i) {
        return i == geo.tilesPerNode ? noc::kOffChipTile
                                     : static_cast<TileId>(i);
    };
    hops_.resize(static_cast<std::size_t>(ports) * ports);
    hopsOffChip_.resize(ports);
    for (std::uint32_t a = 0; a < ports; ++a) {
        for (std::uint32_t b = 0; b < ports; ++b)
            hops_[a * ports + b] = static_cast<std::uint8_t>(
                topo.hops(port_tile(a), port_tile(b)));
        hopsOffChip_[a] =
            static_cast<std::uint8_t>(topo.hopsToOffChip(port_tile(a)));
    }
    llcServer_.assign(total, sim::QueueServer(4));
    dramServer_.assign(geo.nodes, sim::QueueServer(timing_.dramBanks));
    for (std::uint32_t n = 0; n < geo.nodes; ++n) {
        // Several encapsulated transfers are pipelined at once (credit
        // window); 4 ways keeps the next-free-time model from charging
        // phantom queueing to slightly out-of-order arrivals.
        bridgeOut_.emplace_back(timing_.bridgeLatency,
                                timing_.bridgeBytesPerCycle, 4);
        bridgeIn_.emplace_back(timing_.bridgeLatency,
                               timing_.bridgeBytesPerCycle, 4);
        pcieOut_.emplace_back(timing_.pcieOneWay(),
                              timing_.pcieBytesPerCycle, 8);
    }
}

NodeId
CoherentSystem::addrNode(Addr addr) const
{
    Addr rel = addr >= geo_.dramBase ? addr - geo_.dramBase : 0;
    return static_cast<NodeId>((rel / geo_.memPerNode) % geo_.nodes);
}

std::pair<NodeId, TileId>
CoherentSystem::homeOf(Addr addr) const
{
    Addr line = lineAlign(addr);
    switch (homing_) {
      case HomingPolicy::kAddressNode: {
          NodeId node = addrNode(line);
          auto tile = static_cast<TileId>(mixLine(line) % geo_.tilesPerNode);
          return {node, tile};
      }
      case HomingPolicy::kGlobalHash: {
          auto gid =
              static_cast<GlobalTileId>(mixLine(line) % geo_.totalTiles());
          return {nodeOf(gid), tileOf(gid)};
      }
      case HomingPolicy::kNode0: {
          auto tile = static_cast<TileId>(mixLine(line) % geo_.tilesPerNode);
          return {0, tile};
      }
      case HomingPolicy::kCoherenceDomains: {
          // Within a domain, lines home on the owning node like the
          // SMAPPIC default; the restriction acts on out-of-domain
          // requesters (see access()).
          NodeId node = addrNode(line);
          auto tile = static_cast<TileId>(mixLine(line) % geo_.tilesPerNode);
          return {node, tile};
      }
    }
    panic("unknown homing policy");
}

sim::Counter &
CoherentSystem::stat(Stat s)
{
    // kNoNode (serial context) maps to the last set.
    NodeId acting = std::min<NodeId>(sim::currentNode(), geo_.nodes);
    auto i = static_cast<std::size_t>(s);
    return statHandles_[acting].get(*stats_, i, kStatNames[i]);
}

sim::Summary &
CoherentSystem::missLatencyStat()
{
    if (parallel_)
        return stats_->summaryStat(kMissLatencyName);
    if (missLatencyCache_ == nullptr)
        missLatencyCache_ = &stats_->summaryStat(kMissLatencyName);
    return *missLatencyCache_;
}

CoherentSystem::HomeRef
CoherentSystem::homeRef(Addr line) const
{
    auto [hn, ht] = homeOf(line);
    GlobalTileId gid = gidOf(hn, ht);
    return HomeRef{hn, ht, gid, llc_[gid].slotOf(line)};
}

void
CoherentSystem::addDevice(Addr base, std::uint64_t size, GlobalTileId gid,
                          NcDevice *dev)
{
    fatalIf(dev == nullptr, "device window without a device");
    fatalIf(gid >= geo_.totalTiles(), "device attached to unknown tile");
    for (const auto &w : devices_) {
        bool disjoint = base + size <= w.base || w.base + w.size <= base;
        fatalIf(!disjoint, "device windows overlap");
    }
    devices_.push_back(DeviceWindow{base, size, gid, dev});
}

Cycles
CoherentSystem::nocPath(NodeId sn, TileId st, NodeId dn, TileId dt,
                        std::uint32_t bytes, Cycles t, bool *crossed)
{
    const Cycles start = t;
    if (sn == dn) {
        std::uint32_t n = (dt == noc::kOffChipTile) ? hopsToOffChip(st)
                                                    : hops(st, dt);
        if (crossed)
            *crossed = false;
        Cycles done = t + timing_.nocInject + n * timing_.hopLatency;
        if (traceNoc_)
            traceNocPath(sn, st, dn, dt, bytes, start, done, false);
        return done;
    }

    // Inter-node: mesh to tile 0, northbound into the inter-node bridge,
    // AXI4 encapsulation, PCIe peer-to-peer transfer, decapsulation, mesh
    // to the destination tile (SMAPPIC section 3.1, stages 1-10).
    if (crossed)
        *crossed = true;
    stat(Stat::kBridgeCrossings).increment();
    stat(Stat::kBridgeBytes).increment(bytes);

    t += timing_.nocInject + hopsToOffChip(st) * timing_.hopLatency;
    t = bridgeOut_[sn].send(t, bytes);
    t = pcieOut_[sn].send(t, bytes);
    t = bridgeIn_[dn].send(t, bytes);
    if (dt != noc::kOffChipTile)
        t += hopsToOffChip(dt) * timing_.hopLatency; // Tile 0 + north hop.
    if (traceNoc_)
        traceNocPath(sn, st, dn, dt, bytes, start, t, true);
    return t;
}

void
CoherentSystem::setTracer(obs::Tracer *tracer)
{
    traceCache_ =
        tracer ? tracer->handleFor(obs::Component::kCache) : nullptr;
    traceNoc_ = tracer ? tracer->handleFor(obs::Component::kNoc) : nullptr;
}

void
CoherentSystem::traceNocPath(NodeId sn, TileId st, NodeId dn, TileId dt,
                             std::uint32_t bytes, Cycles start, Cycles end,
                             bool crossed)
{
    obs::TraceEvent ev = obs::event(obs::EventKind::kNocPath);
    ev.cycle = start;
    ev.duration = static_cast<std::uint32_t>(end - start);
    ev.arg = (static_cast<std::uint64_t>(sn) << 48) |
             (static_cast<std::uint64_t>(st) << 32) |
             (static_cast<std::uint64_t>(dn) << 16) |
             static_cast<std::uint64_t>(dt);
    ev.extra = bytes;
    ev.node = static_cast<std::uint16_t>(sn);
    ev.tile = static_cast<std::uint16_t>(st);
    ev.flags = crossed ? 1 : 0;
    traceNoc_->record(ev);
}

Cycles
CoherentSystem::dramAccess(NodeId node, std::uint32_t bytes, Cycles t)
{
    auto service = static_cast<Cycles>(
        static_cast<double>(bytes) / timing_.dramBytesPerCycle + 0.999999);
    if (service == 0)
        service = 1;
    auto grant = dramServer_[node].offer(t, service);
    stat(Stat::kDramAccesses).increment();
    return grant.done + timing_.dramLatency;
}

void
CoherentSystem::dropPrivate(Addr line, GlobalTileId gid)
{
    {
        // The recalled tile may be running its lock-free-looking hit
        // path on another worker right now; its guard orders the two.
        auto tile_guard = tileGuard(gid);
        l1d_[gid].invalidate(line);
        l1i_[gid].invalidate(line);
        bpc_[gid].invalidate(line);
    }
    maybeClearStale(line, gid);
}

void
CoherentSystem::loseInvalidation(DirEntry &dir, GlobalTileId gid)
{
    // The directory forgets the copy (as if the ack arrived) but the
    // tile's arrays are left untouched: from now on the tile serves the
    // frozen pre-store image of the line.
    forget(dir, gid);
    staleFired_ = true;
    staleVictim_ = gid;
    staleBytes_ = armedBytes_;
    stat(Stat::kMutationLostInvalidations).increment();
}

Cycles
CoherentSystem::recallPrivate(Addr line, const HomeRef &home, DirEntry &dir,
                              Cycles t, std::uint64_t keep)
{
    Cycles last_ack = t;

    auto round_trip = [&](GlobalTileId g, std::uint32_t resp_bytes) {
        Cycles tr =
            nocPath(home.node, home.tile, nodeOf(g), tileOf(g), kReqBytes, t);
        tr += timing_.privLatency;
        tr = nocPath(nodeOf(g), tileOf(g), home.node, home.tile, resp_bytes,
                     tr);
        last_ack = std::max(last_ack, tr);
    };

    if (dir.owner >= 0 && ((keep >> dir.owner) & 1) == 0) {
        auto g = static_cast<GlobalTileId>(dir.owner);
        round_trip(g, kDataBytes); // Owner returns dirty data.
        dir.dirty = true;
        dropPrivate(line, g);
        forget(dir, g);
        stat(Stat::kDirOwnerRecalls).increment();
    }
    std::uint64_t sharers = dir.sharers & ~keep;
    while (sharers) {
        auto g = static_cast<GlobalTileId>(__builtin_ctzll(sharers));
        sharers &= sharers - 1;
        round_trip(g, kReqBytes); // Clean sharers ack without data.
        if (shouldLoseInvalidation(line)) {
            loseInvalidation(dir, g);
        } else {
            dropPrivate(line, g);
            forget(dir, g);
        }
        stat(Stat::kDirInvalidations).increment();
    }
    return last_ack;
}

Cycles
CoherentSystem::llcEnsureResident(Addr line, HomeRef &home, Cycles t,
                                  bool &from_dram)
{
    if (home.slot != CacheArray::kNoSlot) {
        from_dram = false;
        return t;
    }

    from_dram = true;
    NodeId hn = home.node;
    TileId ht = home.tile;
    NodeId dram_node = addrNode(line);
    if (dram_node != hn) {
        // Only possible under kGlobalHash homing: the home slice and the
        // backing DRAM live on different nodes, so the fill crosses again.
        t = nocPath(hn, ht, dram_node, noc::kOffChipTile, kReqBytes, t);
        t = dramAccess(dram_node, kCacheLineBytes, t);
        t = nocPath(dram_node, noc::kOffChipTile, hn, ht, kDataBytes, t);
    } else {
        // Home slice talks to its node-local memory controller through the
        // chipset (off-chip port).
        t += hopsToOffChip(ht) * timing_.hopLatency;
        t = dramAccess(hn, kCacheLineBytes, t);
        t += hopsToOffChip(ht) * timing_.hopLatency;
    }

    auto victim = llc_[home.gid].insert(line, 0, &home.slot);
    DirEntry &entry = dirAt(home);
    if (victim) {
        // Inclusive LLC: the victim's directory entry is the one in the
        // slot just taken over. Recall every private copy of the victim
        // line and write it back if a tile owned it.
        Addr vline = victim->line;
        const DirEntry &vdir = entry;
        std::uint64_t members =
            vdir.sharers | (vdir.owner >= 0 ? (1ULL << vdir.owner) : 0);
        while (members) {
            auto g = static_cast<GlobalTileId>(__builtin_ctzll(members));
            members &= members - 1;
            dropPrivate(vline, g);
        }
        if (vdir.owner >= 0) {
            // Known gap: vdir.dirty (an LLC copy newer than DRAM) is not
            // written back; see INTERNALS "Miss-walk data layout".
            dramAccess(addrNode(vline), kCacheLineBytes, t); // Async.
            stat(Stat::kLlcWritebacks).increment();
        }
        t += timing_.llcEvictPenalty;
        stat(Stat::kLlcEvictions).increment();
    }

    entry = DirEntry{0, -1, true, false}; // No private copies yet.
    stat(Stat::kLlcFills).increment();
    return t;
}

void
CoherentSystem::privateFill(Addr line, GlobalTileId gid, std::uint32_t state,
                            bool fill_l1i, Cycles t)
{
    auto victim = bpc_[gid].insert(line, state);
    if (victim) {
        Addr vline = victim->line;
        // Keep L1 inclusive in the BPC.
        l1d_[gid].invalidate(vline);
        l1i_[gid].invalidate(vline);

        HomeRef vhome = homeRef(vline);
        if (vhome.slot == CacheArray::kNoSlot) {
            // Only reachable when a test mutation orphaned this copy
            // (the directory dropped it without the tile noticing and
            // the entry was since reclaimed); silently complete the
            // eviction — flagging the damage is the checker's job.
            panicIf(mutation_ == TestMutation::kNone,
                    "BPC line without a directory entry");
            maybeClearStale(vline, gid);
        } else {
            DirEntry &vdir = dirAt(vhome);
            if (victim->state == kModified) {
                // Dirty victim: write back to the home LLC slice. The
                // writeback is buffered, so it consumes path bandwidth
                // but does not delay the current transaction.
                nocPath(nodeOf(gid), tileOf(gid), vhome.node, vhome.tile,
                        kDataBytes, t);
                panicIf(vdir.owner != static_cast<std::int32_t>(gid) &&
                            mutation_ == TestMutation::kNone,
                        "dirty victim not owned by evicting tile");
                if (vdir.owner == static_cast<std::int32_t>(gid))
                    vdir.owner = -1;
                vdir.dirty = true;
                stat(Stat::kBpcWritebacks).increment();
            } else {
                // Clean victim: notify the directory (precise tracking).
                vdir.sharers &= ~(1ULL << gid);
                stat(Stat::kBpcCleanEvicts).increment();
            }
            maybeClearStale(vline, gid);
        }
    }
    maybeClearStale(line, gid); // A proper refill ends any stale episode.

    if (fill_l1i) {
        l1i_[gid].insert(line, kShared);
    } else {
        if (!l1d_[gid].probe(line))
            l1d_[gid].insert(line, kShared);
    }
}

AccessResult
CoherentSystem::deviceAccess(const DeviceWindow &w, GlobalTileId gid,
                             Addr addr, AccessType type, std::uint32_t bytes,
                             Cycles now)
{
    auto guard = parallelGuard();
    bool crossed = false;
    Cycles t = now + timing_.l1MissDetect;
    t = nocPath(nodeOf(gid), tileOf(gid), nodeOf(w.gid), tileOf(w.gid),
                kReqBytes + (type == AccessType::kNcStore ? bytes : 0), t,
                &crossed);
    Cycles service = timing_.deviceLatency;
    if (type == AccessType::kNcStore || type == AccessType::kStore ||
        type == AccessType::kAtomic) {
        std::uint64_t value = memory_.load(addr, std::min(bytes, 8u));
        w.dev->ncStore(addr - w.base, bytes, value, t, service);
        stat(Stat::kDeviceStores).increment();
    } else {
        std::uint64_t value = w.dev->ncLoad(addr - w.base, bytes, t, service);
        memory_.store(addr, std::min(bytes, 8u), value);
        stat(Stat::kDeviceLoads).increment();
    }
    t += service;
    t = nocPath(nodeOf(w.gid), tileOf(w.gid), nodeOf(gid), tileOf(gid),
                kReqBytes + (type == AccessType::kNcStore ? 0 : bytes), t);
    return AccessResult{t - now, ServiceLevel::kDevice, crossed};
}

bool
CoherentSystem::fetchFastHit(GlobalTileId gid, Addr addr, Cycles &lat)
{
    // Any armed test mutation routes everything down the slow path: the
    // stale-copy bookkeeping (stalePeek) lives there.
    if (mutation_ != TestMutation::kNone)
        return false;
    // Same guard the slow hit path holds: a peer's recall can be
    // invalidating this tile's lines on another worker (see tileGuard).
    auto tile_guard = tileGuard(gid);
    // lookup() touches the LRU on a hit — the identical (checkpointed)
    // side effect the slow path's hit branch performs — and mutates
    // nothing on a miss.
    if (!l1i_[gid].lookup(addr))
        return false;
    stat(Stat::kL1Hits).increment();
    lat = timing_.l1HitLatency;
    return true;
}

bool
CoherentSystem::loadFastHit(GlobalTileId gid, Addr addr, Cycles &lat)
{
    // Bail conditions mirror fetchFastHit, plus the observer: armed
    // mutations need the slow path's stale-copy bookkeeping, and an
    // attached coherence checker contracts to see full transitions.
    // (Hit branches never notify observers even on the slow path, so
    // the observer bail is belt and braces, not a parity requirement.)
    if (mutation_ != TestMutation::kNone || observer_ != nullptr)
        return false;
    // Same guard the slow hit path holds: a peer's recall can be
    // invalidating this tile's lines on another worker (see tileGuard).
    auto tile_guard = tileGuard(gid);
    // lookup() touches the LRU on a hit — the identical (checkpointed)
    // side effect the slow path's L1 hit branch performs — and mutates
    // nothing on a miss.
    if (!l1d_[gid].lookup(addr))
        return false;
    stat(Stat::kL1Hits).increment();
    lat = timing_.l1HitLatency;
    return true;
}

bool
CoherentSystem::storeFastHit(GlobalTileId gid, Addr addr, Cycles &lat)
{
    if (mutation_ != TestMutation::kNone || observer_ != nullptr)
        return false;
    Addr line = lineAlign(addr);
    // Same guard the slow hit path holds: a peer's recall can be
    // invalidating this tile's lines on another worker (see tileGuard).
    auto tile_guard = tileGuard(gid);
    // One scan settles presence + M state and performs the slow path's
    // exact BPC LRU touch; a miss or non-M state mutates nothing. The
    // discarded-result lookup matches the slow path's probe-then-touch
    // pair: LRU moves only when the line is resident.
    if (!bpc_[gid].lookupIfState(line, kModified))
        return false;
    l1d_[gid].lookup(line);
    stat(Stat::kL1StoreHits).increment();
    lat = timing_.l1HitLatency;
    return true;
}

bool
CoherentSystem::crossesNode(GlobalTileId gid, Addr addr, AccessType type) const
{
    const NodeId me = nodeOf(gid);
    for (const auto &w : devices_) {
        if (addr >= w.base && addr - w.base < w.size)
            return nodeOf(w.gid) != me;
    }
    // NC accesses, and a coherence domain's out-of-domain ones, go
    // straight to the DRAM node (see access()).
    const bool nc =
        type == AccessType::kNcLoad || type == AccessType::kNcStore;
    if ((nc || homing_ == HomingPolicy::kCoherenceDomains) &&
        addrNode(addr) != me)
        return true;
    if (nc)
        return false;

    // Private hits stay on the tile.
    const Addr line = lineAlign(addr);
    const CacheArray &bpc = bpc_[gid];
    if (type == AccessType::kLoad || type == AccessType::kFetch) {
        const CacheArray &l1 =
            type == AccessType::kFetch ? l1i_[gid] : l1d_[gid];
        if (l1.probe(addr) || bpc.probe(line))
            return false;
    } else if (type == AccessType::kStore) {
        if (bpc.probe(line) && bpc.state(line) == kModified)
            return false;
    }

    // The pure map first: homeRef() probes the home slice's tags.
    if (homeOf(line).first != me)
        return true;
    const std::uint32_t tiles = geo_.tilesPerNode;
    const std::uint64_t mine =
        (tiles >= 64 ? ~0ULL : (1ULL << tiles) - 1) << (me * tiles);
    auto members = [](const DirEntry &d) {
        return d.sharers | (d.owner >= 0 ? 1ULL << d.owner : 0);
    };
    const HomeRef home = homeRef(line);
    if (home.slot != CacheArray::kNoSlot) {
        const DirEntry &d = dirAt(home);
        std::uint64_t others =
            (type == AccessType::kLoad || type == AccessType::kFetch)
                ? (d.owner >= 0 ? 1ULL << d.owner : 0)
                : members(d);
        if (others & ~mine)
            return true;
    } else {
        if (addrNode(line) != me)
            return true; // The fill reads another node's DRAM.
        const CacheArray &slice = llc_[home.gid];
        std::uint32_t vslot = slice.victimSlot(line);
        if (vslot != CacheArray::kNoSlot) {
            const DirEntry &vd =
                dirAt(HomeRef{home.node, home.tile, home.gid, vslot});
            if (members(vd) & ~mine)
                return true;
            if (vd.owner >= 0 && addrNode(*slice.lineAt(vslot)) != me)
                return true; // The victim writes back to remote DRAM.
        }
    }

    // A BPC fill notifies (or writes back to) its victim's home.
    bool fills = type == AccessType::kLoad || type == AccessType::kFetch ||
                 (type == AccessType::kStore && !bpc.probe(line));
    if (fills) {
        std::uint32_t vslot = bpc.victimSlot(line);
        if (vslot != CacheArray::kNoSlot &&
            homeOf(*bpc.lineAt(vslot)).first != me)
            return true;
    }
    return false;
}

AccessResult
CoherentSystem::access(GlobalTileId gid, Addr addr, AccessType type,
                       std::uint32_t bytes, Cycles now)
{
    panicIf(gid >= geo_.totalTiles(), "access from unknown tile");
    Addr line = lineAlign(addr);
    NodeId my_node = nodeOf(gid);
    TileId my_tile = tileOf(gid);

    // Device windows capture all access types (BYOC treats device space as
    // non-cacheable).
    for (const auto &w : devices_) {
        if (addr >= w.base && addr - w.base < w.size)
            return deviceAccess(w, gid, addr, type, bytes, now);
    }

    // Coherence Domain Restriction: a requester outside the line's
    // domain may not cache it; its loads/stores become uncached remote
    // memory operations.
    if (homing_ == HomingPolicy::kCoherenceDomains &&
        addrNode(addr) != my_node &&
        (type == AccessType::kLoad || type == AccessType::kStore ||
         type == AccessType::kFetch || type == AccessType::kAtomic)) {
        stat(Stat::kCdrUncachedRemote).increment();
        type = (type == AccessType::kStore || type == AccessType::kAtomic)
                   ? AccessType::kNcStore
                   : AccessType::kNcLoad;
    }

    // Explicit NC accesses to plain memory go straight to the owning
    // node's memory controller (used by the virtual SD card).
    if (type == AccessType::kNcLoad || type == AccessType::kNcStore) {
        auto guard = parallelGuard();
        bool crossed = false;
        NodeId dn = addrNode(addr);
        Cycles t = now + timing_.l1MissDetect;
        t = nocPath(my_node, my_tile, dn, noc::kOffChipTile,
                    kReqBytes + (type == AccessType::kNcStore ? bytes : 0),
                    t, &crossed);
        t = dramAccess(dn, bytes, t);
        t = nocPath(dn, noc::kOffChipTile, my_node, my_tile,
                    kReqBytes + (type == AccessType::kNcLoad ? bytes : 0), t);
        stat(Stat::kNcAccesses).increment();
        return AccessResult{
            t - now,
            dn == my_node ? ServiceLevel::kDramLocal
                          : ServiceLevel::kDramRemote,
            crossed};
    }

    CacheArray &l1 = (type == AccessType::kFetch) ? l1i_[gid] : l1d_[gid];

    // Hit paths hold only this tile's guard: a peer's miss path can be
    // recalling lines from these arrays concurrently (under mu_ plus
    // this same tile guard). Released before the miss path takes mu_ —
    // the lock order is strictly mu_ -> tile.
    {
        auto tile_guard = tileGuard(gid);

        // --- L1 hit path ---
        if (type == AccessType::kLoad || type == AccessType::kFetch) {
            if (l1.lookup(addr)) {
                stat(Stat::kL1Hits).increment();
                AccessResult res{timing_.l1HitLatency, ServiceLevel::kL1,
                                 false};
                if (mutation_ != TestMutation::kNone)
                    res.staleData = stalePeek(gid, line, type);
                return res;
            }
        } else if (type == AccessType::kStore) {
            // Write-through L1: a store completes at L1 speed only when
            // the BPC already holds the line in M (the store buffer
            // hides the write-through).
            if (bpc_[gid].lookupIfState(line, kModified)) {
                l1.lookup(line);
                stat(Stat::kL1StoreHits).increment();
                return AccessResult{timing_.l1HitLatency,
                                    ServiceLevel::kL1, false};
            }
        }

        // --- BPC hit path (loads/fetches with at least S) ---
        if ((type == AccessType::kLoad || type == AccessType::kFetch) &&
            bpc_[gid].lookup(line)) {
            if (!l1.probe(line))
                l1.insert(line, kShared);
            stat(Stat::kBpcHits).increment();
            AccessResult res{timing_.l1MissDetect + timing_.privLatency,
                             ServiceLevel::kPrivate, false};
            if (mutation_ != TestMutation::kNone)
                res.staleData = stalePeek(gid, line, type);
            return res;
        }
    }

    // --- Miss: transaction to the home LLC slice ---
    // The miss path touches cross-node state (directory, home LLC/DRAM
    // servers, bridge shapers, peer private arrays on recalls), so it is
    // one critical section under the phased engine.
    auto guard = parallelGuard();
    stat(Stat::kBpcMisses).increment();
    HomeRef home = homeRef(line);
    const NodeId hn = home.node;
    const TileId ht = home.tile;
    bool crossed = false;
    bool upgrade = type == AccessType::kStore && bpc_[gid].probe(line);

    Cycles t = now + timing_.l1MissDetect + timing_.privLatency;
    t = nocPath(my_node, my_tile, hn, ht, kReqBytes, t, &crossed);
    auto grant = llcServer_[home.gid].offer(t, timing_.llcOccupancy);
    t = grant.start + timing_.llcLatency;

    // A line absent from its home slice has no directory entry: it reads
    // as blank until llcEnsureResident() installs one.
    DirEntry blank = kBlankDir;
    DirEntry &dir = home.slot == CacheArray::kNoSlot ? blank : dirAt(home);
    bool from_dram = false;

    switch (type) {
      case AccessType::kLoad:
      case AccessType::kFetch: {
          panicIf(dir.owner == static_cast<std::int32_t>(gid),
                  "load miss while owning the line");
          if (dir.owner >= 0) {
              // Owner forward: downgrade M -> S and pull dirty data into
              // the LLC before responding.
              auto og = static_cast<GlobalTileId>(dir.owner);
              t = nocPath(hn, ht, nodeOf(og), tileOf(og), kReqBytes, t);
              t += timing_.privLatency;
              t = nocPath(nodeOf(og), tileOf(og), hn, ht, kDataBytes, t);
              {
                  auto tile_guard = tileGuard(og);
                  bpc_[og].setState(line, kShared);
              }
              dir.sharers |= 1ULL << og;
              dir.owner = -1;
              dir.dirty = true;
              stat(Stat::kDirDowngrades).increment();
          } else {
              t = llcEnsureResident(line, home, t, from_dram);
          }
          t = nocPath(hn, ht, my_node, my_tile, kDataBytes, t);
          t += timing_.privFillLatency;
          privateFill(line, gid, kShared, type == AccessType::kFetch, t);
          dirAt(home).sharers |= 1ULL << gid;
          break;
      }
      case AccessType::kStore: {
          if (dir.owner >= 0 || (dir.sharers & ~(1ULL << gid)) != 0) {
              Cycles acks = recallPrivate(line, home, dir, t, 1ULL << gid);
              t = std::max(t, acks);
          }
          t = llcEnsureResident(line, home, t, from_dram);
          std::uint32_t resp = upgrade ? kReqBytes : kDataBytes;
          t = nocPath(hn, ht, my_node, my_tile, resp, t);
          t += timing_.privFillLatency;
          bool drop_owner = mutation_ == TestMutation::kDropOwnerUpdate &&
                            line == mutationLine_;
          DirEntry &d = dirAt(home);
          d.sharers &= ~(1ULL << gid);
          if (drop_owner)
              stat(Stat::kMutationDroppedOwnerUpdates).increment();
          else
              d.owner = static_cast<std::int32_t>(gid);
          if (bpc_[gid].probe(line)) {
              bpc_[gid].setState(line, kModified);
              bpc_[gid].lookup(line);
              maybeClearStale(line, gid); // Upgrade re-acquires the line.
          } else {
              privateFill(line, gid, kModified, false, t);
          }
          if (mutation_ != TestMutation::kNone && line == mutationLine_ &&
              !staleFired_) {
              // Keep the armed image one store behind: the functional
              // memory already holds this store's data, so refreshing
              // now captures "everything up to and including this store"
              // — exactly what a later lost invalidation must freeze.
              memory_.readBytes(mutationLine_, armedBytes_.data(),
                                kCacheLineBytes);
          }
          stat(Stat::kDirStoreMisses).increment();
          break;
      }
      case AccessType::kAtomic: {
          // Atomics execute at the home LLC slice; every private copy
          // (including the requester's) is recalled first.
          Cycles acks = recallPrivate(line, home, dir, t, 0);
          t = std::max(t, acks);
          t = llcEnsureResident(line, home, t, from_dram);
          dirAt(home).dirty = true;
          t = nocPath(hn, ht, my_node, my_tile, kReqBytes + 8, t);
          stat(Stat::kAtomics).increment();
          break;
      }
      default:
        panic("unreachable access type");
    }

    ServiceLevel level;
    Stat serviced;
    if (from_dram) {
        bool local = addrNode(line) == my_node;
        level = local ? ServiceLevel::kDramLocal : ServiceLevel::kDramRemote;
        serviced =
            local ? Stat::kServicedDramLocal : Stat::kServicedDramRemote;
    } else {
        bool local = hn == my_node;
        level = local ? ServiceLevel::kLlcLocal : ServiceLevel::kLlcRemote;
        serviced = local ? Stat::kServicedLlcLocal : Stat::kServicedLlcRemote;
    }
    stat(serviced).increment();
    missLatencyStat().sample(static_cast<double>(t - now));
    if (traceCache_) {
        obs::TraceEvent ev =
            obs::event(type == AccessType::kAtomic
                           ? obs::EventKind::kCacheAtomic
                           : obs::EventKind::kCacheMiss);
        ev.cycle = now;
        ev.duration = static_cast<std::uint32_t>(t - now);
        ev.arg = line;
        ev.extra = static_cast<std::uint32_t>(level);
        ev.node = static_cast<std::uint16_t>(my_node);
        ev.tile = static_cast<std::uint16_t>(my_tile);
        ev.flags = static_cast<std::uint8_t>(
            (crossed ? 1 : 0) |
            (type == AccessType::kStore ? 2 : 0));
        traceCache_->record(ev);
    }
    if (observer_) {
        CoherenceEventKind kind =
            type == AccessType::kStore ? CoherenceEventKind::kStoreMiss
            : type == AccessType::kAtomic ? CoherenceEventKind::kAtomic
                                          : CoherenceEventKind::kLoadMiss;
        notify(kind, line, gid, now);
    }
    return AccessResult{t - now, level, crossed};
}

void
CoherentSystem::flushPrivate(GlobalTileId gid)
{
    auto guard = parallelGuard();
    panicIf(gid >= geo_.totalTiles(), "flushPrivate of unknown tile");
    std::vector<Addr> lines;
    bpc_[gid].forEachLine(
        [&](Addr line, std::uint32_t) { lines.push_back(line); });
    for (Addr line : lines) {
        HomeRef home = homeRef(line);
        DirEntry *dir =
            home.slot == CacheArray::kNoSlot ? nullptr : &dirAt(home);
        if (dir && dir->owner == static_cast<std::int32_t>(gid))
            dir->dirty = true; // Writeback lands in the home LLC.
        dropPrivate(line, gid);
        if (dir)
            forget(*dir, gid);
        notify(CoherenceEventKind::kFlush, line, gid, 0);
    }
}

void
CoherentSystem::setTestMutation(TestMutation mutation, Addr line)
{
    mutation_ = mutation;
    mutationLine_ = lineAlign(line);
    staleFired_ = false;
    if (mutation != TestMutation::kNone)
        memory_.readBytes(mutationLine_, armedBytes_.data(),
                          kCacheLineBytes);
}

LineView
CoherentSystem::inspectLine(Addr addr) const
{
    Addr line = lineAlign(addr);
    LineView v;
    HomeRef home = homeRef(line);
    v.homeNode = home.node;
    v.homeTile = home.tile;
    v.homeSliceHolds = home.slot != CacheArray::kNoSlot;
    if (v.homeSliceHolds) {
        const DirEntry &d = dirAt(home);
        v.hasDirEntry = true;
        v.sharers = d.sharers;
        v.owner = d.owner;
        v.inLlc = d.inLlc;
        v.dirty = d.dirty;
    }
    v.tiles.resize(geo_.totalTiles());
    for (std::uint32_t g = 0; g < geo_.totalTiles(); ++g) {
        TileLineView &t = v.tiles[g];
        t.inL1d = l1d_[g].probe(line);
        t.inL1i = l1i_[g].probe(line);
        t.inBpc = bpc_[g].probe(line);
        t.bpcState = t.inBpc ? bpc_[g].state(line) : 0;
    }
    return v;
}

void
CoherentSystem::flushCaches()
{
    for (auto &c : l1i_)
        c.flush();
    for (auto &c : l1d_)
        c.flush();
    for (auto &c : bpc_)
        c.flush();
    for (auto &c : llc_)
        c.flush(); // Empties every slot, and with it the directory.
}

void
CoherentSystem::forEachKnownLine(const std::function<void(Addr)> &fn) const
{
    // Directory entries live in LLC slots, so the arrays cover them.
    std::set<Addr> lines;
    auto collect = [&](const CacheArray &arr) {
        arr.forEachLine(
            [&](Addr line, std::uint32_t) { lines.insert(line); });
    };
    for (std::uint32_t g = 0; g < geo_.totalTiles(); ++g) {
        collect(l1i_[g]);
        collect(l1d_[g]);
        collect(bpc_[g]);
        collect(llc_[g]);
    }
    for (Addr line : lines)
        fn(line);
}

bool
CoherentSystem::checkInclusion() const
{
    for (std::uint32_t g = 0; g < geo_.totalTiles(); ++g) {
        bool ok = true;
        l1d_[g].forEachLine([&](Addr line, std::uint32_t) {
            if (!bpc_[g].probe(line))
                ok = false;
        });
        l1i_[g].forEachLine([&](Addr line, std::uint32_t) {
            if (!bpc_[g].probe(line))
                ok = false;
        });
        if (!ok)
            return false;
    }
    return true;
}

bool
CoherentSystem::checkDirectory() const
{
    // Expected membership per tile from the directory.
    std::vector<std::set<Addr>> expected(geo_.totalTiles());
    bool ok = true;
    forEachDirEntry([&](Addr line, const DirEntry &dir) {
        if (dir.owner >= 0) {
            // An owned line must have no other sharers.
            if ((dir.sharers & ~(1ULL << dir.owner)) != 0)
                ok = false;
            expected[static_cast<std::size_t>(dir.owner)].insert(line);
        }
        std::uint64_t sharers = dir.sharers;
        while (sharers) {
            auto g = static_cast<GlobalTileId>(__builtin_ctzll(sharers));
            sharers &= sharers - 1;
            if (dir.owner != static_cast<std::int32_t>(g))
                expected[g].insert(line);
        }
        // Private copies require LLC residency (inclusive hierarchy).
        if ((dir.sharers != 0 || dir.owner >= 0) && !dir.inLlc)
            ok = false;
    });
    if (!ok)
        return false;

    for (std::uint32_t g = 0; g < geo_.totalTiles(); ++g) {
        std::set<Addr> actual;
        bpc_[g].forEachLine(
            [&](Addr line, std::uint32_t) { actual.insert(line); });
        if (actual != expected[g])
            return false;
    }
    return true;
}

void
CoherentSystem::forEachDirEntry(
    const std::function<void(Addr, const DirEntry &)> &fn) const
{
    for (GlobalTileId g = 0; g < geo_.totalTiles(); ++g) {
        for (std::uint32_t slot = 0; slot < llcSlots_; ++slot) {
            if (auto line = llc_[g].lineAt(slot))
                fn(*line, dirAt(HomeRef{nodeOf(g), tileOf(g), g, slot}));
        }
    }
}

void
CoherentSystem::saveState(snap::Writer &w) const
{
    w.u32(geo_.nodes);
    w.u32(geo_.tilesPerNode);

    // Directory, collected from the LLC slots and sorted by line so the
    // payload does not depend on where entries are kept.
    std::vector<std::pair<Addr, DirEntry>> entries;
    forEachDirEntry([&](Addr line, const DirEntry &d) {
        entries.emplace_back(line, d);
    });
    std::sort(entries.begin(), entries.end(),
              [](const auto &a, const auto &b) { return a.first < b.first; });
    w.u64(entries.size());
    for (const auto &[line, d] : entries) {
        w.u64(line);
        w.u64(d.sharers);
        w.u32(static_cast<std::uint32_t>(d.owner));
        w.boolean(d.inLlc);
        w.boolean(d.dirty);
    }

    for (std::uint32_t g = 0; g < geo_.totalTiles(); ++g) {
        l1i_[g].saveState(w);
        l1d_[g].saveState(w);
        bpc_[g].saveState(w);
        llc_[g].saveState(w);
        saveServer(w, llcServer_[g]);
    }
    for (std::uint32_t n = 0; n < geo_.nodes; ++n) {
        saveServer(w, dramServer_[n]);
        saveShaper(w, bridgeOut_[n]);
        saveShaper(w, bridgeIn_[n]);
        saveShaper(w, pcieOut_[n]);
    }
}

void
CoherentSystem::restoreState(snap::Reader &r)
{
    std::uint32_t nodes = r.u32();
    std::uint32_t tiles = r.u32();
    fatalIf(nodes != geo_.nodes || tiles != geo_.tilesPerNode,
            strfmt("checkpoint geometry %ux%u does not match the live "
                   "system's %ux%u",
                   nodes, tiles, geo_.nodes, geo_.tilesPerNode));

    // The directory section precedes the arrays, so its entries are
    // attached to their LLC slots once the slices are restored.
    std::uint64_t dir_count = r.u64();
    const std::size_t slots =
        static_cast<std::size_t>(geo_.totalTiles()) * llcSlots_;
    fatalIf(dir_count > slots,
            "checkpoint directory has more entries than the LLC has slots");
    std::vector<std::pair<Addr, DirEntry>> entries(dir_count);
    for (auto &[line, d] : entries) {
        line = r.u64();
        d.sharers = r.u64();
        d.owner = static_cast<std::int32_t>(r.u32());
        d.inLlc = r.boolean();
        d.dirty = r.boolean();
    }

    for (std::uint32_t g = 0; g < geo_.totalTiles(); ++g) {
        l1i_[g].restoreState(r);
        l1d_[g].restoreState(r);
        bpc_[g].restoreState(r);
        llc_[g].restoreState(r);
        restoreServer(r, llcServer_[g]);
    }
    for (std::uint32_t n = 0; n < geo_.nodes; ++n) {
        restoreServer(r, dramServer_[n]);
        restoreShaper(r, bridgeOut_[n]);
        restoreShaper(r, bridgeIn_[n]);
        restoreShaper(r, pcieOut_[n]);
    }

    // Inclusion makes entries and resident LLC lines a bijection; a
    // checkpoint that breaks it cannot be represented and is rejected.
    std::vector<bool> attached(slots, false);
    for (const auto &[line, d] : entries) {
        HomeRef home = homeRef(line);
        fatalIf(home.slot == CacheArray::kNoSlot,
                strfmt("checkpoint directory entry for line 0x%llx, which "
                       "is absent from its home LLC slice",
                       static_cast<unsigned long long>(line)));
        std::size_t i =
            static_cast<std::size_t>(home.gid) * llcSlots_ + home.slot;
        fatalIf(attached[i],
                strfmt("checkpoint directory lists line 0x%llx twice",
                       static_cast<unsigned long long>(line)));
        attached[i] = true;
        dirAt(home) = d;
    }
    std::uint64_t resident = 0;
    for (const CacheArray &slice : llc_)
        resident += slice.occupancy();
    fatalIf(dir_count != resident,
            "checkpoint directory misses entries for resident LLC lines");
}

} // namespace smappic::cache
