#include "workloads.hpp"

#include <algorithm>
#include <filesystem>
#include <memory>
#include <sstream>
#include <unistd.h>

#include "kernels.hpp"
#include "platform/prototype.hpp"
#include "reference.hpp"
#include "shim.hpp"
#include "workload/intsort.hpp"

namespace e2e
{

using namespace smappic;
using platform::Prototype;
using platform::PrototypeConfig;

namespace
{

// Input sizes: each repetition is a fixed batch, small enough that a
// run holds enough repetitions for a stable median.
constexpr std::uint64_t kSortKeys = 1 << 16;
constexpr std::uint32_t kSortBuckets = 1 << 13; // Fig 9's bucket count.
constexpr std::uint64_t kKernelIterations = 200'000;
constexpr std::uint64_t kSharingIterations = 16'384;
constexpr int kSetupRounds = 5;

/** Times @p f; under tracing also records it as a span of the root. */
template <class F>
double
timed(const Tracing &tr, const char *name, F &&f)
{
    auto t0 = Clock::now();
    f();
    auto t1 = Clock::now();
    if (tr.log)
        tr.log->add(name, tr.root, t0, t1);
    return seconds(t1 - t0);
}

/** A prototype plus, for the guest-OS workload, its guest system. */
struct Rig
{
    std::unique_ptr<Prototype> proto;
    std::unique_ptr<os::GuestSystem> guest;
};

/** Set-up times: construction and load. */
struct SetupTimes
{
    double construct = 0;
    double load = 0;
};

/**
 * Builds a rig kSetupRounds times back to back and keeps the last one,
 * the only one traced; @p times gets the median of the rounds. A set-up
 * right after a run starts with cold host caches and newly faulted
 * pages, whose cost swings several-fold with the load of other tenants
 * on a shared host; the median of the rounds measures the set-up work
 * itself.
 */
template <class Load>
Rig
setUp(const PrototypeConfig &cfg, const Tracing &tr, const char *load_name,
      Load &&load, SetupTimes &times)
{
    double construct[kSetupRounds];
    double loaded[kSetupRounds];
    Rig rig;
    for (int i = 0; i < kSetupRounds; ++i) {
        rig.guest.reset(); // The guest refers to the prototype's memory.
        rig.proto.reset();
        Tracing t = i + 1 == kSetupRounds ? tr : Tracing{};
        construct[i] = timed(t, "platform.construct", [&] {
            rig.proto = std::make_unique<Prototype>(cfg);
        });
        loaded[i] = timed(t, load_name, [&] { load(rig); });
    }
    std::sort(construct, construct + kSetupRounds);
    std::sort(loaded, loaded + kSetupRounds);
    times.construct = construct[kSetupRounds / 2];
    times.load = loaded[kSetupRounds / 2];
    return rig;
}

/** Records the set-up times of a repetition. */
void
putSetup(Record &r, const SetupTimes &t)
{
    r.set("construct_s", t.construct);
    r.set("load_s", t.load);
    r.set("setup_s", t.construct + t.load);
}

/** FNV-1a over stats dumps, continued across a repetition's prototypes
 *  and folded to 48 bits so it survives a JSON double exactly. */
class Digest
{
  public:
    void
    add(const sim::StatRegistry &stats)
    {
        std::ostringstream os;
        stats.dump(os);
        for (unsigned char c : os.str()) {
            h_ ^= c;
            h_ *= 0x100000001b3ULL;
        }
    }
    std::uint64_t
    value() const
    {
        return (h_ ^ (h_ >> 48)) & ((1ULL << 48) - 1);
    }

  private:
    std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

/** Work counts read back from the public stat registry. */
struct Counts
{
    std::uint64_t bpcMisses = 0;
    std::uint64_t remote = 0;   ///< Misses serviced on another node.
    std::uint64_t serviced = 0; ///< Misses serviced by an LLC or DRAM.
    std::uint64_t dirOps = 0;
    std::uint64_t llcFills = 0;
    std::uint64_t bridgeCrossings = 0;
    std::uint64_t dramAccesses = 0;
    std::uint64_t pages = 0;

    void
    add(Prototype &p)
    {
        const sim::StatRegistry &s = p.stats();
        auto v = [&](const char *name) { return s.counterValue(name); };
        bpcMisses += v("cs.bpc.misses");
        std::uint64_t remote_now =
            v("cs.serviced.llcRemote") + v("cs.serviced.dramRemote");
        remote += remote_now;
        serviced += remote_now + v("cs.serviced.llcLocal") +
                    v("cs.serviced.dramLocal");
        dirOps += v("cs.dir.invalidations") + v("cs.dir.ownerRecalls") +
                  v("cs.dir.downgrades");
        llcFills += v("cs.llc.fills");
        bridgeCrossings += v("cs.bridge.crossings");
        dramAccesses += v("cs.dram.accesses");
        pages += p.memory().pagesAllocated();
    }

    void
    put(Record &r) const
    {
        r.count("bpc_misses", bpcMisses);
        r.count("serviced_remote", remote);
        r.count("serviced", serviced);
        r.count("dir_ops", dirOps);
        r.count("llc_fills", llcFills);
        r.count("bridge_crossings", bridgeCrossings);
        r.count("dram_accesses", dramAccesses);
        r.count("pages", pages);
    }
};

/** Outside the timed section: one checkpoint and one JSON stats dump. */
struct AfterRun
{
    double checkpointS = 0;
    std::uint64_t checkpointBytes = 0;
    double dumpS = 0;

    void
    take(Prototype &p, const Options &opt, const Tracing &tr)
    {
        std::string path = opt.outDir + "/checkpoint-" +
                           std::to_string(::getpid()) + ".smck";
        checkpointS +=
            timed(tr, "snap.checkpoint", [&] { p.checkpoint(path); });
        checkpointBytes += std::filesystem::file_size(path);
        std::filesystem::remove(path);
        std::ostringstream os;
        dumpS +=
            timed(tr, "stats.dumpJson", [&] { p.stats().dumpJson(os); });
    }

    void
    put(Record &r) const
    {
        r.set("checkpoint_s", checkpointS);
        r.count("checkpoint_bytes", checkpointBytes);
        r.set("dump_s", dumpS);
    }
};

/** Decode-cache lookups over both outcomes, summed over @p cores. */
void
putDecode(Record &r, Prototype &p, std::uint32_t cores)
{
    std::uint64_t hits = 0;
    std::uint64_t lookups = 0;
    for (GlobalTileId g = 0; g < cores; ++g) {
        const auto &s = p.core(g).decodeCache().stats();
        hits += s.hits;
        lookups += s.hits + s.misses + s.bypasses;
    }
    r.count("decode_hits", hits);
    r.count("decode_lookups", lookups);
}

/** Pins @p threads round-robin over the first @p nodes nodes. */
std::vector<GlobalTileId>
pinRoundRobin(std::uint32_t threads, std::uint32_t nodes,
              std::uint32_t tiles_per_node)
{
    std::vector<GlobalTileId> v;
    for (std::uint32_t i = 0; i < threads; ++i)
        v.push_back((i % nodes) * tiles_per_node + i / nodes);
    return v;
}

} // namespace

void
intsortNuma(const Options &opt, const Tracing &tr)
{
    PrototypeConfig cfg = PrototypeConfig::parse("4x1x12");
    cfg.llcSliceBytes = 8 << 10; // Fig 9's scaled LLC.
    workload::IntSortConfig sort;
    sort.keys = kSortKeys;
    sort.buckets = kSortBuckets;
    sort.seed = opt.seed;
    const auto tiles = pinRoundRobin(12, 4, 12);

    SetupTimes setup;
    double ref = 0;
    double wall = 0;
    Cycles cycles[2] = {0, 0};
    double remote[2] = {0, 0};
    std::uint64_t unsorted = 0;
    Counts counts;
    Digest digest;
    AfterRun after;
    const os::NumaMode modes[2] = {os::NumaMode::kOn, os::NumaMode::kOff};
    for (int m = 0; m < 2; ++m) {
        auto load = [&](Rig &g) {
            g.guest = g.proto->makeGuest(modes[m], opt.seed);
        };
        SetupTimes t;
        Rig rig = setUp(cfg, tr, "platform.makeGuest", load, t);
        setup.construct += t.construct;
        setup.load += t.load;
        Prototype *p = rig.proto.get();
        workload::IntSortResult res;
        ref += hostReference(1);
        wall += timed(tr, "workload.runIntSort", [&] {
            res = workload::runIntSort(*rig.guest, tiles, sort);
        });
        cycles[m] = res.cycles;
        remote[m] = res.remoteFraction;
        unsorted += res.sorted ? 0 : 1;
        counts.add(*p);
        digest.add(p->stats());
        if (tr.log)
            after.take(*p, opt, tr);
    }

    Record r(tr.log ? "traced" : "plain");
    putSetup(r, setup);
    r.set("ref_s", ref);
    r.set("wall_s", wall);
    r.count("sim_cycles", cycles[0] + cycles[1]);
    r.count("cycles_on", cycles[0]);
    r.count("cycles_off", cycles[1]);
    r.set("remote_on", remote[0]);
    r.set("remote_off", remote[1]);
    r.count("instret", 0);
    r.count("attempted", 2);
    r.count("failed", unsorted);
    r.count("checks_ok", unsorted == 0 ? 1 : 0);
    r.count("digest", digest.value());
    counts.put(r);
    if (tr.log)
        after.put(r);
    r.print();
}

void
riscvKernels(const Options &opt, const Tracing &tr)
{
    const PrototypeConfig cfg = PrototypeConfig::parse("1x1x2");
    const Kernels k = kernelsProgram(opt.seed, kKernelIterations);
    const std::uint32_t harts = 2;

    auto load = [&](Rig &g) { g.proto->loadSource(k.source); };
    SetupTimes setup;
    Rig rig = setUp(cfg, tr, "platform.loadSource", load, setup);
    Prototype *p = rig.proto.get();
    const double ref = hostReference(1);
    double wall =
        timed(tr, "platform.runCores", [&] { p->runCores({0, 1}); });

    std::uint64_t bad = 0;
    std::uint64_t instret = 0;
    Cycles sim_cycles = 0;
    for (GlobalTileId g = 0; g < harts; ++g) {
        auto &c = p->core(g);
        bad += (c.exited() && static_cast<std::uint64_t>(c.exitCode()) ==
                                  k.expectedExit[g])
                   ? 0
                   : 1;
        instret += c.instret();
        sim_cycles = std::max(sim_cycles, c.cycles());
    }
    Counts counts;
    counts.add(*p);
    Digest digest;
    digest.add(p->stats());

    Record r(tr.log ? "traced" : "plain");
    r.set("ref_s", ref);
    r.set("wall_s", wall);
    r.count("sim_cycles", sim_cycles);
    r.count("instret", instret);
    putDecode(r, *p, harts);
    counts.put(r);
    r.count("digest", digest.value());

    if (tr.log) {
        // The shim must reproduce this run exactly, or its split is void.
        const std::string ref_stats = csCoreLines(p->stats());
        AfterRun after;
        after.take(*p, opt, tr);
        after.put(r);
        ShimResult s = runShim(cfg, k.source, harts, *tr.log, tr.root);
        bool equal = s.csCoreStats == ref_stats;
        for (GlobalTileId g = 0; g < harts; ++g) {
            equal = equal && s.instret[g] == p->core(g).instret() &&
                    s.cycles[g] == p->core(g).cycles();
            bad += (s.exited[g] && s.exitCode[g] == k.expectedExit[g]) ? 0 : 1;
        }
        r.count("shim_equal", equal ? 1 : 0);
        r.set("shim_run_s", s.runS);
        r.set("shim_port_s", s.portS);
        r.count("shim_port_calls", s.portCalls);
        r.count("shim_fast_hits", s.fastHits);
        r.count("attempted", 2 * harts);
    } else {
        r.count("attempted", harts);
    }
    r.count("failed", bad);
    r.count("checks_ok", bad == 0 ? 1 : 0);
    putSetup(r, setup);
    r.print();
}

void
phasedSharing(const Options &opt, const Tracing &tr, std::uint32_t workers,
              const char *kind, bool amo_probe)
{
    PrototypeConfig cfg = PrototypeConfig::parse("4x1x4");
    cfg.parallel.threads = workers;
    cfg.parallel.quantum = cfg.timing.pcieOneWay();
    const std::uint32_t harts = cfg.totalTiles();
    SharingLayout layout;
    const Kernels k = sharingProgram(opt.seed, harts, kSharingIterations,
                                     amo_probe, layout);

    // Host gaps between consecutive quantum barriers.
    std::uint64_t epochs = 0;
    std::vector<double> gaps_us;
    Clock::time_point last;
    auto load = [&](Rig &g) { g.proto->loadSourceReplicated(k.source); };
    SetupTimes setup;
    Rig rig = setUp(cfg, tr, "platform.loadSourceReplicated", load, setup);
    Prototype *p = rig.proto.get();
    if (tr.log) {
        p->setBarrierProbe([&](Cycles) {
            auto now = Clock::now();
            if (epochs++ > 0)
                gaps_us.push_back(seconds(now - last) * 1e6);
            last = now;
        });
    }
    std::vector<GlobalTileId> gids;
    for (GlobalTileId g = 0; g < harts; ++g)
        gids.push_back(g);
    const double ref = hostReference(std::min(workers, cfg.totalNodes()));
    double wall = timed(tr, "platform.runCores", [&] { p->runCores(gids); });

    // Checks: exit checksums, slots and counters. Each lost amoadd.d
    // increment is one failed operation, except in the probe, which
    // exists to count them (see NOTES.md).
    std::uint64_t bad = 0;
    std::uint64_t instret = 0;
    Cycles sim_cycles = 0;
    for (GlobalTileId g = 0; g < harts; ++g) {
        auto &c = p->core(g);
        bool ok = c.exited() &&
                  static_cast<std::uint64_t>(c.exitCode()) ==
                      k.expectedExit[g] &&
                  p->memory().load(layout.slot(g, cfg.tilesPerNode), 8) ==
                      layout.lastSlotValue;
        bad += ok ? 0 : 1;
        instret += c.instret();
        sim_cycles = std::max(sim_cycles, c.cycles());
    }
    const std::uint64_t increments = harts * layout.incrementsPerHart;
    std::uint64_t counted = 0;
    bool counter_ok = true; // No counter ends above its expected total.
    for (GlobalTileId g = 0; g < (amo_probe ? 1 : harts); ++g) {
        const std::uint64_t expect =
            amo_probe ? increments : layout.incrementsPerHart;
        const std::uint64_t v =
            p->memory().load(layout.counter(g, cfg.tilesPerNode), 8);
        counter_ok = counter_ok && v <= expect;
        counted += std::min(v, expect);
    }
    const std::uint64_t lost = increments - counted;

    Counts counts;
    counts.add(*p);
    Digest digest;
    digest.add(p->stats());

    Record r(kind);
    r.set("ref_s", ref);
    r.set("wall_s", wall);
    r.count("workers", workers);
    r.count("sim_cycles", sim_cycles);
    r.count("instret", instret);
    r.count("increments", increments);
    r.count("amo_lost", lost);
    const std::uint64_t failed = bad + (counter_ok ? 0 : 1);
    r.count("attempted", (amo_probe ? 0 : increments) + harts);
    r.count("failed", failed + (amo_probe ? 0 : lost));
    r.count("checks_ok", failed == 0 && (amo_probe || lost == 0) ? 1 : 0);
    putDecode(r, *p, harts);
    counts.put(r);
    r.count("digest", digest.value());
    if (tr.log) {
        AfterRun after;
        after.take(*p, opt, tr);
        after.put(r);
        std::sort(gaps_us.begin(), gaps_us.end());
        auto pct = [&](double q) {
            if (gaps_us.empty())
                return 0.0;
            auto i = static_cast<std::size_t>(
                q * static_cast<double>(gaps_us.size()));
            return gaps_us[std::min(i, gaps_us.size() - 1)];
        };
        r.count("epochs", epochs);
        r.set("epoch_us_p50", pct(0.50));
        r.set("epoch_us_p99", pct(0.99));
    }
    putSetup(r, setup);
    r.print();
}

} // namespace e2e
