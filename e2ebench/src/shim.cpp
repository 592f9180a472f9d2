#include "shim.hpp"

#include <algorithm>
#include <memory>
#include <sstream>

namespace e2e
{

using namespace smappic;

namespace
{

/** Call count and busy time of the forwarded port calls. */
struct PortTally
{
    std::uint64_t calls = 0;
    std::uint64_t fastHits = 0;
    Clock::duration busy{};
};

/** Times one forwarded call from construction to destruction. */
class CallTimer
{
  public:
    explicit CallTimer(PortTally &t) : t_(t), start_(Clock::now()) {}
    ~CallTimer()
    {
        t_.busy += Clock::now() - start_;
        ++t_.calls;
    }
    CallTimer(const CallTimer &) = delete;
    CallTimer &operator=(const CallTimer &) = delete;

  private:
    PortTally &t_;
    Clock::time_point start_;
};

/** Forwards exactly as platform::Prototype::CorePort, timing each call. */
class TimedPort final : public riscv::MemPort
{
  public:
    TimedPort(cache::CoherentSystem &cs, GlobalTileId gid, PortTally &tally)
        : cs_(cs), gid_(gid), tally_(tally)
    {
    }

    std::uint64_t
    load(Addr addr, std::uint32_t bytes, Cycles now, Cycles &lat) override
    {
        CallTimer timer(tally_);
        auto r = cs_.access(gid_, addr, cache::AccessType::kLoad, bytes, now);
        lat = r.latency;
        std::uint32_t n = std::min(bytes, 8u);
        std::uint64_t off = addr & (kCacheLineBytes - 1);
        if (r.staleData && off + n <= kCacheLineBytes) {
            std::uint64_t v = 0;
            for (std::uint32_t i = 0; i < n; ++i)
                v |= static_cast<std::uint64_t>(r.staleData[off + i])
                     << (8 * i);
            return v;
        }
        return cs_.memory().load(addr, n);
    }

    void
    store(Addr addr, std::uint32_t bytes, std::uint64_t value, Cycles now,
          Cycles &lat) override
    {
        CallTimer timer(tally_);
        cs_.memory().store(addr, std::min(bytes, 8u), value);
        auto r =
            cs_.access(gid_, addr, cache::AccessType::kStore, bytes, now);
        lat = r.latency;
    }

    std::uint32_t
    fetch(Addr addr, Cycles now, Cycles &lat) override
    {
        CallTimer timer(tally_);
        auto r = cs_.access(gid_, addr, cache::AccessType::kFetch, 4, now);
        lat = r.latency;
        return static_cast<std::uint32_t>(cs_.memory().load(addr, 4));
    }

    bool
    fetchFastHit(Addr addr, Cycles, Cycles &lat) override
    {
        CallTimer timer(tally_);
        return hit(cs_.fetchFastHit(gid_, addr, lat));
    }

    riscv::CodeRef
    codeRef(Addr addr) override
    {
        CallTimer timer(tally_);
        const auto &stamp = cs_.memory().pageWriteStamp(addr);
        return riscv::CodeRef{&stamp, stamp.load(std::memory_order_acquire)};
    }

    bool
    loadFastHit(Addr addr, std::uint32_t bytes, Cycles, Cycles &lat,
                std::uint64_t &value) override
    {
        CallTimer timer(tally_);
        if (!hit(cs_.loadFastHit(gid_, addr, lat)))
            return false;
        value = cs_.memory().load(addr, std::min(bytes, 8u));
        return true;
    }

    bool
    storeFastHit(Addr addr, std::uint32_t bytes, std::uint64_t value,
                 Cycles, Cycles &lat) override
    {
        CallTimer timer(tally_);
        if (!hit(cs_.storeFastHit(gid_, addr, lat)))
            return false;
        cs_.memory().store(addr, std::min(bytes, 8u), value);
        return true;
    }

    std::uint64_t
    atomic(Addr addr, std::uint32_t bytes,
           const std::function<std::uint64_t(std::uint64_t)> &rmw,
           Cycles now, Cycles &lat) override
    {
        CallTimer timer(tally_);
        auto r =
            cs_.access(gid_, addr, cache::AccessType::kAtomic, bytes, now);
        lat = r.latency;
        std::uint64_t old = cs_.memory().load(addr, bytes);
        cs_.memory().store(addr, bytes, rmw(old));
        return old;
    }

  private:
    bool
    hit(bool h)
    {
        tally_.fastHits += h ? 1 : 0;
        return h;
    }

    cache::CoherentSystem &cs_;
    GlobalTileId gid_;
    PortTally &tally_;
};

} // namespace

std::string
csCoreLines(const sim::StatRegistry &stats)
{
    std::ostringstream all;
    stats.dump(all);
    std::istringstream in(all.str());
    std::string out;
    for (std::string line; std::getline(in, line);) {
        if (line.rfind("cs.", 0) == 0 || line.rfind("core.", 0) == 0)
            out += line + "\n";
    }
    return out;
}

ShimResult
runShim(const platform::PrototypeConfig &cfg, const std::string &source,
        std::uint32_t harts, SpanLog &log, std::uint32_t parent)
{
    ShimResult out;
    PortTally tally;
    sim::StatRegistry stats;

    // Construction mirrors Prototype's memory system and cores.
    auto t0 = Clock::now();
    cache::Geometry geo;
    geo.nodes = cfg.totalNodes();
    geo.tilesPerNode = cfg.tilesPerNode;
    geo.dramBase = platform::kDramBase;
    geo.memPerNode = cfg.memPerNode;
    geo.llcSliceBytes = cfg.llcSliceBytes;
    cache::CoherentSystem cs(geo, cfg.timing, cfg.homing, &stats);
    std::vector<std::unique_ptr<TimedPort>> ports;
    std::vector<std::unique_ptr<riscv::RvCore>> cores;
    for (GlobalTileId g = 0; g < harts; ++g) {
        ports.push_back(std::make_unique<TimedPort>(cs, g, tally));
        riscv::CoreConfig ccfg = riscv::corePreset(cfg.coreModel);
        ccfg.hartId = g;
        ccfg.resetPc = platform::kDramBase;
        ccfg.decodeCache = cfg.core.decodeCache;
        ccfg.dataFastPath = cfg.core.dataFastPath;
        cores.push_back(
            std::make_unique<riscv::RvCore>(ccfg, *ports.back(), &stats));
        cores.back()->setEcallHandler([](riscv::RvCore &c) {
            if (c.reg(17) != 93) // Only exit: the kernels print nothing.
                return false;
            c.requestExit(static_cast<std::int64_t>(c.reg(10)));
            return true;
        });
    }
    auto t1 = Clock::now();
    log.add("shim.construct", parent, t0, t1);

    riscv::Assembler as(platform::kDramBase, platform::kDramBase + 0x400000);
    riscv::Program prog = as.assemble(source);
    for (const auto &seg : prog.segments)
        cs.memory().writeBytes(seg.base, seg.bytes.data(), seg.bytes.size());
    for (auto &c : cores)
        c->setPc(prog.entry);
    auto t2 = Clock::now();
    log.add("shim.load", parent, t1, t2);

    // Prototype::runCores' sequential interleaving. No core of the
    // kernels waits in wfi, so a wfi halt simply ends that core (the
    // equivalence check would expose any difference).
    constexpr std::uint64_t kBudget = 50'000'000;
    std::uint32_t run_span = log.open("shim.run", parent);
    std::vector<std::uint64_t> executed(harts, 0);
    std::vector<bool> done(harts, false);
    auto t3 = Clock::now();
    while (true) {
        std::int64_t next = -1;
        for (std::uint32_t i = 0; i < harts; ++i) {
            if (!done[i] &&
                (next < 0 || cores[i]->cycles() < cores[next]->cycles()))
                next = i;
        }
        if (next < 0)
            break;
        std::uint64_t chunk =
            std::min<std::uint64_t>(100, kBudget - executed[next]);
        if (chunk == 0) {
            done[next] = true;
            continue;
        }
        riscv::HaltReason r = cores[next]->run(chunk);
        executed[next] += chunk;
        if (r == riscv::HaltReason::kExited ||
            r == riscv::HaltReason::kEbreak || r == riscv::HaltReason::kWfi)
            done[next] = true;
    }
    auto t4 = Clock::now();
    log.aggregate("shim.port", run_span, tally.calls, tally.busy);
    log.close(run_span);

    out.runS = seconds(t4 - t3);
    out.portS = seconds(tally.busy);
    out.portCalls = tally.calls;
    out.fastHits = tally.fastHits;
    for (auto &c : cores) {
        out.instret.push_back(c->instret());
        out.cycles.push_back(c->cycles());
        out.exitCode.push_back(static_cast<std::uint64_t>(c->exitCode()));
        out.exited.push_back(c->exited());
    }
    out.csCoreStats = csCoreLines(stats);
    return out;
}

} // namespace e2e
