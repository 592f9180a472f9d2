/**
 * @file
 * The identity harness for the host-only fast paths (the knobs that
 * PrototypeConfig::disableFastPaths() turns off). A fast path must
 * replicate the reference path or change nothing, so its proof is the
 * same everywhere: run one workload with the knob on and off and
 * compare the observable surface — stats dump, binary trace and SMCK
 * checkpoint bytes — byte for byte, on the sequential engine and on the
 * phased engine at 1/2/4 workers.
 *
 * Shared by the parametrized identity suite
 * (tests/test_fastpath_identity.cpp), the knob-specific tests, the
 * checkpoint tests and the fast-path benches.
 */

#pragma once

#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <sstream>
#include <stdexcept>
#include <string>
#include <system_error>
#include <vector>

#include "obs/trace_io.hpp"
#include "platform/prototype.hpp"

namespace smappic::test
{

namespace fs = std::filesystem;

/**
 * A fresh, empty directory `<tmp>/smappic-pid<pid>.<name>`. The process
 * id keeps concurrent processes — `ctest -j`, which runs each test in a
 * process of its own, or overlapping bench runs — apart; the tests of
 * one process run one after another, and each call empties the
 * directory first. The directories go when the process exits.
 */
inline fs::path
scratchDir(const std::string &name)
{
    struct Sweeper
    {
        std::vector<fs::path> dirs;
        ~Sweeper()
        {
            std::error_code ec;
            for (const fs::path &dir : dirs)
                fs::remove_all(dir, ec);
        }
    };
    static Sweeper sweeper;
    fs::path dir = fs::temp_directory_path() /
                   ("smappic-pid" + std::to_string(::getpid()) + "." + name);
    fs::remove_all(dir);
    fs::create_directories(dir);
    sweeper.dirs.push_back(dir);
    return dir;
}

/** The bytes of the file at @p path.
 *  @throws std::runtime_error when it cannot be read. */
inline std::string
slurp(const fs::path &path)
{
    std::ifstream is(path, std::ios::binary);
    if (!is)
        throw std::runtime_error("cannot read " + path.string());
    return std::string(std::istreambuf_iterator<char>(is),
                       std::istreambuf_iterator<char>());
}

inline std::string
statsDump(platform::Prototype &proto)
{
    std::ostringstream os;
    proto.stats().dump(os);
    return os.str();
}

/** Every core of @p proto, for runCores(). */
inline std::vector<GlobalTileId>
allCores(const platform::Prototype &proto)
{
    std::vector<GlobalTileId> gids;
    for (GlobalTileId g = 0; g < proto.coreCount(); ++g)
        gids.push_back(g);
    return gids;
}

/** Everything a run leaves observable. */
struct Surface
{
    std::string stats;
    std::string trace;    ///< Binary trace (header only when off).
    std::string snapshot; ///< SMCK checkpoint taken after the run.
};

/** Captures @p proto's surface, writing the checkpoint into @p dir. */
inline Surface
capture(platform::Prototype &proto, const fs::path &dir)
{
    Surface out;
    out.stats = statsDump(proto);
    std::ostringstream trace;
    obs::writeBinary(proto.tracer(), trace);
    out.trace = trace.str();
    fs::path snap = dir / "surface.smck";
    proto.checkpoint(snap.string());
    out.snapshot = slurp(snap);
    return out;
}

/** Runs @p source (replicated per node) on every core of a prototype
 *  built from @p cfg for @p budget instructions each, then captures. */
inline Surface
runSurface(const platform::PrototypeConfig &cfg, const std::string &source,
           std::uint64_t budget, const fs::path &dir)
{
    platform::Prototype proto(cfg);
    proto.loadSourceReplicated(source);
    proto.runCores(allCores(proto), budget);
    return capture(proto, dir);
}

/** @p spec on the sequential engine (threads == 0), or on the phased
 *  engine with @p threads workers and a 63-cycle quantum. */
inline platform::PrototypeConfig
engineConfig(const std::string &spec, std::uint32_t threads)
{
    platform::PrototypeConfig cfg = platform::PrototypeConfig::parse(spec);
    if (threads > 0) {
        cfg.parallel.threads = threads;
        cfg.parallel.quantum = 63;
    }
    return cfg;
}

/** The resume config: phased 2x1x2 with a checkpoint every @p interval
 *  cycles, all of them kept in @p dir. */
inline platform::PrototypeConfig
resumeConfig(const fs::path &dir, Cycles interval, std::uint32_t threads = 2)
{
    platform::PrototypeConfig cfg = engineConfig("2x1x2", threads);
    cfg.snapshot.interval = interval;
    cfg.snapshot.dir = dir.string();
    cfg.snapshot.keep = 0; // Keep everything: callers diff the sets.
    return cfg;
}

/** Which surface parts matched in every comparison so far. */
struct Verdict
{
    bool stats = true;
    bool trace = true;
    bool snapshot = true;
    std::string report; ///< One line per mismatch.

    bool identical() const { return stats && trace && snapshot; }

    /** Compares @p got, labelled @p what, with @p ref; an empty
     *  reference part counts as a mismatch. */
    void
    compare(const std::string &what, const Surface &ref, const Surface &got)
    {
        auto part = [&](bool &ok, const char *name, const std::string &a,
                        const std::string &b) {
            if (a.empty() || a != b) {
                ok = false;
                report += what + ": " + name + " differs\n";
            }
        };
        part(stats, "stats", ref.stats, got.stats);
        part(trace, "trace", ref.trace, got.trace);
        part(snapshot, "snapshot", ref.snapshot, got.snapshot);
    }
};

/** One run of a knob's workload: knob @p on or off, sequential engine
 *  (threads == 0) or phased with that many workers. */
using RunFn = std::function<Surface(bool on, std::uint32_t threads)>;

/** Sequential engine, knob on vs off. */
inline void
compareSequential(const RunFn &run, Verdict &v)
{
    v.compare("sequential, off", run(true, 0), run(false, 0));
}

/** Phased engine, {on, off} x {1, 2, 4} workers, each against on at 1
 *  worker. */
inline void
comparePhased(const RunFn &run, Verdict &v)
{
    Surface ref = run(true, 1);
    for (bool on : {true, false}) {
        for (std::uint32_t threads : {1u, 2u, 4u}) {
            if (on && threads == 1)
                continue; // The reference itself.
            v.compare(std::string(on ? "on, " : "off, ") +
                          std::to_string(threads) + " workers",
                      ref, run(on, threads));
        }
    }
}

// ------------------------------------------------ identity workloads

/** Budget-bounded mix of ALU work, loads and stores (the stores keep
 *  the decode cache's page-stamp machinery busy on the data page). */
inline constexpr const char *kDecodeMixSource = R"(
_start:
    csrr t0, 0xf14
    andi t0, t0, 3
    slli t0, t0, 3
    la t1, buf
    add t1, t1, t0
    li t2, 0
loop:
    ld t3, 0(t1)
    add t3, t3, t2
    sd t3, 0(t1)
    xor t2, t2, t3
    andi t2, t2, 2047
    addi t2, t2, 1
    j loop

.data
.align 3
buf: .dword 1
     .dword 2
     .dword 3
     .dword 4
)";

/** Private-line streaming plus a shared-line RMW every iteration: the
 *  private slots keep the L1D fast path engaged (steady-state L1D/BPC-M
 *  hits) while the shared line bounces between harts, forcing the fast
 *  path to attempt and bail around every recall. All access widths are
 *  naturally aligned; sub-dword widths (lb/lh/lw, sb/sh/sw) keep the
 *  width plumbing honest. */
inline constexpr const char *kShareMixSource = R"(
_start:
    csrr t0, 0xf14
    andi t0, t0, 3
    slli t1, t0, 7       # 128-byte private stride per hart
    la t6, buf
    add t6, t6, t1
    la a5, shared
    li t2, 0
loop:
    ld t3, 0(t6)
    add t3, t3, t2
    sd t3, 0(t6)
    lw t4, 8(t6)
    addw t4, t4, t3
    sw t4, 8(t6)
    lh t5, 12(t6)
    sh t5, 12(t6)
    lb a1, 14(t6)
    sb a1, 14(t6)
    ld a2, 0(a5)         # shared-line bounce
    add a2, a2, t3
    sd a2, 0(a5)
    addi t2, t2, 1
    j loop

.data
.align 7
buf:    .dword 1
        .dword 2
        .dword 3
        .dword 4
.align 7
        .dword 5
        .dword 6
        .dword 7
        .dword 8
.align 7
        .dword 9
        .dword 10
        .dword 11
        .dword 12
.align 7
        .dword 13
        .dword 14
        .dword 15
        .dword 16
.align 7
shared: .dword 100
)";

/** kWfiTimerSource's sleeper: hart 0's timer loop down to `finish`,
 *  where every hart exits. The workloads that use it differ only in
 *  where the other harts branch from `_start`. */
inline constexpr const char *kWfiSleeperSource = R"(
    la t0, handler
    csrw 0x305, t0       # mtvec
    li t1, 0x80
    csrw 0x304, t1       # mie.MTIE
    csrr t2, 0x300
    ori t2, t2, 8
    csrw 0x300, t2       # mstatus.MIE
    li s0, 0             # wakeups so far
    li s1, 20            # target wakeups
    li s2, 0x0200bff8    # CLINT mtime
    li s3, 0x02004000    # CLINT mtimecmp[0]
    li s4, 8000          # interval
    ld t3, 0(s2)
    add t3, t3, s4
    sd t3, 0(s3)
idle:
    wfi
    j idle
handler:
    addi s0, s0, 1
    bge s0, s1, last
    ld t3, 0(s2)
    add t3, t3, s4
    sd t3, 0(s3)
    mret
last:
    la t3, finish
    csrw 0x341, t3       # mepc = finish
    li t3, -1
    sd t3, 0(s3)         # disarm the timer
    mret
finish:
    li a0, 0
    li a7, 93
    ecall
)";

/** Timer-driven WFI workload exercising every idle-skip site: hart 0
 *  sleeps between CLINT timer interrupts (20 wakeups, 8000 cycles
 *  apart), its handler re-arming mtimecmp each wakeup; all other harts
 *  exit at once — so sequential runs sit in the waitForWake() horizon
 *  loop and phased runs cross long runs of idle barriers. */
inline const std::string kWfiTimerSource = std::string(R"(
_start:
    csrr t0, 0xf14       # mhartid
    bnez t0, finish      # only hart 0 runs the timer loop)") +
                                           kWfiSleeperSource;

/** Every fast path at once: kWfiTimerSource's sleeper on hart 0 while
 *  the other harts run 600 iterations of a load/store loop with a
 *  shared-line bounce before they exit, so the run passes from busy
 *  fetch and L1D hits into an idle stretch with only the sleeper left. */
inline const std::string kReferenceSource = std::string(R"(
_start:
    csrr t0, 0xf14       # mhartid
    bnez t0, worker      # hart 0 sleeps, the others work first)") +
                                            kWfiSleeperSource + R"(
worker:
    andi t0, t0, 3
    slli t1, t0, 7
    la t6, buf
    add t6, t6, t1
    la a5, shared
    li t2, 0
    li s6, 600
loop:
    ld t3, 0(t6)
    add t3, t3, t2
    sd t3, 0(t6)
    lw t4, 8(t6)
    addw t4, t4, t3
    sw t4, 8(t6)
    ld a2, 0(a5)
    add a2, a2, t3
    sd a2, 0(a5)
    addi t2, t2, 1
    bne t2, s6, loop
    j finish

.data
.align 7
buf:    .space 512
shared: .dword 100
)";

} // namespace smappic::test
