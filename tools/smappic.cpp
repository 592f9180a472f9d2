/**
 * @file
 * The `smappic` driver: the correctness harnesses (fuzz, litmus,
 * torture), the checkpoint and trace tools (snap, trace) and the phased
 * engine's determinism probe (probe) as subcommands of one executable.
 * Every flag, its bounds and its per-subcommand default live in the flag
 * table of src/check/cli.cpp; `smappic` alone prints the usage text
 * derived from it. A run is a pure function of its command line, and a
 * printed `repro:` line replays it.
 *
 * Exit codes: 0 = clean; 1 = a divergence, forbidden outcome, golden
 * mismatch, checker violation, invalid file or error (for fuzz
 * --defect: the defect was missed); 2 = usage error.
 */

#include <cinttypes>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "check/cli.hpp"
#include "obs/trace_io.hpp"
#include "platform/prototype.hpp"
#include "sim/log.hpp"
#include "sim/stats.hpp"
#include "snap/snapshot.hpp"

using namespace smappic;
using check::cli::Options;

namespace
{

constexpr int kUsage = 2;

// ---------------------------------------------------------------------
// fuzz

int
runFuzz(const Options &opt)
{
    const check::FuzzConfig cfg = check::cli::fuzzConfig(opt);
    const bool defectMode = cfg.defect != riscv::CoreTestMutation::kNone;
    std::uint64_t diverging = 0;
    for (std::uint64_t r = 0; r < opt.runs; ++r) {
        check::FuzzConfig run = cfg;
        run.seed = cfg.seed + r;
        check::FuzzResult res;
        std::string repro = "repro: " + check::reproCommand(run);
        if (opt.minimize || defectMode) {
            check::MinimizeResult m = check::runFuzzAndMinimize(run);
            res = m.result;
            if (res.diverged)
                repro = m.repro;
        } else {
            res = check::runFuzz(run);
        }

        std::printf("seed %llu: %llu commits, %zu divergence(s)%s\n",
                    static_cast<unsigned long long>(run.seed),
                    static_cast<unsigned long long>(res.commits),
                    res.divergences.size(),
                    res.exitedCleanly ? "" : " [no clean exit]");
        if (res.diverged) {
            ++diverging;
            for (const auto &d : res.divergences)
                std::printf("%s\n", d.message.c_str());
            std::printf("%s\n", repro.c_str());
        }
        if (!res.exitedCleanly && !res.diverged) {
            // A hung program with no divergence is a harness bug.
            std::fprintf(stderr, "seed %llu: program did not exit\n",
                         static_cast<unsigned long long>(run.seed));
            return 1;
        }
    }

    if (defectMode) {
        if (diverging == opt.runs) {
            std::printf("defect detected in %llu/%llu run(s)\n",
                        static_cast<unsigned long long>(diverging),
                        static_cast<unsigned long long>(opt.runs));
            return 0;
        }
        std::fprintf(stderr, "defect MISSED: %llu/%llu run(s) diverged\n",
                     static_cast<unsigned long long>(diverging),
                     static_cast<unsigned long long>(opt.runs));
        return 1;
    }
    return diverging == 0 ? 0 : 1;
}

// ---------------------------------------------------------------------
// litmus, torture

int
runLitmus(const Options &opt)
{
    const check::LitmusConfig cfg = check::cli::litmusConfig(opt);
    int failures = 0;
    for (const check::LitmusTest &t : check::standardLitmusSuite()) {
        check::LitmusResult r = check::runLitmus(t, cfg);
        std::printf("litmus %-10s %s  outcomes: %s  violations: %llu\n",
                    t.name.c_str(), r.passed ? "PASS" : "FAIL",
                    r.histogram().c_str(),
                    static_cast<unsigned long long>(r.checkerViolations));
        if (!r.passed) {
            ++failures;
            std::printf("repro: %s\n", check::reproCommand(cfg).c_str());
        }
    }
    return failures ? 1 : 0;
}

void
printTortureReport(const check::TortureReport &rep)
{
    std::printf("torture seed %llu ops %u lines %u: %s  violations: "
                "%llu  mismatches: %zu\n",
                static_cast<unsigned long long>(rep.seed), rep.opsPerCore,
                rep.sharedLines, rep.passed ? "PASS" : "FAIL",
                static_cast<unsigned long long>(rep.checkerViolations),
                rep.mismatches.size());
    for (const std::string &m : rep.mismatches)
        std::printf("  mismatch: %s\n", m.c_str());
    if (!rep.passed)
        std::printf("repro: %s\n", rep.repro.c_str());
}

int
runTorture(const Options &opt)
{
    if (opt.sweep == 0) {
        check::TortureConfig cfg = check::cli::tortureConfig(opt, opt.seed);
        check::TortureReport rep = opt.minimize
                                       ? check::runAndMinimize(cfg)
                                       : check::runTorture(cfg);
        printTortureReport(rep);
        if (opt.minimize && rep.shrinkSteps)
            std::printf("minimized in %u steps\n", rep.shrinkSteps);
        return rep.passed ? 0 : 1;
    }
    for (std::uint64_t i = 0; i < opt.sweep; ++i) {
        check::TortureConfig cfg =
            check::cli::tortureConfig(opt, opt.seed + i);
        check::TortureReport rep = check::runTorture(cfg);
        printTortureReport(rep);
        if (!rep.passed) {
            // Minimize the failing seed before reporting it.
            check::TortureReport min = check::runAndMinimize(cfg);
            std::printf("minimized repro: %s\n", min.repro.c_str());
            return 1;
        }
    }
    std::printf("torture sweep: %llu seeds passed\n",
                static_cast<unsigned long long>(opt.sweep));
    return 0;
}

// ---------------------------------------------------------------------
// snap

int
snapInspect(const std::string &path)
{
    snap::SnapshotInfo info = snap::inspect(path);
    std::printf("checkpoint: %s\n", path.c_str());
    std::printf("  format v%u, config hash %016llx\n", info.version,
                static_cast<unsigned long long>(info.configHash));
    std::printf("  prototype %s, seed %llu, %u nodes x %u tiles\n",
                info.configName.c_str(),
                static_cast<unsigned long long>(info.seed), info.nodes,
                info.tilesPerNode);
    std::printf("  cycle %llu, %llu instructions committed\n",
                static_cast<unsigned long long>(info.cycle),
                static_cast<unsigned long long>(info.instret));
    std::printf("  %zu sections:\n", info.sections.size());
    for (const auto &s : info.sections) {
        std::printf("    tag %2u  %8llu bytes  crc %08x\n", s.tag,
                    static_cast<unsigned long long>(s.size), s.crc);
    }
    return 0;
}

int
snapValidate(const std::string &path)
{
    std::string error;
    if (!snap::validate(path, &error)) {
        std::fprintf(stderr, "invalid: %s: %s\n", path.c_str(),
                     error.c_str());
        return 1;
    }
    std::printf("valid: %s\n", path.c_str());
    return 0;
}

int
snapDiff(const std::string &a, const std::string &b)
{
    std::vector<std::string> lines = snap::diff(a, b);
    for (const std::string &l : lines)
        std::printf("%s\n", l.c_str());
    if (lines.empty()) {
        std::printf("checkpoints are equivalent\n");
        return 0;
    }
    return 1;
}

/** Deterministic stats dump: counters exactly, summaries via their raw
 *  accumulators with full round-trip precision. Byte-identical output
 *  is the whole point — the recovery CI job compares with cmp. */
void
dumpStatsJson(const sim::StatRegistry &stats, const std::string &path)
{
    std::ofstream os(path);
    fatalIf(!os, strfmt("cannot write '%s'", path.c_str()));
    os << "{\n  \"counters\": {";
    bool first = true;
    for (const auto &[name, c] : stats.counters()) {
        os << (first ? "" : ",") << "\n    \"" << name
           << "\": " << c.value();
        first = false;
    }
    os << "\n  },\n  \"summaries\": {";
    first = true;
    char buf[64];
    for (const auto &[name, s] : stats.summaries()) {
        std::snprintf(buf, sizeof buf, "%.17g", s.sum());
        os << (first ? "" : ",") << "\n    \"" << name
           << "\": {\"count\": " << s.count() << ", \"sum\": " << buf
           << "}";
        first = false;
    }
    os << "\n  }\n}\n";
    fatalIf(!os.good(), strfmt("write to '%s' failed", path.c_str()));
}

std::uint64_t
counterOr0(const sim::StatRegistry &stats, const char *name)
{
    auto it = stats.counters().find(name);
    return it == stats.counters().end() ? 0 : it->second.value();
}

/** The prototype a snap or probe command line names: its geometry,
 *  engine and optional trace output. */
platform::PrototypeConfig
prototypeConfig(const Options &opt)
{
    platform::PrototypeConfig cfg =
        platform::PrototypeConfig::parse(opt.spec);
    cfg.parallel = opt.parallel;
    if (!opt.trace.empty()) {
        cfg.trace.enabled = true;
        cfg.trace.path = opt.trace;
    }
    return cfg;
}

/** `snap run` and `snap resume`: the deterministic torture workload with
 *  periodic checkpoints; resume restores the newest checkpoint (or
 *  --from) and, with the same flags, ends byte-identical to `run`. */
int
snapRun(const Options &opt, bool resume)
{
    platform::PrototypeConfig cfg = prototypeConfig(opt);
    cfg.seed = opt.seed;
    cfg.snapshot.interval = opt.interval;
    cfg.snapshot.dir = opt.dir;
    cfg.snapshot.keep = opt.keep;
    cfg.watchdog.stallCycles = opt.watchdogStall;
    cfg.watchdog.action = opt.watchdogAction;
    if (opt.wedgeNode) {
        sim::FaultRule rule;
        rule.site = strfmt("node.wedge.node%u", *opt.wedgeNode);
        rule.kind = sim::FaultKind::kDrop;
        rule.probability = 1.0;
        rule.firstEvent = opt.wedgeAfter;
        cfg.faultPlan.seed = opt.seed;
        cfg.faultPlan.add(rule);
    }
    platform::Prototype proto(cfg);

    // The workload is a pure function of (seed, ops, lines, harts):
    // run and resume regenerate the identical program.
    proto.loadSource(
        check::generateTorture(check::cli::tortureConfig(opt, opt.seed))
            .source);

    if (resume) {
        std::string from =
            opt.from.empty() ? snap::latestCheckpoint(opt.dir) : opt.from;
        if (from.empty()) {
            std::fprintf(stderr, "resume: no checkpoint in '%s'\n",
                         opt.dir.c_str());
            return 1;
        }
        std::printf("resuming from %s\n", from.c_str());
        proto.restore(from);
    }

    if (opt.killAt > 0) {
        proto.setBarrierProbe([&](Cycles boundary) {
            // SIGKILL, not exit(): the run must die without destructors,
            // flushes or any other graceful-shutdown help.
            if (boundary >= opt.killAt)
                std::raise(SIGKILL);
        });
    }

    std::vector<GlobalTileId> gids;
    for (std::uint32_t c = 0; c < proto.coreCount(); ++c)
        gids.push_back(c);
    proto.runCores(gids, opt.maxInstructions);

    std::printf(
        "run complete: cycle %llu, %llu checkpoints, %llu recoveries\n",
        static_cast<unsigned long long>(proto.eventQueue().now()),
        static_cast<unsigned long long>(
            counterOr0(proto.stats(), "snap.checkpoints")),
        static_cast<unsigned long long>(
            counterOr0(proto.stats(), "watchdog.recoveries")));

    if (!opt.statsJson.empty())
        dumpStatsJson(proto.stats(), opt.statsJson);
    if (!opt.trace.empty())
        proto.writeTrace(opt.trace);
    return 0;
}

int
runSnap(const Options &opt)
{
    const std::string &verb = opt.operands[0];
    const std::size_t files = opt.operands.size() - 1;
    if (verb == "inspect" && files == 1)
        return snapInspect(opt.operands[1]);
    if (verb == "validate" && files == 1)
        return snapValidate(opt.operands[1]);
    if (verb == "diff" && files == 2)
        return snapDiff(opt.operands[1], opt.operands[2]);
    if ((verb == "run" || verb == "resume") && files == 0)
        return snapRun(opt, verb == "resume");
    std::fprintf(stderr, "smappic snap: bad verb or file count\n");
    return kUsage;
}

// ---------------------------------------------------------------------
// trace

bool
keepEvent(const Options &opt, const obs::TraceEvent &ev)
{
    if (opt.node && ev.node != *opt.node)
        return false;
    if (opt.components != 0 && (opt.components & (1u << ev.component)) == 0)
        return false;
    if (opt.window &&
        !obs::cycleInWindow(ev.cycle, opt.window->first,
                            opt.window->second))
        return false;
    return true;
}

/** Structural validation behind --check. Returns the number of errors. */
std::uint64_t
checkTrace(const obs::TraceData &data)
{
    std::uint64_t errors = 0;
    std::uint64_t held = 0;
    for (std::uint64_t h : data.perNodeHeld)
        held += h;
    if (held != data.events.size()) {
        std::fprintf(stderr,
                     "check: header holds %" PRIu64
                     " events but file carries %zu\n",
                     held, data.events.size());
        ++errors;
    }
    for (std::size_t i = 0; i < data.events.size(); ++i) {
        const obs::TraceEvent &ev = data.events[i];
        if (ev.kind >= obs::kNumEventKinds) {
            std::fprintf(stderr, "check: event %zu has bad kind %u\n", i,
                         ev.kind);
            ++errors;
            continue;
        }
        auto kind = static_cast<obs::EventKind>(ev.kind);
        auto comp = static_cast<std::uint8_t>(obs::kindComponent(kind));
        if (ev.component != comp) {
            std::fprintf(stderr,
                         "check: event %zu kind %s carries component %u, "
                         "expected %u\n",
                         i, obs::kindName(kind), ev.component, comp);
            ++errors;
        }
        // PCIe events are tagged with the source FPGA, which is always a
        // valid node index (fpgas <= nodes in every AxBxC config).
        if (ev.node >= data.nodes) {
            std::fprintf(stderr, "check: event %zu has node %u of %u\n",
                         i, ev.node, data.nodes);
            ++errors;
        }
        if (ev.pad != 0) {
            std::fprintf(stderr, "check: event %zu has nonzero pad\n", i);
            ++errors;
        }
    }
    return errors;
}

void
printBreakdown(const std::vector<obs::TraceEvent> &events)
{
    // One histogram per kind, width scaled to the kind's observed max so
    // p50/p99 stay meaningful for both 1-cycle hops and 10k-cycle misses.
    std::uint32_t maxDur[obs::kNumEventKinds] = {};
    std::uint64_t counts[obs::kNumEventKinds] = {};
    for (const obs::TraceEvent &ev : events) {
        counts[ev.kind] += 1;
        if (ev.duration > maxDur[ev.kind])
            maxDur[ev.kind] = ev.duration;
    }
    std::vector<sim::Histogram> hists;
    constexpr std::size_t kBuckets = 128;
    for (std::uint32_t k = 0; k < obs::kNumEventKinds; ++k) {
        double width = maxDur[k] / static_cast<double>(kBuckets) + 1.0;
        hists.emplace_back(kBuckets, width);
    }
    for (const obs::TraceEvent &ev : events)
        hists[ev.kind].sample(ev.duration);

    std::printf("%-12s %-12s %10s %10s %8s %8s\n", "component", "kind",
                "count", "mean", "p50", "p99");
    for (std::uint32_t k = 0; k < obs::kNumEventKinds; ++k) {
        if (counts[k] == 0)
            continue;
        auto kind = static_cast<obs::EventKind>(k);
        std::printf("%-12s %-12s %10" PRIu64 " %10.1f %8.0f %8.0f\n",
                    obs::componentName(obs::kindComponent(kind)),
                    obs::kindName(kind), counts[k],
                    hists[k].summary().mean(), hists[k].percentile(0.50),
                    hists[k].percentile(0.99));
    }
}

/** Default: header plus a per-kind latency breakdown (count, mean, p50,
 *  p99) of the events the --node/--component/--window filters keep;
 *  --json also exports them as Chrome trace_event JSON; --check only
 *  validates the file's structure. */
int
runTrace(const Options &opt)
{
    const std::string &input = opt.operands[0];
    std::ifstream is(input, std::ios::binary);
    if (!is) {
        std::fprintf(stderr, "cannot open '%s'\n", input.c_str());
        return 1;
    }
    obs::TraceData data = obs::readBinary(is);

    if (opt.check) {
        std::uint64_t errors = checkTrace(data);
        std::printf("check: %s: %zu events, %u nodes, %" PRIu64
                    " dropped, %" PRIu64 " errors\n",
                    input.c_str(), data.events.size(), data.nodes,
                    data.dropped(), errors);
        return errors == 0 ? 0 : 1;
    }

    std::vector<obs::TraceEvent> events;
    events.reserve(data.events.size());
    for (const obs::TraceEvent &ev : data.events) {
        if (keepEvent(opt, ev))
            events.push_back(ev);
    }

    if (!opt.json.empty()) {
        std::ofstream os(opt.json);
        fatalIf(!os, strfmt("cannot write '%s'", opt.json.c_str()));
        obs::writeChromeJson(events, os);
        fatalIf(!os.good(),
                strfmt("write to '%s' failed", opt.json.c_str()));
    }

    std::printf("trace: %s version %u, %u nodes, %zu/%zu events "
                "selected, %" PRIu64 " dropped at capture\n",
                input.c_str(), data.version, data.nodes, events.size(),
                data.events.size(), data.dropped());
    for (std::uint32_t n = 0; n < data.nodes; ++n) {
        std::printf("  node %u: held %" PRIu64 " dropped %" PRIu64 "\n",
                    n, data.perNodeHeld[n], data.perNodeDropped[n]);
    }
    printBreakdown(events);
    return 0;
}

// ---------------------------------------------------------------------
// probe

/** Probe workload: MSIP ping-pong between hart 0 and the last hart (on
 *  the last node) plus a node-local compute loop on every other hart.
 *  @LAST@ is replaced with the highest hart id. */
constexpr const char *kProbeWorkload = R"(
_start:
    csrr t0, 0xf14       # mhartid
    li t1, @LAST@
    beq t0, zero, pinger
    beq t0, t1, ponger
compute:                 # Node-local work on every other hart.
    li t2, 0
    li t3, 0
    li t4, 3000
loop:
    add t3, t3, t2
    addi t2, t2, 1
    bne t2, t4, loop
    la t5, sum
    sd t3, 0(t5)
    andi a0, t3, 0x3f
    li a7, 93
    ecall
pinger:
    la t0, h0
    csrw 0x305, t0       # mtvec
    li t2, 0x8
    csrw 0x304, t2       # mie.MSIE
    csrr t3, 0x300
    ori t3, t3, 8
    csrw 0x300, t3       # mstatus.MIE
    li t1, @LAST@
    slli t1, t1, 2
    li t2, 0x02000000    # CLINT MSIP of the last hart
    add t1, t1, t2
    li t2, 1
    sw t2, 0(t1)
w0: wfi
    j w0
h0:
    li a0, 5
    li a7, 93
    ecall
ponger:
    la t0, h1
    csrw 0x305, t0
    li t2, 0x8
    csrw 0x304, t2
    csrr t3, 0x300
    ori t3, t3, 8
    csrw 0x300, t3
w1: wfi
    j w1
h1:
    la t3, flag
    li t4, 1
    sd t4, 0(t3)
    li t1, 0x02000000    # CLINT MSIP of hart 0
    li t2, 1
    sw t2, 0(t1)
    li a0, 7
    li a7, 93
    ecall

.data
.align 3
flag: .dword 0
sum:  .dword 0
)";

std::uint64_t
fnv1a(std::uint64_t h, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i) {
        h ^= (v >> (8 * i)) & 0xff;
        h *= 0x100000001b3ULL;
    }
    return h;
}

/**
 * Runs the probe workload and prints a machine-diffable report: per-hart
 * exit codes, an FNV-1a fingerprint of every node's guest data region
 * and the full stat registry. The CI determinism job diffs the reports
 * of 1, 2 and 4 workers at one quantum byte for byte; with --trace the
 * binary traces are diffed the same way.
 */
int
runProbe(const Options &opt)
{
    const platform::PrototypeConfig cfg = prototypeConfig(opt);
    platform::Prototype proto(cfg);

    std::string source = kProbeWorkload;
    const std::string token = "@LAST@";
    const std::string last = std::to_string(cfg.totalTiles() - 1);
    for (std::size_t at = source.find(token); at != std::string::npos;
         at = source.find(token, at + last.size()))
        source.replace(at, token.size(), last);

    riscv::Program prog = proto.loadSourceReplicated(source);
    std::vector<GlobalTileId> gids;
    for (GlobalTileId g = 0; g < cfg.totalTiles(); ++g)
        gids.push_back(g);
    proto.runCores(gids, opt.maxInstructions);
    if (!opt.trace.empty())
        proto.writeTrace();

    // The report deliberately omits the engine flags so that outputs
    // from different worker counts diff clean.
    std::printf("config: %s harts: %u\n", opt.spec.c_str(),
                cfg.totalTiles());
    for (GlobalTileId g = 0; g < cfg.totalTiles(); ++g) {
        std::printf("hart %u: exited=%d code=%" PRId64 "\n", g,
                    proto.core(g).exited() ? 1 : 0,
                    proto.core(g).exitCode());
    }

    // Fingerprint each node's replica of the program data region.
    const Addr data_base = prog.symbol("flag") & ~Addr{0xfff};
    for (NodeId n = 0; n < cfg.totalNodes(); ++n) {
        std::uint64_t h = 0xcbf29ce484222325ULL;
        Addr base = data_base + n * cfg.memPerNode;
        for (Addr a = base; a < base + 0x1000; a += 8)
            h = fnv1a(h, proto.memory().load(a, 8));
        std::printf("node %u data fingerprint: %016" PRIx64 "\n", n, h);
    }

    std::printf("--- stats ---\n");
    std::ostringstream os;
    proto.stats().dump(os);
    std::fputs(os.str().c_str(), stdout);
    return 0;
}

int
dispatch(const Options &opt)
{
    switch (opt.sub) {
      case check::cli::kFuzz: return runFuzz(opt);
      case check::cli::kLitmus: return runLitmus(opt);
      case check::cli::kTorture: return runTorture(opt);
      case check::cli::kSnap: return runSnap(opt);
      case check::cli::kTrace: return runTrace(opt);
      case check::cli::kProbe: return runProbe(opt);
    }
    return kUsage;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    int rc = kUsage;
    if (check::cli::parse(std::vector<std::string>(argv + 1, argv + argc),
                          opt)) {
        try {
            rc = dispatch(opt);
        } catch (const std::exception &e) {
            std::fprintf(stderr, "smappic: %s\n", e.what());
            return 1;
        }
    }
    if (rc == kUsage)
        std::fputs(check::cli::usage(opt.sub).c_str(), stderr);
    return rc;
}
