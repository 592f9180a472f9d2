#include "check/cli.hpp"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <cstring>
#include <sstream>
#include <type_traits>

#include "obs/tracer.hpp"
#include "sim/log.hpp"

namespace smappic::check::cli
{
namespace
{

/**
 * Parses plain decimal digits that fit @p T and lie in [lo, hi]. Empty
 * input, a sign ("-1" would otherwise wrap to 2^64 - 1), a base prefix,
 * whitespace, trailing garbage, overflow and values wider than @p T
 * (4294967297 for a 32-bit flag) are all rejected, so a malformed flag
 * is a usage error instead of a silently different run. On failure
 * leaves @p out untouched.
 */
template <typename T>
bool
parseNumber(const char *s, T &out, std::uint64_t lo = 0,
            std::uint64_t hi = ~std::uint64_t{0})
{
    static_assert(std::is_unsigned_v<T>, "flags take unsigned values");
    const char *end = s + std::strlen(s);
    T value{};
    auto [stop, ec] = std::from_chars(s, end, value);
    if (ec != std::errc{} || stop != end || value < lo || value > hi)
        return false;
    out = value;
    return true;
}

template <auto Field, std::uint64_t Lo = 0,
          std::uint64_t Hi = ~std::uint64_t{0}>
bool
number(Options &o, const char *s)
{
    // The field's type, or its value_type when it is a std::optional.
    using T = typename decltype(std::optional(o.*Field))::value_type;
    T value{};
    if (!parseNumber(s, value, Lo, Hi))
        return false;
    o.*Field = value;
    return true;
}

template <auto Field>
bool
text(Options &o, const char *s)
{
    o.*Field = s;
    return true;
}

template <auto Field>
bool
on(Options &o, const char *)
{
    o.*Field = true;
    return true;
}

bool
threads(Options &o, const char *s)
{
    return parseNumber(s, o.parallel.threads, 1, 64);
}

bool
quantum(Options &o, const char *s)
{
    return parseNumber(s, o.parallel.quantum);
}

bool
mix(Options &o, const char *s)
{
    for (FuzzMix m : {FuzzMix::kAlu, FuzzMix::kMul, FuzzMix::kMem,
                      FuzzMix::kAmo, FuzzMix::kCsr, FuzzMix::kAll,
                      FuzzMix::kSmc}) {
        if (std::strcmp(s, mixName(m)) == 0) {
            o.mix = m;
            return true;
        }
    }
    return false;
}

bool
defect(Options &o, const char *s)
{
    for (auto d : {riscv::CoreTestMutation::kMulhCorrupt,
                   riscv::CoreTestMutation::kStaleDecode}) {
        if (std::strcmp(s, defectName(d)) == 0) {
            o.defect = d;
            return true;
        }
    }
    return false;
}

bool
watchdogAction(Options &o, const char *s)
{
    using sim::WatchdogAction;
    for (auto [name, action] :
         {std::pair{"report", WatchdogAction::kReport},
          std::pair{"panic", WatchdogAction::kPanic},
          std::pair{"recover", WatchdogAction::kRecover}}) {
        if (std::strcmp(s, name) == 0) {
            o.watchdogAction = action;
            return true;
        }
    }
    return false;
}

/** A comma list of obs::componentName()s. */
bool
components(Options &o, const char *s)
{
    std::uint32_t mask = 0;
    std::string list = s;
    for (std::size_t at = 0; at <= list.size();) {
        std::size_t comma = std::min(list.find(',', at), list.size());
        std::string name = list.substr(at, comma - at);
        std::uint32_t bit = 0;
        for (std::uint32_t c = 0; c < obs::kNumComponents; ++c) {
            auto comp = static_cast<obs::Component>(c);
            if (name == obs::componentName(comp))
                bit = obs::componentBit(comp);
        }
        if (bit == 0)
            return false;
        mask |= bit;
        at = comma + 1;
    }
    o.components = mask;
    return true;
}

/** `A:B`, the half-open cycle window A <= cycle < B. */
bool
window(Options &o, const char *s)
{
    const char *colon = std::strchr(s, ':');
    Cycles from = 0;
    Cycles to = 0;
    if (colon == nullptr ||
        !parseNumber(std::string(s, colon).c_str(), from) ||
        !parseNumber(colon + 1, to))
        return false;
    o.window = std::pair{from, to};
    return true;
}

constexpr std::uint32_t kEngine = kFuzz | kLitmus | kTorture | kSnap |
                                  kProbe;
constexpr std::uint32_t kSeeded = kFuzz | kLitmus | kTorture | kSnap;

/** One subcommand default: the first entry naming the subcommand wins. */
struct Default
{
    std::uint32_t subs = 0;
    const char *value = nullptr;
};

struct Flag
{
    const char *name;
    /** Value syntax for the usage text; nullptr makes a switch. */
    const char *metavar;
    /** Subcommands that accept the flag. */
    std::uint32_t subs;
    /** Stores a value; false rejects it (malformed or out of bounds). */
    bool (*set)(Options &, const char *);
    /** A flag without a matching default starts off (a switch), empty
     *  or unset. */
    Default defaults[2] = {};
};

// clang-format off
const Flag kFlags[] = {
    {"--spec", "AxBxC", kEngine, text<&Options::spec>,
     {{kFuzz, "1x1x2"}, {kEngine, "2x1x2"}}},
    {"--seed", "N", kSeeded, number<&Options::seed>, {{kSeeded, "1"}}},
    {"--threads", "N", kEngine, threads, {{kEngine, "1"}}},
    {"--quantum", "N", kEngine, quantum, {{kSnap, "63"}, {kEngine, "0"}}},
    {"--max-instructions", "N", kSnap | kProbe,
     number<&Options::maxInstructions>,
     {{kSnap, "2000000"}, {kProbe, "500000"}}},
    {"--reference", nullptr, kFuzz | kLitmus, on<&Options::reference>},
    {"--minimize", nullptr, kFuzz | kTorture, on<&Options::minimize>},
    {"--runs", "N", kFuzz, number<&Options::runs, 1>, {{kFuzz, "1"}}},
    {"--count", "N", kFuzz, number<&Options::count, 1, 100000>,
     {{kFuzz, "256"}}},
    {"--mix", "alu|mul|mem|amo|csr|all|smc", kFuzz, mix, {{kFuzz, "all"}}},
    {"--shared", nullptr, kFuzz, on<&Options::shared>},
    {"--defect", "mulh|stale-decode", kFuzz, defect},
    {"--iters", "N", kLitmus, number<&Options::iters>, {{kLitmus, "8"}}},
    {"--ops", "N", kTorture | kSnap, number<&Options::ops>,
     {{kTorture, "64"}, {kSnap, "96"}}},
    {"--lines", "N", kTorture | kSnap, number<&Options::lines>,
     {{kTorture | kSnap, "4"}}},
    {"--faulty", nullptr, kTorture, on<&Options::faulty>},
    {"--sweep", "N", kTorture, number<&Options::sweep>},
    {"--interval", "N", kSnap, number<&Options::interval>,
     {{kSnap, "20000"}}},
    {"--dir", "D", kSnap, text<&Options::dir>, {{kSnap, "checkpoints"}}},
    {"--keep", "N", kSnap, number<&Options::keep>, {{kSnap, "2"}}},
    {"--stats-json", "F", kSnap, text<&Options::statsJson>},
    {"--trace", "F", kSnap | kProbe, text<&Options::trace>},
    {"--kill-at", "CYCLE", kSnap, number<&Options::killAt>},
    {"--watchdog-stall", "N", kSnap, number<&Options::watchdogStall>},
    {"--watchdog-action", "report|panic|recover", kSnap, watchdogAction,
     {{kSnap, "recover"}}},
    {"--wedge-node", "N", kSnap, number<&Options::wedgeNode>},
    {"--wedge-after", "K", kSnap, number<&Options::wedgeAfter>},
    {"--from", "FILE", kSnap, text<&Options::from>},
    {"--check", nullptr, kTrace, on<&Options::check>},
    {"--json", "OUT", kTrace, text<&Options::json>},
    {"--node", "N", kTrace, number<&Options::node>},
    {"--component", "LIST", kTrace, components},
    {"--window", "A:B", kTrace, window},
};
// clang-format on

struct Subcommand
{
    const char *name;
    Sub sub;
    /** Operands (non-flag words) the subcommand takes. */
    std::size_t minOperands;
    std::size_t maxOperands;
    const char *operandsUsage;
};

const Subcommand kSubs[] = {
    {"fuzz", kFuzz, 0, 0, ""},
    {"litmus", kLitmus, 0, 0, ""},
    {"torture", kTorture, 0, 0, ""},
    {"snap", kSnap, 1, 3,
     " inspect <file> | validate <file> | diff <a> <b> | run | resume"},
    {"trace", kTrace, 1, 1, " <trace.bin>"},
    {"probe", kProbe, 0, 0, ""},
};

const char *
defaultOf(const Flag &f, std::uint32_t sub)
{
    for (const Default &d : f.defaults) {
        if (d.value != nullptr && (d.subs & sub) != 0)
            return d.value;
    }
    return nullptr;
}

/** Appends the usage lines of @p s, wrapped at 79 columns; a flag's
 *  default for @p s follows its value syntax in parentheses. */
void
appendUsage(std::string &out, const Subcommand &s)
{
    std::string line = strfmt("  smappic %s%s", s.name, s.operandsUsage);
    for (const Flag &f : kFlags) {
        if ((f.subs & s.sub) == 0)
            continue;
        std::string item = f.metavar == nullptr
                               ? strfmt(" [%s]", f.name)
                               : strfmt(" [%s %s]", f.name, f.metavar);
        if (const char *d = defaultOf(f, s.sub))
            item.insert(item.size() - 1, strfmt(" (%s)", d));
        if (line.size() + item.size() > 78) {
            out += line;
            out += "\n";
            line = "     ";
        }
        line += item;
    }
    out += line;
    out += "\n";
}

} // namespace

std::string
usage(std::uint32_t sub)
{
    std::string out = "usage:\n";
    for (const Subcommand &s : kSubs) {
        if (sub == 0 || s.sub == sub)
            appendUsage(out, s);
    }
    return out;
}

bool
parse(const std::vector<std::string> &words, Options &out)
{
    const Subcommand *sc = nullptr;
    for (const Subcommand &s : kSubs) {
        if (!words.empty() && words[0] == s.name)
            sc = &s;
    }
    out = Options{};
    if (sc == nullptr) {
        std::fprintf(stderr, "missing or unknown subcommand\n");
        return false;
    }
    out.sub = sc->sub;
    for (const Flag &f : kFlags) {
        if (const char *d = defaultOf(f, sc->sub))
            f.set(out, d);
    }

    for (std::size_t i = 1; i < words.size(); ++i) {
        const std::string &w = words[i];
        if (w.empty() || w[0] != '-') {
            out.operands.push_back(w);
            continue;
        }
        const Flag *flag = nullptr;
        for (const Flag &f : kFlags) {
            if (w == f.name && (f.subs & sc->sub) != 0)
                flag = &f;
        }
        if (flag == nullptr) {
            std::fprintf(stderr, "smappic %s: unknown option '%s'\n",
                         sc->name, w.c_str());
            return false;
        }
        if (flag->metavar == nullptr) {
            flag->set(out, nullptr);
            continue;
        }
        if (i + 1 >= words.size()) {
            std::fprintf(stderr, "%s needs a value\n", flag->name);
            return false;
        }
        const std::string &value = words[++i];
        if (!flag->set(out, value.c_str())) {
            std::fprintf(stderr, "bad value '%s' for %s %s\n",
                         value.c_str(), flag->name, flag->metavar);
            return false;
        }
    }
    if (out.operands.size() < sc->minOperands ||
        out.operands.size() > sc->maxOperands) {
        std::fprintf(stderr, "smappic %s: wrong number of operands\n",
                     sc->name);
        return false;
    }
    return true;
}

bool
parseRepro(const std::string &line, Options &out)
{
    std::istringstream is(line);
    std::vector<std::string> words;
    for (std::string w; is >> w;)
        words.push_back(w);
    if (words.empty() || words[0] != "smappic")
        return false;
    words.erase(words.begin());
    return parse(words, out);
}

FuzzConfig
fuzzConfig(const Options &opt)
{
    FuzzConfig cfg;
    cfg.spec = opt.spec;
    cfg.seed = opt.seed;
    cfg.count = opt.count;
    cfg.mix = opt.mix;
    cfg.shared = opt.shared;
    cfg.parallel = opt.parallel;
    cfg.reference = opt.reference;
    cfg.defect = opt.defect;
    if (cfg.defect == riscv::CoreTestMutation::kStaleDecode) {
        cfg.mix = FuzzMix::kSmc;
    } else if (cfg.defect == riscv::CoreTestMutation::kMulhCorrupt &&
               cfg.mix != FuzzMix::kMul && cfg.mix != FuzzMix::kAll) {
        cfg.mix = FuzzMix::kMul;
    }
    return cfg;
}

LitmusConfig
litmusConfig(const Options &opt)
{
    LitmusConfig cfg;
    cfg.spec = opt.spec;
    cfg.seed = opt.seed;
    cfg.iterations = opt.iters;
    cfg.parallel = opt.parallel;
    cfg.reference = opt.reference;
    return cfg;
}

TortureConfig
tortureConfig(const Options &opt, std::uint64_t seed)
{
    TortureConfig cfg;
    cfg.spec = opt.spec;
    cfg.seed = seed;
    cfg.opsPerCore = opt.ops;
    cfg.sharedLines = opt.lines;
    cfg.parallel = opt.parallel;
    if (opt.faulty) {
        cfg.faultPlan.seed = seed ^ 0xfau;
        cfg.faultPlan.drop("bridge.tx", 0.02);
        cfg.faultPlan.corrupt("bridge.tx", 0.02);
        cfg.reliability.enabled = true;
    }
    return cfg;
}

std::string
reproLine(const char *sub, const std::string &spec, std::uint64_t seed,
          const std::string &shape, const sim::ParallelConfig &engine,
          const std::string &tail)
{
    std::ostringstream os;
    os << "smappic " << sub << " --spec " << spec << " --seed " << seed
       << shape;
    if (engine.active())
        os << " --threads " << engine.threads << " --quantum "
           << engine.quantum;
    os << tail;
    return os.str();
}

} // namespace smappic::check::cli
