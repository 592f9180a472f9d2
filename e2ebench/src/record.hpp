/**
 * @file
 * Output of the benchmark binary: one flat JSON object per line (a
 * "record"), which run.py aggregates, and the span log of a traced run.
 */

#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

namespace e2e
{

using Clock = std::chrono::steady_clock;

inline double
seconds(Clock::duration d)
{
    return std::chrono::duration<double>(d).count();
}

/** One record: a kind tag plus numeric fields, printed as a JSON line. */
class Record
{
  public:
    explicit Record(std::string kind) : kind_(std::move(kind)) {}

    void
    set(const std::string &key, double value)
    {
        char buf[40];
        std::snprintf(buf, sizeof buf, "%.17g", value);
        fields_.emplace_back(key, buf);
    }

    void
    count(const std::string &key, std::uint64_t value)
    {
        fields_.emplace_back(key, std::to_string(value));
    }

    void
    print() const
    {
        std::string line = "{\"rec\":\"" + kind_ + "\"";
        for (const auto &[k, v] : fields_)
            line += ",\"" + k + "\":" + v;
        line += "}\n";
        std::fputs(line.c_str(), stdout);
        std::fflush(stdout);
    }

  private:
    std::string kind_;
    std::vector<std::pair<std::string, std::string>> fields_;
};

/**
 * Spans of a traced run, kept in memory and written out once at the end.
 * A span has a name, start and end (ns since the log was created) and
 * its parent; spans of one workload iteration share the iteration's
 * root span. Boundaries crossed millions of times (the core's memory
 * port) are recorded as one aggregate per parent span: a call count and
 * the summed duration.
 */
class SpanLog
{
  public:
    static constexpr std::uint32_t kNoParent = 0;

    /** Records a finished span; returns its id (never kNoParent). */
    std::uint32_t
    add(const std::string &name, std::uint32_t parent, Clock::time_point t0,
        Clock::time_point t1)
    {
        spans_.push_back(Span{name, parent, ns(t0), ns(t1), 0});
        return static_cast<std::uint32_t>(spans_.size());
    }

    /** Opens a span whose end is set later with close(). */
    std::uint32_t
    open(const std::string &name, std::uint32_t parent)
    {
        return add(name, parent, Clock::now(), Clock::now());
    }

    void close(std::uint32_t id) { spans_.at(id - 1).end = ns(Clock::now()); }

    /** Records @p calls boundary crossings summing to @p busy. */
    void
    aggregate(const std::string &name, std::uint32_t parent,
              std::uint64_t calls, Clock::duration busy)
    {
        spans_.push_back(Span{name, parent, 0,
                              static_cast<std::int64_t>(
                                  std::chrono::nanoseconds(busy).count()),
                              calls});
    }

    /** Writes every span as a JSON line; false when the file fails. */
    bool
    write(const std::string &path) const
    {
        std::FILE *f = std::fopen(path.c_str(), "w");
        if (!f)
            return false;
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const Span &s = spans_[i];
            if (s.calls)
                std::fprintf(f,
                             "{\"id\":%zu,\"parent\":%u,\"name\":\"%s\","
                             "\"calls\":%llu,\"busy_ns\":%lld}\n",
                             i + 1, s.parent, s.name.c_str(),
                             static_cast<unsigned long long>(s.calls),
                             static_cast<long long>(s.end));
            else
                std::fprintf(f,
                             "{\"id\":%zu,\"parent\":%u,\"name\":\"%s\","
                             "\"start_ns\":%lld,\"end_ns\":%lld}\n",
                             i + 1, s.parent, s.name.c_str(),
                             static_cast<long long>(s.start),
                             static_cast<long long>(s.end));
        }
        return std::fclose(f) == 0;
    }

  private:
    struct Span
    {
        std::string name;
        std::uint32_t parent;
        std::int64_t start;
        std::int64_t end; ///< Summed duration for aggregates.
        std::uint64_t calls; ///< Non-zero only for aggregates.
    };

    std::int64_t
    ns(Clock::time_point t) const
    {
        return std::chrono::duration_cast<std::chrono::nanoseconds>(t - t0_)
            .count();
    }

    Clock::time_point t0_ = Clock::now();
    std::vector<Span> spans_;
};

} // namespace e2e
