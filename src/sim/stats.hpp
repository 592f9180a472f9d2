/**
 * @file
 * Lightweight statistics package: named counters, scalar samples and
 * histograms that components register into a StatRegistry and that benches
 * and tests read back after a run.
 */

#pragma once

#include <array>
#include <cstdint>
#include <limits>
#include <map>
#include <ostream>
#include <string>
#include <vector>

namespace smappic::sim
{

/** Monotonic event counter. */
class Counter
{
  public:
    void increment(std::uint64_t by = 1) { value_ += by; }
    std::uint64_t value() const { return value_; }
    void reset() { value_ = 0; }

  private:
    std::uint64_t value_ = 0;
};

/** Streaming summary of a scalar sample set (min/max/mean/stddev). */
class Summary
{
  public:
    /** Records one observation. */
    void
    sample(double v)
    {
        count_ += 1;
        sum_ += v;
        sumSq_ += v * v;
        if (v < min_)
            min_ = v;
        if (v > max_)
            max_ = v;
    }

    /** Folds another summary's observations into this one. */
    void
    merge(const Summary &o)
    {
        count_ += o.count_;
        sum_ += o.sum_;
        sumSq_ += o.sumSq_;
        if (o.min_ < min_)
            min_ = o.min_;
        if (o.max_ > max_)
            max_ = o.max_;
    }

    std::uint64_t count() const { return count_; }
    double sum() const { return sum_; }
    double mean() const { return count_ ? sum_ / count_ : 0.0; }
    double min() const { return count_ ? min_ : 0.0; }
    double max() const { return count_ ? max_ : 0.0; }

    // Raw accumulator access for bit-exact checkpointing: the empty-set
    // sentinels (+-inf) and sumSq must round-trip unchanged, which the
    // derived accessors above cannot provide.
    double sumSquares() const { return sumSq_; }
    double rawMin() const { return min_; }
    double rawMax() const { return max_; }

    /** Restores raw accumulator state captured with the accessors. */
    void
    restore(std::uint64_t count, double sum, double sum_sq, double raw_min,
            double raw_max)
    {
        count_ = count;
        sum_ = sum;
        sumSq_ = sum_sq;
        min_ = raw_min;
        max_ = raw_max;
    }

    /** Population variance of the observations. */
    double
    variance() const
    {
        if (count_ == 0)
            return 0.0;
        double m = mean();
        return sumSq_ / count_ - m * m;
    }

    void
    reset()
    {
        count_ = 0;
        sum_ = 0.0;
        sumSq_ = 0.0;
        min_ = std::numeric_limits<double>::infinity();
        max_ = -std::numeric_limits<double>::infinity();
    }

  private:
    std::uint64_t count_ = 0;
    double sum_ = 0.0;
    double sumSq_ = 0.0;
    double min_ = std::numeric_limits<double>::infinity();
    double max_ = -std::numeric_limits<double>::infinity();
};

/** Fixed-width-bucket histogram over [0, buckets * width). */
class Histogram
{
  public:
    /**
     * @param buckets Number of finite buckets.
     * @param width Width of each bucket; samples beyond the last bucket are
     *        accumulated in an overflow bin.
     */
    explicit Histogram(std::size_t buckets = 32, double width = 1.0);

    void sample(double v);

    std::uint64_t bucketCount(std::size_t i) const { return counts_.at(i); }
    std::uint64_t overflow() const { return overflow_; }
    /** Samples below zero (reported by percentile() as summary().min()). */
    std::uint64_t underflow() const { return underflow_; }
    std::size_t buckets() const { return counts_.size(); }
    double bucketWidth() const { return width_; }
    const Summary &summary() const { return summary_; }

    /** Returns the smallest value v with CDF(v) >= p, bucket-quantized. */
    double percentile(double p) const;

    /** Folds another histogram (same shape) into this one. */
    void merge(const Histogram &o);

    void reset();

    /** Restores bucket/summary state (checkpointing). @p counts must
     *  match the histogram's bucket count. */
    void
    restore(std::vector<std::uint64_t> counts, std::uint64_t overflow,
            std::uint64_t underflow, const Summary &summary)
    {
        counts_ = std::move(counts);
        overflow_ = overflow;
        underflow_ = underflow;
        summary_ = summary;
    }

  private:
    std::vector<std::uint64_t> counts_;
    std::uint64_t overflow_ = 0;
    std::uint64_t underflow_ = 0;
    double width_;
    Summary summary_;
};

/**
 * Flat name -> stat registry. Components register their stats under
 * hierarchical dotted names ("node0.tile3.bpc.misses"); benches read them
 * back or dump the whole registry.
 *
 * Parallel node phases write through per-node shard registries bound with
 * Redirect: while a Redirect(root, shard) is live on a thread, lookups on
 * *root* from that thread land in *shard* instead. Components keep their
 * plain StatRegistry pointer and stay oblivious; the phased engine merges
 * the shards back (mergeFrom) in ascending node order at the end of a run,
 * so merged floating-point accumulation order — and therefore every dumped
 * value — is independent of the worker count.
 */
class StatRegistry
{
  public:
    Counter &counter(const std::string &name)
    {
        return active().counters_[name];
    }
    Summary &summaryStat(const std::string &name)
    {
        return active().summaries_[name];
    }

    Histogram &
    histogram(const std::string &name, std::size_t buckets = 32,
              double width = 1.0)
    {
        StatRegistry &reg = active();
        auto it = reg.histograms_.find(name);
        if (it == reg.histograms_.end()) {
            it = reg.histograms_.emplace(name, Histogram(buckets, width))
                     .first;
        }
        return it->second;
    }

    /**
     * RAII thread-local redirection: while alive, writes through @p root
     * on this thread are recorded in @p shard. Nests (the previous
     * binding is restored on destruction).
     */
    class Redirect
    {
      public:
        Redirect(StatRegistry *root, StatRegistry *shard);
        ~Redirect();

        Redirect(const Redirect &) = delete;
        Redirect &operator=(const Redirect &) = delete;

      private:
        StatRegistry *prevRoot_;
        StatRegistry *prevShard_;
    };

    /** The registry a write through this one lands in on the calling
     *  thread: the shard a live Redirect binds to it, else itself. */
    StatRegistry &target() { return active(); }

    /**
     * Identity of this registry's stat storage. Every constructed,
     * copied, moved or assigned registry gets a new one, so a handle
     * taken from the registry with a given serial stays valid for as
     * long as a registry carries that serial (see CounterHandles).
     */
    std::uint64_t serial() const { return serial_.value; }

    /** Folds every stat of @p o into this registry (counters add,
     *  summaries/histograms merge). */
    void mergeFrom(const StatRegistry &o);

    /** Returns the counter's value, or 0 if never registered. */
    std::uint64_t counterValue(const std::string &name) const;

    /** Writes all stats in "name value" lines, sorted by name. */
    void dump(std::ostream &os) const;

    /** Writes all stats as a flat JSON object (for tooling). */
    void dumpJson(std::ostream &os) const;

    /** Zeroes every registered stat, keeping registrations. */
    void resetAll();

    const std::map<std::string, Counter> &counters() const
    {
        return counters_;
    }
    const std::map<std::string, Summary> &summaries() const
    {
        return summaries_;
    }
    const std::map<std::string, Histogram> &histograms() const
    {
        return histograms_;
    }

  private:
    /** Shard bound to this registry on this thread, or *this. */
    StatRegistry &
    active()
    {
        return (this == tlsRoot_ && tlsShard_) ? *tlsShard_ : *this;
    }

    static thread_local StatRegistry *tlsRoot_;
    static thread_local StatRegistry *tlsShard_;

    /** A serial number that no copy or move carries over. */
    struct Serial
    {
        static std::uint64_t next();

        Serial() = default;
        Serial(const Serial &) : value(next()) {}
        Serial(Serial &&o) noexcept : value(next()) { o.value = next(); }
        Serial &
        operator=(const Serial &)
        {
            value = next();
            return *this;
        }
        Serial &
        operator=(Serial &&o) noexcept
        {
            value = next();
            o.value = next();
            return *this;
        }

        std::uint64_t value = next();
    };

    std::map<std::string, Counter> counters_;
    std::map<std::string, Summary> summaries_;
    std::map<std::string, Histogram> histograms_;
    Serial serial_;
};

/**
 * Counter handles for a fixed list of N names, each resolved on first use
 * in the registry a write through the given root lands in on the calling
 * thread (StatRegistry::target()). A handle is reused while that target
 * keeps its serial; any other target (another shard, a new registry)
 * resolves afresh. Saves the by-name map lookup on hot paths while
 * leaving stats exactly where, and exactly when, counter() would create
 * them. Not synchronized: use one instance per thread of use.
 */
template <std::size_t N>
class CounterHandles
{
  public:
    /** Counter @p i, named @p name, in @p root's current target. */
    Counter &
    get(StatRegistry &root, std::size_t i, const std::string &name)
    {
        StatRegistry &reg = root.target();
        if (reg.serial() != serial_) {
            handles_.fill(nullptr);
            serial_ = reg.serial();
        }
        Counter *&c = handles_[i];
        if (c == nullptr)
            c = &reg.counter(name);
        return *c;
    }

  private:
    std::uint64_t serial_ = 0; ///< Serials start at 1.
    std::array<Counter *, N> handles_{};
};

} // namespace smappic::sim
