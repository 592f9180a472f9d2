#include "reference.hpp"

#include <map>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "record.hpp"

namespace e2e
{

namespace
{

std::uint64_t
referenceWork()
{
    // The mix resembles the simulator's own host work: string-keyed
    // ordered-map lookups (stat counters), a hash map (directory), random
    // accesses beyond the L1 (cache arrays) and branchy integer code.
    // Its memory stays small because peak_rss_mb counts it too.
    constexpr int kSteps = 200'000;
    static const std::vector<std::string> kNames = [] {
        std::vector<std::string> v;
        for (int i = 0; i < 32; ++i)
            v.push_back("ref.component" + std::to_string(i) + ".counter");
        return v;
    }();

    std::vector<std::uint64_t> array(1 << 16); // 512 KiB.
    std::unordered_map<std::uint64_t, std::uint64_t> table;
    std::map<std::string, std::uint64_t> counters;
    std::uint64_t x = 0x9e3779b97f4a7c15ULL;
    std::uint64_t acc = 0;
    for (int i = 0; i < kSteps; ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        std::uint64_t &slot = array[x & (array.size() - 1)];
        slot += x;
        acc += slot;
        if ((x & 3) == 0)
            table[x & 0x3fff] += acc;
        else
            acc ^= table.count(x & 0x3fff);
        counters[kNames[x % kNames.size()]] += 1;
        acc = (acc & 1) ? acc * 3 + 1 : acc >> 1;
    }
    return acc + table.size() + counters.size();
}

} // namespace

double
hostReference(unsigned threads)
{
    std::vector<std::uint64_t> results(threads);
    auto t0 = Clock::now();
    {
        std::vector<std::jthread> pool;
        for (unsigned i = 1; i < threads; ++i)
            pool.emplace_back([&results, i] { results[i] = referenceWork(); });
        results[0] = referenceWork();
    }
    auto t1 = Clock::now();
    [[maybe_unused]] static volatile std::uint64_t sink; // Keeps it live.
    for (std::uint64_t r : results)
        sink = sink + r;
    return seconds(t1 - t0);
}

} // namespace e2e
