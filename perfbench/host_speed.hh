/**
 * @file
 * Rescaling host times to a reference host speed.
 *
 * The benchmark runs on shared virtual machines whose speed drifts: a
 * fixed loop's time swings by up to 2x over seconds as neighbours load
 * the host, and a whole 10 s run can sit in a slow phase. Every timed
 * interval is therefore bracketed by a fixed reference loop, and its
 * time is rescaled by how far the reference ran from its nominal time.
 * The README gives the measurements behind this.
 */

#ifndef ACT_PERFBENCH_HOST_SPEED_HH
#define ACT_PERFBENCH_HOST_SPEED_HH

#include <cmath>
#include <cstdint>
#include <sched.h>
#include <vector>

#include "bench.hh"

namespace act::perfbench
{

/**
 * Time a fixed reference loop: random reads over an 8 MiB table plus
 * integer mixing, about 10 ms on an idle core. Its code never changes,
 * so its time tracks only how fast the host runs at that moment.
 */
inline double
referenceSeconds()
{
    static std::vector<std::uint64_t> table = [] {
        std::vector<std::uint64_t> t(std::size_t{1} << 20);
        for (std::size_t i = 0; i < t.size(); ++i)
            t[i] = i * 0x9e3779b97f4a7c15ULL;
        return t;
    }();
    const auto start = Clock::now();
    std::uint64_t x = 0x2545f4914f6cdd1dULL;
    std::uint64_t sum = 0;
    for (int i = 0; i < 1500000; ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        sum += table[x & (table.size() - 1)] ^ (sum >> 3);
    }
    table[0] ^= sum & 1; // Keeps the loop observable.
    return elapsed(start);
}

/**
 * Mean referenceSeconds() over every CPU this process may run on, the
 * calling thread pinned to each in turn (its affinity is restored).
 */
inline double
referenceSecondsAllCpus()
{
    cpu_set_t allowed;
    if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0)
        return referenceSeconds();
    double sum = 0.0;
    int cpus = 0;
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
        if (!CPU_ISSET(cpu, &allowed))
            continue;
        cpu_set_t one;
        CPU_ZERO(&one);
        CPU_SET(cpu, &one);
        if (sched_setaffinity(0, sizeof(one), &one) != 0)
            continue;
        sum += referenceSeconds();
        ++cpus;
    }
    sched_setaffinity(0, sizeof(allowed), &allowed);
    return cpus == 0 ? referenceSeconds() : sum / cpus;
}

/** referenceSeconds() on an idle core of the reference host. */
inline constexpr double kReferenceSeconds = 0.010;

/**
 * Reference loops taken around the timed calls of one phase of a run
 * (set-up or timed part), and the host slowdown they add up to.
 */
class HostSpeed
{
  public:
    /**
     * @param all_cpus    Take each reference on every CPU the process
     *                    may use (work spread over threads) rather than
     *                    on the calling thread's CPU.
     * @param sensitivity How strongly the workload's time follows the
     *                    reference's across runs (README): 1 when it
     *                    slows exactly as much.
     */
    HostSpeed(bool all_cpus, double sensitivity)
        : all_cpus_(all_cpus), sensitivity_(sensitivity)
    {}

    /** Run @p fn between two reference loops; return its wall time. */
    template <typename Fn>
    double
    time(Fn &&fn)
    {
        sample();
        const auto start = Clock::now();
        fn();
        const double took = elapsed(start);
        sample();
        return took;
    }

    /**
     * How much slower than the reference host this phase ran, for this
     * workload: (median reference time / nominal)^sensitivity. Host
     * times divided by it are at the reference speed.
     */
    double
    slowdown() const
    {
        return std::pow(median(samples_) / kReferenceSeconds, sensitivity_);
    }

  private:
    void
    sample()
    {
        samples_.push_back(all_cpus_ ? referenceSecondsAllCpus()
                                     : referenceSeconds());
    }

    bool all_cpus_;
    double sensitivity_;
    std::vector<double> samples_;
};

} // namespace act::perfbench

#endif // ACT_PERFBENCH_HOST_SPEED_HH
