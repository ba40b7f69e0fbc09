/**
 * @file
 * Span/phase tracer with Chrome trace_event export.
 *
 * Records named timed scopes (campaign jobs, trace decodes, diagnosis
 * phases, cache lookups) and instant markers (mode flips, quarantines,
 * fault injections) into per-thread logs, then exports
 * the whole run as Chrome `trace_event` JSON — the format
 * `chrome://tracing` and Perfetto load directly, so a campaign's
 * wall-clock breakdown becomes a flamechart instead of folklore.
 *
 * Dormancy: disabled by default; every recording call is one relaxed
 * load + branch when disabled. Spans are coarse (jobs, phases, file
 * I/O), never per-event — the simulate→track→infer hot loops contain
 * no tracer calls at all.
 *
 * Threading: each OS thread appends to its own log under a per-log
 * mutex that only export contends; timestamps come from one steady
 * clock, so per-thread event times are monotone (exported sorted, a
 * property `actstat validate` checks).
 */

#ifndef ACT_TELEMETRY_SPANS_HH
#define ACT_TELEMETRY_SPANS_HH

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace act::telemetry
{

/** One key/value annotation on a span or instant event. */
struct SpanArg
{
    std::string key;
    std::string text;          //!< Used when is_text.
    std::uint64_t number = 0;  //!< Used otherwise.
    bool is_text = false;
};

inline SpanArg
arg(std::string key, std::string value)
{
    return SpanArg{std::move(key), std::move(value), 0, true};
}

inline SpanArg
arg(std::string key, std::uint64_t value)
{
    return SpanArg{std::move(key), {}, value, false};
}

class SpanTracer;

namespace span_detail
{

struct TlsLogCache
{
    const void *tracer = nullptr;
    std::uint64_t generation = 0;
    void *log = nullptr;
};

extern thread_local TlsLogCache tls_log_cache;

} // namespace span_detail

/** The tracer. One process-wide instance via global(). */
class SpanTracer
{
  public:
    SpanTracer();
    ~SpanTracer() = default;

    SpanTracer(const SpanTracer &) = delete;
    SpanTracer &operator=(const SpanTracer &) = delete;

    /** The process-wide tracer (never destroyed). */
    static SpanTracer &global();

    void setEnabled(bool enabled)
    {
        enabled_.store(enabled, std::memory_order_relaxed);
    }

    bool enabled() const
    {
        return enabled_.load(std::memory_order_relaxed);
    }

    /** Microseconds since tracer construction (steady clock). */
    std::uint64_t nowUs() const;

    /** Label the calling thread in the exported trace. */
    void nameThread(const std::string &name);

    /** Record a completed span ("ph":"X"). No-op while disabled. */
    void complete(std::string name, const char *category,
                  std::uint64_t ts_us, std::uint64_t dur_us,
                  std::vector<SpanArg> args = {});

    /** Record an instant marker ("ph":"i"). No-op while disabled. */
    void instant(std::string name, const char *category,
                 std::vector<SpanArg> args = {});

    /** Events recorded so far (all threads). */
    std::size_t eventCount() const;

    /**
     * The whole run as Chrome trace_event JSON. Per-thread events are
     * sorted by timestamp, so `ts` is monotone non-decreasing within
     * each `tid`. Call after worker threads have quiesced.
     */
    std::string chromeJson() const;

    /** Write chromeJson() to @p path. @return false on I/O failure. */
    bool exportTo(const std::string &path) const;

    /** Drop all recorded events (test support). */
    void clear();

  private:
    struct Event
    {
        std::string name;
        const char *category = "";
        char phase = 'X';
        std::uint64_t ts = 0;
        std::uint64_t dur = 0;
        std::vector<SpanArg> args;
    };

    struct ThreadLog
    {
        mutable std::mutex mutex;
        std::uint32_t tid = 0;
        std::string name;
        std::vector<Event> events;
    };

    ThreadLog *log();
    ThreadLog *logSlow();

    mutable std::mutex mutex_;
    std::vector<std::unique_ptr<ThreadLog>> logs_;
    std::atomic<bool> enabled_{false};
    std::uint64_t generation_;
    std::chrono::steady_clock::time_point epoch_;
};

/**
 * RAII timed scope: records a complete event covering its lifetime.
 * Construction against a disabled tracer costs one relaxed load.
 */
class ScopedSpan
{
  public:
    /** Span on the global tracer. */
    ScopedSpan(std::string name, const char *category);

    /** Span on a specific tracer (tests). */
    ScopedSpan(SpanTracer &tracer, std::string name, const char *category);

    ~ScopedSpan();

    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    /** Annotate the span (shows under "args" in the viewer). */
    void annotate(SpanArg value);

    bool active() const { return tracer_ != nullptr; }

  private:
    SpanTracer *tracer_ = nullptr; //!< Null when the tracer is dormant.
    std::string name_;
    const char *category_ = "";
    std::uint64_t start_ = 0;
    std::vector<SpanArg> args_;
};

} // namespace act::telemetry

#endif // ACT_TELEMETRY_SPANS_HH
