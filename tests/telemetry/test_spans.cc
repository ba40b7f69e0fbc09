/**
 * @file
 * Tests for the span tracer and its Chrome trace_event export.
 *
 * The export is consumed by chrome://tracing and Perfetto, so the
 * schema smoke test here pins exactly what those viewers require:
 * valid JSON, a traceEvents array, string name/ph, numeric ts/tid,
 * and — because per-thread logs share one steady clock — timestamps
 * monotone non-decreasing within each tid.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <thread>
#include <vector>

#include "telemetry/json.hh"
#include "telemetry/spans.hh"

namespace act::telemetry
{
namespace
{

TEST(SpanTracer, DormantRecordsNothing)
{
    SpanTracer tracer;
    EXPECT_FALSE(tracer.enabled());
    {
        ScopedSpan span(tracer, "work", "test");
        EXPECT_FALSE(span.active());
        span.annotate(arg("k", std::uint64_t{1}));
    }
    tracer.instant("marker", "test");
    tracer.complete("span", "test", 0, 10);
    EXPECT_EQ(tracer.eventCount(), 0u);
}

TEST(SpanTracer, RecordsSpansAndInstants)
{
    SpanTracer tracer;
    tracer.setEnabled(true);
    {
        ScopedSpan span(tracer, "outer", "test");
        EXPECT_TRUE(span.active());
        span.annotate(arg("job", std::uint64_t{7}));
        span.annotate(arg("kind", std::string("smoke")));
        ScopedSpan inner(tracer, "inner", "test");
    }
    tracer.instant("flip", "test", {arg("to", std::string("testing"))});
    EXPECT_EQ(tracer.eventCount(), 3u);

    tracer.clear();
    EXPECT_EQ(tracer.eventCount(), 0u);
}

/** Parse chromeJson() and fail loudly on malformed output. */
std::unique_ptr<JsonValue>
parseExport(const SpanTracer &tracer)
{
    std::string error;
    auto root = parseJson(tracer.chromeJson(), &error);
    EXPECT_NE(root, nullptr) << "chromeJson not valid JSON: " << error;
    return root;
}

TEST(SpanTracer, ChromeExportSchema)
{
    SpanTracer tracer;
    tracer.setEnabled(true);
    tracer.nameThread("main");
    {
        ScopedSpan outer(tracer, "outer", "test");
        ScopedSpan inner(tracer, "inner", "test");
        inner.annotate(arg("n", std::uint64_t{42}));
    }
    tracer.instant("marker", "test");

    const auto root = parseExport(tracer);
    ASSERT_NE(root, nullptr);
    const JsonValue *events = root->find("traceEvents");
    ASSERT_NE(events, nullptr);
    ASSERT_TRUE(events->isArray());

    std::size_t metadata = 0;
    std::size_t complete = 0;
    std::size_t instant = 0;
    for (const JsonValue &event : events->array) {
        ASSERT_TRUE(event.isObject());
        const JsonValue *name = event.find("name");
        const JsonValue *phase = event.find("ph");
        ASSERT_NE(name, nullptr);
        ASSERT_NE(phase, nullptr);
        ASSERT_TRUE(name->isString());
        ASSERT_TRUE(phase->isString());
        if (phase->text == "M") {
            ++metadata;
            continue;
        }
        const JsonValue *ts = event.find("ts");
        const JsonValue *tid = event.find("tid");
        ASSERT_NE(ts, nullptr);
        ASSERT_NE(tid, nullptr);
        EXPECT_TRUE(ts->isNumber());
        EXPECT_TRUE(tid->isNumber());
        if (phase->text == "X") {
            ++complete;
            EXPECT_NE(event.find("dur"), nullptr);
        } else if (phase->text == "i") {
            ++instant;
        }
        if (name->text == "inner") {
            const JsonValue *args = event.find("args");
            ASSERT_NE(args, nullptr);
            const JsonValue *n = args->find("n");
            ASSERT_NE(n, nullptr);
            EXPECT_EQ(n->asU64(), 42u);
        }
    }
    // Process-name and thread-name metadata, two spans, one instant.
    EXPECT_GE(metadata, 2u);
    EXPECT_EQ(complete, 2u);
    EXPECT_EQ(instant, 1u);
}

TEST(SpanTracer, TimestampsMonotonePerThread)
{
    SpanTracer tracer;
    tracer.setEnabled(true);

    // Nested spans close outer-after-inner, so raw append order is not
    // time order — the export must still come out sorted per thread.
    // Several worker threads interleave to make the property earn its
    // keep (run under TSan in CI).
    std::vector<std::thread> threads;
    for (int t = 0; t < 3; ++t) {
        threads.emplace_back([&tracer, t] {
            tracer.nameThread("worker-" + std::to_string(t));
            for (int i = 0; i < 20; ++i) {
                ScopedSpan outer(tracer, "outer", "test");
                ScopedSpan inner(tracer, "inner", "test");
                tracer.instant("tick", "test");
            }
        });
    }
    for (auto &t : threads)
        t.join();

    const auto root = parseExport(tracer);
    ASSERT_NE(root, nullptr);
    const JsonValue *events = root->find("traceEvents");
    ASSERT_NE(events, nullptr);

    std::map<std::uint64_t, double> last_ts;
    std::size_t timed = 0;
    for (const JsonValue &event : events->array) {
        const JsonValue *phase = event.find("ph");
        ASSERT_NE(phase, nullptr);
        if (phase->text == "M")
            continue;
        ++timed;
        const std::uint64_t tid = event.find("tid")->asU64();
        const double ts = event.find("ts")->number;
        const auto it = last_ts.find(tid);
        if (it != last_ts.end()) {
            EXPECT_GE(ts, it->second);
        }
        last_ts[tid] = ts;
    }
    EXPECT_EQ(timed, 3u * 20u * 3u);
    EXPECT_EQ(last_ts.size(), 3u); // one tid per worker
}

TEST(SpanTracer, NowUsAdvances)
{
    SpanTracer tracer;
    const std::uint64_t a = tracer.nowUs();
    const std::uint64_t b = tracer.nowUs();
    EXPECT_GE(b, a);
}

} // namespace
} // namespace act::telemetry
