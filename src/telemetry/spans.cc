#include "telemetry/spans.hh"

#include <algorithm>
#include <fstream>
#include <sstream>

#include "telemetry/json.hh"

namespace act::telemetry
{

namespace span_detail
{

thread_local TlsLogCache tls_log_cache;

} // namespace span_detail

namespace
{

std::atomic<std::uint64_t> g_tracer_generation{1};

void
writeArgs(std::ostringstream &out, const std::vector<SpanArg> &args)
{
    out << "\"args\": {";
    for (std::size_t i = 0; i < args.size(); ++i) {
        const SpanArg &a = args[i];
        out << (i != 0 ? ", " : "") << "\"" << jsonEscape(a.key)
            << "\": ";
        if (a.is_text)
            out << "\"" << jsonEscape(a.text) << "\"";
        else
            out << a.number;
    }
    out << "}";
}

} // namespace

SpanTracer::SpanTracer()
    : generation_(g_tracer_generation.fetch_add(1)),
      epoch_(std::chrono::steady_clock::now())
{}

SpanTracer &
SpanTracer::global()
{
    // Leaked on purpose, like the metrics registry: thread logs must
    // outlive static destruction order games.
    static SpanTracer *const instance = new SpanTracer();
    return *instance;
}

std::uint64_t
SpanTracer::nowUs() const
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - epoch_)
            .count());
}

SpanTracer::ThreadLog *
SpanTracer::logSlow()
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto fresh = std::make_unique<ThreadLog>();
    fresh->tid = static_cast<std::uint32_t>(logs_.size());
    logs_.push_back(std::move(fresh));
    ThreadLog *log = logs_.back().get();
    span_detail::tls_log_cache = {this, generation_, log};
    return log;
}

SpanTracer::ThreadLog *
SpanTracer::log()
{
    auto &cache = span_detail::tls_log_cache;
    if (cache.tracer == this && cache.generation == generation_)
        return static_cast<ThreadLog *>(cache.log);
    return logSlow();
}

void
SpanTracer::nameThread(const std::string &name)
{
    if (!enabled())
        return;
    ThreadLog *entry = log();
    std::lock_guard<std::mutex> lock(entry->mutex);
    entry->name = name;
}

void
SpanTracer::complete(std::string name, const char *category,
                     std::uint64_t ts_us, std::uint64_t dur_us,
                     std::vector<SpanArg> args)
{
    if (!enabled())
        return;
    ThreadLog *entry = log();
    std::lock_guard<std::mutex> lock(entry->mutex);
    entry->events.push_back(Event{std::move(name), category, 'X', ts_us,
                                  dur_us, std::move(args)});
}

void
SpanTracer::instant(std::string name, const char *category,
                    std::vector<SpanArg> args)
{
    if (!enabled())
        return;
    ThreadLog *entry = log();
    std::lock_guard<std::mutex> lock(entry->mutex);
    entry->events.push_back(Event{std::move(name), category, 'i',
                                  nowUs(), 0, std::move(args)});
}

std::size_t
SpanTracer::eventCount() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::size_t n = 0;
    for (const auto &log : logs_) {
        std::lock_guard<std::mutex> log_lock(log->mutex);
        n += log->events.size();
    }
    return n;
}

void
SpanTracer::clear()
{
    std::lock_guard<std::mutex> lock(mutex_);
    for (auto &log : logs_) {
        std::lock_guard<std::mutex> log_lock(log->mutex);
        log->events.clear();
    }
}

std::string
SpanTracer::chromeJson() const
{
    std::ostringstream out;
    out << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
    bool first = true;
    const auto emit = [&out, &first](const std::string &line) {
        out << (first ? "" : ",\n") << line;
        first = false;
    };

    std::ostringstream meta;
    meta << "{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 1, "
            "\"tid\": 0, \"args\": {\"name\": \"act\"}}";
    emit(meta.str());

    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto &log : logs_) {
        std::lock_guard<std::mutex> log_lock(log->mutex);
        if (!log->name.empty()) {
            std::ostringstream row;
            row << "{\"name\": \"thread_name\", \"ph\": \"M\", "
                   "\"pid\": 1, \"tid\": "
                << log->tid << ", \"args\": {\"name\": \""
                << jsonEscape(log->name) << "\"}}";
            emit(row.str());
        }
        // A nested span is recorded when it *closes*, i.e. after its
        // children — sort by start time so ts is monotone per tid.
        std::vector<const Event *> ordered;
        ordered.reserve(log->events.size());
        for (const Event &event : log->events)
            ordered.push_back(&event);
        std::stable_sort(ordered.begin(), ordered.end(),
                         [](const Event *a, const Event *b) {
                             return a->ts < b->ts;
                         });
        for (const Event *event : ordered) {
            std::ostringstream row;
            row << "{\"name\": \"" << jsonEscape(event->name)
                << "\", \"cat\": \"" << jsonEscape(event->category)
                << "\", \"ph\": \"" << event->phase << "\", \"pid\": 1, "
                << "\"tid\": " << log->tid << ", \"ts\": " << event->ts;
            if (event->phase == 'X')
                row << ", \"dur\": " << event->dur;
            if (event->phase == 'i')
                row << ", \"s\": \"t\"";
            row << ", ";
            writeArgs(row, event->args);
            row << "}";
            emit(row.str());
        }
    }
    out << "\n]}\n";
    return out.str();
}

bool
SpanTracer::exportTo(const std::string &path) const
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    if (!out)
        return false;
    out << chromeJson();
    return static_cast<bool>(out.flush());
}

ScopedSpan::ScopedSpan(std::string name, const char *category)
    : ScopedSpan(SpanTracer::global(), std::move(name), category)
{}

ScopedSpan::ScopedSpan(SpanTracer &tracer, std::string name,
                       const char *category)
{
    if (!tracer.enabled())
        return;
    tracer_ = &tracer;
    name_ = std::move(name);
    category_ = category;
    start_ = tracer.nowUs();
}

ScopedSpan::~ScopedSpan()
{
    if (tracer_ == nullptr)
        return;
    const std::uint64_t end = tracer_->nowUs();
    tracer_->complete(std::move(name_), category_, start_,
                      end >= start_ ? end - start_ : 0,
                      std::move(args_));
}

void
ScopedSpan::annotate(SpanArg value)
{
    if (tracer_ != nullptr)
        args_.push_back(std::move(value));
}

} // namespace act::telemetry
