#include "runner/thread_pool.hh"

#include <exception>

#include "telemetry/metrics.hh"
#include "telemetry/spans.hh"

namespace act
{

namespace
{

/**
 * Index of the worker running on this thread, or -1 on external
 * threads. File-scope so nested pools (which the runner never creates)
 * would simply fall back to round-robin submission.
 */
thread_local int tls_worker_index = -1;

/** Tasks sitting in deques, process-wide (volatile by nature). */
telemetry::Gauge
queueDepthGauge()
{
    static const telemetry::Gauge gauge =
        telemetry::MetricsRegistry::global().gauge("pool.queue_depth");
    return gauge;
}

/**
 * Per-queue depth gauges, `pool.queue_depth.<i>`. Process-wide like
 * the aggregate (pools sharing a worker index share the slot — the
 * runner only ever creates one pool at a time, and the gauges are
 * deltas, so nested test pools still sum correctly). Grown lazily so
 * a pool with few workers registers few names.
 */
telemetry::Gauge
perQueueGauge(std::size_t index)
{
    static std::mutex mutex;
    static std::vector<telemetry::Gauge> gauges;
    std::lock_guard<std::mutex> lock(mutex);
    while (gauges.size() <= index) {
        gauges.push_back(telemetry::MetricsRegistry::global().gauge(
            "pool.queue_depth." + std::to_string(gauges.size())));
    }
    return gauges[index];
}

} // namespace

WorkStealingPool::WorkStealingPool(unsigned threads)
{
    if (threads == 0) {
        threads = std::thread::hardware_concurrency();
        if (threads == 0)
            threads = 1;
    }
    workers_.reserve(threads);
    for (unsigned i = 0; i < threads; ++i)
        workers_.push_back(std::make_unique<Worker>());
    threads_.reserve(threads);
    for (unsigned i = 0; i < threads; ++i)
        threads_.emplace_back([this, i] { workerLoop(i); });
}

WorkStealingPool::~WorkStealingPool()
{
    wait();
    {
        // Set under the wake mutex: a worker that has just found its
        // wait predicate false but not yet blocked would otherwise miss
        // the notify below and sleep for ever, hanging the join.
        std::lock_guard<std::mutex> lock(wake_mutex_);
        stop_.store(true);
    }
    wake_cv_.notify_all();
    for (auto &thread : threads_)
        thread.join();
}

void
WorkStealingPool::submit(Task task)
{
    const int self = tls_worker_index;
    const std::size_t target =
        self >= 0 && static_cast<std::size_t>(self) < workers_.size()
            ? static_cast<std::size_t>(self)
            : next_queue_.fetch_add(1) % workers_.size();
    // Counters go up *before* the task becomes claimable: a worker may
    // pop and finish it the instant the deque lock drops, and its
    // pending_ decrement must not underflow past our increment.
    pending_.fetch_add(1);
    unclaimed_.fetch_add(1);
    queueDepthGauge().inc();
    perQueueGauge(target).inc();
    {
        std::lock_guard<std::mutex> lock(workers_[target]->mutex);
        workers_[target]->tasks.push_back(std::move(task));
    }
    wakeOne();
}

void
WorkStealingPool::wakeOne()
{
    // unclaimed_ was published outside the wake mutex. Notifying under
    // it means a worker whose predicate check missed the new task is
    // already waiting, so the wakeup cannot be lost.
    std::lock_guard<std::mutex> lock(wake_mutex_);
    wake_cv_.notify_one();
}

void
WorkStealingPool::wait()
{
    // A worker calling wait() would deadlock (it cannot both sleep and
    // drain); help execute instead. The caller's own task is still
    // counted in pending_ — it only decrements after the task returns —
    // so the drain target is 1, not 0: waiting for its own count would
    // spin forever.
    if (tls_worker_index >= 0) {
        while (pending_.load() > 1) {
            Task task = claim(static_cast<unsigned>(tls_worker_index));
            if (!task) {
                std::this_thread::yield();
                continue;
            }
            runTask(task);
            pending_.fetch_sub(1);
        }
        return;
    }
    std::unique_lock<std::mutex> lock(wake_mutex_);
    done_cv_.wait(lock, [this] { return pending_.load() == 0; });
}

void
WorkStealingPool::runTask(Task &task)
{
    // A throwing task must never unwind into workerLoop: the exception
    // would escape the thread entry point and std::terminate the whole
    // process, killing every other in-flight job with it. Absorb it,
    // record it, and let the pool keep draining.
    try {
        task();
    } catch (const std::exception &e) {
        if (exceptions_.fetch_add(1) == 0) {
            std::lock_guard<std::mutex> lock(exception_mutex_);
            first_exception_ = e.what();
        }
    } catch (...) {
        if (exceptions_.fetch_add(1) == 0) {
            std::lock_guard<std::mutex> lock(exception_mutex_);
            first_exception_ = "unknown exception";
        }
    }
}

std::string
WorkStealingPool::firstExceptionMessage() const
{
    std::lock_guard<std::mutex> lock(exception_mutex_);
    return first_exception_;
}

WorkStealingPool::Task
WorkStealingPool::claim(unsigned self)
{
    // Own deque, newest first: the task most likely still warm in this
    // worker's cache.
    {
        Worker &own = *workers_[self];
        std::lock_guard<std::mutex> lock(own.mutex);
        if (!own.tasks.empty()) {
            Task task = std::move(own.tasks.back());
            own.tasks.pop_back();
            unclaimed_.fetch_sub(1);
            queueDepthGauge().dec();
            perQueueGauge(self).dec();
            return task;
        }
    }
    // Steal the oldest task from the first non-empty victim, scanning
    // from our right-hand neighbour so contention spreads out.
    for (std::size_t offset = 1; offset < workers_.size(); ++offset) {
        const std::size_t victim_index =
            (self + offset) % workers_.size();
        Worker &victim = *workers_[victim_index];
        std::lock_guard<std::mutex> lock(victim.mutex);
        if (!victim.tasks.empty()) {
            Task task = std::move(victim.tasks.front());
            victim.tasks.pop_front();
            unclaimed_.fetch_sub(1);
            queueDepthGauge().dec();
            perQueueGauge(victim_index).dec();
            steals_.fetch_add(1);
            return task;
        }
    }
    return {};
}

void
WorkStealingPool::workerLoop(unsigned index)
{
    tls_worker_index = static_cast<int>(index);
    telemetry::SpanTracer::global().nameThread(
        "worker-" + std::to_string(index));
    while (true) {
        Task task = claim(index);
        if (!task) {
            std::unique_lock<std::mutex> lock(wake_mutex_);
            if (stop_.load())
                return;
            wake_cv_.wait(lock, [this] {
                return stop_.load() || unclaimed_.load() > 0;
            });
            continue;
        }
        runTask(task);
        if (pending_.fetch_sub(1) == 1) {
            // Last task down: wake wait()ers. Taking the lock orders
            // this notify against the waiter's predicate check.
            std::lock_guard<std::mutex> lock(wake_mutex_);
            done_cv_.notify_all();
        }
    }
}

} // namespace act
