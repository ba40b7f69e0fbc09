/**
 * @file
 * Fixed-size thread pool with per-worker work-stealing deques.
 *
 * The campaign runner fans independent jobs out across cores. Jobs are
 * coarse (seconds each) but uneven — a Table V diagnosis costs orders
 * of magnitude more than a smoke prediction job — so a single shared
 * queue would serialise on its lock while a static partition would
 * leave workers idle behind one slow shard. Each worker therefore owns
 * a deque: it pushes and pops at the back (LIFO, cache-warm), and idle
 * workers steal from the *front* of a victim's deque (FIFO, the
 * coldest work), the classic work-stealing arrangement.
 *
 * Determinism note: the pool never reorders results — callers write
 * into pre-assigned slots — so the schedule affects wall-clock only,
 * never output.
 */

#ifndef ACT_RUNNER_THREAD_POOL_HH
#define ACT_RUNNER_THREAD_POOL_HH

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace act
{

/**
 * The pool. Construction spawns the workers; destruction drains any
 * remaining tasks and joins them.
 */
class WorkStealingPool
{
  public:
    using Task = std::function<void()>;

    /** @param threads Worker count; 0 = std::thread::hardware_concurrency. */
    explicit WorkStealingPool(unsigned threads = 0);

    /** Blocks until every submitted task has finished. */
    ~WorkStealingPool();

    WorkStealingPool(const WorkStealingPool &) = delete;
    WorkStealingPool &operator=(const WorkStealingPool &) = delete;

    /**
     * Enqueue one task. When called from a worker thread the task goes
     * to that worker's own deque; external submissions are distributed
     * round-robin.
     */
    void submit(Task task);

    /** Block until every task submitted so far has completed. */
    void wait();

    unsigned threadCount() const
    {
        return static_cast<unsigned>(threads_.size());
    }

    /** Tasks executed by a worker other than the one they were queued on. */
    std::uint64_t stealCount() const { return steals_.load(); }

    /**
     * Tasks whose callable threw. An escaping exception would call
     * std::terminate on the worker thread and take the whole process
     * down, so the pool absorbs it, counts it here and keeps the first
     * message for post-mortem. This is a backstop: callers that care
     * about *which* task failed (the campaign runner does) must catch
     * inside the task and turn the error into data themselves.
     */
    std::uint64_t exceptionCount() const { return exceptions_.load(); }

    /** what() of the first absorbed exception ("" when none). */
    std::string firstExceptionMessage() const;

  private:
    struct Worker
    {
        std::mutex mutex;
        std::deque<Task> tasks;
    };

    void workerLoop(unsigned index);

    /** Wake one idle worker after a task was queued. */
    void wakeOne();

    /** Run @p task, absorbing (and recording) anything it throws. */
    void runTask(Task &task);

    /**
     * Claim one task: own deque back first, then steal from the other
     * workers' fronts. Returns an empty function when nothing is
     * runnable.
     */
    Task claim(unsigned self);

    std::vector<std::unique_ptr<Worker>> workers_;
    std::vector<std::thread> threads_;

    std::mutex wake_mutex_;
    std::condition_variable wake_cv_;  //!< Workers sleep here when idle.
    std::condition_variable done_cv_;  //!< wait() sleeps here.

    std::atomic<std::uint64_t> unclaimed_{0}; //!< Tasks sitting in deques.
    std::atomic<std::uint64_t> pending_{0};   //!< Submitted, not finished.
    std::atomic<std::uint64_t> next_queue_{0};
    std::atomic<std::uint64_t> steals_{0};
    std::atomic<std::uint64_t> exceptions_{0};
    std::atomic<bool> stop_{false};

    mutable std::mutex exception_mutex_;
    std::string first_exception_; //!< Guarded by exception_mutex_.
};

} // namespace act

#endif // ACT_RUNNER_THREAD_POOL_HH
