#include "veal/support/thread_pool.h"

#include <algorithm>
#include <exception>
#include <memory>
#include <stdexcept>

namespace veal {

namespace {

/** Set while the current thread executes a pool task (any pool). */
thread_local bool tls_on_worker = false;

/** Shared bookkeeping for one run() batch. */
struct Batch {
    Batch(int n, std::function<void(int)> fn)
        : num_tasks(n), body(std::move(fn)),
          errors(static_cast<std::size_t>(std::max(n, 0)))
    {}

    const int num_tasks;

    /**
     * Owned copy: runner jobs still queued when the batch drains execute
     * after run() has returned, so they must not reference caller stack.
     */
    const std::function<void(int)> body;
    std::atomic<int> next_index{0};
    std::atomic<int> completed{0};

    /** errors[i] is only written by the thread that claimed index i. */
    std::vector<std::exception_ptr> errors;

    std::mutex done_mutex;
    std::condition_variable done_cv;
};

/** Claim indices off @p batch until none remain. */
void
drainBatch(Batch& batch)
{
    for (;;) {
        const int i = batch.next_index.fetch_add(1);
        if (i >= batch.num_tasks)
            return;
        try {
            batch.body(i);
        } catch (...) {
            batch.errors[static_cast<std::size_t>(i)] =
                std::current_exception();
        }
        if (batch.completed.fetch_add(1) + 1 == batch.num_tasks) {
            // All indices done: wake the submitting thread.  Taking the
            // lock orders this notify after the submitter's wait() call.
            std::lock_guard<std::mutex> lock(batch.done_mutex);
            batch.done_cv.notify_all();
        }
    }
}

}  // namespace

ThreadPool::ThreadPool(int num_threads)
{
    const int n = num_threads <= 0 ? defaultThreads() : num_threads;
    workers_.reserve(static_cast<std::size_t>(n));
    for (int t = 0; t < n; ++t)
        workers_.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stopping_ = true;
    }
    work_available_.notify_all();
    for (auto& worker : workers_)
        worker.join();
}

void
ThreadPool::workerLoop()
{
    for (;;) {
        std::function<void()> task;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            work_available_.wait(
                lock, [this] { return stopping_ || !queue_.empty(); });
            if (queue_.empty())
                return;  // stopping_ and drained.
            task = std::move(queue_.front());
            queue_.pop();
        }
        tls_on_worker = true;
        task();
        tls_on_worker = false;
    }
}

void
ThreadPool::run(int num_tasks, const std::function<void(int)>& body)
{
    if (onWorkerThread()) {
        throw std::logic_error(
            "ThreadPool: nested submission from a worker thread would "
            "deadlock a fixed-size pool and is rejected by design");
    }
    if (num_tasks <= 0)
        return;

    // One runner job per worker (capped at the task count); each runner
    // pulls indices until the batch is dry.  shared_ptr keeps the batch
    // alive for runners still returning after the submitter wakes.
    auto batch = std::make_shared<Batch>(num_tasks, body);
    const int runners =
        std::min(num_tasks, std::max(numThreads(), 1));
    {
        std::lock_guard<std::mutex> lock(mutex_);
        for (int r = 0; r < runners; ++r)
            queue_.emplace([batch] { drainBatch(*batch); });
    }
    work_available_.notify_all();

    {
        std::unique_lock<std::mutex> lock(batch->done_mutex);
        batch->done_cv.wait(lock, [&] {
            return batch->completed.load() == batch->num_tasks;
        });
    }

    // Deterministic propagation: the lowest failing index wins.  Move
    // it out of the batch first: runner jobs still share the batch, and
    // the one that drops it last must not free the exception while the
    // caller's handler reads it (the refcount that orders the two lives
    // in libstdc++, which TSan cannot see).
    for (auto& error : batch->errors) {
        if (error) {
            const std::exception_ptr first = std::move(error);
            std::rethrow_exception(first);
        }
    }
}

bool
ThreadPool::onWorkerThread()
{
    return tls_on_worker;
}

int
ThreadPool::defaultThreads()
{
    const unsigned n = std::thread::hardware_concurrency();
    return n == 0 ? 1 : static_cast<int>(n);
}

}  // namespace veal
