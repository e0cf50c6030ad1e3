#include "exp/scheduler.hh"

#include <algorithm>
#include <atomic>
#include <exception>
#include <mutex>
#include <thread>

namespace ede {
namespace exp {

unsigned
Scheduler::hardwareJobs()
{
    const unsigned hw = std::thread::hardware_concurrency();
    return hw ? hw : 1;
}

Scheduler::Scheduler(unsigned jobs)
    : jobs_(jobs ? jobs : hardwareJobs())
{
}

void
Scheduler::parallelFor(std::size_t n,
                       const std::function<void(std::size_t)> &fn) const
{
    if (jobs_ <= 1 || n <= 1) {
        // Serial path: index order, no worker threads.
        for (std::size_t i = 0; i < n; ++i)
            fn(i);
        return;
    }

    std::atomic<std::size_t> next{0};
    std::atomic<bool> failed{false};
    std::mutex error_mutex;
    std::size_t error_index = n;
    std::exception_ptr error;

    // Workers start together once the pool exists.  A job may fork(),
    // and a fork racing this thread's allocations while it spawns the
    // pool can leave the child blocked on an allocator lock the
    // sanitizers' allocator does not release across fork.
    std::atomic<bool> started{false};

    auto worker = [&]() {
        while (!started.load(std::memory_order_acquire))
            std::this_thread::yield();
        // Drain: no new jobs after a failure.
        while (!failed.load(std::memory_order_relaxed)) {
            const std::size_t i =
                next.fetch_add(1, std::memory_order_relaxed);
            if (i >= n)
                return;
            try {
                fn(i);
            } catch (...) {
                std::lock_guard<std::mutex> lock(error_mutex);
                // Lowest index, so the rethrow is deterministic
                // regardless of worker interleaving.
                if (i < error_index) {
                    error_index = i;
                    error = std::current_exception();
                }
                failed.store(true, std::memory_order_relaxed);
            }
        }
    };

    const std::size_t workers = std::min<std::size_t>(jobs_, n);
    std::vector<std::thread> pool;
    pool.reserve(workers);
    for (std::size_t w = 0; w < workers; ++w)
        pool.emplace_back(worker);
    started.store(true, std::memory_order_release);
    for (std::thread &t : pool)
        t.join();

    if (error)
        std::rethrow_exception(error);
}

} // namespace exp
} // namespace ede
