#include "common/parallel.hh"

#include <atomic>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/logging.hh"

namespace rnuma
{

void
parallelFor(std::size_t n, std::size_t jobs,
            const std::function<void(std::size_t)> &fn)
{
    if (n == 0)
        return;
    if (jobs == 0) {
        jobs = std::thread::hardware_concurrency();
        if (jobs == 0)
            jobs = 1;
    }
    if (jobs <= 1 || n == 1) {
        // Inline reference path: no threads, errors propagate (or
        // terminate) exactly as the caller's context dictates.
        for (std::size_t i = 0; i < n; ++i)
            fn(i);
        return;
    }

    std::atomic<std::size_t> next{0};
    std::mutex error_mutex;
    std::string first_error;

    auto worker = [&] {
        ScopedPanicToException panics_throw;
        for (;;) {
            std::size_t i = next.fetch_add(1);
            if (i >= n)
                return;
            try {
                fn(i);
            } catch (const std::exception &e) {
                std::lock_guard<std::mutex> lock(error_mutex);
                if (first_error.empty())
                    first_error = e.what();
                next.store(n); // drain the pool
            }
        }
    };

    std::size_t workers = jobs < n ? jobs : n;
    std::vector<std::thread> pool;
    pool.reserve(workers);
    for (std::size_t w = 0; w < workers; ++w)
        pool.emplace_back(worker);
    for (std::thread &t : pool)
        t.join();

    if (!first_error.empty())
        RNUMA_FATAL("parallel task failed: ", first_error);
}

} // namespace rnuma
