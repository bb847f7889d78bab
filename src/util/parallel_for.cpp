#include "util/parallel_for.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

namespace mrp {

void
parallelFor(std::size_t n, unsigned jobs,
            const std::function<void(std::size_t)>& fn)
{
    std::atomic<std::size_t> next{0};
    std::atomic<bool> failed{false};
    std::exception_ptr error;
    std::mutex error_mutex;
    const auto work = [&] {
        while (!failed.load()) {
            const std::size_t i = next.fetch_add(1);
            if (i >= n)
                return;
            try {
                fn(i);
            } catch (...) {
                const std::lock_guard<std::mutex> lock(error_mutex);
                if (!failed.exchange(true))
                    error = std::current_exception();
            }
        }
    };

    const std::size_t workers = std::min<std::size_t>(jobs, n);
    if (workers <= 1) {
        work();
    } else {
        std::vector<std::thread> pool;
        pool.reserve(workers);
        for (std::size_t w = 0; w < workers; ++w)
            pool.emplace_back(work);
        for (auto& t : pool)
            t.join();
    }
    if (error)
        std::rethrow_exception(error);
}

} // namespace mrp
