#include "parallel.hh"

#include <exception>

#include "logging.hh"

namespace primepar {

namespace {

/** Set while a thread is executing a pool task: nested parallelFor()
 *  calls must run inline rather than wait on the (possibly already
 *  saturated) pool. */
thread_local bool insidePoolTask = false;

} // namespace

int
hardwareConcurrency()
{
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : static_cast<int>(hw);
}

int
resolveNumThreads(int requested)
{
    if (requested <= 0)
        return hardwareConcurrency();
    return requested;
}

ThreadPool::ThreadPool(int num_threads)
    : nThreads(resolveNumThreads(num_threads))
{
    workers.reserve(nThreads - 1);
    for (int w = 0; w + 1 < nThreads; ++w)
        workers.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lock(mu);
        stopping = true;
    }
    workCv.notify_all();
    for (std::thread &t : workers)
        t.join();
}

void
ThreadPool::workerLoop()
{
    insidePoolTask = true;
    while (true) {
        std::function<void()> task;
        {
            std::unique_lock<std::mutex> lock(mu);
            workCv.wait(lock,
                        [this] { return stopping || !queue.empty(); });
            if (queue.empty())
                return; // stopping and drained
            task = std::move(queue.front());
            queue.pop_front();
        }
        task();
    }
}

void
ThreadPool::parallelFor(std::size_t n,
                        const std::function<void(std::size_t)> &fn)
{
    if (n == 0)
        return;

    const std::size_t chunks =
        insidePoolTask
            ? 1
            : std::min<std::size_t>(static_cast<std::size_t>(nThreads),
                                    n);
    if (chunks <= 1) {
        for (std::size_t i = 0; i < n; ++i)
            fn(i);
        return;
    }

    // Lives on this frame: every worker touches it only under doneMu,
    // and the caller returns only after seeing pending == 0 under that
    // same lock, so no worker can still be using it.
    struct JobState
    {
        std::size_t pending = 0; ///< guarded by doneMu
        std::mutex doneMu;
        std::condition_variable doneCv;
        std::mutex errMu;
        std::exception_ptr error;
    } state;
    state.pending = chunks - 1;

    auto run_chunk = [&fn, &state, n, chunks](std::size_t c) {
        const std::size_t begin = c * n / chunks;
        const std::size_t end = (c + 1) * n / chunks;
        try {
            for (std::size_t i = begin; i < end; ++i)
                fn(i);
        } catch (...) {
            std::lock_guard<std::mutex> lock(state.errMu);
            if (!state.error)
                state.error = std::current_exception();
        }
    };

    {
        std::lock_guard<std::mutex> lock(mu);
        PRIMEPAR_ASSERT(!stopping, "parallelFor on stopped pool");
        for (std::size_t c = 1; c < chunks; ++c) {
            queue.emplace_back([&run_chunk, &state, c] {
                run_chunk(c);
                std::lock_guard<std::mutex> done(state.doneMu);
                if (--state.pending == 0)
                    state.doneCv.notify_one();
            });
        }
    }
    workCv.notify_all();

    // The caller is worker 0.
    const bool was_inside = insidePoolTask;
    insidePoolTask = true;
    run_chunk(0);
    insidePoolTask = was_inside;

    {
        std::unique_lock<std::mutex> done(state.doneMu);
        state.doneCv.wait(done, [&state] { return state.pending == 0; });
    }
    if (state.error)
        std::rethrow_exception(state.error);
}

void
parallelFor(ThreadPool *pool, std::size_t n,
            const std::function<void(std::size_t)> &fn)
{
    if (pool) {
        pool->parallelFor(n, fn);
        return;
    }
    for (std::size_t i = 0; i < n; ++i)
        fn(i);
}

SerialWorker::~SerialWorker()
{
    {
        std::lock_guard<std::mutex> lock(mu);
        stopping = true;
    }
    cv.notify_all();
    if (worker.joinable())
        worker.join();
}

void
SerialWorker::post(std::function<void()> fn)
{
    std::lock_guard<std::mutex> lock(mu);
    PRIMEPAR_ASSERT(!busy && !task,
                    "SerialWorker::post while a task is in flight");
    if (!worker.joinable())
        worker = std::thread([this] { loop(); });
    task = std::move(fn);
    busy = true;
    cv.notify_all();
}

void
SerialWorker::wait()
{
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return !busy; });
    if (error) {
        std::exception_ptr err = error;
        error = nullptr;
        lock.unlock();
        std::rethrow_exception(err);
    }
}

void
SerialWorker::loop()
{
    std::unique_lock<std::mutex> lock(mu);
    for (;;) {
        cv.wait(lock, [&] { return stopping || task; });
        if (!task && stopping)
            return;
        std::function<void()> fn = std::move(task);
        task = nullptr;
        lock.unlock();
        std::exception_ptr err;
        try {
            fn();
        } catch (...) {
            err = std::current_exception();
        }
        lock.lock();
        error = err;
        busy = false;
        cv.notify_all();
    }
}

} // namespace primepar
