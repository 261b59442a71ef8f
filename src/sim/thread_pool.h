// anole — minimal fixed-size worker pool for the scenario harness.
//
// The experiment sweeps are embarrassingly parallel at the repetition
// level: every (scenario, seed) pair builds its own engine over a shared
// read-only graph. This pool is the batch substrate behind
// scenario_runner and the benches' `--jobs N` flag, and — since the
// flat-slot engine learned to shard a single round across workers
// (scoped_engine_parallelism, `--node-jobs`) — also the substrate for
// intra-instance parallelism nested *inside* a pool job.
//
// Jobs are opaque void() callables and must not throw — the runner
// captures per-run exceptions into the run record before submitting.
// wait() blocks until the queue drains AND every in-flight job returned,
// so results written by jobs are visible to the waiter afterwards
// (release/acquire via the mutex).
//
// parallel_for() is group-scoped and *helping*: the calling thread
// executes its own group's queued jobs while it waits, so it is safe to
// call from inside a pool job (a repetition job sharding engine rounds
// over the same pool) — the caller can always drain its own group by
// itself, so nested waits cannot deadlock, and a group whose jobs are
// in flight on other workers simply blocks until they return.
#pragma once

#include <algorithm>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace anole {

class thread_pool {
public:
    // workers = 0 selects hardware_concurrency (at least 1).
    explicit thread_pool(std::size_t workers = 0) {
        if (workers == 0) {
            workers = std::thread::hardware_concurrency();
            if (workers == 0) workers = 1;
        }
        threads_.reserve(workers);
        for (std::size_t i = 0; i < workers; ++i) {
            threads_.emplace_back([this] { worker_loop(); });
        }
    }

    thread_pool(const thread_pool&) = delete;
    thread_pool& operator=(const thread_pool&) = delete;

    ~thread_pool() {
        {
            std::unique_lock<std::mutex> lk(mu_);
            stopping_ = true;
        }
        cv_work_.notify_all();
        for (auto& t : threads_) t.join();
    }

    [[nodiscard]] std::size_t size() const noexcept { return threads_.size(); }

    void submit(std::function<void()> job) {
        {
            std::unique_lock<std::mutex> lk(mu_);
            queue_.push_back(task{std::move(job), nullptr});
            ++outstanding_;
        }
        cv_work_.notify_one();
    }

    // Blocks until every submitted job has finished (all groups included).
    void wait() {
        std::unique_lock<std::mutex> lk(mu_);
        cv_idle_.wait(lk, [this] { return outstanding_ == 0; });
    }

    // fn(i) for every i in [0, count); returns when all have finished.
    // The calling thread participates (helping wait), so this may be
    // invoked from within a pool job without risking deadlock.
    template <class Fn>
    void parallel_for(std::size_t count, Fn&& fn) {
        if (count == 0) return;
        task_group grp;
        {
            std::unique_lock<std::mutex> lk(mu_);
            grp.remaining = count;
            for (std::size_t i = 0; i < count; ++i) {
                queue_.push_back(task{[&fn, i] { fn(i); }, &grp});
            }
            outstanding_ += count;
        }
        cv_work_.notify_all();

        std::unique_lock<std::mutex> lk(mu_);
        while (grp.remaining != 0) {
            // Prefer our own group's jobs; they were pushed at the back.
            auto it = std::find_if(queue_.rbegin(), queue_.rend(),
                                   [&](const task& t) { return t.group == &grp; });
            if (it == queue_.rend()) {
                // All of the group's jobs are in flight on workers.
                grp.cv.wait(lk);
                continue;
            }
            task t = std::move(*it);
            queue_.erase(std::next(it).base());
            lk.unlock();
            t.fn();
            lk.lock();
            finish_locked(t);
        }
        // grp (and its condition_variable) dies here; workers only touch a
        // group under mu_ before its remaining-count hits zero, and the
        // final decrement happens with mu_ held, so no worker can still be
        // inside notify once we observed remaining == 0.
    }

private:
    struct task_group {
        std::size_t remaining = 0;
        std::condition_variable cv;
    };
    struct task {
        std::function<void()> fn;
        task_group* group = nullptr;
    };

    // Completion bookkeeping; caller holds mu_.
    void finish_locked(const task& t) {
        if (t.group != nullptr && --t.group->remaining == 0) t.group->cv.notify_all();
        if (--outstanding_ == 0) cv_idle_.notify_all();
    }

    void worker_loop() {
        for (;;) {
            task t;
            {
                std::unique_lock<std::mutex> lk(mu_);
                cv_work_.wait(lk, [this] { return stopping_ || !queue_.empty(); });
                if (queue_.empty()) return;  // stopping_ with a drained queue
                t = std::move(queue_.front());
                queue_.pop_front();
            }
            t.fn();
            {
                std::unique_lock<std::mutex> lk(mu_);
                finish_locked(t);
            }
        }
    }

    std::mutex mu_;
    std::condition_variable cv_work_, cv_idle_;
    std::deque<task> queue_;
    std::size_t outstanding_ = 0;
    bool stopping_ = false;
    std::vector<std::thread> threads_;
};

}  // namespace anole
