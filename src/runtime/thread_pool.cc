#include "runtime/thread_pool.hpp"

#include <algorithm>

#include "runtime/env.hpp"

namespace mpcspan::runtime {

std::size_t ThreadPool::defaultThreads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return envNumber("MPCSPAN_THREADS", 1, kMaxThreads, hw == 0 ? 1 : hw);
}

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) threads = defaultThreads();
  lanes_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) lanes_.push_back(std::make_unique<Lane>());
  // Workers spawn lazily on the first parallel job: a sharded engine's
  // coordinator pool may never be exercised.
}

void ThreadPool::ensureWorkers() {
  if (!workers_.empty()) return;
  workers_.reserve(lanes_.size() - 1);
  for (std::size_t i = 1; i < lanes_.size(); ++i)
    workers_.emplace_back([this, i] { workerLoop(i); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(jobMutex_);
    shutdown_ = true;
  }
  jobCv_.notify_all();
  for (std::thread& w : workers_) w.join();
}

void ThreadPool::parallelFor(std::size_t n,
                             const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;
  const std::size_t lanes = lanes_.size();
  if (lanes == 1 || n == 1) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }

  std::uint64_t gen;
  {
    std::lock_guard<std::mutex> lock(jobMutex_);
    ensureWorkers();
    {
      std::lock_guard<std::mutex> errLock(errorMutex_);
      error_ = nullptr;
    }
    abort_.store(false, std::memory_order_relaxed);
    remaining_.store(n, std::memory_order_relaxed);
    job_ = &fn;
    gen = ++generation_;
    // Publish the lane ranges last: an index only becomes claimable (by a
    // fresh worker or a straggler from the previous generation) through a
    // lane mutex acquired after this point, which orders the job_ write
    // before any claim. Each lane is stamped with the generation so a
    // straggler still inside the previous runLanes can never steal this
    // job's slices (see stealInto).
    const std::size_t base = n / lanes;
    const std::size_t extra = n % lanes;
    std::size_t cursor = 0;
    for (std::size_t i = 0; i < lanes; ++i) {
      const std::size_t take = base + (i < extra ? 1 : 0);
      std::lock_guard<std::mutex> laneLock(lanes_[i]->m);
      lanes_[i]->next = cursor;
      lanes_[i]->end = cursor + take;
      lanes_[i]->gen = gen;
      cursor += take;
    }
  }
  jobCv_.notify_all();

  runLanes(0, gen);

  {
    std::unique_lock<std::mutex> lock(jobMutex_);
    doneCv_.wait(lock, [this] {
      return remaining_.load(std::memory_order_acquire) == 0;
    });
    job_ = nullptr;
  }
  std::exception_ptr err;
  {
    std::lock_guard<std::mutex> errLock(errorMutex_);
    err = error_;
  }
  if (err) std::rethrow_exception(err);
}

void ThreadPool::parallelForChunks(
    std::size_t n, std::size_t chunk,
    const std::function<void(std::size_t, std::size_t)>& fn) {
  if (n == 0) return;
  if (chunk == 0) chunk = 1;
  const std::size_t numChunks = (n + chunk - 1) / chunk;
  parallelFor(numChunks, [&](std::size_t c) {
    const std::size_t begin = c * chunk;
    fn(begin, std::min(n, begin + chunk));
  });
}

void ThreadPool::workerLoop(std::size_t lane) {
  std::uint64_t seen = 0;
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(jobMutex_);
      jobCv_.wait(lock, [&] { return shutdown_ || generation_ != seen; });
      if (shutdown_) return;
      seen = generation_;
    }
    runLanes(lane, seen);
  }
}

void ThreadPool::runLanes(std::size_t self, std::uint64_t gen) {
  std::size_t idx;
  while (claimOwn(self, idx)) execute(idx);
  // Own slice drained: steal the upper half of the fullest remaining slice
  // into this lane, then drain it; repeat until no work is left anywhere.
  while (stealInto(self, gen))
    while (claimOwn(self, idx)) execute(idx);
}

bool ThreadPool::claimOwn(std::size_t lane, std::size_t& idx) {
  Lane& l = *lanes_[lane];
  std::lock_guard<std::mutex> lock(l.m);
  if (l.next >= l.end) return false;
  idx = l.next++;
  return true;
}

bool ThreadPool::stealInto(std::size_t thief, std::uint64_t gen) {
  // Only slices stamped with this thief's generation are stealable. A
  // straggler from a finished generation therefore finds nothing: if
  // unclaimed work of its generation still existed, the next generation
  // could not have started (the caller waits for remaining_ == 0), so a
  // gen mismatch always means "that slice is not my job". This also
  // protects the thief's own lane: it can only have been re-assigned to a
  // newer generation once the thief's generation has no stealable work
  // left, and then the install below is unreachable.
  const std::size_t lanes = lanes_.size();
  std::size_t victim = lanes;  // invalid
  std::size_t best = 0;
  for (std::size_t i = 0; i < lanes; ++i) {
    if (i == thief) continue;
    Lane& l = *lanes_[i];
    std::lock_guard<std::mutex> lock(l.m);
    if (l.gen != gen) continue;
    const std::size_t avail = l.end - l.next;
    if (avail > best) {
      best = avail;
      victim = i;
    }
  }
  if (victim == lanes) return false;
  std::size_t begin = 0, end = 0;
  {
    Lane& v = *lanes_[victim];
    std::lock_guard<std::mutex> lock(v.m);
    if (v.gen != gen) return true;  // raced away; let the caller retry
    const std::size_t avail = v.end - v.next;
    if (avail == 0) return true;  // raced away; let the caller retry
    const std::size_t take = (avail + 1) / 2;
    begin = v.end - take;
    end = v.end;
    v.end = begin;
  }
  Lane& mine = *lanes_[thief];
  std::lock_guard<std::mutex> lock(mine.m);
  mine.next = begin;
  mine.end = end;
  mine.gen = gen;
  return true;
}

void ThreadPool::execute(std::size_t idx) {
  if (!abort_.load(std::memory_order_relaxed)) {
    try {
      (*job_)(idx);
    } catch (...) {
      std::lock_guard<std::mutex> lock(errorMutex_);
      if (!error_) error_ = std::current_exception();
      abort_.store(true, std::memory_order_relaxed);
    }
  }
  if (remaining_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    std::lock_guard<std::mutex> lock(jobMutex_);
    doneCv_.notify_all();
  }
}

}  // namespace mpcspan::runtime
