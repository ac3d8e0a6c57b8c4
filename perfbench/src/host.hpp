// Host-side observation from outside the program: clocks, process and
// thread CPU, scheduler statistics and memory, read from /proc (Linux).
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <vector>

namespace perfbench::host {

/// Monotonic nanoseconds (steady clock).
std::int64_t now_ns() noexcept;
/// CPU (user + sys) consumed by the whole process, seconds.
double process_cpu_s() noexcept;
/// CPU consumed by the calling thread, seconds.
double thread_cpu_s() noexcept;
/// CPU consumed so far by thread `tid` of this process, seconds. Exact to
/// the nanosecond even while the thread runs, unlike schedstat's figure,
/// which trails a running thread by up to a scheduler tick.
double thread_cpu_s(pid_t tid) noexcept;

/// /proc/self/task/<tid>/schedstat: time on CPU, time runnable but waiting
/// for a CPU, and timeslices.
struct SchedStat {
  std::uint64_t run_ns = 0;
  std::uint64_t wait_ns = 0;
  std::uint64_t slices = 0;
};
SchedStat schedstat(pid_t tid);
/// Involuntary context switches of one thread so far.
std::uint64_t nivcsw(pid_t tid);

pid_t gettid() noexcept;
/// Every thread id of this process.
std::vector<pid_t> task_ids();

/// Resident set now and its high-water mark, MiB.
double rss_mb();
double hwm_mb();

}  // namespace perfbench::host
