#include "host.hpp"

#include <dirent.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <chrono>
#include <ctime>
#include <fstream>
#include <string>

#include "obs/process.hpp"

namespace perfbench::host {

namespace {

double clock_s(clockid_t id) noexcept {
  timespec ts{};
  clock_gettime(id, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

std::string task_path(pid_t tid, const char* file) {
  return "/proc/self/task/" + std::to_string(tid) + "/" + file;
}

}  // namespace

std::int64_t now_ns() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double process_cpu_s() noexcept { return clock_s(CLOCK_PROCESS_CPUTIME_ID); }
double thread_cpu_s() noexcept { return clock_s(CLOCK_THREAD_CPUTIME_ID); }
double thread_cpu_s(pid_t tid) noexcept {
  // The kernel's per-thread CPU clock id (what pthread_getcpuclockid
  // returns): the negated tid shifted past the clock type bits, with the
  // type "scheduler runtime of one thread" (2 | 4).
  return clock_s((~static_cast<clockid_t>(tid) << 3) | 6);
}

SchedStat schedstat(pid_t tid) {
  SchedStat s;
  std::ifstream in{task_path(tid, "schedstat")};
  in >> s.run_ns >> s.wait_ns >> s.slices;
  return s;
}

std::uint64_t nivcsw(pid_t tid) {
  std::ifstream in{task_path(tid, "status")};
  std::string line;
  const std::string key = "nonvoluntary_ctxt_switches:";
  while (std::getline(in, line)) {
    if (line.rfind(key, 0) == 0) return std::stoull(line.substr(key.size()));
  }
  return 0;
}

pid_t gettid() noexcept { return static_cast<pid_t>(::syscall(SYS_gettid)); }

std::vector<pid_t> task_ids() {
  std::vector<pid_t> out;
  if (DIR* d = ::opendir("/proc/self/task")) {
    while (const dirent* e = ::readdir(d)) {
      if (e->d_name[0] >= '0' && e->d_name[0] <= '9') {
        out.push_back(static_cast<pid_t>(std::stol(e->d_name)));
      }
    }
    ::closedir(d);
  }
  return out;
}

double rss_mb() {
  return static_cast<double>(recwild::obs::current_rss_kb()) / 1024.0;
}
double hwm_mb() {
  return static_cast<double>(recwild::obs::peak_rss_kb()) / 1024.0;
}

}  // namespace perfbench::host
