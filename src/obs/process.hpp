// Process self-observation: resident-set sampling for run_sharded
// and benchmarks. Linux-only (/proc/self/status); other platforms report 0
// so callers can print "unavailable" rather than fail.
#pragma once

#include <cstddef>
#include <fstream>
#include <string>

namespace recwild::obs {

namespace detail {

inline std::size_t read_status_kb(const char* field) {
#if defined(__linux__)
  std::ifstream in{"/proc/self/status"};
  std::string line;
  const std::string key = std::string{field} + ":";
  while (std::getline(in, line)) {
    if (line.rfind(key, 0) != 0) continue;
    std::size_t kb = 0;
    for (const char c : line) {
      if (c >= '0' && c <= '9') {
        kb = kb * 10 + static_cast<std::size_t>(c - '0');
      }
    }
    return kb;
  }
#else
  (void)field;
#endif
  return 0;
}

}  // namespace detail

/// Current resident set size in KiB (0 when unavailable). Process-wide:
/// threads share it, so it cannot attribute memory to one shard.
inline std::size_t current_rss_kb() { return detail::read_status_kb("VmRSS"); }

/// Process-wide peak resident set size in KiB (0 when unavailable).
/// Monotonic across the process lifetime — comparable only against samples
/// from the same process.
inline std::size_t peak_rss_kb() { return detail::read_status_kb("VmHWM"); }

}  // namespace recwild::obs
