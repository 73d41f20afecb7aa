// Process-level measurement helpers for the benchmark harness: peak RSS
// (VmHWM, resettable through /proc/self/clear_refs), bytes written
// (/proc/self/io wchar), CPU time (getrusage) and a forked child per
// measured run, so each run's peak belongs to that run alone.
#pragma once

#include <cstdint>
#include <functional>
#include <string>

namespace perfbench {

/// Monotonic wall clock, in seconds.
double now_s();

/// Peak resident set size of this process (VmHWM), in KiB; 0 if unknown.
std::uint64_t peak_rss_kb();

/// Current resident set size (VmRSS), in KiB; 0 if unknown.
std::uint64_t rss_kb();

/// Resets VmHWM to the current RSS by writing "5" to
/// /proc/self/clear_refs. Returns false when the kernel refuses.
bool reset_peak_rss();

/// Bytes this process has passed to write-family calls (/proc/self/io
/// wchar). Counts page-cache writes, pipes and sockets alike.
std::uint64_t written_bytes();

/// User + system CPU seconds of this process, all threads.
double cpu_seconds();

/// What a forked child returned.
struct ChildResult {
  bool ok = false;      // exited normally with status 0
  int exit_code = -1;   // exit status, or 128 + signal
  std::string payload;  // everything the child's body returned
};

/// Runs `body` in a forked child and waits for it. The child writes the
/// string `body` returns to a pipe and leaves with _exit(0), so no
/// destructor or atexit handler of the parent's state runs twice. The
/// parent must not own running threads when it forks.
ChildResult run_in_child(const std::function<std::string()>& body);

}  // namespace perfbench
