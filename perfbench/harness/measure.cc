#include "measure.h"

#include <fcntl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

namespace perfbench {

namespace {

/// The numeric value after `key` in a "key: value" /proc file, or 0.
std::uint64_t proc_field(const char* file, const std::string& key) {
  std::ifstream in(file);
  std::string line;
  while (std::getline(in, line)) {
    if (line.compare(0, key.size(), key) == 0) {
      std::istringstream fields(line.substr(key.size()));
      std::uint64_t value = 0;
      fields >> value;
      return value;
    }
  }
  return 0;
}

bool write_all(int fd, const char* data, std::size_t size) {
  while (size > 0) {
    const ssize_t n = ::write(fd, data, size);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    data += n;
    size -= static_cast<std::size_t>(n);
  }
  return true;
}

}  // namespace

double now_s() {
  using clock = std::chrono::steady_clock;
  return std::chrono::duration<double>(clock::now().time_since_epoch())
      .count();
}

std::uint64_t peak_rss_kb() { return proc_field("/proc/self/status", "VmHWM:"); }

std::uint64_t rss_kb() { return proc_field("/proc/self/status", "VmRSS:"); }

bool reset_peak_rss() {
  const int fd = ::open("/proc/self/clear_refs", O_WRONLY | O_CLOEXEC);
  if (fd < 0) return false;
  const bool ok = write_all(fd, "5", 1);
  ::close(fd);
  return ok;
}

std::uint64_t written_bytes() { return proc_field("/proc/self/io", "wchar:"); }

double cpu_seconds() {
  rusage usage{};
  if (::getrusage(RUSAGE_SELF, &usage) != 0) return 0;
  const auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

ChildResult run_in_child(const std::function<std::string()>& body) {
  ChildResult result;
  int fds[2];
  if (::pipe2(fds, O_CLOEXEC) != 0) return result;
  std::fflush(nullptr);
  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(fds[0]);
    ::close(fds[1]);
    return result;
  }
  if (pid == 0) {
    ::close(fds[0]);
    const std::string payload = body();
    const bool sent = write_all(fds[1], payload.data(), payload.size());
    ::close(fds[1]);
    std::fflush(nullptr);
    ::_exit(sent ? 0 : 3);
  }
  ::close(fds[1]);
  char buffer[1 << 16];
  for (;;) {
    const ssize_t n = ::read(fds[0], buffer, sizeof buffer);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    result.payload.append(buffer, static_cast<std::size_t>(n));
  }
  ::close(fds[0]);
  int status = 0;
  while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  if (WIFEXITED(status)) {
    result.exit_code = WEXITSTATUS(status);
  } else if (WIFSIGNALED(status)) {
    result.exit_code = 128 + WTERMSIG(status);
  }
  result.ok = result.exit_code == 0;
  return result;
}

}  // namespace perfbench
