// Checks the benchmark's measurement helpers against work of known size:
// an N MB allocation must show in the peak RSS, N written bytes in wchar,
// and a forked child's payload and exit status must reach the parent.
//
//   cmake --build .bench_build && ctest --test-dir .bench_build
#include <sys/mman.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "measure.h"
#include "trace.h"

namespace {

int failures = 0;

void check(bool condition, const std::string& what) {
  if (!condition) {
    std::fprintf(stderr, "FAIL: %s\n", what.c_str());
    ++failures;
  }
}

void test_peak_rss_sees_allocation() {
  constexpr std::size_t kMb = 96;
  const perfbench::ChildResult child = perfbench::run_in_child([] {
    const bool reset = perfbench::reset_peak_rss();
    const std::uint64_t before = perfbench::peak_rss_kb();
    // A private mapping, so the pages leave the process on munmap whatever
    // the allocator (or a sanitizer's quarantine) would do with free().
    const std::size_t size = kMb << 20;
    void* block = ::mmap(nullptr, size, PROT_READ | PROT_WRITE,
                         MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (block == MAP_FAILED) return std::string("mmap failed");
    std::memset(block, 1, size);
    const std::uint64_t after = perfbench::peak_rss_kb();
    ::munmap(block, size);
    // After unmapping, a reset must bring the peak back near the baseline.
    perfbench::reset_peak_rss();
    const std::uint64_t again = perfbench::peak_rss_kb();
    return std::to_string(reset) + " " + std::to_string(before) + " " +
           std::to_string(after) + " " + std::to_string(again);
  });
  check(child.ok, "allocation child exits 0");
  unsigned long long reset = 0, before = 0, after = 0, again = 0;
  check(std::sscanf(child.payload.c_str(), "%llu %llu %llu %llu", &reset,
                    &before, &after, &again) == 4,
        "allocation child payload parses");
  check(reset == 1, "clear_refs accepts the peak reset");
  check(after >= before + (kMb - 4) * 1024,
        "peak RSS grows by the allocated " + std::to_string(kMb) + " MB (" +
            std::to_string(before) + " -> " + std::to_string(after) + " KiB)");
  check(again + (kMb / 2) * 1024 < after,
        "peak RSS resets after the block is freed (" + std::to_string(again) +
            " KiB)");
}

void test_wchar_sees_writes() {
  constexpr std::size_t kBytes = 3 << 20;
  const std::string file =
      "perfbench_measure_test." + std::to_string(::getpid()) + ".tmp";
  std::vector<char> data(kBytes, 'x');
  const std::uint64_t before = perfbench::written_bytes();
  std::FILE* out = std::fopen(file.c_str(), "wb");
  check(out != nullptr, "scratch file opens");
  if (out == nullptr) return;
  const std::size_t wrote = std::fwrite(data.data(), 1, data.size(), out);
  std::fclose(out);
  const std::uint64_t after = perfbench::written_bytes();
  std::remove(file.c_str());
  check(wrote == kBytes, "scratch write completes");
  check(after - before >= kBytes && after - before < kBytes + 4096,
        "wchar grows by the written " + std::to_string(kBytes) + " bytes (" +
            std::to_string(after - before) + ")");
}

void test_child_reports() {
  const perfbench::ChildResult good =
      perfbench::run_in_child([] { return std::string(200000, 'p'); });
  check(good.ok && good.exit_code == 0, "child exits 0");
  check(good.payload == std::string(200000, 'p'),
        "a payload larger than the pipe buffer arrives whole");
  const perfbench::ChildResult crashed = perfbench::run_in_child([] {
    std::abort();
    return std::string();
  });
  check(!crashed.ok && crashed.exit_code == 128 + 6,
        "an aborting child reports SIGABRT");
}

void test_cpu_seconds_advances() {
  const double before = perfbench::cpu_seconds();
  const double start = perfbench::now_s();
  volatile std::uint64_t sink = 0;
  while (perfbench::now_s() - start < 0.2) sink = sink + 1;
  const double used = perfbench::cpu_seconds() - before;
  check(used > 0.1 && used < 0.5,
        "200 ms of spinning costs about 200 ms of CPU (" +
            std::to_string(used) + " s)");
}

void test_self_time() {
  perfbench::SpanRecorder recorder(7);
  const int outer = recorder.begin("study.outer");
  const int inner = recorder.begin("engine.inner");
  ::usleep(30000);
  recorder.end(inner);
  ::usleep(20000);
  recorder.end(outer);
  const auto self = recorder.self_s_by_layer();
  const double outer_s = recorder.spans()[0].duration_s();
  const double inner_s = recorder.spans()[1].duration_s();
  check(recorder.spans()[1].parent == 0, "inner span's parent is outer");
  check(recorder.spans()[1].run == 7, "spans carry the run id");
  check(self.at("engine") == inner_s, "a leaf's self time is its duration");
  check(self.at("study") > 0.015 && self.at("study") < outer_s - 0.025,
        "a parent's self time excludes its child");
  const std::string json = recorder.trace_event_json("{}");
  check(json.find("\"name\": \"engine.inner\"") != std::string::npos,
        "trace-event JSON names the spans");
}

}  // namespace

int main() {
  test_peak_rss_sees_allocation();
  test_wchar_sees_writes();
  test_child_reports();
  test_cpu_seconds_advances();
  test_self_time();
  if (failures == 0) std::printf("measure_test: all checks passed\n");
  return failures == 0 ? 0 : 1;
}
