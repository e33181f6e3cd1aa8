#include "host_speed.h"

#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <csignal>
#include <cstdint>
#include <cstring>
#include <memory>
#include <queue>
#include <stdexcept>
#include <unordered_map>
#include <vector>

#include "tracer.h"

namespace perfbench {

namespace {

// Keeps the kernel's work observable so it cannot be optimized away.
volatile std::uint64_t g_kernel_sink = 0;

bool write_all(int fd, const void* data, std::size_t n) {
  const char* p = static_cast<const char*>(data);
  while (n > 0) {
    const ssize_t k = ::write(fd, p, n);
    if (k < 0 && errno == EINTR) continue;
    if (k <= 0) return false;
    p += k;
    n -= static_cast<std::size_t>(k);
  }
  return true;
}

bool read_all(int fd, void* data, std::size_t n) {
  char* p = static_cast<char*>(data);
  while (n > 0) {
    const ssize_t k = ::read(fd, p, n);
    if (k < 0 && errno == EINTR) continue;
    if (k <= 0) return false;
    p += k;
    n -= static_cast<std::size_t>(k);
  }
  return true;
}

/// The child's loop: one kernel run per request byte, until the parent
/// closes the request pipe.
[[noreturn]] void serve(int request_fd, int response_fd) {
  char byte = 0;
  while (read_all(request_fd, &byte, 1)) {
    const KernelTimes t = reference_kernel();
    if (!write_all(response_fd, &t, sizeof t)) break;
  }
  ::_exit(0);  // no atexit handlers or stdio flushes of the parent's state
}

}  // namespace

KernelTimes reference_kernel() {
  struct Event {
    std::uint64_t time;
    std::uint32_t job;
    bool operator<(const Event& o) const { return time > o.time; }
  };
  const std::int64_t start = monotonic_ns(), cpu_start = thread_cpu_ns();
  std::uint64_t x = 88172645463325252ULL;  // xorshift64
  const auto next = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  std::priority_queue<Event> heap;
  std::unordered_map<std::uint32_t, std::uint64_t> jobs;
  for (std::uint32_t i = 0; i < 16384; ++i) {
    heap.push({next() % 1000000, i});
    jobs[i] = i;
  }
  std::vector<std::uint64_t> queue;
  std::uint64_t sink = 0;
  for (int n = 0; n < 60000; ++n) {
    const Event e = heap.top();
    heap.pop();
    auto it = jobs.find(e.job);
    sink += it->second;
    it->second = e.time;
    const auto job = static_cast<std::uint32_t>(next() % 65536);
    jobs[job] += e.time;
    heap.push({e.time + next() % 10000, job});
    queue.push_back(next());
    if (queue.size() == 64) {
      std::sort(queue.begin(), queue.end());
      sink += queue[7];
      queue.clear();
    }
  }
  // Allocation churn of small byte buffers, like the protocol codec's.
  std::vector<std::unique_ptr<std::vector<std::uint8_t>>> live(512);
  for (std::uint32_t n = 0; n < 200000; ++n) {
    auto buf = std::make_unique<std::vector<std::uint8_t>>(16 + n % 48);
    std::memset(buf->data(), static_cast<int>(n & 0xff), buf->size());
    sink += (*buf)[3];
    live[(n * 2654435761U) % 512] = std::move(buf);
  }
  const std::int64_t end = monotonic_ns(), cpu_end = thread_cpu_ns();
  g_kernel_sink = sink;
  return {static_cast<double>(end - start) * 1e-9,
          static_cast<double>(cpu_end - cpu_start) * 1e-9};
}

HostSpeedProbe::HostSpeedProbe() {
  int request[2], response[2];
  if (::pipe(request) != 0) throw std::runtime_error("host speed probe: pipe failed");
  if (::pipe(response) != 0) {
    ::close(request[0]);
    ::close(request[1]);
    throw std::runtime_error("host speed probe: pipe failed");
  }
  // A dead child must surface as a failed write, not kill the benchmark.
  std::signal(SIGPIPE, SIG_IGN);
  child_ = ::fork();
  if (child_ < 0) {
    for (int fd : {request[0], request[1], response[0], response[1]}) ::close(fd);
    throw std::runtime_error("host speed probe: fork failed");
  }
  if (child_ == 0) {
    ::close(request[1]);
    ::close(response[0]);
    serve(request[0], response[1]);
  }
  ::close(request[0]);
  ::close(response[1]);
  request_fd_ = request[1];
  response_fd_ = response[0];
}

HostSpeedProbe::~HostSpeedProbe() {
  ::close(request_fd_);  // the child sees end of file and exits
  ::close(response_fd_);
  int status = 0;
  while (::waitpid(child_, &status, 0) < 0 && errno == EINTR) {
  }
}

Slowdown slowdown_of(const std::vector<KernelTimes>& runs) {
  double wall = 0.0, cpu = 0.0;
  for (const KernelTimes& t : runs) {
    wall += t.wall_s;
    cpu += t.cpu_s;
  }
  const auto n = static_cast<double>(runs.size());
  return {wall / n / kReferenceKernelWallS, cpu / n / kReferenceKernelCpuS};
}

KernelTimes HostSpeedProbe::measure() {
  const std::lock_guard<std::mutex> lock(mu_);
  const char byte = 1;
  KernelTimes t;
  if (!write_all(request_fd_, &byte, 1) || !read_all(response_fd_, &t, sizeof t))
    throw std::runtime_error("host speed probe: child process is gone");
  return t;
}

}  // namespace perfbench
