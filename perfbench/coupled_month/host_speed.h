// Host speed probe for normalizing timings on a shared host.
//
// On a shared host, other tenants slow every operation by up to 1.9x for
// seconds to minutes at a time, with CPU time inflating as much as wall
// time (contention for cores and caches).  No in-run statistic removes a
// slowdown that lasts the whole run.  The benchmark therefore times a frozen
// reference kernel shaped like the simulator's work (an event heap over a
// hash-map job table with small sorts, then allocation churn of small
// buffers like the protocol codec's) between operations, and divides each
// operation's times by the kernel's slowdown over its quiet-host time: wall
// times by the wall-clock slowdown, CPU times by the CPU-clock slowdown, so
// time the host steals from a thread inflates neither CPU figure.
//
// The kernel runs in a child process forked before the benchmark builds any
// simulator state, so it has its own heap and the simulator's allocations
// cannot move its time.  A month is timed between two kernel runs.  A
// fig_grid pass runs on every CPU, and the host's speed drifts within a
// pass, so its pool requests kernel runs as tasks among its cases: the
// requesting worker sleeps while the child runs, so the kernel takes that
// worker's place and shares the pass's time window and load.
#pragma once

#include <sys/types.h>

#include <mutex>
#include <vector>

namespace perfbench {

/// Wall and thread-CPU seconds of one reference-kernel run on the quiet
/// 4-vCPU Xeon host the benchmark was tuned on; normalized times are in
/// that host's seconds.
inline constexpr double kReferenceKernelWallS = 0.022;
inline constexpr double kReferenceKernelCpuS = 0.022;

struct KernelTimes {
  double wall_s = 0.0;
  double cpu_s = 0.0;
};

/// How much slower than the reference host this host ran.
struct Slowdown {
  double wall = 1.0;
  double cpu = 1.0;
};

/// Slowdown of the mean of `runs` (at least one) over the reference times.
Slowdown slowdown_of(const std::vector<KernelTimes>& runs);

/// Runs the reference kernel once in the calling thread.
KernelTimes reference_kernel();

/// A child process that runs the reference kernel on request.  Create it
/// before any simulator state exists; the destructor stops the child and
/// waits for it.
class HostSpeedProbe {
 public:
  HostSpeedProbe();
  ~HostSpeedProbe();
  HostSpeedProbe(const HostSpeedProbe&) = delete;
  HostSpeedProbe& operator=(const HostSpeedProbe&) = delete;

  /// Runs the kernel once in the child and returns its times.  Callers on
  /// several threads take turns.
  KernelTimes measure();

 private:
  std::mutex mu_;
  pid_t child_ = -1;
  int request_fd_ = -1;   ///< parent writes one byte per request
  int response_fd_ = -1;  ///< child answers with one KernelTimes
};

}  // namespace perfbench
