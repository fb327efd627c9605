// Measurement primitives of the repository benchmark: clocks, process resource usage,
// order statistics, CPU pinning, the host reference loop, and the span recorder the traced
// run uses to attribute wall time to layers.
//
// Everything here observes the system from outside: spans wrap calls into the snowboard
// libraries from the benchmark's own code; nothing is recorded inside src/.
#ifndef PERFBENCH_MEASURE_H_
#define PERFBENCH_MEASURE_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

double NowSeconds();  // Monotonic clock.

// Process-wide resource usage (getrusage RUSAGE_SELF: every thread of the process).
struct Usage {
  double user_s = 0;
  double sys_s = 0;
  int64_t ctx_switches = 0;  // Voluntary + involuntary.
  double cpu_s() const { return user_s + sys_s; }
};
Usage ReadUsage();
Usage operator-(const Usage& a, const Usage& b);
double PeakRssMb();

// Machine-wide CPU time from /proc/stat (clock ticks). Under a hypervisor, `steal` is time a
// virtual CPU was runnable but not running; its share of busy time shows host contention.
struct HostCpu {
  uint64_t busy = 0;   // user + nice + system + irq + softirq + steal.
  uint64_t steal = 0;
};
HostCpu ReadHostCpu();
double StealShare(const HostCpu& start, const HostCpu& end);

// Order statistics over a copy of `values` (0 for an empty set). `q` in [0, 1]; linear
// interpolation between closest ranks.
double Quantile(std::vector<double> values, double q);
inline double Median(const std::vector<double>& values) { return Quantile(values, 0.5); }
double Sum(const std::vector<double>& values);

// Restricts the calling thread — and so every thread it starts later — to the first CPU of
// its allowed set. Returns the CPU list it pinned to ("3"), or "" on failure.
std::string PinToOneCpu();
// Moves every thread of the process to `cpu` alone (threads started later inherit it from
// their creator). False if any thread could not be moved.
bool PinProcessToCpu(int cpu);
// The CPUs in the calling thread's allowed set, ascending.
std::vector<int> AllowedCpuList();
// The allowed CPU set of the calling thread, as a list ("0-3" style, comma separated).
std::string AllowedCpus();
int AllowedCpuCount();

// A fixed single-thread integer loop, timed in milliseconds. It touches no snowboard code,
// so its drift between the start and end of a run is drift of the host, not of the program.
double HostRefMs();

// Deterministic 64-bit mixer (splitmix64): derives per-campaign seeds from --seed.
uint64_t Mix(uint64_t seed, uint64_t index);

// Span recorder for the traced run. Spans nest (a span opened while another is open is its
// child); a layer's self time is its spans' duration minus the time covered by their
// children. Single-threaded by design: the traced phases run every measured call on the
// thread that records them.
class SpanTrace {
 public:
  struct Span {
    std::string layer;
    double start = 0;
    double end = 0;
    int parent = -1;
  };

  int Begin(const std::string& layer);
  void End(int id);

  // layer -> summed self time (seconds).
  std::map<std::string, double> SelfTimes() const;
  // layer -> summed total (inclusive) time (seconds).
  std::map<std::string, double> TotalTimes() const;
  size_t size() const { return spans_.size(); }

 private:
  std::vector<Span> spans_;
  std::vector<int> open_;
};

// RAII span; a null trace records nothing (the untraced configuration).
class ScopedSpan {
 public:
  ScopedSpan(SpanTrace* trace, const std::string& layer)
      : trace_(trace), id_(trace != nullptr ? trace->Begin(layer) : -1) {}
  ~ScopedSpan() {
    if (trace_ != nullptr) {
      trace_->End(id_);
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanTrace* trace_;
  int id_;
};

}  // namespace perfbench

#endif  // PERFBENCH_MEASURE_H_
