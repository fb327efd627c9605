#include "measure.h"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>

namespace perfbench {

double NowSeconds() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Usage ReadUsage() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  Usage usage;
  usage.user_s = static_cast<double>(ru.ru_utime.tv_sec) + ru.ru_utime.tv_usec * 1e-6;
  usage.sys_s = static_cast<double>(ru.ru_stime.tv_sec) + ru.ru_stime.tv_usec * 1e-6;
  usage.ctx_switches = ru.ru_nvcsw + ru.ru_nivcsw;
  return usage;
}

Usage operator-(const Usage& a, const Usage& b) {
  Usage d;
  d.user_s = a.user_s - b.user_s;
  d.sys_s = a.sys_s - b.sys_s;
  d.ctx_switches = a.ctx_switches - b.ctx_switches;
  return d;
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB on Linux.
}

HostCpu ReadHostCpu() {
  HostCpu cpu;
  std::FILE* stat = std::fopen("/proc/stat", "r");
  if (stat == nullptr) {
    return cpu;
  }
  unsigned long long v[8] = {0, 0, 0, 0, 0, 0, 0, 0};  // user nice system idle iowait irq
                                                        // softirq steal
  if (std::fscanf(stat, "cpu %llu %llu %llu %llu %llu %llu %llu %llu", &v[0], &v[1], &v[2],
                  &v[3], &v[4], &v[5], &v[6], &v[7]) == 8) {
    cpu.busy = v[0] + v[1] + v[2] + v[5] + v[6] + v[7];
    cpu.steal = v[7];
  }
  std::fclose(stat);
  return cpu;
}

double StealShare(const HostCpu& start, const HostCpu& end) {
  uint64_t busy = end.busy - start.busy;
  return busy > 0 ? static_cast<double>(end.steal - start.steal) / static_cast<double>(busy)
                  : 0;
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0;
  }
  std::sort(values.begin(), values.end());
  double rank = q * static_cast<double>(values.size() - 1);
  size_t lo = static_cast<size_t>(std::floor(rank));
  size_t hi = std::min(lo + 1, values.size() - 1);
  double frac = rank - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double Sum(const std::vector<double>& values) {
  double total = 0;
  for (double v : values) {
    total += v;
  }
  return total;
}

namespace {

std::string FormatCpuSet(const cpu_set_t& set) {
  std::string out;
  int run_start = -1;
  for (int cpu = 0; cpu <= CPU_SETSIZE; cpu++) {
    bool in = cpu < CPU_SETSIZE && CPU_ISSET(cpu, &set);
    if (in && run_start < 0) {
      run_start = cpu;
    } else if (!in && run_start >= 0) {
      if (!out.empty()) {
        out += ',';
      }
      out += std::to_string(run_start);
      if (cpu - 1 > run_start) {
        out += '-';
        out += std::to_string(cpu - 1);
      }
      run_start = -1;
    }
  }
  return out;
}

}  // namespace

std::string PinToOneCpu() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) {
    return "";
  }
  for (int cpu = 0; cpu < CPU_SETSIZE; cpu++) {
    if (CPU_ISSET(cpu, &allowed)) {
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(cpu, &one);
      if (sched_setaffinity(0, sizeof(one), &one) != 0) {
        return "";
      }
      return std::to_string(cpu);
    }
  }
  return "";
}

bool PinProcessToCpu(int cpu) {
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  std::error_code error;
  bool ok = true;
  for (const auto& task : std::filesystem::directory_iterator("/proc/self/task", error)) {
    pid_t tid = static_cast<pid_t>(std::stol(task.path().filename().string()));
    if (sched_setaffinity(tid, sizeof(one), &one) != 0 && errno != ESRCH) {  // ESRCH: exited.
      ok = false;
    }
  }
  return ok && !error;
}

std::vector<int> AllowedCpuList() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof(allowed), &allowed) == 0) {
    for (int cpu = 0; cpu < CPU_SETSIZE; cpu++) {
      if (CPU_ISSET(cpu, &allowed)) {
        cpus.push_back(cpu);
      }
    }
  }
  return cpus;
}

std::string AllowedCpus() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) {
    return "";
  }
  return FormatCpuSet(allowed);
}

int AllowedCpuCount() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) {
    return 1;
  }
  return std::max(1, CPU_COUNT(&allowed));
}

namespace {
volatile uint64_t g_host_ref_sink;  // Keeps the reference loop from being optimized away.
}  // namespace

double HostRefMs() {
  double start = NowSeconds();
  uint64_t x = 0x9e3779b97f4a7c15ull;
  for (int i = 0; i < 40'000'000; i++) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    x ^= x >> 29;
  }
  g_host_ref_sink = x;
  return (NowSeconds() - start) * 1e3;
}

uint64_t Mix(uint64_t seed, uint64_t index) {
  uint64_t z = seed * 0x9e3779b97f4a7c15ull + index + 0x632be59bd9b4e019ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

int SpanTrace::Begin(const std::string& layer) {
  Span span;
  span.layer = layer;
  span.parent = open_.empty() ? -1 : open_.back();
  span.start = NowSeconds();
  spans_.push_back(std::move(span));
  int id = static_cast<int>(spans_.size()) - 1;
  open_.push_back(id);
  return id;
}

void SpanTrace::End(int id) {
  spans_[id].end = NowSeconds();
  if (!open_.empty() && open_.back() == id) {
    open_.pop_back();
  }
}

std::map<std::string, double> SpanTrace::SelfTimes() const {
  std::vector<double> child_time(spans_.size(), 0);
  for (const Span& span : spans_) {
    if (span.parent >= 0) {
      child_time[span.parent] += span.end - span.start;
    }
  }
  std::map<std::string, double> self;
  for (size_t i = 0; i < spans_.size(); i++) {
    self[spans_[i].layer] += spans_[i].end - spans_[i].start - child_time[i];
  }
  return self;
}

std::map<std::string, double> SpanTrace::TotalTimes() const {
  std::map<std::string, double> total;
  for (const Span& span : spans_) {
    total[span.layer] += span.end - span.start;
  }
  return total;
}

}  // namespace perfbench
