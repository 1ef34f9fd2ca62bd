#pragma once
// In-memory trace spans, written out once when the run ends. Spans of one
// session carry the session index as their request id.

#include <time.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace perfbench {

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// CPU seconds so far of this process (CLOCK_PROCESS_CPUTIME_ID) or of the
/// calling thread (CLOCK_THREAD_CPUTIME_ID).
inline double cpu_clock_s(clockid_t clock) {
  timespec ts{};
  ::clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

struct Span {
  std::uint32_t name = 0;  ///< index into SpanLog::names
  std::uint64_t request = 0;
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
};

class SpanLog {
 public:
  /// Registers a span name; returns its id.
  std::uint32_t name(const std::string& n) {
    names_.push_back(n);
    return static_cast<std::uint32_t>(names_.size() - 1);
  }
  void add(std::uint32_t name, std::uint64_t request, std::uint64_t start,
           std::uint64_t end) {
    spans_.push_back({name, request, start, end});
  }

  /// The duration of every span called `name`.
  std::vector<double> durations_ns(const std::string& name) const {
    std::vector<double> out;
    for (const auto& s : spans_) {
      if (names_[s.name] == name) {
        out.push_back(static_cast<double>(s.end_ns - s.start_ns));
      }
    }
    return out;
  }

  /// Writes "name,request,start_ns,end_ns" lines; false on error.
  bool write_csv(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "name,request,start_ns,end_ns\n");
    for (const auto& s : spans_) {
      std::fprintf(f, "%s,%llu,%llu,%llu\n", names_[s.name].c_str(),
                   static_cast<unsigned long long>(s.request),
                   static_cast<unsigned long long>(s.start_ns),
                   static_cast<unsigned long long>(s.end_ns));
    }
    return std::fclose(f) == 0;
  }

 private:
  std::vector<std::string> names_;
  std::vector<Span> spans_;
};

}  // namespace perfbench
