// Shared pieces of the repository benchmark: the clock, percentiles, the
// span log the traced run writes, and the metric/outcome records every
// workload fills in.
#ifndef PERFBENCH_SRC_BENCH_H_
#define PERFBENCH_SRC_BENCH_H_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

inline uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// Nearest-rank percentile (q in [0, 1]) of an unsorted sample; 0 when empty.
template <typename T>
double Percentile(std::vector<T> values, double q) {
  if (values.empty()) return 0.0;
  const size_t rank = static_cast<size_t>(
      std::max(0.0, std::min(1.0, q)) * static_cast<double>(values.size() - 1) +
      0.5);
  std::nth_element(values.begin(), values.begin() + static_cast<long>(rank),
                   values.end());
  return static_cast<double>(values[rank]);
}

// High-water resident set of this process, in MiB.
double PeakRssMib();

// One timed interval at a layer boundary.  Spans of the same frame of keys
// share `trace` across every layer that processed it; `parent` links a
// frame's span to the pass that issued it.
struct Span {
  uint64_t trace = 0;
  uint32_t id = 0;
  uint32_t parent = 0;  // 0 = root
  uint16_t name = 0;    // interned by SpanLog::Intern
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  uint64_t keys = 0;
};

// In-memory span store, written out once when the benchmark ends.
// Single-threaded: concurrent passes buffer their spans and hand them over
// after joining.
class SpanLog {
 public:
  uint32_t NewId() { return ++last_id_; }
  uint16_t Intern(const std::string& name);
  void Add(uint16_t name, uint32_t id, uint32_t parent, uint64_t trace,
           uint64_t start_ns, uint64_t end_ns, uint64_t keys) {
    spans_.push_back({trace, id, parent, name, start_ns, end_ns, keys});
  }
  const std::vector<Span>& spans() const { return spans_; }

  // JSON lines: one header object (format tag, `header_fields` verbatim as
  // JSON object members, the time origin, the name table, the field order),
  // then one array per span with times relative to the origin.
  bool WriteJsonl(const std::string& path,
                  const std::string& header_fields) const;

 private:
  uint32_t last_id_ = 0;
  std::vector<Span> spans_;
  std::vector<std::string> names_;
  std::map<std::string, uint16_t> index_;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

// Correctness accounting shared by every pass.  Counts are in keys; a run
// is correct when nothing failed and no gate tripped.
struct Outcome {
  uint64_t attempted = 0;
  uint64_t error_keys = 0;      // keys in error-flagged or undecodable frames
  uint64_t transport_keys = 0;  // keys in frames lost to a socket failure
  uint64_t rejected = 0;        // inserts the filter reported as failed
  uint64_t mismatches = 0;      // answers differing from the reference
  uint64_t false_negatives = 0;
  std::vector<std::string> problems;  // gate failures, human-readable

  uint64_t failed() const {
    return error_keys + transport_keys + rejected + mismatches +
           false_negatives;
  }
  bool correct() const { return failed() == 0 && problems.empty(); }
  void Fail(const std::string& message) { problems.push_back(message); }
  void Merge(const Outcome& other) {
    attempted += other.attempted;
    error_keys += other.error_keys;
    transport_keys += other.transport_keys;
    rejected += other.rejected;
    mismatches += other.mismatches;
    false_negatives += other.false_negatives;
    problems.insert(problems.end(), other.problems.begin(),
                    other.problems.end());
  }
};

}  // namespace perfbench

#endif  // PERFBENCH_SRC_BENCH_H_
