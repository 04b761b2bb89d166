#include "bench.h"

#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>

namespace perfbench {

double PeakRssMib() {
  rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

uint16_t SpanLog::Intern(const std::string& name) {
  auto it = index_.find(name);
  if (it != index_.end()) return it->second;
  const uint16_t id = static_cast<uint16_t>(names_.size());
  names_.push_back(name);
  index_.emplace(name, id);
  return id;
}

bool SpanLog::WriteJsonl(const std::string& path,
                         const std::string& header_fields) const {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  uint64_t origin = UINT64_MAX;
  for (const Span& s : spans_) origin = std::min(origin, s.start_ns);
  if (spans_.empty()) origin = 0;
  std::string names = "[";
  for (size_t i = 0; i < names_.size(); ++i) {
    names += (i == 0 ? "\"" : ", \"") + names_[i] + "\"";
  }
  names += "]";
  std::fprintf(f,
               "{\"format\": \"perfbench-spans-v1\", %s, \"origin_ns\": "
               "%" PRIu64 ", \"names\": %s, \"fields\": [\"trace\", "
               "\"span\", \"parent\", \"name\", \"start_ns\", \"end_ns\", "
               "\"keys\"]}\n",
               header_fields.c_str(), origin, names.c_str());
  for (const Span& s : spans_) {
    std::fprintf(f,
                 "[%" PRIu64 ",%u,%u,%u,%" PRIu64 ",%" PRIu64 ",%" PRIu64
                 "]\n",
                 s.trace, s.id, s.parent, static_cast<unsigned>(s.name),
                 s.start_ns - origin, s.end_ns - origin, s.keys);
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
