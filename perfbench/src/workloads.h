// The benchmark's workloads and the end-to-end pass that drives them over
// loopback against a self-hosted MembershipServer.
//
// System under test, fixed for every workload: SHARD16[PF[TC]] behind a
// FilterService with 2 workers, 1 event loop, query offload on, front cache
// off, server tracing off.  The generator uses at most 2 threads and 4
// connections.  The server only ever sees keys generated from --seed.
#ifndef PERFBENCH_SRC_WORKLOADS_H_
#define PERFBENCH_SRC_WORKLOADS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "src/net/membership_server.h"
#include "src/obs/metrics.h"
#include "src/service/filter_service.h"
#include "src/service/sharded_filter.h"
#include "src/workload/workload.h"
#include "wire.h"

namespace perfbench {

inline constexpr char kFilterName[] = "SHARD16[PF[TC]]";
inline constexpr uint32_t kServiceThreads = 2;
inline constexpr uint32_t kEventLoops = 1;
inline constexpr size_t kInsertFrameKeys = 4096;

enum class LoadShape { kClosedLoop, kOpenLoop, kConcurrentBuild };

struct WorkloadSpec {
  std::string name;
  int log2 = 16;             // capacity = round(0.94 * 2^log2) keys, all inserted
  std::string stream;        // src/workload standard-suite stream name
  uint64_t num_queries = 0;  // query stream length (cycled)
  LoadShape kind = LoadShape::kClosedLoop;
  size_t query_frame_keys = 4096;
  int connections = 1;           // query connections, one generator thread
  size_t query_depth = 8;        // QUERY_BATCH frames in flight per connection
  double frames_per_s = 0.0;     // open loop: offered rate
  int setups = 5;                // set-ups per run (median reported)
  int builds = 1;                // timed builds, on the last set-ups
  uint64_t ladder_queries = 0;   // query keys per ladder rung

  uint64_t Capacity() const;
};

const WorkloadSpec* FindWorkload(const std::string& name);
std::vector<std::string> WorkloadNames();

// The server and what it needs, torn down in reverse order.
struct Sut {
  std::unique_ptr<prefixfilter::obs::MetricsRegistry> registry;
  std::shared_ptr<prefixfilter::FilterService> service;
  std::unique_ptr<prefixfilter::net::MembershipServer> server;

  Sut() = default;
  ~Sut();
  Sut(const Sut&) = delete;
  Sut& operator=(const Sut&) = delete;
  bool Start(uint64_t capacity, std::string* error);
  uint16_t port() const { return server->port(); }
};

// An in-process ShardedFilter configured exactly like the server's, loaded
// with the same keys in the same INSERT_BATCH chunks: the reference every
// answer from service.shard up must equal byte for byte.
std::unique_ptr<prefixfilter::ShardedFilter> MakeShardReference(
    uint64_t capacity);
uint64_t InsertChunked(prefixfilter::ShardedFilter* filter,
                       const std::vector<uint64_t>& keys);

struct EndToEnd {
  double setup_s = 0.0;
  double insert_mkeys_per_s = 0.0;
  double query_mkeys_per_s = 0.0;
  double frame_p50_us = 0.0;
  double frame_p99_us = 0.0;
  double frame_mean_us = 0.0;
  uint64_t frames = 0;  // latency samples
  double gen_late_p99_us = 0.0;
  double fpr = 0.0;
  uint64_t false_positives = 0;  // exact, over the fixed query stream
  uint64_t negatives = 0;
  double fpr_bound = 0.0;
  double bits_per_key = 0.0;
  double peak_rss_mib = 0.0;
  // Server-side counters from the STATS v2 scrape.
  double frames_per_batch = 0.0;
  double request_ns_p50 = 0.0;
  double request_ns_p99 = 0.0;
  uint64_t backpressure_stalls = 0;
  Outcome outcome;
  std::vector<FrameSpan> query_spans;
  std::vector<FrameSpan> insert_spans;
};

// What an end-to-end pass leaves behind for the traced ladder.
struct Prepared {
  prefixfilter::workload::Stream stream;
  std::vector<uint8_t> ref;  // reference answers for stream.queries
  std::unique_ptr<Sut> sut;  // loaded server, still running
};

// Runs one workload end to end for `seconds` of timed work.  `setups`
// overrides the spec's set-up count when > 0.  With `keep` non-null the
// loaded server, stream and reference answers are handed over.
EndToEnd RunEndToEnd(const WorkloadSpec& spec, uint64_t seed, double seconds,
                     int setups, bool record_spans, Prepared* keep);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_WORKLOADS_H_
