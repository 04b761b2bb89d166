// The traced per-layer ladder: a workload's key stream pushed through the
// public entry point of every layer beneath the wire, one pass per layer,
// with a span around every call.
//
//   core.pf        PrefixFilter<SpareTcTraits> (concrete, single thread)
//   core.any       MakeFilter("PF[TC]") behind AnyFilter
//   service.shard  ShardedFilter configured like the server's
//   service.sync   FilterService::InsertBatchSync / QueryBatchSync
//   service.async  FilterService::QueryBatchAsync, one batch in flight
//   net.codec      protocol encode/decode of the same frames
//   net.client     MembershipClient against the loaded server: QueryBatch one
//                  frame per round trip, then QueryPipelined windows
//
// A layer's self time is its ns/key minus the ns/key of the layer below.
// Every rung from service.shard up must answer byte-identically to the
// reference answers of the end-to-end pass.
#ifndef PERFBENCH_SRC_LADDER_H_
#define PERFBENCH_SRC_LADDER_H_

#include <string>
#include <vector>

#include "bench.h"
#include "workloads.h"

namespace perfbench {

// Layer order for self time: each entry's self time subtracts the entry
// before it.  Written into the spans file header so the table can be
// rebuilt from the file alone.
const std::vector<std::string>& LadderQueryOrder();
const std::vector<std::string>& LadderInsertOrder();

struct LadderResult {
  std::vector<Metric> metrics;
  Outcome outcome;
};

// `prepared` must hold the end-to-end pass's stream, reference answers and
// its still-running loaded server.  Spans go to `log` under `parent`.
LadderResult RunLadder(const WorkloadSpec& spec, const Prepared& prepared,
                       SpanLog* log, uint32_t parent);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_LADDER_H_
