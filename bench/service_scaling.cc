// Sharded-service scaling grid: batched mixed-stream query throughput as a
// function of client threads x shards, against the single-filter baseline.
//
// Workload: a 50/50 positive/negative stream (the paper's §7.3 mixed round),
// pre-partitioned into per-thread slices; every thread owns a BatchRouter
// and drives ShardedFilter::ContainsBatch over its slice in batches of 4096,
// so each batch pays one lock per touched shard and rides the prefetching
// batch path inside each shard.  With 1 shard every thread serializes on one
// lock; with >= threads shards the locks spread and throughput scales with
// cores (the acceptance target: >= 3x single-thread at 8 threads on
// hardware with >= 8 cores).
//
// The last table is the fan-out sweep: where handing a batch's shard groups
// to idle FilterService workers (the fork-join path) starts to pay.  Run it
// once in cache (--n-log2=16) and once out of it (--n-log2=24).
//
//   bench_service_scaling [--n-log2=L] [--seed=S] [--csv]
#include <algorithm>
#include <cinttypes>
#include <memory>
#include <thread>
#include <vector>

#include "bench/harness.h"
#include "src/service/batch_router.h"
#include "src/service/filter_service.h"
#include "src/service/sharded_filter.h"

namespace {

using prefixfilter::BatchRouter;
using prefixfilter::FilterService;
using prefixfilter::FilterServiceOptions;
using prefixfilter::ShardedFilter;
using prefixfilter::ShardedFilterOptions;

constexpr size_t kBatch = 4096;

// Fan-out sweep shape: SHARD16[PF[TC]] behind a 2-worker service, driven by
// one thread, so both workers are idle and free to help.
constexpr uint32_t kSweepShards = 16;
constexpr uint32_t kSweepWorkers = 2;
constexpr int kSweepReps = 5;
constexpr size_t kSweepBatches[] = {256,  512,  1024,  2048,
                                    4096, 8192, 16384, 32768};

std::shared_ptr<ShardedFilter> MakeSweepFilter(uint64_t n, uint64_t seed) {
  ShardedFilterOptions options;
  options.num_shards = kSweepShards;
  options.backend = "PF[TC]";
  options.seed = seed;
  return std::shared_ptr<ShardedFilter>(ShardedFilter::Make(n, options));
}

// A service whose batches of at least `batch` keys fan out over
// kSweepWorkers workers, or (workers == 0) one that runs every batch's
// groups in order on the caller.
std::unique_ptr<FilterService> MakeSweepService(
    std::shared_ptr<ShardedFilter> filter, uint32_t workers, size_t batch,
    prefixfilter::obs::MetricsRegistry* registry) {
  FilterServiceOptions options;
  options.num_threads = workers;
  options.registry = registry;
  auto service = std::make_unique<FilterService>(std::move(filter), options);
  service->SetFanoutMinKeysForTesting(batch);
  return service;
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

// QueryBatchSync ns/key over `total` stream keys in batches of `batch`.
double SweepQueryNs(FilterService& service,
                    const std::vector<uint64_t>& stream, size_t batch,
                    size_t total) {
  std::vector<uint8_t> out(batch);
  uint64_t found = 0;
  size_t done = 0;
  size_t base = 0;
  prefixfilter::bench::Timer timer;
  while (done < total) {
    if (base + batch > stream.size()) base = 0;
    service.QueryBatchSync(stream.data() + base, batch, out.data());
    found += out[0];
    base += batch;
    done += batch;
  }
  const double secs = timer.Seconds();
  prefixfilter::bench::KeepAlive(found);
  return secs * 1e9 / static_cast<double>(done);
}

// InsertBatchSync ns/key: `builds` fresh filters, each filled with every
// key in batches of `batch` (construction is not timed).
double SweepInsertNs(const std::vector<uint64_t>& keys, uint64_t n,
                     uint64_t seed, uint32_t workers, size_t batch,
                     int builds) {
  double secs = 0;
  for (int b = 0; b < builds; ++b) {
    prefixfilter::obs::MetricsRegistry registry;
    auto service =
        MakeSweepService(MakeSweepFilter(n, seed), workers, batch, &registry);
    prefixfilter::bench::Timer timer;
    for (size_t base = 0; base < keys.size(); base += batch) {
      service->InsertBatchSync(keys.data() + base,
                               std::min(batch, keys.size() - base));
    }
    secs += timer.Seconds();
  }
  return secs * 1e9 / static_cast<double>(keys.size() * builds);
}

// Prints in-order vs fanned-out ns/key at every sweep batch size; a ratio
// below 1 means fan-out pays at that size.
void RunFanoutSweep(const std::vector<uint64_t>& keys,
                    const std::vector<uint64_t>& stream, uint64_t n,
                    uint64_t seed, bool csv,
                    prefixfilter::bench::BenchRunner* runner) {
  // 4M keys per timed rep: tens of milliseconds even in cache.
  const size_t query_total = size_t{1} << 22;
  const int builds =
      static_cast<int>(std::max<uint64_t>(1, (uint64_t{1} << 22) / n));
  prefixfilter::obs::MetricsRegistry in_order_registry;
  prefixfilter::obs::MetricsRegistry fanned_registry;
  auto in_order_filter = MakeSweepFilter(n, seed);
  auto fanned_filter = MakeSweepFilter(n, seed);
  in_order_filter->InsertBatch(keys.data(), keys.size());
  fanned_filter->InsertBatch(keys.data(), keys.size());
  auto in_order = MakeSweepService(in_order_filter, 0, 0, &in_order_registry);
  auto fanned = MakeSweepService(fanned_filter, kSweepWorkers, 0,
                                 &fanned_registry);
  if (csv) {
    std::printf("fanout_batch,query_in_order_ns,query_fanned_ns,"
                "insert_in_order_ns,insert_fanned_ns\n");
  } else {
    std::printf("\nfan-out sweep: SHARD%u[PF[TC]], n=%" PRIu64
                ", one caller, %u idle workers, ns/key (median of %d)\n",
                kSweepShards, n, kSweepWorkers, kSweepReps);
    std::printf("%8s | %9s %9s %6s | %9s %9s %6s\n", "batch", "q order",
                "q fanned", "ratio", "i order", "i fanned", "ratio");
  }
  for (const size_t batch : kSweepBatches) {
    fanned->SetFanoutMinKeysForTesting(batch);
    std::vector<double> q_order, q_fanned, i_order, i_fanned;
    // Interleaved so host noise lands on both sides alike.
    for (int rep = 0; rep < kSweepReps; ++rep) {
      q_order.push_back(SweepQueryNs(*in_order, stream, batch, query_total));
      q_fanned.push_back(SweepQueryNs(*fanned, stream, batch, query_total));
      i_order.push_back(SweepInsertNs(keys, n, seed, 0, batch, builds));
      i_fanned.push_back(
          SweepInsertNs(keys, n, seed, kSweepWorkers, batch, builds));
    }
    const double qo = Median(q_order), qf = Median(q_fanned);
    const double io = Median(i_order), jf = Median(i_fanned);
    if (csv) {
      std::printf("%zu,%.2f,%.2f,%.2f,%.2f\n", batch, qo, qf, io, jf);
    } else {
      std::printf("%8zu | %9.2f %9.2f %6.2f | %9.2f %9.2f %6.2f\n", batch,
                  qo, qf, qf / qo, io, jf, jf / io);
    }
    char workload[48];
    std::snprintf(workload, sizeof(workload), "fanout-sweep,batch=%zu",
                  batch);
    prefixfilter::json::Value m = prefixfilter::json::Value::MakeObject();
    m.Set("query_in_order_ns_per_key", qo);
    m.Set("query_fanned_ns_per_key", qf);
    m.Set("insert_in_order_ns_per_key", io);
    m.Set("insert_fanned_ns_per_key", jf);
    runner->Add("SHARD16[PF[TC]]", workload, std::move(m));
  }
}

struct Cell {
  double mops = 0;
  uint64_t hits = 0;
};

// Each thread routes its slice of the stream in batches; returns aggregate
// throughput over the slowest thread's wall time (the honest fleet number).
Cell RunCell(const ShardedFilter& filter, const std::vector<uint64_t>& stream,
             int threads) {
  std::vector<uint64_t> hits(threads, 0);
  std::vector<std::thread> pool;
  const size_t per_thread = stream.size() / threads;
  prefixfilter::bench::Timer timer;
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([&, t]() {
      BatchRouter router;
      std::vector<uint8_t> out(kBatch);
      const size_t begin = t * per_thread;
      const size_t end = (t == threads - 1) ? stream.size() : begin + per_thread;
      uint64_t local_hits = 0;
      for (size_t base = begin; base < end; base += kBatch) {
        const size_t count = std::min(kBatch, end - base);
        router.Route(filter, stream.data() + base, count, out.data());
        for (size_t i = 0; i < count; ++i) local_hits += out[i];
      }
      hits[t] = local_hits;
    });
  }
  for (auto& th : pool) th.join();
  const double secs = timer.Seconds();
  Cell cell;
  cell.mops = prefixfilter::bench::OpsPerSec(stream.size(), secs) / 1e6;
  for (uint64_t h : hits) cell.hits += h;
  prefixfilter::bench::KeepAlive(cell.hits);
  return cell;
}

}  // namespace

int main(int argc, char** argv) {
  const auto options = prefixfilter::bench::ParseOptions(argc, argv);
  const uint64_t n = options.n();

  // Mixed 50/50 positive/negative stream from the standard workload suite
  // (the same "mixed-50-50" cell bench_all sweeps, at 2n queries).
  prefixfilter::workload::Spec spec;
  if (!prefixfilter::workload::FindStandardSpec("mixed-50-50", n, 2 * n,
                                                options.seed, &spec)) {
    return 2;
  }
  const prefixfilter::workload::Stream generated =
      prefixfilter::workload::Generate(spec);
  const std::vector<uint64_t>& keys = generated.insert_keys;
  const std::vector<uint64_t>& stream = generated.queries;

  const int hw = static_cast<int>(std::thread::hardware_concurrency());
  std::printf("# service_scaling: n=%" PRIu64 " stream=%zu hw_threads=%d\n",
              n, stream.size(), hw);

  const std::vector<uint32_t> shard_counts = {1, 4, 16, 64};
  const std::vector<int> thread_counts = {1, 2, 4, 8};
  prefixfilter::bench::BenchRunner runner("service_scaling", options);

  if (options.csv) {
    std::printf("shards,threads,mqps,speedup_vs_1thread\n");
  } else {
    std::printf("%-22s |", "batched queries, Mq/s");
    for (int t : thread_counts) std::printf("  %2d thr |", t);
    std::printf(" 8thr/1thr\n");
  }

  for (uint32_t shards : shard_counts) {
    ShardedFilterOptions sharded_options;
    sharded_options.num_shards = shards;
    sharded_options.backend = "PF[TC]";
    sharded_options.seed = options.seed;
    auto filter = ShardedFilter::Make(n, sharded_options);
    if (filter == nullptr) {
      std::fprintf(stderr, "failed to build SHARD%u[PF[TC]]\n", shards);
      return 1;
    }
    const uint64_t failures = filter->InsertBatch(keys.data(), keys.size());
    if (failures != 0) {
      std::fprintf(stderr, "SHARD%u: %" PRIu64 " insert failures\n", shards,
                   failures);
      return 1;
    }
    double first = 0, last = 0;
    if (!options.csv) std::printf("%-22s |", filter->Name().c_str());
    for (int threads : thread_counts) {
      const Cell cell = RunCell(*filter, stream, threads);
      if (threads == thread_counts.front()) first = cell.mops;
      last = cell.mops;
      if (options.csv) {
        std::printf("SHARD%u,%d,%.2f,%.2f\n", shards, threads, cell.mops,
                    first > 0 ? cell.mops / first : 0.0);
      } else {
        std::printf(" %6.1f |", cell.mops);
      }
      char workload[48];
      std::snprintf(workload, sizeof(workload), "mixed-50-50,threads=%d",
                    threads);
      prefixfilter::json::Value m = prefixfilter::json::Value::MakeObject();
      m.Set("batched_query_mops", cell.mops);
      m.Set("speedup_vs_1thread", first > 0 ? cell.mops / first : 0.0);
      runner.Add(filter->Name(), workload, std::move(m));
    }
    if (!options.csv) {
      std::printf("   %5.2fx\n", first > 0 ? last / first : 0.0);
    }
  }

  // Single unsharded prefix filter, one thread: the paper-level baseline the
  // sharded grid is normalized against.
  {
    auto single = prefixfilter::MakeFilter("PF[TC]", n, options.seed);
    for (uint64_t k : keys) single->Insert(k);
    std::vector<uint8_t> out(kBatch);
    uint64_t found = 0;
    prefixfilter::bench::Timer timer;
    for (size_t base = 0; base < stream.size(); base += kBatch) {
      const size_t count = std::min(kBatch, stream.size() - base);
      single->ContainsBatch(stream.data() + base, count, out.data());
      for (size_t i = 0; i < count; ++i) found += out[i];
    }
    const double secs = timer.Seconds();
    prefixfilter::bench::KeepAlive(found);
    const double mqps =
        prefixfilter::bench::OpsPerSec(stream.size(), secs) / 1e6;
    if (options.csv) {
      std::printf("PF,1,%.2f,1.00\n", mqps);
    } else {
      std::printf("%-22s | %6.1f | (unsharded baseline)\n", "PF[TC] single",
                  mqps);
    }
    prefixfilter::json::Value m = prefixfilter::json::Value::MakeObject();
    m.Set("batched_query_mops", mqps);
    runner.Add("PF[TC]", "mixed-50-50,threads=1", std::move(m));
  }

  // Scalar fast path (ROADMAP: SHARD16 paid ~35-40% single-thread overhead
  // on non-batched queries): 1-key ContainsBatch calls now route inline, so
  // the sharded filter's scalar rate should sit within a few percent of its
  // inner filter instead of paying the full counting-sort setup per key.
  {
    ShardedFilterOptions sharded_options;
    sharded_options.num_shards = 16;
    sharded_options.backend = "PF[TC]";
    sharded_options.seed = options.seed;
    auto sharded = ShardedFilter::Make(n, sharded_options);
    auto inner = prefixfilter::MakeFilter("PF[TC]", n, options.seed);
    sharded->InsertBatch(keys.data(), keys.size());
    for (uint64_t k : keys) inner->Insert(k);

    auto scalar_mqps = [&](const prefixfilter::AnyFilter& filter) {
      uint64_t found = 0;
      uint8_t one = 0;
      prefixfilter::bench::Timer timer;
      for (uint64_t k : stream) {
        filter.ContainsBatch(&k, 1, &one);  // the 1-key batch fast path
        found += one;
      }
      const double secs = timer.Seconds();
      prefixfilter::bench::KeepAlive(found);
      return prefixfilter::bench::OpsPerSec(stream.size(), secs) / 1e6;
    };
    const double sharded_mqps = scalar_mqps(*sharded);
    const double inner_mqps = scalar_mqps(*inner);
    const double overhead_pct =
        inner_mqps > 0 ? 100.0 * (inner_mqps - sharded_mqps) / inner_mqps
                       : 0.0;
    if (options.csv) {
      std::printf("SHARD16-scalar,1,%.2f,%.2f\nPF-scalar,1,%.2f,1.00\n",
                  sharded_mqps, overhead_pct, inner_mqps);
    } else {
      std::printf("%-22s | %6.1f | vs inner %6.1f -> %+.1f%% overhead "
                  "(scalar 1-key fast path)\n",
                  "SHARD16[PF[TC]] scalar", sharded_mqps, inner_mqps,
                  overhead_pct);
    }
    prefixfilter::json::Value m = prefixfilter::json::Value::MakeObject();
    m.Set("scalar_query_mops", sharded_mqps);
    m.Set("inner_scalar_query_mops", inner_mqps);
    m.Set("scalar_overhead_pct", overhead_pct);
    runner.Add("SHARD16[PF[TC]]", "mixed-50-50,scalar", std::move(m));
  }
  RunFanoutSweep(keys, stream, n, options.seed, options.csv, &runner);
  if (!runner.WriteJsonIfRequested()) return 1;
  return 0;
}
