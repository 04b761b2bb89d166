#include "workloads.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <thread>

#include "src/core/prefix_filter.h"
#include "src/core/spare.h"
#include "src/net/membership_client.h"
#include "src/util/random.h"

namespace perfbench {

namespace net = prefixfilter::net;
namespace obs = prefixfilter::obs;
namespace workload = prefixfilter::workload;
using prefixfilter::ShardedFilter;

namespace {

// Insert frames a build-rw writer keeps in flight.
constexpr size_t kInsertDepth = 4;
// Least time any query phase runs, however long the build took.
constexpr double kMinQuerySeconds = 1.0;
// INSERT_BATCH round trips per window of the insert rate.
constexpr size_t kInsertWindowFrames = 16;
// Answered frames per window of the query figures (see Windowed).
constexpr size_t kWindowFrames = 1000;

const std::vector<WorkloadSpec>& Workloads() {
  static const std::vector<WorkloadSpec> specs = [] {
    std::vector<WorkloadSpec> v;
    WorkloadSpec bulk;
    bulk.name = "bulk-oocache";
    bulk.log2 = 24;
    bulk.stream = "mixed-50-50";
    bulk.num_queries = uint64_t{1} << 22;
    bulk.kind = LoadShape::kClosedLoop;
    bulk.query_frame_keys = 4096;
    bulk.connections = 2;
    bulk.query_depth = 8;
    bulk.setups = 7;
    bulk.builds = 3;
    bulk.ladder_queries = uint64_t{1} << 22;
    v.push_back(bulk);

    WorkloadSpec small;
    small.name = "small-frames-incache";
    small.log2 = 16;
    small.stream = "uniform-negative";
    small.num_queries = uint64_t{1} << 21;
    small.kind = LoadShape::kOpenLoop;
    small.query_frame_keys = 16;
    small.connections = 4;
    small.query_depth = 8;
    small.frames_per_s = 20000.0;
    small.setups = 128;
    small.builds = 128;
    small.ladder_queries = uint64_t{1} << 17;
    v.push_back(small);

    WorkloadSpec rw;
    rw.name = "build-rw";
    rw.log2 = 22;
    rw.stream = "mixed-50-50";
    rw.num_queries = uint64_t{1} << 21;
    rw.kind = LoadShape::kConcurrentBuild;
    rw.query_frame_keys = 4096;
    rw.connections = 1;
    rw.query_depth = 4;
    rw.setups = 5;
    rw.builds = 0;
    rw.ladder_queries = uint64_t{1} << 21;
    v.push_back(rw);
    return v;
  }();
  return specs;
}

double Seconds(uint64_t ns) { return static_cast<double>(ns) * 1e-9; }

double Median(std::vector<double> values) {
  return Percentile(std::move(values), 0.5);
}

// Mean of the middle half of a sample (the quarter at each end dropped).
// Like the median it ignores the few windows a host stall spoils, but when
// the windows fall into two modes it moves smoothly with their mix instead
// of jumping from one mode to the other as the mix passes one half.
double InterquartileMean(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t drop = values.size() / 4;
  double sum = 0.0;
  for (size_t i = drop; i < values.size() - drop; ++i) sum += values[i];
  return sum / static_cast<double>(values.size() - 2 * drop);
}

// Build-rw query frames: half keys whose insert was already acknowledged
// (must answer present), half fresh uniform keys (negative with
// overwhelming probability, any answer accepted while the filter grows).
class BuildRwSource : public QuerySource {
 public:
  BuildRwSource(const std::vector<uint64_t>& inserted,
                const std::atomic<uint64_t>* acked, size_t frame_keys,
                uint64_t seed)
      : inserted_(inserted),
        acked_(acked),
        frame_keys_(frame_keys),
        rng_(seed),
        keys_(frame_keys) {}

  const uint64_t* Next(PendingFrame* frame) override {
    const uint64_t acked = acked_->load(std::memory_order_acquire);
    frame->owned_must.assign(frame_keys_, 0);
    for (size_t i = 0; i < frame_keys_; ++i) {
      if ((rng_.Next() & 1) != 0 && acked > 0) {
        keys_[i] = inserted_[rng_.Below(acked)];
        frame->owned_must[i] = 1;
      } else {
        keys_[i] = rng_.Next();
      }
    }
    frame->trace = frames_++;
    frame->count = static_cast<uint32_t>(frame_keys_);
    return keys_.data();
  }

 private:
  const std::vector<uint64_t>& inserted_;
  const std::atomic<uint64_t>* acked_;
  size_t frame_keys_;
  prefixfilter::Xoshiro256 rng_;
  std::vector<uint64_t> keys_;
  uint64_t frames_ = 0;
};

// Generous estimate of the QUERY_BATCH frames answered in `ns` of traffic.
size_t ExpectedFrames(const WorkloadSpec& spec, uint64_t ns) {
  const double seconds = Seconds(ns) + 1.0;
  const double frames_per_s =
      spec.kind == LoadShape::kOpenLoop
          ? spec.frames_per_s
          : 100e6 / static_cast<double>(spec.query_frame_keys);
  return static_cast<size_t>(seconds * frames_per_s * 1.25);
}

// Whole-run figures: sample count, mean frame latency, generator lateness.
void FillTotals(const Traffic& traffic, EndToEnd* out) {
  out->frames = traffic.latency_ns.size();
  double sum = 0.0;
  for (uint64_t ns : traffic.latency_ns) sum += static_cast<double>(ns);
  out->frame_mean_us =
      traffic.latency_ns.empty()
          ? 0.0
          : sum * 1e-3 / static_cast<double>(traffic.latency_ns.size());
  out->gen_late_p99_us = Percentile(traffic.late_ns, 0.99) * 1e-3;
}

// Query rate and frame latency percentiles over consecutive windows of
// kWindowFrames frames answered between `start` and `end`, reported as the
// interquartile mean over windows.  kWindowFrames is the fewest frames that
// leave ten samples beyond the p99; short windows confine a host stall to
// the few windows it falls in instead of every figure of the run.
struct WindowFigures {
  double mkeys_per_s = 0.0;
  double p50_us = 0.0;
  double p99_us = 0.0;
};

WindowFigures Windowed(const Traffic& traffic, uint64_t start, uint64_t end,
                       size_t frame_keys) {
  std::vector<std::pair<uint64_t, uint64_t>> frames;  // (done, latency)
  for (size_t i = 0; i < traffic.done_ns.size(); ++i) {
    const uint64_t done = traffic.done_ns[i];
    if (done >= start && done < end) {
      frames.emplace_back(done, traffic.latency_ns[i]);
    }
  }
  std::sort(frames.begin(), frames.end());
  const size_t windows = std::max<size_t>(1, frames.size() / kWindowFrames);
  const size_t per_window = frames.size() / windows;
  std::vector<double> rates, p50, p99;
  std::vector<uint64_t> latency;
  uint64_t window_start = start;
  for (size_t w = 0; w < windows && per_window > 0; ++w) {
    latency.clear();
    for (size_t i = w * per_window; i < (w + 1) * per_window; ++i) {
      latency.push_back(frames[i].second);
    }
    const uint64_t window_end = frames[(w + 1) * per_window - 1].first;
    rates.push_back(static_cast<double>(per_window * frame_keys) /
                    static_cast<double>(window_end - window_start) * 1e3);
    p50.push_back(Percentile(latency, 0.50) * 1e-3);
    p99.push_back(Percentile(latency, 0.99) * 1e-3);
    window_start = window_end;
  }
  return {InterquartileMean(rates), InterquartileMean(p50),
          InterquartileMean(p99)};
}

// STATS v2 scrape of the server's own histograms and counters.
void ScrapeServer(const Sut& sut, EndToEnd* out) {
  net::ClientOptions options;
  options.port = sut.port();
  net::MembershipClient client(options);
  net::WireStats stats;
  if (!client.Connect() || !client.StatsV2(&stats)) {
    out->outcome.Fail("STATS v2 scrape failed: " + client.error());
    return;
  }
  if (const obs::MetricSample* s =
          obs::FindSample(stats.metrics, "net.server.merge.frames")) {
    out->frames_per_batch = s->hist.Mean();
  }
  if (const obs::MetricSample* s = obs::FindSample(
          stats.metrics, "net.server.request.ns", "op", "query")) {
    out->request_ns_p50 = s->hist.Percentile(0.50);
    out->request_ns_p99 = s->hist.Percentile(0.99);
  }
  out->backpressure_stalls = sut.server->stats().backpressure_stalls;
  if (stats.filter_name != kFilterName) {
    out->outcome.Fail("server runs " + stats.filter_name);
  }
}

}  // namespace

uint64_t WorkloadSpec::Capacity() const {
  return static_cast<uint64_t>(
      std::llround(0.94 * std::ldexp(1.0, log2)));
}

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& spec : Workloads()) {
    if (spec.name == name) return &spec;
  }
  return nullptr;
}

std::vector<std::string> WorkloadNames() {
  std::vector<std::string> names;
  for (const WorkloadSpec& spec : Workloads()) names.push_back(spec.name);
  return names;
}

Sut::~Sut() {
  if (server != nullptr) server->Stop();
  if (service != nullptr) service->Stop();
}

bool Sut::Start(uint64_t capacity, std::string* error) {
  registry = std::make_unique<obs::MetricsRegistry>();
  prefixfilter::FilterServiceOptions service_options;
  service_options.num_threads = kServiceThreads;
  service_options.front_cache_slots = 0;
  service_options.registry = registry.get();
  service = prefixfilter::MakeFilterService(kFilterName, capacity,
                                            service_options);
  if (service == nullptr) {
    *error = "MakeFilterService rejected " + std::string(kFilterName);
    return false;
  }
  net::ServerOptions server_options;
  server_options.num_loops = kEventLoops;
  server_options.offload_queries = true;
  server_options.registry = registry.get();
  server_options.trace_sample_rate = 0.0;
  server_options.trace_slow_ns = 0;
  server = std::make_unique<net::MembershipServer>(service, server_options);
  if (!server->Start()) {
    *error = "server start failed: " + server->error();
    return false;
  }
  return true;
}

std::unique_ptr<ShardedFilter> MakeShardReference(uint64_t capacity) {
  prefixfilter::ShardedFilterOptions options;
  if (!ShardedFilter::ParseName(kFilterName, &options)) return nullptr;
  return ShardedFilter::Make(capacity, options);
}

uint64_t InsertChunked(ShardedFilter* filter,
                       const std::vector<uint64_t>& keys) {
  uint64_t failures = 0;
  for (size_t base = 0; base < keys.size(); base += kInsertFrameKeys) {
    const size_t count = std::min(kInsertFrameKeys, keys.size() - base);
    failures += filter->InsertBatch(keys.data() + base, count);
  }
  return failures;
}

EndToEnd RunEndToEnd(const WorkloadSpec& spec, uint64_t seed, double seconds,
                     int setups, bool record_spans, Prepared* keep) {
  EndToEnd out;
  const uint64_t n = spec.Capacity();
  workload::Spec stream_spec;
  if (!workload::FindStandardSpec(spec.stream, n, spec.num_queries, seed,
                                  &stream_spec)) {
    out.outcome.Fail("unknown stream " + spec.stream);
    return out;
  }
  if (setups <= 0) setups = spec.setups;
  const int builds = std::min(spec.builds, setups);

  // --- set-up (timed as setup_s) and the timed builds ----------------------
  // Each set-up generates the streams, starts a fresh server and connects;
  // the last `builds` of them also load the filter over the wire, timed.
  // Every set-up but the last is torn down again.
  workload::Stream stream;
  std::unique_ptr<Sut> sut;
  std::vector<std::unique_ptr<WireConn>> conns;
  std::unique_ptr<net::MembershipClient> loader;
  std::vector<double> setup_s, build_rate;
  std::vector<std::pair<uint64_t, size_t>> insert_frames;  // (ns, keys)
  uint64_t timed_start = 0;  // first timed operation
  for (int i = 0; i < setups; ++i) {
    conns.clear();
    loader.reset();
    sut.reset();
    stream = workload::Stream();
    const uint64_t t0 = NowNs();
    stream = workload::Generate(stream_spec);
    sut = std::make_unique<Sut>();
    std::string error;
    if (!sut->Start(n, &error)) {
      out.outcome.Fail(error);
      return out;
    }
    net::ClientOptions client_options;
    client_options.port = sut->port();
    client_options.auto_reconnect = false;
    loader = std::make_unique<net::MembershipClient>(client_options);
    bool connected = loader->Connect();
    for (int c = 0; c < spec.connections; ++c) {
      conns.push_back(std::make_unique<WireConn>());
      connected = connected && conns.back()->Connect(sut->port());
    }
    if (!connected) {
      out.outcome.Fail("connect failed");
      return out;
    }
    setup_s.push_back(Seconds(NowNs() - t0));

    if (i < setups - builds) continue;
    if (timed_start == 0) timed_start = NowNs();
    const std::vector<uint64_t>& keys = stream.insert_keys;
    for (size_t base = 0; base < keys.size(); base += kInsertFrameKeys) {
      const size_t count = std::min(kInsertFrameKeys, keys.size() - base);
      uint64_t failures = 0;
      const uint64_t f0 = NowNs();
      out.outcome.attempted += count;
      if (!loader->InsertBatch(keys.data() + base, count, &failures)) {
        out.outcome.transport_keys += keys.size() - base;
        out.outcome.attempted += keys.size() - base - count;
        out.outcome.Fail("insert failed: " + loader->error());
        return out;
      }
      const uint64_t f1 = NowNs();
      out.outcome.rejected += failures;
      insert_frames.push_back({f1 - f0, count});
      if (record_spans) {
        out.insert_spans.push_back({base / kInsertFrameKeys, f0, f1,
                                    static_cast<uint32_t>(count)});
      }
    }
  }
  // Insert rate over windows of kInsertWindowFrames consecutive INSERT_BATCH
  // round trips, interquartile mean over windows (same reasoning as
  // Windowed).
  for (size_t w = 0; w + kInsertWindowFrames <= insert_frames.size();
       w += kInsertWindowFrames) {
    uint64_t ns = 0, keys = 0;
    for (size_t i = w; i < w + kInsertWindowFrames; ++i) {
      ns += insert_frames[i].first;
      keys += insert_frames[i].second;
    }
    build_rate.push_back(static_cast<double>(keys) / Seconds(ns) * 1e-6);
  }
  out.setup_s = Median(setup_s);

  // --- reference answers (not timed) ---------------------------------------
  // The reference filter is the service.shard rung built in process: every
  // wire answer must equal it byte for byte, which also makes the reported
  // fpr exact for the seed.
  const std::vector<uint8_t>& expected = stream.query_expected;
  std::vector<uint8_t> ref(stream.queries.size());
  {
    std::unique_ptr<ShardedFilter> reference = MakeShardReference(n);
    if (reference == nullptr ||
        InsertChunked(reference.get(), stream.insert_keys) != 0) {
      out.outcome.Fail("reference filter failed to build");
      return out;
    }
    reference->ContainsBatch(stream.queries.data(), stream.queries.size(),
                             ref.data());
    out.fpr_bound =
        prefixfilter::PrefixFilter<prefixfilter::SpareTcTraits>(
            reference->per_shard_capacity())
            .FprBound(1.0);
  }
  for (size_t i = 0; i < ref.size(); ++i) {
    if (expected[i]) continue;
    ++out.negatives;
    out.false_positives += ref[i];
  }
  out.fpr = out.negatives == 0 ? 0.0
                               : static_cast<double>(out.false_positives) /
                                     static_cast<double>(out.negatives);

  // --- timed traffic --------------------------------------------------------
  if (timed_start == 0) timed_start = NowNs();
  const uint64_t run_ns = static_cast<uint64_t>(seconds * 1e9);
  const uint64_t min_query_ns = static_cast<uint64_t>(kMinQuerySeconds * 1e9);
  const uint64_t query_end =
      std::max(timed_start + run_ns, NowNs() + min_query_ns);
  Traffic traffic;
  traffic.record_spans = record_spans;
  traffic.Reserve(ExpectedFrames(spec, query_end - NowNs()));
  std::vector<WireConn*> conn_ptrs;
  for (auto& c : conns) conn_ptrs.push_back(c.get());

  if (spec.kind == LoadShape::kClosedLoop) {
    StreamSource source(stream.queries, ref.data(), expected.data(),
                        spec.query_frame_keys, 0, UINT64_MAX);
    const uint64_t q0 = NowNs();
    RunClosedLoop(conn_ptrs, spec.query_depth, &source,
                  [query_end] { return NowNs() >= query_end; }, &traffic);
    const WindowFigures w =
        Windowed(traffic, q0, query_end, spec.query_frame_keys);
    out.query_mkeys_per_s = w.mkeys_per_s;
    out.frame_p50_us = w.p50_us;
    out.frame_p99_us = w.p99_us;
    out.insert_mkeys_per_s = InterquartileMean(build_rate);
  } else if (spec.kind == LoadShape::kOpenLoop) {
    StreamSource source(stream.queries, ref.data(), expected.data(),
                        spec.query_frame_keys, 0, UINT64_MAX);
    const uint64_t q0 = NowNs() + 1'000'000;
    RunOpenLoop(conn_ptrs, spec.frames_per_s, q0, query_end, &source,
                &traffic);
    const WindowFigures w =
        Windowed(traffic, q0, query_end, spec.query_frame_keys);
    out.query_mkeys_per_s = w.mkeys_per_s;
    out.frame_p50_us = w.p50_us;
    out.frame_p99_us = w.p99_us;
    out.insert_mkeys_per_s = InterquartileMean(build_rate);
  } else {
    // Concurrent build: repeated cycles, each on a fresh empty server.  One
    // connection streams the whole key set as INSERT_BATCH frames while a
    // second queries acknowledged keys and uniform keys, closed loop.  Each
    // cycle is one sample of every figure; their interquartile means are
    // reported.
    conns.clear();
    loader.reset();
    sut.reset();
    std::vector<double> insert_rate, query_rate, p50, p99;
    Traffic inserts;
    inserts.record_spans = record_spans;
    for (uint64_t cycle = 0;; ++cycle) {
      auto fresh = std::make_unique<Sut>();
      std::string error;
      WireConn writer, reader;
      if (!fresh->Start(n, &error) || !writer.Connect(fresh->port()) ||
          !reader.Connect(fresh->port())) {
        out.outcome.Fail("build-rw cycle set-up failed: " + error);
        return out;
      }
      std::atomic<uint64_t> acked{0};
      std::atomic<bool> done{false};
      Traffic cycle_queries, cycle_inserts;
      cycle_queries.record_spans = record_spans;
      cycle_inserts.record_spans = record_spans;
      uint64_t r0 = 0, r1 = 0;
      std::thread query_thread([&] {
        BuildRwSource source(stream.insert_keys, &acked,
                             spec.query_frame_keys, seed ^ (cycle << 32));
        r0 = NowNs();
        RunClosedLoop({&reader}, spec.query_depth, &source,
                      [&done] { return done.load(std::memory_order_acquire); },
                      &cycle_queries);
        r1 = NowNs();
      });
      const uint64_t w0 = NowNs();
      RunInsertStream(&writer, stream.insert_keys.data(),
                      stream.insert_keys.size(), kInsertFrameKeys,
                      kInsertDepth, &acked, &cycle_inserts);
      const uint64_t w1 = NowNs();
      done.store(true, std::memory_order_release);
      query_thread.join();
      insert_rate.push_back(static_cast<double>(acked.load()) /
                            Seconds(w1 - w0) * 1e-6);
      query_rate.push_back(static_cast<double>(cycle_queries.keys_answered) /
                           Seconds(r1 - r0) * 1e-6);
      p50.push_back(Percentile(cycle_queries.latency_ns, 0.50) * 1e-3);
      p99.push_back(Percentile(cycle_queries.latency_ns, 0.99) * 1e-3);
      traffic.Merge(cycle_queries);
      inserts.Merge(cycle_inserts);
      const bool stop = NowNs() >= query_end || !cycle_inserts.outcome.correct();
      if (stop) {
        sut = std::move(fresh);
        break;
      }
    }
    out.insert_mkeys_per_s = InterquartileMean(insert_rate);
    out.query_mkeys_per_s = InterquartileMean(query_rate);
    out.frame_p50_us = InterquartileMean(p50);
    out.frame_p99_us = InterquartileMean(p99);
    traffic.outcome.Merge(inserts.outcome);
    for (FrameSpan& s : inserts.spans) out.insert_spans.push_back(s);
  }
  FillTotals(traffic, &out);

  // --- verification and server-side counters (not timed) -------------------
  if (spec.kind == LoadShape::kConcurrentBuild && sut != nullptr) {
    // The final cycle left a full filter: one pass of the fixed stream over
    // the wire must reproduce the reference answers exactly.
    WireConn verify;
    Traffic check;
    if (!verify.Connect(sut->port())) {
      out.outcome.Fail("verification connect failed");
    } else {
      StreamSource source(stream.queries, ref.data(), expected.data(),
                          spec.query_frame_keys, 0,
                          stream.queries.size() / spec.query_frame_keys);
      RunClosedLoop({&verify}, spec.query_depth, &source, [] { return false; },
                    &check);
      if (check.keys_answered != stream.queries.size() -
                                     stream.queries.size() %
                                         spec.query_frame_keys) {
        out.outcome.Fail("verification pass incomplete");
      }
    }
    traffic.outcome.Merge(check.outcome);
  }
  if (sut != nullptr) {
    ScrapeServer(*sut, &out);
    out.bits_per_key =
        8.0 * static_cast<double>(sut->service->filter().SpaceBytes()) /
        static_cast<double>(n);
  }
  out.outcome.Merge(traffic.outcome);
  if (out.fpr > out.fpr_bound) {
    out.outcome.Fail("fpr " + std::to_string(out.fpr) +
                     " above PrefixFilterFprBound " +
                     std::to_string(out.fpr_bound));
  }
  if (traffic.keys_answered == 0) out.outcome.Fail("no query was answered");
  out.query_spans = std::move(traffic.spans);
  out.peak_rss_mib = PeakRssMib();

  if (keep != nullptr) {
    keep->stream = std::move(stream);
    keep->ref = std::move(ref);
    keep->sut = std::move(sut);
  }
  return out;
}

}  // namespace perfbench
