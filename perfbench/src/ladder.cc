#include "ladder.h"

#include <algorithm>
#include <condition_variable>
#include <cstring>
#include <mutex>

#include "src/core/filter_factory.h"
#include "src/core/prefix_filter.h"
#include "src/core/spare.h"
#include "src/net/membership_client.h"
#include "src/net/protocol.h"

namespace perfbench {

namespace net = prefixfilter::net;
namespace obs = prefixfilter::obs;

namespace {

// One pass of one layer: a span per call, all under one pass span.
class Pass {
 public:
  Pass(SpanLog* log, const std::string& name, uint32_t parent)
      : log_(log),
        name_(name),
        name_index_(log->Intern(name)),
        id_(log->NewId()),
        parent_(parent),
        start_ns_(NowNs()) {}

  void Call(uint64_t trace, uint64_t start_ns, uint64_t end_ns,
            uint64_t keys) {
    log_->Add(name_index_, log_->NewId(), id_, trace, start_ns, end_ns, keys);
    busy_ns_ += end_ns - start_ns;
    keys_ += keys;
  }

  // Closes the pass span and returns the layer's ns/key.
  double Finish() {
    log_->Add(log_->Intern("pass:" + name_), id_, parent_, 0, start_ns_,
              NowNs(), keys_);
    return keys_ == 0 ? 0.0
                      : static_cast<double>(busy_ns_) /
                            static_cast<double>(keys_);
  }

 private:
  SpanLog* log_;
  std::string name_;
  uint16_t name_index_;
  uint32_t id_;
  uint32_t parent_;
  uint64_t start_ns_;
  uint64_t busy_ns_ = 0;
  uint64_t keys_ = 0;
};

// Counts answers differing from the reference; names the rung on failure.
void CheckAnswers(const char* rung, const std::vector<uint8_t>& answers,
                  const uint8_t* ref, Outcome* outcome) {
  uint64_t diff = 0;
  for (size_t i = 0; i < answers.size(); ++i) diff += answers[i] != ref[i];
  outcome->attempted += answers.size();
  outcome->mismatches += diff;
  if (diff != 0) {
    outcome->Fail(std::string(rung) + ": " + std::to_string(diff) +
                  " answers differ from the reference");
  }
}

// shard.group.keys: one observation per shard lock taken by a batch.
obs::HistogramSnapshot GroupKeys(const obs::MetricsRegistry& registry) {
  const std::vector<obs::MetricSample> samples = registry.Collect();
  const obs::MetricSample* s = obs::FindSample(samples, "shard.group.keys");
  return s == nullptr ? obs::HistogramSnapshot() : s->hist;
}

}  // namespace

const std::vector<std::string>& LadderQueryOrder() {
  static const std::vector<std::string> order = {
      "core.pf.query",      "core.any.query",      "service.shard.query",
      "service.sync.query", "service.async.query", "net.client.query"};
  return order;
}

const std::vector<std::string>& LadderInsertOrder() {
  static const std::vector<std::string> order = {
      "core.pf.insert", "core.any.insert", "service.shard.insert",
      "service.sync.insert"};
  return order;
}

LadderResult RunLadder(const WorkloadSpec& spec, const Prepared& prepared,
                       SpanLog* log, uint32_t parent) {
  LadderResult result;
  Outcome& outcome = result.outcome;
  const uint64_t n = spec.Capacity();
  const std::vector<uint64_t>& keys = prepared.stream.insert_keys;
  const size_t fk = spec.query_frame_keys;
  const size_t frames =
      std::min<size_t>(spec.ladder_queries, prepared.stream.queries.size()) /
      fk;
  const size_t count = frames * fk;
  const uint64_t* queries = prepared.stream.queries.data();
  const uint8_t* ref = prepared.ref.data();
  std::map<std::string, double> ns;  // layer entry point -> ns/key
  const auto metric = [&result](const std::string& name, double value,
                                const char* unit) {
    result.metrics.push_back({name, value, unit});
  };
  const auto insert_chunks = [&](const std::string& name, auto&& insert) {
    Pass pass(log, name, parent);
    for (size_t base = 0; base < keys.size(); base += kInsertFrameKeys) {
      const size_t c = std::min(kInsertFrameKeys, keys.size() - base);
      const uint64_t t0 = NowNs();
      const uint64_t failures = insert(keys.data() + base, c);
      pass.Call(base / kInsertFrameKeys, t0, NowNs(), c);
      outcome.attempted += c;
      outcome.rejected += failures;
    }
    ns[name] = pass.Finish();
  };
  const auto query_frames = [&](const std::string& name,
                                std::vector<uint8_t>* answers, auto&& query) {
    answers->assign(count, 0);
    Pass pass(log, name, parent);
    for (size_t f = 0; f < frames; ++f) {
      const uint64_t t0 = NowNs();
      query(queries + f * fk, answers->data() + f * fk);
      pass.Call(f, t0, NowNs(), fk);
    }
    ns[name] = pass.Finish();
  };
  std::vector<uint8_t> answers;

  // --- core.pf: the concrete filter; PrefixFilterStats are read only here,
  // where one thread owns the filter.
  {
    prefixfilter::PrefixFilter<prefixfilter::SpareTcTraits> pf(n);
    insert_chunks("core.pf.insert", [&pf](const uint64_t* k, size_t c) {
      uint64_t failures = 0;
      for (size_t i = 0; i < c; ++i) failures += !pf.Insert(k[i]);
      return failures;
    });
    metric("core.pf.spare_insert_frac", pf.stats().SpareInsertFraction(),
           "fraction");
    pf.ResetQueryStats();
    query_frames("core.pf.query", &answers,
                 [&pf, fk](const uint64_t* q, uint8_t* out) {
                   pf.ContainsBatch(q, fk, out);
                 });
    metric("core.pf.spare_query_frac", pf.stats().SpareQueryFraction(),
           "fraction");
  }

  // --- core.any: the same filter behind the factory's virtual interface.
  {
    std::unique_ptr<prefixfilter::AnyFilter> any =
        prefixfilter::MakeFilter("PF[TC]", n);
    insert_chunks("core.any.insert", [&any](const uint64_t* k, size_t c) {
      return any->InsertBatch(k, c);
    });
    query_frames("core.any.query", &answers,
                 [&any, fk](const uint64_t* q, uint8_t* out) {
                   any->ContainsBatch(q, fk, out);
                 });
  }

  // --- service.shard: sharding and shard locks, no service around them.
  {
    obs::MetricsRegistry registry;
    std::unique_ptr<prefixfilter::ShardedFilter> shard =
        MakeShardReference(n);
    shard->EnableMetrics(&registry);
    insert_chunks("service.shard.insert",
                  [&shard](const uint64_t* k, size_t c) {
                    return shard->InsertBatch(k, c);
                  });
    uint64_t max_inserts = 0;
    for (uint32_t s = 0; s < shard->num_shards(); ++s) {
      max_inserts = std::max(max_inserts, shard->shard_stats(s).inserts);
    }
    metric("service.shard.max_load_frac",
           static_cast<double>(max_inserts) /
               static_cast<double>(shard->per_shard_capacity()),
           "fraction");
    const obs::HistogramSnapshot before = GroupKeys(registry);
    query_frames("service.shard.query", &answers,
                 [&shard, fk](const uint64_t* q, uint8_t* out) {
                   shard->ContainsBatch(q, fk, out);
                 });
    const obs::HistogramSnapshot after = GroupKeys(registry);
    const uint64_t locks = after.count - before.count;
    metric("service.shard.keys_per_lock",
           locks == 0 ? 0.0
                      : static_cast<double>(after.sum - before.sum) /
                            static_cast<double>(locks),
           "keys/lock");
    CheckAnswers("service.shard", answers, ref, &outcome);
  }

  // --- service.sync and service.async on one FilterService.
  {
    obs::MetricsRegistry registry;
    prefixfilter::FilterServiceOptions options;
    options.num_threads = kServiceThreads;
    options.registry = &registry;
    std::shared_ptr<prefixfilter::FilterService> service =
        prefixfilter::MakeFilterService(kFilterName, n, options);
    insert_chunks("service.sync.insert",
                  [&service](const uint64_t* k, size_t c) {
                    return service->InsertBatchSync(k, c);
                  });
    std::vector<uint64_t> exec_ns(frames);
    {
      answers.assign(count, 0);
      Pass pass(log, "service.sync.query", parent);
      for (size_t f = 0; f < frames; ++f) {
        const uint64_t t0 = NowNs();
        service->QueryBatchSync(queries + f * fk, fk,
                                answers.data() + f * fk);
        const uint64_t t1 = NowNs();
        exec_ns[f] = t1 - t0;
        pass.Call(f, t0, t1, fk);
      }
      ns["service.sync.query"] = pass.Finish();
    }
    CheckAnswers("service.sync", answers, ref, &outcome);

    // One batch in flight, so each call's extra time over the synchronous
    // call on the same keys is the queue hand-off and wakeup alone.
    std::vector<uint64_t> wait_ns(frames);
    {
      answers.assign(count, 0);
      std::mutex mutex;
      std::condition_variable cv;
      bool ready = false;
      uint64_t done_ns = 0;
      uint64_t short_answers = 0;
      Pass pass(log, "service.async.query", parent);
      for (size_t f = 0; f < frames; ++f) {
        std::vector<uint64_t> batch(queries + f * fk, queries + (f + 1) * fk);
        uint8_t* out = answers.data() + f * fk;
        const uint64_t t0 = NowNs();
        service->QueryBatchAsync(
            std::move(batch), [&, out](std::vector<uint8_t> results) {
              const uint64_t t = NowNs();
              if (results.size() == fk) {
                std::memcpy(out, results.data(), fk);
              } else {
                ++short_answers;
              }
              std::lock_guard<std::mutex> lock(mutex);
              done_ns = t;
              ready = true;
              cv.notify_one();
            });
        {
          std::unique_lock<std::mutex> lock(mutex);
          cv.wait(lock, [&ready] { return ready; });
          ready = false;
        }
        const uint64_t t1 = NowNs();
        pass.Call(f, t0, t1, fk);
        const uint64_t latency = done_ns - t0;
        wait_ns[f] = latency > exec_ns[f] ? latency - exec_ns[f] : 0;
      }
      ns["service.async.query"] = pass.Finish();
      if (short_answers != 0) {
        outcome.Fail("service.async: short answer vectors");
      }
    }
    CheckAnswers("service.async", answers, ref, &outcome);
    metric("service.async.wait_ns_p50", Percentile(wait_ns, 0.50), "ns");
    metric("service.async.wait_ns_p99", Percentile(wait_ns, 0.99), "ns");
    service->Stop();
  }

  // --- net.codec: request and response encode/decode of the same frames.
  {
    Pass encode(log, "net.codec.encode", parent);
    Pass decode(log, "net.codec.decode", parent);
    std::vector<uint8_t> request, response, results;
    std::vector<uint64_t> decoded;
    net::FrameDecoder request_decoder, response_decoder;
    net::Frame frame;
    uint64_t wire_bytes = 0, bad = 0;
    for (size_t f = 0; f < frames; ++f) {
      const uint64_t* q = queries + f * fk;
      const uint8_t* r = ref + f * fk;
      const uint64_t t0 = NowNs();
      request.clear();
      response.clear();
      net::EncodeKeyBatchRequest(net::Opcode::kQueryBatch, f + 1, q, fk,
                                 &request);
      net::EncodeQueryResponse(f + 1, r, fk, &response);
      const uint64_t t1 = NowNs();
      request_decoder.Feed(request.data(), request.size());
      bool ok = request_decoder.Next(&frame) == net::DecodeStatus::kFrame;
      decoded.clear();
      ok = ok && net::AppendKeyBatchPayload(frame.payload.data(),
                                            frame.payload.size(), &decoded);
      response_decoder.Feed(response.data(), response.size());
      ok = ok && response_decoder.Next(&frame) == net::DecodeStatus::kFrame;
      ok = ok && net::DecodeQueryResponsePayload(frame.payload.data(),
                                                 frame.payload.size(),
                                                 &results);
      const uint64_t t2 = NowNs();
      encode.Call(f, t0, t1, fk);
      decode.Call(f, t1, t2, fk);
      ok = ok && decoded.size() == fk && results.size() == fk &&
           std::equal(decoded.begin(), decoded.end(), q) &&
           std::equal(results.begin(), results.end(), r);
      bad += ok ? 0 : fk;
      wire_bytes += request.size() + response.size();
    }
    ns["net.codec.encode"] = encode.Finish();
    ns["net.codec.decode"] = decode.Finish();
    outcome.attempted += count;
    outcome.error_keys += bad;
    if (bad != 0) outcome.Fail("net.codec: round trip changed frames");
    metric("net.codec.encode_ns_per_key", ns["net.codec.encode"], "ns/key");
    metric("net.codec.decode_ns_per_key", ns["net.codec.decode"], "ns/key");
    metric("net.codec.wire_bytes_per_key",
           static_cast<double>(wire_bytes) / static_cast<double>(count),
           "B/key");
  }

  // --- net.client: MembershipClient against the loaded server, first one
  // frame per round trip (the rung above service.async), then pipelined
  // windows of query_depth frames.
  {
    net::ClientOptions options;
    options.port = prepared.sut->port();
    options.max_batch_keys = fk;
    options.pipeline_depth = spec.query_depth;
    options.auto_reconnect = false;
    net::MembershipClient client(options);
    std::vector<uint8_t> frame_answers;
    if (!client.Connect()) {
      outcome.Fail("net.client: connect failed: " + client.error());
    }
    answers.assign(count, 0);
    query_frames("net.client.query", &answers,
                 [&](const uint64_t* q, uint8_t* out) {
                   if (!client.connected()) return;
                   if (!client.QueryBatch(q, fk, &frame_answers) ||
                       frame_answers.size() != fk) {
                     outcome.transport_keys += fk;
                     outcome.Fail("net.client: " + client.error());
                     return;
                   }
                   std::copy(frame_answers.begin(), frame_answers.end(), out);
                 });
    CheckAnswers("net.client.query", answers, ref, &outcome);

    answers.assign(count, 0);
    const size_t window = fk * spec.query_depth;
    Pass pass(log, "net.client.window", parent);
    for (size_t base = 0; client.connected() && base < count;
         base += window) {
      const size_t c = std::min(window, count - base);
      const uint64_t t0 = NowNs();
      if (!client.QueryPipelined(queries + base, c, &frame_answers)) {
        outcome.transport_keys += count - base;
        outcome.Fail("net.client: " + client.error());
        break;
      }
      pass.Call(base / window, t0, NowNs(), c);
      std::copy(frame_answers.begin(), frame_answers.end(),
                answers.begin() + static_cast<long>(base));
    }
    metric("net.client.window_ns_per_key", pass.Finish(), "ns/key");
    CheckAnswers("net.client.window", answers, ref, &outcome);
    if (client.remote_errors() != 0) {
      outcome.Fail("net.client: server answered with error frames");
    }
    metric("net.client.responses_reordered",
           static_cast<double>(client.responses_reordered()), "count");
  }

  // --- per-layer costs and self times.
  const auto emit = [&](const std::vector<std::string>& order) {
    for (size_t i = 0; i < order.size(); ++i) {
      const std::string& entry = order[i];  // "<layer>.<verb>"
      metric(entry + "_ns_per_key", ns[entry], "ns/key");
      if (i > 0) {
        metric(entry + "_self_ns_per_key", ns[entry] - ns[order[i - 1]],
               "ns/key");
      }
    }
  };
  emit(LadderQueryOrder());
  emit(LadderInsertOrder());
  return result;
}

}  // namespace perfbench
