// perfbench: the repository benchmark's main program.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--spans-out PATH] [--probe-saturation]
//
// --trace 0 runs the workload end to end over loopback and reports the
// end-to-end metrics.  --trace 1 runs it twice more briefly (untraced, then
// with the benchmark's own spans around every wire frame), then pushes the
// same stream through the per-layer ladder (ladder.h), reports the per-layer
// metrics and writes every span to --spans-out.
//
// Human-readable lines come first; the last line of standard output is one
// JSON object {correct, attempted, failed, metrics}.  The exit code is 1
// when any correctness gate failed, 2 on bad arguments.
#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench.h"
#include "ladder.h"
#include "src/net/membership_client.h"
#include "wire.h"
#include "workloads.h"

namespace {

using namespace perfbench;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  std::string spans_out;
  bool probe_saturation = false;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    std::string value;
    const size_t eq = arg.find('=');
    if (eq != std::string::npos) {
      value = arg.substr(eq + 1);
      arg = arg.substr(0, eq);
    } else if (arg != "--probe-saturation" && i + 1 < argc) {
      value = argv[++i];
    }
    if (arg == "--workload") {
      args->workload = value;
    } else if (arg == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      args->seconds = std::atof(value.c_str());
    } else if (arg == "--trace") {
      args->trace = std::atoi(value.c_str());
    } else if (arg == "--spans-out") {
      args->spans_out = value;
    } else if (arg == "--probe-saturation") {
      args->probe_saturation = true;
    } else {
      std::fprintf(stderr, "perfbench: unknown argument %s\n", arg.c_str());
      return false;
    }
  }
  return !args->workload.empty() && args->seconds > 0 &&
         (args->trace == 0 || args->trace == 1);
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::vector<Metric> EndToEndMetrics(const EndToEnd& e) {
  return {{"query_mkeys_per_s", e.query_mkeys_per_s, "Mkeys/s"},
          {"insert_mkeys_per_s", e.insert_mkeys_per_s, "Mkeys/s"},
          {"frame_p50_us", e.frame_p50_us, "us"},
          {"fpr", e.fpr, "fraction"},
          {"bits_per_key", e.bits_per_key, "bits/key"},
          {"setup_s", e.setup_s, "s"},
          {"peak_rss_mib", e.peak_rss_mib, "MiB"}};
}

// The values that must repeat bit for bit under one seed.
std::string ExactBlock(const Args& args, const EndToEnd& e,
                       const std::vector<Metric>& layer_metrics) {
  std::string out = "{\"workload\": \"" + args.workload +
                    "\", \"seed\": " + std::to_string(args.seed) +
                    ", \"fpr_false_positives\": " +
                    std::to_string(e.false_positives) +
                    ", \"fpr_negatives\": " + std::to_string(e.negatives) +
                    ", \"fpr\": " + JsonNumber(e.fpr) +
                    ", \"bits_per_key\": " + JsonNumber(e.bits_per_key) +
                    ", \"false_negatives\": " +
                    std::to_string(e.outcome.false_negatives);
  for (const Metric& m : layer_metrics) {
    if (m.name == "core.pf.spare_query_frac" ||
        m.name == "core.pf.spare_insert_frac" ||
        m.name == "net.codec.wire_bytes_per_key") {
      out += ", \"" + m.name + "\": " + JsonNumber(m.value);
    }
  }
  return out + "}";
}

// Hands a wire pass's frame spans to the log under one pass span that
// covers them.
void AddFrameSpans(SpanLog* log, const char* name,
                   const std::vector<FrameSpan>& frames, uint32_t parent) {
  if (frames.empty()) return;
  const uint32_t pass = log->NewId();
  const uint16_t frame_name = log->Intern(name);
  uint64_t keys = 0, start = UINT64_MAX, end = 0;
  for (const FrameSpan& f : frames) {
    log->Add(frame_name, log->NewId(), pass, f.trace, f.start_ns, f.end_ns,
             f.keys);
    keys += f.keys;
    start = std::min(start, f.start_ns);
    end = std::max(end, f.end_ns);
  }
  log->Add(log->Intern(std::string("pass:") + name), pass, parent, 0, start,
           end, keys);
}

std::string QuotedList(const std::vector<std::string>& names) {
  std::string out = "[";
  for (size_t i = 0; i < names.size(); ++i) {
    out += (i == 0 ? "\"" : ", \"") + names[i] + "\"";
  }
  return out + "]";
}

// Closed-loop saturation of the small-frames shape (4 connections, one
// 16-key frame in flight each): the open loop's rate is set to about half
// of this.  Calibration aid only; prints frames/s.
int ProbeSaturation(const WorkloadSpec& spec, const Args& args) {
  Prepared prepared;
  EndToEnd e = RunEndToEnd(spec, args.seed, 1.0, 1, false, &prepared);
  if (!e.outcome.correct() || prepared.sut == nullptr) return 1;
  std::vector<std::unique_ptr<WireConn>> conns;
  std::vector<WireConn*> ptrs;
  for (int c = 0; c < spec.connections; ++c) {
    conns.push_back(std::make_unique<WireConn>());
    if (!conns.back()->Connect(prepared.sut->port())) return 1;
    ptrs.push_back(conns.back().get());
  }
  StreamSource source(prepared.stream.queries, prepared.ref.data(),
                      prepared.stream.query_expected.data(),
                      spec.query_frame_keys, 0, UINT64_MAX);
  Traffic traffic;
  const uint64_t t0 = NowNs();
  const uint64_t end = t0 + static_cast<uint64_t>(args.seconds * 1e9);
  RunClosedLoop(ptrs, 1, &source, [end] { return NowNs() >= end; },
                &traffic);
  const double secs = static_cast<double>(NowNs() - t0) * 1e-9;
  std::printf("saturation %.0f frames/s (%zu frames, p50 %.1f us)\n",
              static_cast<double>(traffic.latency_ns.size()) / secs,
              traffic.latency_ns.size(),
              Percentile(traffic.latency_ns, 0.5) * 1e-3);
  return traffic.outcome.correct() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--spans-out PATH] [--probe-saturation]\n");
    return 2;
  }
  const WorkloadSpec* spec = FindWorkload(args.workload);
  if (spec == nullptr) {
    std::fprintf(stderr, "perfbench: unknown workload %s (known: %s)\n",
                 args.workload.c_str(),
                 QuotedList(WorkloadNames()).c_str());
    return 2;
  }
  if (args.probe_saturation) return ProbeSaturation(*spec, args);

  std::printf("perfbench: %s seed %" PRIu64 " seconds %g trace %d | %s, "
              "capacity %" PRIu64 ", %u loop, %u workers\n",
              spec->name.c_str(), args.seed, args.seconds, args.trace,
              kFilterName, spec->Capacity(), kEventLoops, kServiceThreads);

  Outcome outcome;
  std::vector<Metric> metrics;
  std::string exact;
  if (args.trace == 0) {
    const EndToEnd e =
        RunEndToEnd(*spec, args.seed, args.seconds, 0, false, nullptr);
    outcome = e.outcome;
    metrics = EndToEndMetrics(e);
    exact = ExactBlock(args, e, {});
    // Printed, not in BENCHMARK.json: on a shared host its spread over
    // seeds exceeds any allowed bound (see perfbench/README.md).
    std::printf("check frame_p99_us %.3f us (%" PRIu64 " frames)\n",
                e.frame_p99_us, e.frames);
    std::printf("check gen_late_p99_us %.3f us\n", e.gen_late_p99_us);
    std::printf("check fpr_bound %.6f fraction\n", e.fpr_bound);
  } else {
    // Untraced and traced end-to-end passes share the run's time; their
    // difference is the tracing overhead.  The ladder reuses the traced
    // pass's loaded server, stream and reference answers.
    SpanLog log;
    const uint32_t root = log.NewId();
    const uint64_t r0 = NowNs();
    const double share = args.seconds * 0.4;
    const EndToEnd base =
        RunEndToEnd(*spec, args.seed, share, 1, false, nullptr);
    Prepared prepared;
    const EndToEnd traced =
        RunEndToEnd(*spec, args.seed, share, 1, true, &prepared);
    AddFrameSpans(&log, "wire.insert", traced.insert_spans, root);
    AddFrameSpans(&log, "wire.query", traced.query_spans, root);
    outcome.Merge(base.outcome);
    outcome.Merge(traced.outcome);
    if (prepared.sut != nullptr) {
      const LadderResult ladder = RunLadder(*spec, prepared, &log, root);
      outcome.Merge(ladder.outcome);
      metrics = ladder.metrics;
    } else {
      outcome.Fail("traced pass left no server for the ladder");
    }
    log.Add(log.Intern("run"), root, 0, 0, r0, NowNs(), 0);
    metrics.push_back(
        {"net.server.frames_per_batch", base.frames_per_batch, "frames/batch"});
    metrics.push_back({"net.server.backpressure_stalls",
                       static_cast<double>(base.backpressure_stalls), "count"});
    metrics.push_back({"net.server.request_ns_p50", base.request_ns_p50, "ns"});
    metrics.push_back({"net.server.request_ns_p99", base.request_ns_p99, "ns"});
    metrics.push_back({"obs.trace_overhead_frac",
                       base.frame_mean_us > 0
                           ? traced.frame_mean_us / base.frame_mean_us - 1.0
                           : 0.0,
                       "fraction"});
    metrics.push_back(
        {"bench.gen_late_p99_us", base.gen_late_p99_us, "us"});
    exact = ExactBlock(args, traced, metrics);
    if (!args.spans_out.empty()) {
      const std::string header =
          "\"workload\": \"" + spec->name + "\", \"seed\": " +
          std::to_string(args.seed) +
          ", \"query_ladder\": " + QuotedList(LadderQueryOrder()) +
          ", \"insert_ladder\": " + QuotedList(LadderInsertOrder());
      if (!log.WriteJsonl(args.spans_out, header)) {
        outcome.Fail("cannot write spans to " + args.spans_out);
      } else {
        std::printf("spans %zu written to %s\n", log.spans().size(),
                    args.spans_out.c_str());
      }
    }
  }

  for (const Metric& m : metrics) {
    std::printf("metric %s %.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  const double failed_frac =
      outcome.attempted == 0
          ? 1.0
          : static_cast<double>(outcome.failed()) /
                static_cast<double>(outcome.attempted);
  std::printf("check false_negatives %" PRIu64 " count\n",
              outcome.false_negatives);
  std::printf("check failed_frac %.6g fraction (%" PRIu64 " of %" PRIu64
              " keys: %" PRIu64 " error, %" PRIu64 " transport, %" PRIu64
              " rejected, %" PRIu64 " mismatched)\n",
              failed_frac, outcome.failed(), outcome.attempted,
              outcome.error_keys, outcome.transport_keys, outcome.rejected,
              outcome.mismatches);
  for (const std::string& problem : outcome.problems) {
    std::printf("FAIL %s\n", problem.c_str());
  }
  std::printf("exact %s\n", exact.c_str());

  const bool correct = outcome.correct() && outcome.attempted > 0;
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(outcome.attempted);
  json += ", \"failed\": " + std::to_string(outcome.failed());
  json += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    json += (i == 0 ? "\"" : ", \"") + metrics[i].name +
            "\": {\"value\": " + JsonNumber(metrics[i].value) +
            ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
