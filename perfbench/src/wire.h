// Load generation over the wire protocol, built on the public codec of
// src/net/protocol.h and non-blocking loopback sockets.
//
// Every QUERY_BATCH frame is timed from when it was due: in the open loop
// that is its slot on the fixed schedule, in the closed loop the moment a
// pipeline slot freed (a response arrived).  A stall therefore charges every
// frame queued behind it, and the generator's own lateness (issue time minus
// due time) is recorded beside the latencies.
#ifndef PERFBENCH_SRC_WIRE_H_
#define PERFBENCH_SRC_WIRE_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <vector>

#include "bench.h"
#include "src/net/protocol.h"

namespace perfbench {

// One non-blocking TCP connection to a loopback server.
class WireConn {
 public:
  WireConn() = default;
  ~WireConn();
  WireConn(const WireConn&) = delete;
  WireConn& operator=(const WireConn&) = delete;

  bool Connect(uint16_t port);
  int fd() const { return fd_; }
  void Queue(const std::vector<uint8_t>& bytes);
  bool HasOutput() const { return sent_ < outbox_.size(); }
  // Sends until the socket would block.  False on a socket error.
  bool Flush();
  // Drains readable bytes and appends every complete frame.  False on EOF,
  // socket error or a framing error.
  bool Read(std::vector<prefixfilter::net::Frame>* frames);

 private:
  int fd_ = -1;
  std::vector<uint8_t> outbox_;
  size_t sent_ = 0;
  prefixfilter::net::FrameDecoder decoder_;
  std::vector<uint8_t> buffer_;
};

// A frame on the wire awaiting its response, with what its answers must be.
struct PendingFrame {
  uint64_t id = 0;
  uint64_t due_ns = 0;
  uint64_t trace = 0;  // frame number within its pass (span trace id)
  uint32_t count = 0;
  // Reference answers the response must equal byte for byte (nullable).
  const uint8_t* ref = nullptr;
  // 1 where the key is known present, so a 0 answer is a false negative
  // (nullable; `owned_must` backs it when the frame built its own).
  const uint8_t* must = nullptr;
  std::vector<uint8_t> owned_must;
};

struct FrameSpan {
  uint64_t trace = 0;
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  uint32_t keys = 0;
};

// What one generator thread saw.
struct Traffic {
  Outcome outcome;
  uint64_t keys_answered = 0;
  std::vector<uint64_t> latency_ns;  // per query frame, due -> answered
  std::vector<uint64_t> done_ns;     // per query frame, when answered
  std::vector<uint64_t> late_ns;     // per frame, due -> issued
  bool record_spans = false;
  std::vector<FrameSpan> spans;

  void Merge(const Traffic& other);
  // Sizes the per-frame records for `frames` frames and touches their
  // memory, so growing them never page-faults inside the timed traffic.
  void Reserve(size_t frames);
};

// Supplies the keys of successive QUERY_BATCH frames.
class QuerySource {
 public:
  virtual ~QuerySource() = default;
  // Fills the count and checks in `frame` and returns its keys (valid until
  // the next call); nullptr when nothing is left.
  virtual const uint64_t* Next(PendingFrame* frame) = 0;
};

// Cycles over a fixed query stream in frames of `frame_keys`, starting at
// frame `first_frame`, checking each answer against `ref` and `expected`.
class StreamSource : public QuerySource {
 public:
  StreamSource(const std::vector<uint64_t>& queries, const uint8_t* ref,
               const uint8_t* expected, size_t frame_keys, size_t first_frame,
               uint64_t max_frames);
  const uint64_t* Next(PendingFrame* frame) override;

 private:
  const std::vector<uint64_t>& queries_;
  const uint8_t* ref_;
  const uint8_t* expected_;
  size_t frame_keys_;
  size_t frames_per_pass_;
  size_t cursor_;
  uint64_t issued_ = 0;
  uint64_t max_frames_;
};

// Closed loop: every connection keeps `depth` QUERY_BATCH frames in flight
// until `stop()` turns true (checked between reads), then drains.
void RunClosedLoop(const std::vector<WireConn*>& conns, size_t depth,
                   QuerySource* source, const std::function<bool()>& stop,
                   Traffic* traffic);

// Open loop: frame k is due at start_ns + k / frames_per_s and goes to
// connection k mod conns.size(), whether or not earlier frames were
// answered.  Issues until end_ns, then drains.
void RunOpenLoop(const std::vector<WireConn*>& conns, double frames_per_s,
                 uint64_t start_ns, uint64_t end_ns, QuerySource* source,
                 Traffic* traffic);

// Streams `count` keys as INSERT_BATCH frames of `frame_keys`, `depth` in
// flight, publishing the acknowledged prefix length to `*acked`.
void RunInsertStream(WireConn* conn, const uint64_t* keys, size_t count,
                     size_t frame_keys, size_t depth,
                     std::atomic<uint64_t>* acked, Traffic* traffic);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_WIRE_H_
