#include "wire.h"

#include <arpa/inet.h>
#include <cerrno>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstring>
#include <string>

namespace perfbench {

namespace net = prefixfilter::net;

namespace {

// How long a stopping load loop waits for frames still in flight before it
// counts them as transport failures.
constexpr uint64_t kDrainTimeoutNs = 10'000'000'000ull;

timespec ToTimespec(uint64_t ns) {
  timespec ts;
  ts.tv_sec = static_cast<time_t>(ns / 1'000'000'000ull);
  ts.tv_nsec = static_cast<long>(ns % 1'000'000'000ull);
  return ts;
}

// Checks one QUERY_BATCH response against its pending frame.
void CompleteQuery(const PendingFrame& frame, const net::Frame& response,
                   uint64_t now, std::vector<uint8_t>* results,
                   Traffic* traffic) {
  if (response.is_error() ||
      response.opcode != static_cast<uint8_t>(net::Opcode::kQueryBatch) ||
      !net::DecodeQueryResponsePayload(response.payload.data(),
                                       response.payload.size(), results) ||
      results->size() != frame.count) {
    traffic->outcome.error_keys += frame.count;
    return;
  }
  traffic->keys_answered += frame.count;
  traffic->latency_ns.push_back(now - frame.due_ns);
  traffic->done_ns.push_back(now);
  const uint8_t* answers = results->data();
  const uint8_t* must =
      frame.owned_must.empty() ? frame.must : frame.owned_must.data();
  if (frame.ref != nullptr) {
    for (uint32_t i = 0; i < frame.count; ++i) {
      traffic->outcome.mismatches += answers[i] != frame.ref[i];
    }
  }
  if (must != nullptr) {
    for (uint32_t i = 0; i < frame.count; ++i) {
      traffic->outcome.false_negatives += must[i] != 0 && answers[i] == 0;
    }
  }
  if (traffic->record_spans) {
    traffic->spans.push_back({frame.trace, frame.due_ns, now, frame.count});
  }
}

// Per-connection state of the query load loops.
struct QueryConn {
  WireConn* conn = nullptr;
  std::vector<PendingFrame> inflight;
  std::deque<uint64_t> free_at;  // closed loop: when each free slot freed
  uint64_t next_id = 1;
  bool dead = false;
};

// A socket failure or a response the protocol cannot place is fatal for the
// connection: its frames still in flight count as transport failures.
void KillConn(QueryConn* state, const char* why, Traffic* traffic) {
  for (const PendingFrame& frame : state->inflight) {
    traffic->outcome.transport_keys += frame.count;
  }
  state->inflight.clear();
  state->free_at.clear();
  if (!state->dead) {
    traffic->outcome.Fail(std::string("connection lost: ") + why);
  }
  state->dead = true;
}

void Issue(QueryConn* state, const uint64_t* keys, PendingFrame frame,
           uint64_t now, std::vector<uint8_t>* bytes, Traffic* traffic) {
  frame.id = state->next_id++;
  traffic->late_ns.push_back(now > frame.due_ns ? now - frame.due_ns : 0);
  bytes->clear();
  net::EncodeKeyBatchRequest(net::Opcode::kQueryBatch, frame.id, keys,
                             frame.count, bytes);
  state->conn->Queue(*bytes);
  traffic->outcome.attempted += frame.count;
  state->inflight.push_back(std::move(frame));
}

// Waits up to `timeout_ns` for socket readiness, then flushes writable
// connections and completes every frame that was answered.
void PollAndComplete(std::vector<QueryConn>* states, uint64_t timeout_ns,
                     bool closed_loop, Traffic* traffic) {
  std::vector<pollfd> pfds;
  std::vector<QueryConn*> owners;
  for (QueryConn& s : *states) {
    if (s.dead) continue;
    short events = POLLIN;
    if (s.conn->HasOutput()) events |= POLLOUT;
    pfds.push_back({s.conn->fd(), events, 0});
    owners.push_back(&s);
  }
  if (pfds.empty()) return;
  const timespec ts = ToTimespec(timeout_ns);
  const int ready = ppoll(pfds.data(), pfds.size(), &ts, nullptr);
  if (ready <= 0) return;
  std::vector<net::Frame> frames;
  std::vector<uint8_t> results;
  for (size_t i = 0; i < pfds.size(); ++i) {
    QueryConn* s = owners[i];
    if (pfds[i].revents & POLLOUT) {
      if (!s->conn->Flush()) {
        KillConn(s, "send failed", traffic);
        continue;
      }
    }
    if ((pfds[i].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
    frames.clear();
    const bool ok = s->conn->Read(&frames);
    const uint64_t now = NowNs();
    for (const net::Frame& response : frames) {
      auto it = std::find_if(
          s->inflight.begin(), s->inflight.end(),
          [&](const PendingFrame& f) { return f.id == response.request_id; });
      if (it == s->inflight.end() || !response.is_response()) {
        KillConn(s, "response for no pending frame", traffic);
        break;
      }
      CompleteQuery(*it, response, now, &results, traffic);
      s->inflight.erase(it);
      if (closed_loop) s->free_at.push_back(now);
    }
    if (!ok) KillConn(s, "read failed", traffic);
  }
}

bool AllDead(const std::vector<QueryConn>& states) {
  for (const QueryConn& s : states) {
    if (!s.dead) return false;
  }
  return true;
}

bool AnyInflight(const std::vector<QueryConn>& states) {
  for (const QueryConn& s : states) {
    if (!s.inflight.empty()) return true;
  }
  return false;
}

void AbandonInflight(std::vector<QueryConn>* states, Traffic* traffic) {
  for (QueryConn& s : *states) {
    if (!s.inflight.empty()) KillConn(&s, "drain timed out", traffic);
  }
}

}  // namespace

WireConn::~WireConn() {
  if (fd_ >= 0) ::close(fd_);
}

bool WireConn::Connect(uint16_t port) {
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) return false;
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    return false;
  }
  const int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  const int flags = ::fcntl(fd_, F_GETFL, 0);
  return flags >= 0 && ::fcntl(fd_, F_SETFL, flags | O_NONBLOCK) == 0;
}

void WireConn::Queue(const std::vector<uint8_t>& bytes) {
  if (sent_ == outbox_.size()) {
    outbox_.clear();
    sent_ = 0;
  }
  outbox_.insert(outbox_.end(), bytes.begin(), bytes.end());
}

bool WireConn::Flush() {
  while (sent_ < outbox_.size()) {
    const ssize_t n = ::send(fd_, outbox_.data() + sent_,
                             outbox_.size() - sent_, MSG_NOSIGNAL);
    if (n > 0) {
      sent_ += static_cast<size_t>(n);
    } else if (n < 0 && errno == EINTR) {
      continue;
    } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      break;
    } else {
      return false;
    }
  }
  if (sent_ == outbox_.size()) {
    outbox_.clear();
    sent_ = 0;
  }
  return true;
}

bool WireConn::Read(std::vector<net::Frame>* frames) {
  if (buffer_.empty()) buffer_.resize(256 << 10);
  bool open = true;
  for (;;) {
    const ssize_t n = ::recv(fd_, buffer_.data(), buffer_.size(), 0);
    if (n > 0) {
      decoder_.Feed(buffer_.data(), static_cast<size_t>(n));
      if (static_cast<size_t>(n) < buffer_.size()) break;
    } else if (n < 0 && errno == EINTR) {
      continue;
    } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      break;
    } else {
      open = false;
      break;
    }
  }
  for (;;) {
    net::Frame frame;
    const net::DecodeStatus status = decoder_.Next(&frame);
    if (status == net::DecodeStatus::kFrame) {
      frames->push_back(std::move(frame));
    } else if (status == net::DecodeStatus::kNeedMore) {
      break;
    } else {
      return false;
    }
  }
  return open;
}

void Traffic::Merge(const Traffic& other) {
  outcome.Merge(other.outcome);
  keys_answered += other.keys_answered;
  latency_ns.insert(latency_ns.end(), other.latency_ns.begin(),
                    other.latency_ns.end());
  done_ns.insert(done_ns.end(), other.done_ns.begin(), other.done_ns.end());
  late_ns.insert(late_ns.end(), other.late_ns.begin(), other.late_ns.end());
  spans.insert(spans.end(), other.spans.begin(), other.spans.end());
}

void Traffic::Reserve(size_t frames) {
  for (std::vector<uint64_t>* v : {&latency_ns, &done_ns, &late_ns}) {
    v->assign(frames, 0);
    v->clear();
  }
}

StreamSource::StreamSource(const std::vector<uint64_t>& queries,
                           const uint8_t* ref, const uint8_t* expected,
                           size_t frame_keys, size_t first_frame,
                           uint64_t max_frames)
    : queries_(queries),
      ref_(ref),
      expected_(expected),
      frame_keys_(frame_keys),
      frames_per_pass_(queries.size() / frame_keys),
      cursor_(frames_per_pass_ == 0 ? 0 : first_frame % frames_per_pass_),
      max_frames_(max_frames) {}

const uint64_t* StreamSource::Next(PendingFrame* frame) {
  if (frames_per_pass_ == 0 || issued_ >= max_frames_) return nullptr;
  const size_t offset = cursor_ * frame_keys_;
  frame->trace = cursor_;
  frame->count = static_cast<uint32_t>(frame_keys_);
  frame->ref = ref_ == nullptr ? nullptr : ref_ + offset;
  frame->must = expected_ == nullptr ? nullptr : expected_ + offset;
  cursor_ = (cursor_ + 1) % frames_per_pass_;
  ++issued_;
  return queries_.data() + offset;
}

void RunClosedLoop(const std::vector<WireConn*>& conns, size_t depth,
                   QuerySource* source, const std::function<bool()>& stop,
                   Traffic* traffic) {
  const uint64_t start = NowNs();
  std::vector<QueryConn> states(conns.size());
  for (size_t i = 0; i < conns.size(); ++i) {
    states[i].conn = conns[i];
    states[i].free_at.assign(depth, start);
  }
  std::vector<uint8_t> bytes;
  bool stopping = false;
  uint64_t stop_ns = 0;
  for (;;) {
    if (!stopping && stop()) stopping = true;
    const uint64_t now = NowNs();
    for (QueryConn& s : states) {
      while (!stopping && !s.dead && !s.free_at.empty()) {
        PendingFrame frame;
        const uint64_t* keys = source->Next(&frame);
        if (keys == nullptr) {
          stopping = true;
          break;
        }
        frame.due_ns = s.free_at.front();
        s.free_at.pop_front();
        Issue(&s, keys, std::move(frame), now, &bytes, traffic);
      }
      if (!s.dead && s.conn->HasOutput() && !s.conn->Flush()) {
        KillConn(&s, "send failed", traffic);
      }
    }
    if (AllDead(states)) break;
    if (stopping) {
      if (stop_ns == 0) stop_ns = now;
      if (!AnyInflight(states)) break;
      if (now - stop_ns > kDrainTimeoutNs) {
        AbandonInflight(&states, traffic);
        break;
      }
    }
    // Short timeout: stop() is re-evaluated between reads.
    PollAndComplete(&states, 2'000'000, /*closed_loop=*/true, traffic);
  }
}

void RunOpenLoop(const std::vector<WireConn*>& conns, double frames_per_s,
                 uint64_t start_ns, uint64_t end_ns, QuerySource* source,
                 Traffic* traffic) {
  // While issuing, the loop busy-polls instead of sleeping until the next
  // frame is due: a sleeping generator adds its own wakeup, tens of
  // microseconds on a VM and varying with host load, to every frame's
  // latency and to its lateness.  It spins on one of the four cores; the
  // server needs three.
  std::vector<QueryConn> states(conns.size());
  for (size_t i = 0; i < conns.size(); ++i) states[i].conn = conns[i];
  const double period_ns = 1e9 / frames_per_s;
  std::vector<uint8_t> bytes;
  uint64_t k = 0;
  uint64_t next_due = start_ns;
  bool issuing = true;
  for (;;) {
    const uint64_t now = NowNs();
    while (issuing && next_due <= now) {
      if (next_due >= end_ns) {
        issuing = false;
        break;
      }
      QueryConn& s = states[k % states.size()];
      PendingFrame frame;
      const uint64_t* keys = s.dead ? nullptr : source->Next(&frame);
      if (keys == nullptr) {
        issuing = false;
        break;
      }
      frame.due_ns = next_due;
      Issue(&s, keys, std::move(frame), now, &bytes, traffic);
      ++k;
      next_due = start_ns + static_cast<uint64_t>(static_cast<double>(k) *
                                                  period_ns);
    }
    for (QueryConn& s : states) {
      if (!s.dead && s.conn->HasOutput() && !s.conn->Flush()) {
        KillConn(&s, "send failed", traffic);
      }
    }
    if (!issuing) {
      if (!AnyInflight(states)) break;
      if (now > end_ns + kDrainTimeoutNs) {
        AbandonInflight(&states, traffic);
        break;
      }
    }
    PollAndComplete(&states, issuing ? 0 : 2'000'000, /*closed_loop=*/false,
                    traffic);
  }
}

void RunInsertStream(WireConn* conn, const uint64_t* keys, size_t count,
                     size_t frame_keys, size_t depth,
                     std::atomic<uint64_t>* acked, Traffic* traffic) {
  struct InsertFrame {
    uint64_t id = 0;
    uint64_t due_ns = 0;
    uint32_t count = 0;
    bool done = false;
  };
  std::deque<InsertFrame> inflight;  // send order
  std::vector<uint8_t> bytes;
  std::vector<net::Frame> frames;
  uint64_t next_id = 1;
  size_t sent = 0;
  uint64_t prefix = 0;
  const uint64_t start = NowNs();
  std::deque<uint64_t> free_at(depth, start);
  const auto fail = [&](const char* why) {
    for (const InsertFrame& f : inflight) {
      if (!f.done) traffic->outcome.transport_keys += f.count;
    }
    traffic->outcome.transport_keys += count - sent;
    traffic->outcome.attempted += count - sent;
    traffic->outcome.Fail(std::string("insert connection lost: ") + why);
  };
  while (prefix < count) {
    while (sent < count && !free_at.empty()) {
      InsertFrame f;
      f.id = next_id++;
      f.count = static_cast<uint32_t>(std::min(frame_keys, count - sent));
      f.due_ns = free_at.front();
      free_at.pop_front();
      bytes.clear();
      net::EncodeKeyBatchRequest(net::Opcode::kInsertBatch, f.id, keys + sent,
                                 f.count, &bytes);
      conn->Queue(bytes);
      traffic->outcome.attempted += f.count;
      sent += f.count;
      inflight.push_back(f);
    }
    if (conn->HasOutput() && !conn->Flush()) return fail("send failed");
    pollfd pfd{conn->fd(), static_cast<short>(POLLIN | (conn->HasOutput()
                                                            ? POLLOUT
                                                            : 0)),
               0};
    const timespec ts = ToTimespec(kDrainTimeoutNs);
    if (ppoll(&pfd, 1, &ts, nullptr) <= 0) return fail("no response");
    if ((pfd.revents & POLLOUT) && !conn->Flush()) return fail("send failed");
    if ((pfd.revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
    frames.clear();
    const bool ok = conn->Read(&frames);
    const uint64_t now = NowNs();
    for (const net::Frame& response : frames) {
      auto it = std::find_if(
          inflight.begin(), inflight.end(),
          [&](const InsertFrame& f) { return f.id == response.request_id; });
      if (it == inflight.end() || it->done) {
        return fail("response for no pending frame");
      }
      uint64_t failures = 0;
      if (response.is_error() ||
          response.opcode != static_cast<uint8_t>(net::Opcode::kInsertBatch) ||
          !net::DecodeInsertResponsePayload(response.payload.data(),
                                            response.payload.size(),
                                            &failures)) {
        traffic->outcome.error_keys += it->count;
      } else {
        traffic->outcome.rejected += failures;
      }
      it->done = true;
      free_at.push_back(now);
      if (traffic->record_spans) {
        traffic->spans.push_back({it->id - 1, it->due_ns, now, it->count});
      }
    }
    while (!inflight.empty() && inflight.front().done) {
      prefix += inflight.front().count;
      inflight.pop_front();
    }
    acked->store(prefix, std::memory_order_release);
    if (!ok) return fail("read failed");
  }
}

}  // namespace perfbench
