// Fixture: const probes that write non-atomic mutable members.
#include <cstdint>
#include <memory>

struct Stats {
  uint64_t queries = 0;
};

class BadFilter {
 public:
  bool Contains(uint64_t key) const {
    ++stats_.queries;  // races under a shared lock
    return (key & 1) != 0;
  }

 private:
  mutable Stats stats_;
  // The pointee is a lock, but the member itself is a plain pointer.
  mutable std::unique_ptr<SpinLock[]> locks_;
  // An allow with no reason after it is not a justification.
  mutable uint64_t last_key_ = 0;  // pf-lint: allow(const-probe)
};
