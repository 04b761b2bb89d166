// Fixture: the mutable members a const probe may write.  A comment that
// says mutable is not a member.
#include <atomic>
#include <cstdint>
#include <mutex>

class GoodFilter {
 public:
  bool Contains(uint64_t key) const {
    queries_.fetch_add(1, std::memory_order_relaxed);
    auto count = [n = 0]() mutable { return ++n; };
    auto bump = [&]() mutable { return count(); };
    return (key & 1) != 0 && bump() > 0;
  }

 private:
  mutable std::atomic<uint64_t> queries_{0};
  mutable std::atomic_flag busy_ = ATOMIC_FLAG_INIT;
  alignas(64) mutable Mutex mutex_;
  mutable std::shared_mutex table_mutex_;
  mutable internal::SpinLock spin_;
  // Single-threaded bench scaffolding, never behind a shared lock.
  mutable uint64_t scratch_ = 0;  // pf-lint: allow(const-probe) single-threaded scratch
};
