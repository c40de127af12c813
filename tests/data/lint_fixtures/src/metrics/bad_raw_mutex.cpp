// Fixture: raw-mutex fires three times — a std::lock_guard<std::mutex> and
// a std::mutex member, host locks in a tree that holds none.
#include <mutex>

namespace cmcp::metrics {

class BadCounter {
 public:
  void bump() {
    std::lock_guard<std::mutex> lock(mu_);  // findings: lock_guard + mutex
    ++n_;
  }

 private:
  std::mutex mu_;  // finding: raw mutex member
  long n_ = 0;
};

}  // namespace cmcp::metrics
