// Fixed-capacity bitset of CPU cores. PSPT tracks, per mapping unit, exactly
// which cores hold a private PTE; shootdown targeting and the CMCP core-map
// count both derive from this mask.
//
// The capacity is 1088 cores (17 words), but a mask holds only its leading
// live words: making, copying, scanning and comparing a mask touch those
// alone, so on a 56-core machine every mask operation is one word, not
// seventeen.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>

#include "common/assert.h"
#include "common/types.h"

namespace cmcp {

class CoreMask {
 public:
  /// Upper bound on simulated cores. Knights Corner has 61, but the engine
  /// sweeps past the paper's hardware: the 512/1024-core bench rows probe
  /// where CMCP's no-shootdown advantage saturates, so leave room for 1024
  /// app cores plus scanner pseudo-cores.
  static constexpr CoreId kMaxCores = 1088;

  /// Number of 64-bit words backing a full mask.
  static constexpr std::size_t kWords = kMaxCores / 64;

  /// The empty mask. Words past live_ are never read, so they are left
  /// unwritten here and copies carry only the live words. Word 0 alone is
  /// zeroed: set() ors only into words it has taken in, but GCC 12 under
  /// -fsanitize=address cannot see that and warns -Wmaybe-uninitialized.
  CoreMask() { words_[0] = 0; }
  CoreMask(const CoreMask& o) : live_(o.live_) { copy_live(o); }
  CoreMask& operator=(const CoreMask& o) {
    live_ = o.live_;
    copy_live(o);
    return *this;
  }

  void set(CoreId core) {
    CMCP_CHECK(core < kMaxCores);
    const unsigned wi = core >> 6;
    grow(wi + 1);
    words_[wi] |= std::uint64_t{1} << (core & 63);
  }

  void clear(CoreId core) {
    CMCP_CHECK(core < kMaxCores);
    const unsigned wi = core >> 6;
    if (wi < live_) words_[wi] &= ~(std::uint64_t{1} << (core & 63));
  }

  bool test(CoreId core) const {
    CMCP_CHECK(core < kMaxCores);
    return (word(core >> 6) >> (core & 63)) & 1;
  }

  void reset() { live_ = 0; }

  bool any() const {
    for (unsigned wi = 0; wi < live_; ++wi)
      if (words_[wi] != 0) return true;
    return false;
  }

  bool none() const { return !any(); }

  /// Number of set bits == number of mapping cores.
  unsigned count() const {
    unsigned c = 0;
    for (unsigned wi = 0; wi < live_; ++wi)
      c += static_cast<unsigned>(std::popcount(words_[wi]));
    return c;
  }

  /// Invoke fn(CoreId) for every set bit, ascending.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (unsigned wi = 0; wi < live_; ++wi) {
      std::uint64_t w = words_[wi];
      while (w != 0) {
        const unsigned bit = static_cast<unsigned>(std::countr_zero(w));
        fn(static_cast<CoreId>(wi * 64 + bit));
        w &= w - 1;
      }
    }
  }

  /// Raw word access, for dense per-unit mask storage (mm::PageTable keeps
  /// only the words its core block reaches per unit and widens to a
  /// CoreMask at the API boundary).
  std::uint64_t word(std::size_t i) const { return i < live_ ? words_[i] : 0; }
  void set_word(std::size_t i, std::uint64_t w) {
    if (i >= live_) {
      if (w == 0) return;
      grow(static_cast<unsigned>(i + 1));
    }
    words_[i] = w;
  }

  /// A mask from `n` stored words (dense per-unit storage widened at the
  /// API boundary).
  static CoreMask from_words(const std::uint64_t* w, unsigned n) {
    CoreMask m;
    for (unsigned i = 0; i < n; ++i) m.set_word(i, w[i]);
    return m;
  }

  /// All cores in [0, n).
  static CoreMask first_n(CoreId n) {
    CMCP_CHECK(n <= kMaxCores);
    CoreMask m;
    for (CoreId wi = 0; wi < n / 64; ++wi) m.words_[wi] = ~std::uint64_t{0};
    if (n % 64 != 0) m.words_[n / 64] = (std::uint64_t{1} << (n % 64)) - 1;
    m.live_ = (n + 63) / 64;
    return m;
  }

  /// Equal bits, whatever the live bounds.
  friend bool operator==(const CoreMask& a, const CoreMask& b) {
    const unsigned n = std::max(a.live_, b.live_);
    for (unsigned i = 0; i < n; ++i)
      if (a.word(i) != b.word(i)) return false;
    return true;
  }

  CoreMask operator|(const CoreMask& o) const {
    CoreMask r;
    r.live_ = std::max(live_, o.live_);
    for (unsigned i = 0; i < r.live_; ++i) r.words_[i] = word(i) | o.word(i);
    return r;
  }

  CoreMask operator&(const CoreMask& o) const {
    CoreMask r;
    r.live_ = std::min(live_, o.live_);
    for (unsigned i = 0; i < r.live_; ++i) r.words_[i] = words_[i] & o.words_[i];
    return r;
  }

 private:
  /// Raise the live word count to `n`, zeroing the words it takes in.
  void grow(unsigned n) {
    while (live_ < n) words_[live_++] = 0;
  }

  void copy_live(const CoreMask& o) {
    for (unsigned i = 0; i < live_; ++i) words_[i] = o.words_[i];
  }

  /// Words [0, live_) are the mask; the rest are not part of it, are
  /// never read and stay unwritten.
  std::array<std::uint64_t, kWords> words_;
  /// Live word count: every bit at or past word live_ is clear, so scans
  /// stop here instead of walking all kWords. An upper bound, not exact —
  /// clear() leaves it alone — which keeps every mutator branch-light.
  unsigned live_ = 0;
};

}  // namespace cmcp
