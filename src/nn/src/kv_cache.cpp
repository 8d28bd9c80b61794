#include "hpcgpt/nn/kv_cache.hpp"

#include <algorithm>

#include "hpcgpt/support/error.hpp"

namespace hpcgpt::nn {

KvPagePool::KvPagePool(std::size_t d_model, std::size_t max_pages)
    : d_model_(d_model), max_pages_(max_pages) {
  require(d_model > 0, "KvPagePool: d_model must be positive");
}

std::uint32_t KvPagePool::allocate_locked(bool from_reservation) {
  if (from_reservation) {
    require(max_pages_ == 0 || reserved_ > 0,
            "KvPagePool: allocate_reserved without a reservation");
    if (max_pages_ != 0) --reserved_;
  } else if (max_pages_ != 0 && used_ + reserved_ >= max_pages_) {
    return kNoPage;
  }
  std::uint32_t page;
  if (!free_list_.empty()) {
    page = free_list_.back();
    free_list_.pop_back();
  } else {
    page = static_cast<std::uint32_t>(ref_counts_.size());
    if (page % kPagesPerSlab == 0) {
      slabs_.push_back(
          std::make_unique<float[]>(kPagesPerSlab * page_floats()));
    }
    ref_counts_.push_back(0);
  }
  ref_counts_[page] = 1;
  ++used_;
  return page;
}

std::uint32_t KvPagePool::allocate() {
  const std::uint32_t page = try_allocate();
  require(page != kNoPage,
          "KvPagePool: page budget exhausted (fixed pool) — release "
          "sessions or raise the budget");
  return page;
}

std::uint32_t KvPagePool::try_allocate() {
  std::lock_guard<std::mutex> lock(mutex_);
  return allocate_locked(/*from_reservation=*/false);
}

std::uint32_t KvPagePool::allocate_reserved() {
  std::lock_guard<std::mutex> lock(mutex_);
  return allocate_locked(/*from_reservation=*/true);
}

void KvPagePool::retain(std::uint32_t page) {
  std::lock_guard<std::mutex> lock(mutex_);
  require(page < ref_counts_.size() && ref_counts_[page] > 0,
          "KvPagePool::retain: not a live page");
  ++ref_counts_[page];
}

void KvPagePool::release(std::uint32_t page) {
  std::lock_guard<std::mutex> lock(mutex_);
  require(page < ref_counts_.size() && ref_counts_[page] > 0,
          "KvPagePool::release: not a live page");
  if (--ref_counts_[page] == 0) {
    free_list_.push_back(page);
    --used_;
  }
}

std::uint32_t KvPagePool::ref_count(std::uint32_t page) const {
  std::lock_guard<std::mutex> lock(mutex_);
  require(page < ref_counts_.size(), "KvPagePool::ref_count: bad page id");
  return ref_counts_[page];
}

float* KvPagePool::mutable_data(std::uint32_t page) const {
  // Under the lock: another thread's allocation may append a slab, which
  // can move slabs_'s table while this reads it. The slabs themselves
  // never move, so the pointer stays valid while the caller holds the
  // page.
  std::lock_guard<std::mutex> lock(mutex_);
  return slabs_[page / kPagesPerSlab].get() +
         (page % kPagesPerSlab) * page_floats();
}

float* KvPagePool::data(std::uint32_t page) { return mutable_data(page); }

bool KvPagePool::try_reserve(std::size_t n) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (max_pages_ == 0) return true;
  if (used_ + reserved_ + n > max_pages_) return false;
  reserved_ += n;
  return true;
}

void KvPagePool::cancel_reservation(std::size_t n) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (max_pages_ == 0) return;
  require(reserved_ >= n, "KvPagePool: cancelling more than reserved");
  reserved_ -= n;
}

std::size_t KvPagePool::pages_in_use() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return used_;
}

std::size_t KvPagePool::pages_reserved() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return reserved_;
}

}  // namespace hpcgpt::nn
