#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "hpcgpt/tensor/kernels.hpp"

namespace hpcgpt::nn {

/// Block allocator for the paged KV cache: a pool of fixed-size pages,
/// each holding kPageSize positions of one layer's keys *and* values.
///
/// Page layout (page_floats() floats): the K slab first — feature-major
/// with stride kPageSize, so feature i's slots are page[i·16 + s] for
/// slot s — then the V slab at offset d_model·16 with the same layout.
/// Feature-major within a page keeps the attention position loops
/// unit-stride; a page boundary every 16 positions coincides with the
/// 8- and 16-wide SIMD chunk grids of the paged attention kernels, so
/// only the last, partial page needs a tail.
///
/// Pages are reference-counted: a page shared between sessions (prefix
/// reuse, see serve::PrefixCache) is immutable until its refcount drops
/// to 1; writers fork (copy-on-write) shared pages before appending.
/// Storage grows in chunked slabs so page pointers stay stable for the
/// lifetime of the pool — block tables cache raw float* per page.
///
/// Two capacity modes:
///  - growable (max_pages == 0): allocation never fails; the pool grows
///    on demand. This backs Transformer's default per-model pool, so
///    standalone sessions (sampler, tests, benches) keep their old
///    "always works" semantics.
///  - fixed budget (max_pages > 0): the serving pool. allocate() throws
///    and try_allocate() returns kNoPage on exhaustion; the scheduler
///    reserves pages up front (try_reserve) so admitted streams can
///    always finish, and sheds requests that cannot fit.
///
/// All methods are thread-safe (one internal mutex): prefill runs on
/// pool worker threads while the scheduler admits/evicts.
class KvPagePool {
 public:
  static constexpr std::size_t kPageSize = tensor::kernels::kKvPageSize;
  static constexpr std::uint32_t kNoPage = 0xFFFFFFFFu;

  /// d_model fixes the page geometry; max_pages == 0 means growable.
  explicit KvPagePool(std::size_t d_model, std::size_t max_pages = 0);

  KvPagePool(const KvPagePool&) = delete;
  KvPagePool& operator=(const KvPagePool&) = delete;

  std::size_t d_model() const { return d_model_; }
  /// Floats per page: K slab + V slab.
  std::size_t page_floats() const { return 2 * d_model_ * kPageSize; }
  /// Offset of the V slab within a page.
  std::size_t v_offset() const { return d_model_ * kPageSize; }

  /// Allocates a zero-refcount-1 page; throws hpcgpt::Error on a fixed
  /// pool with no unreserved capacity left (never aborts).
  std::uint32_t allocate();
  /// Like allocate(), but returns kNoPage instead of throwing.
  std::uint32_t try_allocate();
  /// Allocates against previously reserved capacity (fixed pools only;
  /// on growable pools it behaves like allocate()). Requires an
  /// outstanding reservation.
  std::uint32_t allocate_reserved();

  /// Refcount bookkeeping. release() frees the page when the count hits
  /// zero; the slot is recycled by later allocations.
  void retain(std::uint32_t page);
  void release(std::uint32_t page);
  std::uint32_t ref_count(std::uint32_t page) const;

  /// Stable data pointer of a live page.
  float* data(std::uint32_t page);
  const float* data(std::uint32_t page) const { return mutable_data(page); }

  /// Reserves n pages of capacity for a future stream (admission
  /// control): returns false, reserving nothing, if used + reserved + n
  /// would exceed a fixed budget. Growable pools always succeed.
  bool try_reserve(std::size_t n);
  /// Returns n unused reservation credits to the pool.
  void cancel_reservation(std::size_t n);

  std::size_t capacity() const { return max_pages_; }  ///< 0 = unbounded
  std::size_t pages_in_use() const;
  std::size_t pages_reserved() const;

 private:
  float* mutable_data(std::uint32_t page) const;
  std::uint32_t allocate_locked(bool from_reservation);

  // 64 pages per slab: growth appends slabs, never moves existing pages.
  static constexpr std::size_t kPagesPerSlab = 64;

  const std::size_t d_model_;
  const std::size_t max_pages_;
  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<float[]>> slabs_;
  std::vector<std::uint32_t> ref_counts_;  // 0 = free, indexed by page id
  std::vector<std::uint32_t> free_list_;
  std::size_t used_ = 0;
  std::size_t reserved_ = 0;
};

}  // namespace hpcgpt::nn
