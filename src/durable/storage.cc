#include "durable/storage.h"

#include <algorithm>
#include <stdexcept>

namespace catfish::durable {

// ---------------------------------------------------------------------------
// MemLogStorage
// ---------------------------------------------------------------------------

void MemLogStorage::Append(std::span<const std::byte> bytes) {
  const std::scoped_lock lock(mu_);
  bytes_.insert(bytes_.end(), bytes.begin(), bytes.end());
}

void MemLogStorage::Sync() {
  const std::scoped_lock lock(mu_);
  durable_len_ = bytes_.size();
  sync_lens_.push_back(durable_len_);
}

void MemLogStorage::Reset(std::span<const std::byte> bytes) {
  const std::scoped_lock lock(mu_);
  bytes_.assign(bytes.begin(), bytes.end());
  durable_len_ = bytes_.size();
  sync_lens_.clear();
  sync_lens_.push_back(durable_len_);
}

std::vector<std::byte> MemLogStorage::ReadAll() const {
  const std::scoped_lock lock(mu_);
  return bytes_;
}

size_t MemLogStorage::size() const {
  const std::scoped_lock lock(mu_);
  return bytes_.size();
}

size_t MemLogStorage::durable_size() const {
  const std::scoped_lock lock(mu_);
  return durable_len_;
}

uint64_t MemLogStorage::sync_count() const {
  const std::scoped_lock lock(mu_);
  return sync_lens_.size();
}

std::vector<size_t> MemLogStorage::sync_history() const {
  const std::scoped_lock lock(mu_);
  return sync_lens_;
}

std::unique_ptr<MemLogStorage> MemLogStorage::CrashClone(
    size_t boundary, size_t torn_extra_bytes) const {
  const std::scoped_lock lock(mu_);
  size_t keep = 0;
  if (boundary > 0) {
    if (boundary > sync_lens_.size()) {
      throw std::out_of_range("MemLogStorage::CrashClone: no such boundary");
    }
    keep = sync_lens_[boundary - 1];
  }
  keep = std::min(keep + torn_extra_bytes, bytes_.size());
  auto clone = std::make_unique<MemLogStorage>();
  clone->bytes_.assign(bytes_.begin(),
                       bytes_.begin() + static_cast<ptrdiff_t>(keep));
  // Post-crash the surviving bytes ARE the durable content.
  clone->durable_len_ = clone->bytes_.size();
  return clone;
}

// ---------------------------------------------------------------------------
// MemCheckpointStore
// ---------------------------------------------------------------------------

void MemCheckpointStore::Write(std::span<const std::byte> blob) {
  const std::scoped_lock lock(mu_);
  blob_.emplace(blob.begin(), blob.end());
  ++writes_;
}

std::optional<std::vector<std::byte>> MemCheckpointStore::Read() const {
  const std::scoped_lock lock(mu_);
  return blob_;
}

uint64_t MemCheckpointStore::writes() const {
  const std::scoped_lock lock(mu_);
  return writes_;
}

}  // namespace catfish::durable
