// Safe POD (de)serialization helpers for message buffers.
//
// All wire formats in this project are little-endian host-order structs
// copied with memcpy — never by pointer reinterpretation — to keep the
// code free of alignment/aliasing UB (Core Guidelines type-safety profile).
#pragma once

#include <atomic>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <type_traits>
#include <vector>

namespace catfish {

namespace detail {

/// RelaxedCopy's loop for one word size: copies whole `Word`s from
/// offset `off` while they fit in `n`; returns the offset after them.
template <typename Word>
size_t RelaxedCopyWords(std::byte* dst, const std::byte* src, size_t off,
                        size_t n) noexcept {
  for (; off + sizeof(Word) <= n; off += sizeof(Word)) {
    const Word v = std::atomic_ref<Word>(
                       *const_cast<Word*>(
                           reinterpret_cast<const Word*>(src + off)))
                       .load(std::memory_order_relaxed);
    std::atomic_ref<Word>(*reinterpret_cast<Word*>(dst + off))
        .store(v, std::memory_order_relaxed);
  }
  return off;
}

}  // namespace detail

/// Copies `n` bytes with relaxed word-sized atomic accesses: 8-byte
/// words when both pointers are 8-aligned, 4-byte words when both are
/// 4-aligned, bytes otherwise (and for the tail).
///
/// For memory that is racily shared across threads under a seqlock (the
/// versioned chunk layout, rtree/layout.h): the version stamps make torn
/// data *detectable*, but the byte copies themselves must still be free
/// of undefined behaviour. Plain memcpy between a seqlock writer and the
/// simulated NIC's READ service is a data race; copying through relaxed
/// atomics keeps the race defined (and ThreadSanitizer-clean) at zero
/// cost on x86, where relaxed word accesses are ordinary loads/stores.
inline void RelaxedCopy(std::byte* dst, const std::byte* src,
                        size_t n) noexcept {
  const uintptr_t both = reinterpret_cast<uintptr_t>(dst) |
                         reinterpret_cast<uintptr_t>(src);
  size_t off = 0;
  if (both % alignof(uint64_t) == 0) {
    off = detail::RelaxedCopyWords<uint64_t>(dst, src, off, n);
  }
  if (both % alignof(uint32_t) == 0) {
    off = detail::RelaxedCopyWords<uint32_t>(dst, src, off, n);
  }
  detail::RelaxedCopyWords<std::byte>(dst, src, off, n);
}

/// Zeroes `n` bytes with the same relaxed word-sized atomic accesses as
/// RelaxedCopy, for regions a remote QP may write concurrently (a ring
/// receiver clearing consumed frames while the next WRITE is landing).
inline void RelaxedZero(std::byte* dst, size_t n) noexcept {
  size_t off = 0;
  if (reinterpret_cast<uintptr_t>(dst) % alignof(uint32_t) == 0) {
    for (; off + sizeof(uint32_t) <= n; off += sizeof(uint32_t)) {
      std::atomic_ref<uint32_t>(*reinterpret_cast<uint32_t*>(dst + off))
          .store(0, std::memory_order_relaxed);
    }
  }
  for (; off < n; ++off) {
    std::atomic_ref<std::byte>(dst[off]).store(std::byte{0},
                                               std::memory_order_relaxed);
  }
}

template <typename T>
concept TriviallyCopyable = std::is_trivially_copyable_v<T>;

/// Copy a POD value into `dst` at `offset`. The caller guarantees space.
template <TriviallyCopyable T>
void StorePod(std::span<std::byte> dst, size_t offset, const T& value) {
  assert(offset + sizeof(T) <= dst.size());
  std::memcpy(dst.data() + offset, &value, sizeof(T));
}

/// Read a POD value out of `src` at `offset`.
template <TriviallyCopyable T>
T LoadPod(std::span<const std::byte> src, size_t offset) {
  assert(offset + sizeof(T) <= src.size());
  T value;
  std::memcpy(&value, src.data() + offset, sizeof(T));
  return value;
}

/// Append-only byte builder for encoding variable-length messages.
class ByteWriter {
 public:
  ByteWriter() = default;
  explicit ByteWriter(size_t reserve) { buf_.reserve(reserve); }

  template <TriviallyCopyable T>
  void Append(const T& value) {
    const size_t off = buf_.size();
    buf_.resize(off + sizeof(T));
    std::memcpy(buf_.data() + off, &value, sizeof(T));
  }

  void AppendBytes(std::span<const std::byte> bytes) {
    buf_.insert(buf_.end(), bytes.begin(), bytes.end());
  }

  std::span<const std::byte> bytes() const { return buf_; }
  size_t size() const { return buf_.size(); }
  std::vector<std::byte> Take() { return std::move(buf_); }

 private:
  std::vector<std::byte> buf_;
};

/// Sequential reader over an encoded message.
class ByteReader {
 public:
  explicit ByteReader(std::span<const std::byte> data) : data_(data) {}

  template <TriviallyCopyable T>
  T Read() {
    T value = LoadPod<T>(data_, pos_);
    pos_ += sizeof(T);
    return value;
  }

  std::span<const std::byte> ReadBytes(size_t n) {
    assert(pos_ + n <= data_.size());
    auto out = data_.subspan(pos_, n);
    pos_ += n;
    return out;
  }

  size_t remaining() const { return data_.size() - pos_; }
  bool AtEnd() const { return pos_ == data_.size(); }

 private:
  std::span<const std::byte> data_;
  size_t pos_ = 0;
};

}  // namespace catfish
