// FIFO byte buffer behind the TCP and MPTCP send buffers and MPTCP's record
// queues: one contiguous buffer behind a head offset, read through views.
//
// View lifetime: a view returned by `view()` stays valid until the next
// `append` or `clear` on the same queue. `pop` only advances the head, so a
// caller may pop a record and then go on reading its payload through a view
// taken before the pop; only `append` moves bytes (it compacts the popped
// prefix, or grows into a fresh buffer).
#pragma once

#include <algorithm>
#include <cstdint>

#include "common/bytes.hpp"

namespace cb::transport {

class ByteQueue {
 public:
  /// Append `data`, which must not point into this queue. Compacts the
  /// popped prefix once it is at least as large as the live bytes, and grows
  /// to twice the live size, so storage stays within 2x the peak live bytes.
  void append(BytesView data) {
    const std::size_t live = size();
    if (head_ > 0 && head_ >= live) {
      buf_.erase(buf_.begin(), buf_.begin() + static_cast<std::ptrdiff_t>(head_));
      head_ = 0;
    }
    if (buf_.size() + data.size() > buf_.capacity()) {
      Bytes grown;
      grown.reserve(2 * (live + data.size()));
      grown.insert(grown.end(), buf_.begin() + static_cast<std::ptrdiff_t>(head_), buf_.end());
      buf_.swap(grown);
      head_ = 0;
    }
    buf_.insert(buf_.end(), data.begin(), data.end());
  }

  std::size_t size() const { return buf_.size() - head_; }
  bool empty() const { return size() == 0; }
  /// Bytes of storage held (live, popped-but-not-compacted, and spare).
  std::size_t capacity() const { return buf_.capacity(); }

  /// The `len` bytes starting `offset` bytes from the front, in place
  /// (clamped to the available range). See the lifetime rule above; a caller
  /// that needs the bytes longer copies them out.
  BytesView view(std::size_t offset, std::size_t len) const {
    if (offset >= size()) return {};
    return BytesView(buf_.data() + head_ + offset, std::min(len, size() - offset));
  }

  /// Discard `n` bytes from the front (clamped). Moves no bytes.
  void pop(std::size_t n) { head_ += std::min(n, size()); }

  /// Drop every byte and free the storage.
  void clear() {
    Bytes().swap(buf_);
    head_ = 0;
  }

 private:
  Bytes buf_;
  std::size_t head_ = 0;  // bytes [0, head_) are popped
};

}  // namespace cb::transport
