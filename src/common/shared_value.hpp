// An immutable value that every copy of its handle shares.
//
// Replay reports are made once and then copied into batched results,
// serving responses, promises and callbacks.  A SharedValue<T> holds the
// value in one reference-counted heap block, so a copy of the handle costs
// a reference-count increment, never a copy of T.  The read surface mirrors
// std::optional (has_value, explicit bool, * and ->), and there is no
// mutable access: once assigned, the value never changes.
#pragma once

#include <memory>
#include <utility>

namespace resparc {

/// Optional, immutable T shared by every copy of the handle.
template <typename T>
class SharedValue {
 public:
  /// An empty handle (has_value() is false).
  SharedValue() = default;

  /// Moves `value` into a new shared block: the one allocation.
  SharedValue& operator=(T value) {
    ptr_ = std::make_shared<const T>(std::move(value));
    return *this;
  }

  /// True when the handle holds a value.
  bool has_value() const noexcept { return ptr_ != nullptr; }
  /// Same as has_value().
  explicit operator bool() const noexcept { return has_value(); }
  /// The shared value; the handle must hold one.
  const T& operator*() const noexcept { return *ptr_; }
  /// Member access to the shared value; the handle must hold one.
  const T* operator->() const noexcept { return ptr_.get(); }

 private:
  std::shared_ptr<const T> ptr_;
};

}  // namespace resparc
