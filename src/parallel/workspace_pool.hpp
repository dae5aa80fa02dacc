// A checkout pool of reusable scratch objects for concurrent callers.
//
// The factor-once / solve-many classes used to keep one mutable scratch
// buffer per instance, which made two threads solving against the same
// factorization race on it. WorkspacePool replaces that pattern: each
// call checks a workspace out (reusing a previously returned one when
// available, default-constructing otherwise) and returns it on scope
// exit, so concurrent solves each hold private scratch while sequential
// solves still reuse allocations — the property the old member buffers
// were there for.
#pragma once

#include <memory>
#include <mutex>
#include <utility>
#include <vector>

namespace parlap {

/// Mutex-guarded free list of default-constructible workspace objects.
/// acquire() is the only entry point; the returned Lease hands the object
/// back when it dies. Objects are never shrunk or reset between uses —
/// holders are expected to size them to their needs (the existing
/// prepare-workspace idiom).
template <typename T>
class WorkspacePool {
 public:
  /// RAII checkout: dereference to use the workspace; returns it to the
  /// pool on destruction.
  class Lease {
   public:
    Lease(WorkspacePool* pool, std::unique_ptr<T> obj) noexcept
        : pool_(pool), obj_(std::move(obj)) {}
    ~Lease() {
      if (obj_) pool_->release(std::move(obj_));
    }

    Lease(Lease&& other) noexcept
        : pool_(other.pool_), obj_(std::move(other.obj_)) {}
    Lease& operator=(Lease&&) = delete;
    Lease(const Lease&) = delete;
    Lease& operator=(const Lease&) = delete;

    [[nodiscard]] T& operator*() const noexcept { return *obj_; }
    [[nodiscard]] T* operator->() const noexcept { return obj_.get(); }
    [[nodiscard]] T* get() const noexcept { return obj_.get(); }

   private:
    WorkspacePool* pool_;
    std::unique_ptr<T> obj_;
  };

  WorkspacePool() = default;
  WorkspacePool(const WorkspacePool&) = delete;
  WorkspacePool& operator=(const WorkspacePool&) = delete;

  /// Checks a workspace out, constructing one if the free list is empty.
  [[nodiscard]] Lease acquire() {
    {
      const std::scoped_lock lock(mutex_);
      if (!free_.empty()) {
        std::unique_ptr<T> obj = std::move(free_.back());
        free_.pop_back();
        return Lease(this, std::move(obj));
      }
    }
    return Lease(this, std::make_unique<T>());
  }

 private:
  void release(std::unique_ptr<T> obj) {
    const std::scoped_lock lock(mutex_);
    free_.push_back(std::move(obj));
  }

  std::mutex mutex_;
  std::vector<std::unique_ptr<T>> free_;
};

}  // namespace parlap
