#include "obs/trace.hpp"

#include <memory>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

#include "support/json_writer.hpp"

namespace parlap::obs {

std::atomic<bool> Tracer::enabled_{false};

/// One thread's event store. `size` is written by the owning thread
/// only (release) and read at flush time (acquire); events below the
/// published size are immutable. The tracer owns the buffer, so a
/// thread may exit before its events are flushed.
struct Tracer::Buffer {
  std::uint32_t tid = 0;
  std::atomic<std::size_t> size{0};
  std::atomic<std::uint64_t> dropped{0};
  std::vector<TraceEvent> events;
};

namespace {

/// Registered buffers, append-only for the process lifetime: clear()
/// resets contents but never deallocates, so the thread-local pointers
/// below can never dangle.
struct Registry {
  mutable std::mutex mutex;
  std::vector<std::unique_ptr<Tracer::Buffer>> buffers;
  std::uint32_t next_tid = 1;
};

Registry& registry() {
  static Registry* r = new Registry;  // immortal: worker threads may
  return *r;                          // record during static teardown
}

thread_local Tracer::Buffer* tls_buffer = nullptr;

thread_local std::uint64_t tls_request_id = 0;

}  // namespace

std::uint64_t current_request_id() noexcept { return tls_request_id; }

RequestIdScope::RequestIdScope(std::uint64_t request_id) noexcept
    : saved_(tls_request_id) {
  tls_request_id = request_id;
}

RequestIdScope::~RequestIdScope() { tls_request_id = saved_; }

Tracer& Tracer::instance() {
  static Tracer* tracer = new Tracer;  // immortal, same reason as above
  return *tracer;
}

Tracer::Buffer* Tracer::buffer_for_thread() {
  Registry& reg = registry();
  const std::scoped_lock lock(reg.mutex);
  auto buffer = std::make_unique<Buffer>();
  buffer->tid = reg.next_tid++;
  buffer->events.resize(kBufferCapacity);
  Buffer* raw = buffer.get();
  reg.buffers.push_back(std::move(buffer));
  tls_buffer = raw;
  return raw;
}

void Tracer::record(const TraceEvent& ev) noexcept {
  Buffer* buffer = tls_buffer;
  if (buffer == nullptr) buffer = buffer_for_thread();
  const std::size_t i = buffer->size.load(std::memory_order_relaxed);
  if (i >= kBufferCapacity) {
    buffer->dropped.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  buffer->events[i] = ev;
  buffer->events[i].tid = buffer->tid;
  buffer->size.store(i + 1, std::memory_order_release);
}

std::size_t Tracer::event_count() const {
  Registry& reg = registry();
  const std::scoped_lock lock(reg.mutex);
  std::size_t total = 0;
  for (const auto& b : reg.buffers) {
    total += b->size.load(std::memory_order_acquire);
  }
  return total;
}

std::uint64_t Tracer::dropped() const {
  Registry& reg = registry();
  const std::scoped_lock lock(reg.mutex);
  std::uint64_t total = 0;
  for (const auto& b : reg.buffers) {
    total += b->dropped.load(std::memory_order_relaxed);
  }
  return total;
}

void Tracer::clear() {
  Registry& reg = registry();
  const std::scoped_lock lock(reg.mutex);
  for (const auto& b : reg.buffers) {
    b->size.store(0, std::memory_order_release);
    b->dropped.store(0, std::memory_order_relaxed);
  }
}

void Tracer::write_chrome(std::ostream& os) const {
  Registry& reg = registry();
  const std::scoped_lock lock(reg.mutex);
  // Written one event per line as it is built: the document never sits
  // in memory whole, and a grep for a request id lists its spans.
  std::string chunk;
  JsonWriter w(chunk);
  w.begin_object();
  w.member("displayTimeUnit", "ms");
  w.key("traceEvents");
  w.begin_array();
  for (const auto& b : reg.buffers) {
    const std::size_t n = b->size.load(std::memory_order_acquire);
    for (std::size_t i = 0; i < n; ++i) {
      const TraceEvent& ev = b->events[i];
      chunk += '\n';
      w.begin_object();
      w.member("name", ev.name);
      w.member("cat", ev.cat);
      w.member("ph", "X");
      // Microsecond timestamps are the trace-event contract; fractional
      // keeps the ns resolution.
      w.member("ts", static_cast<double>(ev.ts_ns) / 1e3);
      w.member("dur", static_cast<double>(ev.dur_ns) / 1e3);
      w.member("pid", 1);
      w.member("tid", ev.tid);
      w.key("args");
      w.begin_object();
      w.member("span_id", ev.span_id);
      for (std::uint32_t a = 0; a < ev.nargs; ++a) {
        w.member(ev.args[a].key, ev.args[a].value);
      }
      w.end_object();
      w.end_object();
      os << chunk;
      chunk.clear();
    }
  }
  chunk += '\n';
  w.end_array();
  w.end_object();
  chunk += '\n';
  os << chunk;
}

void ScopedSpan::finish() noexcept {
  Tracer& tracer = Tracer::instance();
  // Tracing switched off mid-span: drop rather than record a span that
  // a concurrent flush may be reading past.
  if (!Tracer::enabled()) return;
  TraceEvent ev;
  ev.name = name_;
  ev.cat = cat_;
  ev.span_id = tracer.next_span_id();
  ev.ts_ns = start_ns_;
  ev.dur_ns = steady_now_ns() - start_ns_;
  ev.nargs = nargs_;
  for (std::uint32_t a = 0; a < nargs_; ++a) ev.args[a] = args_[a];
  tracer.record(ev);
}

}  // namespace parlap::obs
