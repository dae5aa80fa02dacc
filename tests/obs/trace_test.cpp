// Span tracer contract: the disabled path allocates nothing, enabled
// spans land in Chrome trace-event JSON with their args, and overflow
// drops instead of blocking.
#include "obs/trace.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "service/json.hpp"

namespace {

// Global operator new/delete instrumentation. Counting is exact for
// this process: every allocation in the test binary routes through
// here, so a zero delta across a region proves the region did not
// allocate.
std::atomic<std::uint64_t> g_allocations{0};

}  // namespace

// GCC cannot see that every new in this binary routes through these
// malloc-backed replacements, so it flags the free() as mismatched
// under the sanitizer builds; the pairing is correct by construction.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

#pragma GCC diagnostic pop

namespace parlap::obs {
namespace {

/// Checked member lookup on a parsed trace document; fails the test with
/// the missing key's name instead of dereferencing null.
const service::JsonValue& at(const service::JsonValue& v, const char* key) {
  const service::JsonValue* member = v.find(key);
  EXPECT_NE(member, nullptr) << "missing key: " << key;
  if (member == nullptr) {
    static const service::JsonValue null_value;
    return null_value;
  }
  return *member;
}

TEST(TraceTest, DisabledSpanAllocatesNothing) {
  Tracer::instance().disable();
  ASSERT_FALSE(Tracer::enabled());

  const std::uint64_t before = g_allocations.load();
  for (int i = 0; i < 100000; ++i) {
    PARLAP_TRACE_SPAN("noop", "test");
    PARLAP_TRACE_SPAN_N(named, "noop2", "test");
    named.arg("k", static_cast<double>(i));
  }
  const std::uint64_t after = g_allocations.load();
  EXPECT_EQ(after, before) << "disabled spans must not allocate";
  EXPECT_EQ(Tracer::instance().event_count(), 0u);
}

TEST(TraceTest, DisabledSpanRecordsNothing) {
  Tracer::instance().disable();
  Tracer::instance().clear();
  {
    PARLAP_TRACE_SPAN("invisible", "test");
  }
  EXPECT_EQ(Tracer::instance().event_count(), 0u);
  EXPECT_EQ(Tracer::instance().dropped(), 0u);
}

TEST(TraceTest, EnabledSpansEmitValidChromeJson) {
  Tracer& tracer = Tracer::instance();
  tracer.clear();
  tracer.enable();
  {
    PARLAP_TRACE_SPAN_N(outer, "outer", "test");
    outer.arg("answer", 42.0);
    { PARLAP_TRACE_SPAN("inner", "test"); }
    // Names are written by the JSON writer's string rule: a quote and a
    // tab come back from the parser exactly.
    { PARLAP_TRACE_SPAN("say \"hi\"\tnow", "test"); }
  }
  // A second thread gets its own buffer and tid.
  std::thread worker([] { PARLAP_TRACE_SPAN("worker", "test"); });
  worker.join();
  tracer.disable();

  EXPECT_EQ(tracer.event_count(), 4u);
  EXPECT_EQ(tracer.dropped(), 0u);

  std::ostringstream os;
  tracer.write_chrome(os);
  const service::JsonValue doc = service::parse_json(os.str());
  const auto& events = at(doc, "traceEvents").as_array();
  ASSERT_EQ(events.size(), 4u);

  bool saw_outer = false;
  bool saw_inner = false;
  bool saw_escaped = false;
  bool saw_worker = false;
  std::uint64_t main_tid = 0;
  std::uint64_t worker_tid = 0;
  for (const service::JsonValue& ev : events) {
    EXPECT_EQ(at(ev, "ph").as_string(), "X");
    EXPECT_EQ(at(ev, "cat").as_string(), "test");
    EXPECT_GE(at(ev, "ts").as_number(), 0.0);
    EXPECT_GE(at(ev, "dur").as_number(), 0.0);
    EXPECT_GT(at(at(ev, "args"), "span_id").as_number(), 0.0);
    const std::string& name = at(ev, "name").as_string();
    if (name == "outer") {
      saw_outer = true;
      main_tid = static_cast<std::uint64_t>(at(ev, "tid").as_number());
      EXPECT_EQ(at(at(ev, "args"), "answer").as_number(), 42.0);
    } else if (name == "inner") {
      saw_inner = true;
    } else if (name == "say \"hi\"\tnow") {
      saw_escaped = true;
    } else if (name == "worker") {
      saw_worker = true;
      worker_tid = static_cast<std::uint64_t>(at(ev, "tid").as_number());
    }
  }
  EXPECT_TRUE(saw_outer && saw_inner && saw_escaped && saw_worker);
  EXPECT_NE(main_tid, worker_tid);
  tracer.clear();
}

TEST(TraceTest, NestedSpanIsContainedInParent) {
  Tracer& tracer = Tracer::instance();
  tracer.clear();
  tracer.enable();
  {
    PARLAP_TRACE_SPAN("parent", "test");
    { PARLAP_TRACE_SPAN("child", "test"); }
  }
  tracer.disable();
  std::ostringstream os;
  tracer.write_chrome(os);
  const service::JsonValue doc = service::parse_json(os.str());
  double parent_ts = -1;
  double parent_end = -1;
  double child_ts = -1;
  double child_end = -1;
  for (const service::JsonValue& ev : at(doc, "traceEvents").as_array()) {
    const double ts = at(ev, "ts").as_number();
    const double end = ts + at(ev, "dur").as_number();
    if (at(ev, "name").as_string() == "parent") {
      parent_ts = ts;
      parent_end = end;
    } else if (at(ev, "name").as_string() == "child") {
      child_ts = ts;
      child_end = end;
    }
  }
  ASSERT_GE(parent_ts, 0.0);
  ASSERT_GE(child_ts, 0.0);
  EXPECT_LE(parent_ts, child_ts);
  EXPECT_GE(parent_end, child_end);
  tracer.clear();
}

TEST(TraceTest, ManualEndClosesOnceAndArgsStick) {
  Tracer& tracer = Tracer::instance();
  tracer.clear();
  tracer.enable();
  {
    PARLAP_TRACE_SPAN_N(span, "phased", "test");
    span.arg("k", 7.0);
    span.end();
    span.end();  // idempotent: the destructor must not double-record
  }
  tracer.disable();
  EXPECT_EQ(tracer.event_count(), 1u);
  std::ostringstream os;
  tracer.write_chrome(os);
  const service::JsonValue doc = service::parse_json(os.str());
  const auto& events = at(doc, "traceEvents").as_array();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(at(at(events[0], "args"), "k").as_number(), 7.0);
  tracer.clear();
}

TEST(TraceTest, OverflowDropsInsteadOfGrowing) {
  Tracer& tracer = Tracer::instance();
  tracer.clear();
  tracer.enable();
  const std::size_t before = tracer.event_count();
  // One thread can hold kBufferCapacity events; overfill by 1000.
  for (std::size_t i = 0; i < Tracer::kBufferCapacity + 1000; ++i) {
    PARLAP_TRACE_SPAN("flood", "test");
  }
  tracer.disable();
  EXPECT_LE(tracer.event_count() - before, Tracer::kBufferCapacity);
  EXPECT_GE(tracer.dropped(), 1000u);
  tracer.clear();
  EXPECT_EQ(tracer.event_count(), 0u);
  EXPECT_EQ(tracer.dropped(), 0u);
}

TEST(TraceTest, ClearedEventsDoNotReappear) {
  Tracer& tracer = Tracer::instance();
  tracer.clear();
  tracer.enable();
  { PARLAP_TRACE_SPAN("once", "test"); }
  tracer.disable();
  tracer.clear();
  std::ostringstream os;
  tracer.write_chrome(os);
  const service::JsonValue doc = service::parse_json(os.str());
  EXPECT_TRUE(at(doc, "traceEvents").as_array().empty());
}

}  // namespace
}  // namespace parlap::obs
