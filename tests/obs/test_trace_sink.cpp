#include "obs/trace_sink.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "obs/context.hpp"

namespace fcdpm::obs {
namespace {

/// Stores everything for assertions on the emission path.
class CaptureSink final : public TraceSink {
 public:
  void event(const TraceEvent& event) override { events.push_back(event); }
  std::vector<TraceEvent> events;
};

TEST(JsonEscape, PassesPlainTextThrough) {
  EXPECT_EQ(json_escape("fc.plan"), "fc.plan");
}

TEST(JsonEscape, EscapesQuotesBackslashesAndControls) {
  EXPECT_EQ(json_escape("a\"b"), "a\\\"b");
  EXPECT_EQ(json_escape("a\\b"), "a\\\\b");
  EXPECT_EQ(json_escape("a\nb"), "a\\nb");
  EXPECT_EQ(json_escape("a\tb"), "a\\tb");
  const std::string bell = json_escape("a\x07");
  EXPECT_NE(bell.find("\\u0007"), std::string::npos);
}

TEST(JsonlTraceSink, OneObjectPerLine) {
  std::ostringstream out;
  JsonlTraceSink sink(out);

  TraceEvent event;
  event.kind = EventKind::Instant;
  event.name = "fc.plan";
  event.category = "core";
  event.time = Seconds(12.5);
  event.arg_count = 1;
  event.args[0] = {"setpoint", 0.53};
  sink.event(event);

  event.kind = EventKind::SpanBegin;
  event.name = "slot";
  event.category = "sim";
  event.arg_count = 0;
  sink.event(event);
  sink.flush();

  const std::string text = out.str();
  EXPECT_EQ(std::count(text.begin(), text.end(), '\n'), 2);
  EXPECT_NE(text.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(text.find("\"name\":\"fc.plan\""), std::string::npos);
  EXPECT_NE(text.find("\"t\":12.5"), std::string::npos);
  EXPECT_NE(text.find("\"setpoint\":0.53"), std::string::npos);
  EXPECT_NE(text.find("\"ph\":\"B\""), std::string::npos);
}

TEST(ChromeTraceSink, ProducesCompleteDocument) {
  std::ostringstream out;
  {
    ChromeTraceSink sink(out);

    TraceEvent event;
    event.kind = EventKind::SpanBegin;
    event.name = "slot";
    event.category = "sim";
    event.time = Seconds(1.5);
    event.track = 2;
    sink.event(event);

    event.kind = EventKind::SpanEnd;
    event.time = Seconds(2.0);
    sink.event(event);

    event.kind = EventKind::Instant;
    event.name = "fc.plan";
    event.time = Seconds(1.75);
    sink.event(event);
  }  // destructor closes the document

  const std::string text = out.str();
  EXPECT_EQ(text.rfind("{\"traceEvents\":[", 0), 0u);
  EXPECT_NE(text.find("],\"displayTimeUnit\":\"ms\"}"), std::string::npos);
  // Simulated seconds -> trace microseconds.
  EXPECT_NE(text.find("\"ts\":1500000"), std::string::npos);
  EXPECT_NE(text.find("\"tid\":2"), std::string::npos);
  // Instants carry a scope so viewers draw them.
  EXPECT_NE(text.find("\"s\":\"t\""), std::string::npos);
}

TEST(ChromeTraceSink, CloseIsIdempotentAndDropsLaterEvents) {
  std::ostringstream out;
  ChromeTraceSink sink(out);

  TraceEvent event;
  event.kind = EventKind::Instant;
  event.name = "first";
  sink.event(event);
  sink.close();
  const std::string after_close = out.str();

  event.name = "late";
  sink.event(event);
  sink.close();
  EXPECT_EQ(out.str(), after_close);
  EXPECT_EQ(out.str().find("late"), std::string::npos);
}

TEST(TraceSink, OnlyNullSinkDiscards) {
  std::ostringstream out;
  EXPECT_TRUE(NullTraceSink().discards());
  EXPECT_FALSE(JsonlTraceSink(out).discards());
  EXPECT_FALSE(CaptureSink().discards());
  ChromeTraceSink chrome(out);
  EXPECT_FALSE(chrome.discards());
}

TEST(Context, EmitsNothingWithoutSink) {
  Context context;  // all backends null
  context.span_begin("sim", "slot");
  context.instant("core", "fc.plan", {{"setpoint", 0.5}});
  context.counter("storage_As", 1.0);
  context.span_end("sim", "slot");
  context.count("n");
  context.observe("h", 1.0);
  context.gauge("g", 2.0);  // must all be safe no-ops
  SUCCEED();
}

TEST(Context, ActiveOnlyWhenSomeBackendCanRecord) {
  Context context;
  EXPECT_FALSE(context.active());

  // A discarding sink does not make the context active — the
  // simulators rely on this to skip attachment entirely.
  NullTraceSink null_sink;
  context.set_sink(&null_sink);
  EXPECT_FALSE(context.active());
  EXPECT_FALSE(context.tracing());

  CaptureSink capture;
  context.set_sink(&capture);
  EXPECT_TRUE(context.active());
  EXPECT_TRUE(context.tracing());

  context.set_sink(nullptr);
  MetricsRegistry metrics;
  context.set_metrics(&metrics);
  EXPECT_TRUE(context.active());
  context.set_metrics(nullptr);
  EXPECT_FALSE(context.active());
}

TEST(Context, StampsClockTrackAndArgs) {
  CaptureSink sink;
  Context context;
  context.set_sink(&sink);
  context.set_track(3);
  context.set_now(Seconds(10.0));
  context.advance(Seconds(2.5));

  context.instant("core", "fc.plan", {{"a", 1.0}, {"b", 2.0}});
  ASSERT_EQ(sink.events.size(), 1u);
  const TraceEvent& event = sink.events.front();
  EXPECT_EQ(event.kind, EventKind::Instant);
  EXPECT_DOUBLE_EQ(event.time.value(), 12.5);
  EXPECT_EQ(event.track, 3);
  ASSERT_EQ(event.arg_count, 2u);
  EXPECT_STREQ(event.args[0].key, "a");
  EXPECT_DOUBLE_EQ(event.args[1].value, 2.0);
}

TEST(Context, TruncatesArgsBeyondCapacity) {
  CaptureSink sink;
  Context context;
  context.set_sink(&sink);
  context.instant("sim", "crowded",
                  {{"a", 1.0}, {"b", 2.0}, {"c", 3.0}, {"d", 4.0},
                   {"e", 5.0}});
  ASSERT_EQ(sink.events.size(), 1u);
  EXPECT_EQ(sink.events.front().arg_count, TraceEvent::kMaxArgs);
}

TEST(Context, CounterEventsCarryValueArg) {
  CaptureSink sink;
  Context context;
  context.set_sink(&sink);
  context.counter("storage_As", 4.25);
  ASSERT_EQ(sink.events.size(), 1u);
  const TraceEvent& event = sink.events.front();
  EXPECT_EQ(event.kind, EventKind::Counter);
  ASSERT_EQ(event.arg_count, 1u);
  EXPECT_DOUBLE_EQ(event.args[0].value, 4.25);
}

}  // namespace
}  // namespace fcdpm::obs
