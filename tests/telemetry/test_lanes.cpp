#include "telemetry/lanes.hpp"

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "obs/trace_sink.hpp"

namespace fcdpm::telemetry {
namespace {

/// Captures everything for assertions.
class CaptureSink final : public obs::TraceSink {
 public:
  struct Captured {
    obs::EventKind kind;
    std::string name;
    int track;
    double time;
    double arg0;
  };

  void event(const obs::TraceEvent& event) override {
    events.push_back({event.kind, event.name, event.track,
                      event.time.value(),
                      event.arg_count > 0 ? event.args[0].value : 0.0});
  }
  void track_name(int track, const char* name) override {
    names[track] = name;
  }
  void flush() override { ++flushes; }

  std::vector<Captured> events;
  std::map<int, std::string> names;
  int flushes = 0;
};

PointLane lane(std::uint64_t start_ns, std::uint64_t end_ns,
               std::uint32_t index) {
  PointLane l;
  l.start_ns = start_ns;
  l.end_ns = end_ns;
  l.point_index = index;
  return l;
}

TEST(LanesTest, EveryWorkerGetsItsOwnNamedTrack) {
  LaneRecorder recorder(3, 4);
  recorder.record(0, lane(0, 100, 0));
  // Worker 1 stays idle; worker 2 runs one point.
  recorder.record(2, lane(50, 150, 1));

  CaptureSink sink;
  emit_lanes(recorder, 2, sink, /*base_track=*/10);

  EXPECT_EQ(sink.names[10], "sweep counters");
  EXPECT_EQ(sink.names[11], "sweep worker 0");
  EXPECT_EQ(sink.names[12], "sweep worker 1");
  EXPECT_EQ(sink.names[13], "sweep worker 2");
  EXPECT_EQ(sink.flushes, 1);

  int spans_on_11 = 0;
  int spans_on_13 = 0;
  for (const CaptureSink::Captured& e : sink.events) {
    if (e.kind == obs::EventKind::SpanBegin) {
      spans_on_11 += e.track == 11;
      spans_on_13 += e.track == 13;
    }
  }
  EXPECT_EQ(spans_on_11, 1);
  EXPECT_EQ(spans_on_13, 1);
}

TEST(LanesTest, QueueDepthSettlesOkAndQuarantinedButNotRetries) {
  LaneRecorder recorder(1, 4);
  PointLane first = lane(0, 100, 0);  // ok
  PointLane retry = lane(100, 200, 1);
  retry.ok = false;  // failed attempt, will re-run: not settled
  PointLane quarantine = lane(200, 300, 1);
  quarantine.ok = false;
  quarantine.quarantined = true;  // final failure: settled
  recorder.record(0, first);
  recorder.record(0, retry);
  recorder.record(0, quarantine);

  CaptureSink sink;
  emit_lanes(recorder, 2, sink);

  std::vector<double> depths;
  int failed_instants = 0;
  for (const CaptureSink::Captured& e : sink.events) {
    if (e.kind == obs::EventKind::Counter &&
        e.name == "sweep.queue_depth") {
      depths.push_back(e.arg0);
    }
    failed_instants += e.kind == obs::EventKind::Instant &&
                       e.name == "point.failed";
  }
  // Completion order: ok (depth 1), retry (still 1), quarantine (0).
  ASSERT_EQ(depths.size(), 3u);
  EXPECT_DOUBLE_EQ(depths[0], 1.0);
  EXPECT_DOUBLE_EQ(depths[1], 1.0);
  EXPECT_DOUBLE_EQ(depths[2], 0.0);
  EXPECT_EQ(failed_instants, 2);
}

TEST(LanesTest, CounterSamplesFollowWallOrderAcrossWorkers) {
  LaneRecorder recorder(2, 2);
  const PointLane a = lane(0, 100, 0);
  const PointLane b = lane(0, 200, 1);
  // Recorded out of wall order across workers; emission sorts by end.
  recorder.record(1, b);
  recorder.record(0, a);

  CaptureSink sink;
  emit_lanes(recorder, 3, sink);

  std::vector<double> times;
  std::vector<double> depths;
  for (const CaptureSink::Captured& e : sink.events) {
    if (e.kind == obs::EventKind::Counter) {
      EXPECT_EQ(e.name, "sweep.queue_depth");
      times.push_back(e.time);
      depths.push_back(e.arg0);
    }
  }
  ASSERT_EQ(depths.size(), 2u);
  EXPECT_DOUBLE_EQ(times[0], 100e-9);  // a completes first
  EXPECT_DOUBLE_EQ(times[1], 200e-9);
  EXPECT_DOUBLE_EQ(depths[0], 2.0);  // after a: 2 of 3 unsettled
  EXPECT_DOUBLE_EQ(depths[1], 1.0);
}

TEST(LanesTest, SpanTimesAreWallSecondsSinceSweepStart) {
  LaneRecorder recorder(1, 1);
  recorder.record(0, lane(1500000000ull, 2500000000ull, 7));
  CaptureSink sink;
  emit_lanes(recorder, 1, sink);
  ASSERT_GE(sink.events.size(), 2u);
  EXPECT_DOUBLE_EQ(sink.events[0].time, 1.5);
  EXPECT_DOUBLE_EQ(sink.events[1].time, 2.5);
  EXPECT_DOUBLE_EQ(sink.events[0].arg0, 7.0);  // index arg
}

}  // namespace
}  // namespace fcdpm::telemetry
