#include "telemetry/lanes.hpp"

#include <algorithm>
#include <string>

#include "obs/trace_sink.hpp"

namespace fcdpm::telemetry {

LaneRecorder::LaneRecorder(std::size_t workers, std::size_t expected_points)
    : lanes_(workers > 0 ? workers : 1) {
  for (std::vector<PointLane>& lane : lanes_) {
    lane.reserve(expected_points);
  }
}

void emit_lanes(const LaneRecorder& recorder, std::size_t total_points,
                obs::TraceSink& sink, int base_track) {
  const double ns = 1e-9;

  // One named track per worker — even an idle worker gets its (empty)
  // lane, so the file always shows the true worker count.
  for (std::size_t w = 0; w < recorder.workers(); ++w) {
    const int track = base_track + 1 + static_cast<int>(w);
    const std::string name = "sweep worker " + std::to_string(w);
    sink.track_name(track, name.c_str());

    for (const PointLane& lane : recorder.lane(w)) {
      obs::TraceEvent begin;
      begin.kind = obs::EventKind::SpanBegin;
      begin.category = "sweep";
      begin.name = "point";
      begin.track = track;
      begin.time = Seconds(static_cast<double>(lane.start_ns) * ns);
      begin.arg_count = 3;
      begin.args[0] = {"index", static_cast<double>(lane.point_index)};
      begin.args[1] = {"attempt", static_cast<double>(lane.attempt)};
      begin.args[2] = {"batched", lane.batched ? 1.0 : 0.0};
      sink.event(begin);

      obs::TraceEvent end;
      end.kind = obs::EventKind::SpanEnd;
      end.category = "sweep";
      end.name = "point";
      end.track = track;
      end.time = Seconds(static_cast<double>(lane.end_ns) * ns);
      sink.event(end);

      if (!lane.ok) {
        obs::TraceEvent failed;
        failed.kind = obs::EventKind::Instant;
        failed.category = "sweep";
        failed.name = "point.failed";
        failed.track = track;
        failed.time = Seconds(static_cast<double>(lane.end_ns) * ns);
        failed.arg_count = 1;
        failed.args[0] = {"index", static_cast<double>(lane.point_index)};
        sink.event(failed);
      }
    }
  }

  // Counter track, one sample per completion in wall order.
  std::vector<PointLane> completions;
  for (std::size_t w = 0; w < recorder.workers(); ++w) {
    const std::vector<PointLane>& lane = recorder.lane(w);
    completions.insert(completions.end(), lane.begin(), lane.end());
  }
  std::sort(completions.begin(), completions.end(),
            [](const PointLane& a, const PointLane& b) {
              return a.end_ns != b.end_ns ? a.end_ns < b.end_ns
                                          : a.point_index < b.point_index;
            });

  std::uint64_t settled = 0;
  sink.track_name(base_track, "sweep counters");
  for (const PointLane& lane : completions) {
    // A retried attempt is not settled.
    if (lane.ok || lane.quarantined) {
      ++settled;
    }

    obs::TraceEvent depth;
    depth.kind = obs::EventKind::Counter;
    depth.category = "sweep";
    depth.name = "sweep.queue_depth";
    depth.track = base_track;
    depth.time = Seconds(static_cast<double>(lane.end_ns) * ns);
    depth.arg_count = 1;
    depth.args[0] = {"value",
                     static_cast<double>(total_points > settled
                                             ? total_points - settled
                                             : 0)};
    sink.event(depth);
  }
  sink.flush();
}

}  // namespace fcdpm::telemetry
