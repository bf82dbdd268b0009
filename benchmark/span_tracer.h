// In-memory span recorder for tangram_bench's traced runs.
//
// Spans are opened and closed strictly nested (a stack), timed with
// std::chrono::steady_clock, and folded into a per-name aggregate as they
// close: count, total time, self time (total minus the time covered by child
// spans), and a log-bucketed duration histogram for p50/p99.  The first
// `max_events` spans are also kept verbatim so they can be written out as
// Chrome trace-event JSON (opens in Perfetto / chrome://tracing).  Nothing is
// written until the run ends.

#pragma once

#include <array>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace tangram_bench {

enum class SpanName : std::uint8_t {
  kSetupBuildTrace,
  kSetupProfile,
  kSetupSystem,
  kSetupEdgeWarmup,
  kEdgeScene,
  kEdgeRender,
  kEdgeOnFrame,
  kSimStep,
  kSchedReceivePatch,
  kSchedFlush,
  kHarnessEmit,
  kHarnessResult,
  kCount,
};

inline constexpr std::array<const char*, static_cast<std::size_t>(
                                             SpanName::kCount)>
    kSpanNames = {"setup.build_trace",  "setup.profile",
                  "setup.system",       "setup.edge_warmup",
                  "edge.scene",         "edge.render",
                  "edge.on_frame",      "sim.step",
                  "sched.receive_patch", "sched.flush",
                  "harness.emit",       "harness.result"};

class SpanTracer {
 public:
  // Durations are bucketed log-linearly: 8 equal buckets per power of two
  // (at most 12.5% wide), found with integer operations only.
  static constexpr int kSubBits = 3;
  static constexpr int kBucketsPerOctave = 1 << kSubBits;
  static constexpr int kBuckets = 48 * kBucketsPerOctave;

  struct Aggregate {
    std::uint64_t count = 0;
    std::int64_t total_ns = 0;
    std::int64_t self_ns = 0;
    std::array<std::uint64_t, kBuckets> buckets{};

    // Duration quantile in ns: the centre of the bucket holding the q-th
    // span.  0 when no span of this name closed.
    [[nodiscard]] double quantile_ns(double q) const {
      if (count == 0) return 0.0;
      const auto rank = static_cast<std::uint64_t>(
          q * static_cast<double>(count - 1));
      std::uint64_t seen = 0;
      int b = 0;
      while (b < kBuckets - 1 &&
             (seen += buckets[static_cast<std::size_t>(b)]) <= rank)
        ++b;
      const int octave = b / kBucketsPerOctave;
      const int sub = b % kBucketsPerOctave;
      return std::ldexp(1.0 + (sub + 0.5) / kBucketsPerOctave, octave);
    }
  };

  explicit SpanTracer(std::size_t max_events) : max_events_(max_events) {
    events_.reserve(max_events);
    origin_ns_ = now_ns();
  }

  void begin(SpanName name) {
    Open open{name, now_ns(), 0, -1};
    if (events_.size() < max_events_) {
      open.event = static_cast<std::int32_t>(events_.size());
      events_.push_back(Event{name, open.start_ns, open.start_ns,
                              depth_ > 0 ? stack_[depth_ - 1].event : -1});
    }
    stack_[depth_++] = open;
  }

  void end() {
    const Open open = stack_[--depth_];
    const std::int64_t end = now_ns();
    const std::int64_t duration = end - open.start_ns;
    Aggregate& agg = aggregates_[static_cast<std::size_t>(open.name)];
    ++agg.count;
    agg.total_ns += duration;
    agg.self_ns += duration - open.child_ns;
    ++agg.buckets[static_cast<std::size_t>(bucket_of(duration))];
    if (depth_ > 0) stack_[depth_ - 1].child_ns += duration;
    if (open.event >= 0)
      events_[static_cast<std::size_t>(open.event)].end_ns = end;
  }

  [[nodiscard]] const Aggregate& aggregate(SpanName name) const {
    return aggregates_[static_cast<std::size_t>(name)];
  }

  // Chrome trace-event JSON ("X" complete events, microsecond timestamps);
  // each event's args carry the index of its parent span (-1 = root).
  [[nodiscard]] bool write_chrome_json(const std::string& path) const {
    std::FILE* out = std::fopen(path.c_str(), "w");
    if (out == nullptr) return false;
    std::fputs("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n", out);
    for (std::size_t i = 0; i < events_.size(); ++i) {
      const Event& e = events_[i];
      std::fprintf(out,
                   "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                   "\"parent\":%d}}\n",
                   i ? "," : "", kSpanNames[static_cast<std::size_t>(e.name)],
                   static_cast<double>(e.start_ns - origin_ns_) / 1e3,
                   static_cast<double>(e.end_ns - e.start_ns) / 1e3, i,
                   e.parent);
    }
    std::fputs("]}\n", out);
    return std::fclose(out) == 0;
  }

  static std::int64_t now_ns() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }

 private:
  struct Open {
    SpanName name;
    std::int64_t start_ns;
    std::int64_t child_ns;
    std::int32_t event;  // index into events_, -1 when past the cap
  };
  struct Event {
    SpanName name;
    std::int64_t start_ns;
    std::int64_t end_ns;
    std::int32_t parent;
  };

  // Octave from the highest set bit, sub-bucket from the next kSubBits.
  static int bucket_of(std::int64_t ns) {
    const auto v = static_cast<std::uint64_t>(ns < 1 ? 1 : ns);
    const int octave = std::bit_width(v) - 1;
    const std::uint64_t top = octave >= kSubBits
                                  ? v >> (octave - kSubBits)
                                  : v << (kSubBits - octave);
    const auto sub = static_cast<int>(top & (kBucketsPerOctave - 1));
    const int b = octave * kBucketsPerOctave + sub;
    return b < kBuckets ? b : kBuckets - 1;
  }

  std::size_t max_events_;
  std::int64_t origin_ns_ = 0;
  std::array<Open, 16> stack_{};
  int depth_ = 0;
  std::array<Aggregate, static_cast<std::size_t>(SpanName::kCount)>
      aggregates_{};
  std::vector<Event> events_;
};

// RAII span; a null tracer makes it a no-op (the untraced runs).
class ScopedSpan {
 public:
  ScopedSpan(SpanTracer* tracer, SpanName name) : tracer_(tracer) {
    if (tracer_ != nullptr) tracer_->begin(name);
  }
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->end();
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanTracer* tracer_;
};

}  // namespace tangram_bench
