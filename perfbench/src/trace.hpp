#pragma once
// Span recorder of the traced benchmark run. Spans are recorded in the
// benchmark's own code around calls into the program's public API (the
// program itself is not instrumented here), kept in memory by an
// obs::Tracer, and written as Chrome trace_event JSON when the run ends.
// This class adds what the benchmark needs on top: the open-span stack (all
// spans come from the single client thread, so nesting follows it), span,
// parent and request ids carried as event args, a pause flag, and the self
// time per span name.

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/trace.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

  /// Whether this run traces at all (--trace 1).
  bool enabled() const { return enabled_; }
  /// Whether spans are recorded right now. A traced run pauses recording on
  /// alternate timed operations so it can report its own overhead.
  bool recording() const { return enabled_ && !paused_; }
  void set_paused(bool paused) { paused_ = paused; }

  /// Open a span as a child of the innermost open span; returns its id, or
  /// -1 when not recording.
  int begin(const std::string& name, std::uint64_t request);
  /// Close span `id` (and any span left open inside it); -1 is a no-op.
  void end(int id);
  /// Record an already-closed span (e.g. a stage rebuilt from hook
  /// timestamps) as a child of the innermost open span.
  void add(const std::string& name, Clock::time_point start, Clock::time_point end,
           std::uint64_t request);

  std::size_t size() const { return events_.event_count(); }

  /// Per span name: number of spans, summed duration and summed self time
  /// (duration minus the time covered by child spans), ms.
  struct SelfTime {
    std::size_t count = 0;
    double total_ms = 0.0;
    double self_ms = 0.0;
  };
  const std::map<std::string, SelfTime>& self_times() const { return self_; }

  bool write_chrome_json(const std::string& path) const {
    return events_.write_chrome_trace_file(path);
  }

 private:
  struct Open {
    std::string name;
    Clock::time_point start;
    int id;
    int parent;
    std::uint64_t request;
    double child_ms;
  };
  /// Record a closed span and charge its duration to the innermost open span.
  void close(const std::string& name, Clock::time_point start, Clock::time_point end, int id,
             int parent, std::uint64_t request, double child_ms);

  bool enabled_;
  bool paused_ = false;
  Clock::time_point origin_;
  int next_id_ = 0;
  std::vector<Open> stack_;
  std::map<std::string, SelfTime> self_;
  crowdlearn::obs::Tracer events_;
};

/// RAII span: opens on construction, closes on destruction.
class SpanScope {
 public:
  SpanScope(Tracer& t, const std::string& name, std::uint64_t request = 0)
      : t_(t), id_(t.begin(name, request)) {}
  ~SpanScope() { t_.end(id_); }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  Tracer& t_;
  int id_;
};

}  // namespace perfbench
