#include "trace.hpp"

namespace perfbench {

int Tracer::begin(const std::string& name, std::uint64_t request) {
  if (!recording()) return -1;
  const int id = next_id_++;
  stack_.push_back({name, Clock::now(), id, stack_.empty() ? -1 : stack_.back().id, request, 0.0});
  return id;
}

void Tracer::end(int id) {
  if (id < 0) return;
  const Clock::time_point now = Clock::now();
  // Spans close in LIFO order; tolerate a pause toggled while one was open.
  while (!stack_.empty()) {
    const Open top = stack_.back();
    stack_.pop_back();
    close(top.name, top.start, now, top.id, top.parent, top.request, top.child_ms);
    if (top.id == id) break;
  }
}

void Tracer::add(const std::string& name, Clock::time_point start, Clock::time_point end,
                 std::uint64_t request) {
  if (!recording()) return;
  close(name, start, end, next_id_++, stack_.empty() ? -1 : stack_.back().id, request, 0.0);
}

void Tracer::close(const std::string& name, Clock::time_point start, Clock::time_point end,
                   int id, int parent, std::uint64_t request, double child_ms) {
  using us = std::chrono::microseconds;
  const double ms = std::chrono::duration<double, std::milli>(end - start).count();
  SelfTime& st = self_[name];
  st.count += 1;
  st.total_ms += ms;
  st.self_ms += ms - child_ms;
  if (!stack_.empty()) stack_.back().child_ms += ms;

  crowdlearn::obs::TraceEvent ev;
  ev.name = name;
  ev.category = "perfbench";
  ev.ts_us = std::chrono::duration_cast<us>(start - origin_).count();
  ev.dur_us = std::chrono::duration_cast<us>(end - start).count();
  ev.tid = events_.tid_for_current_thread();
  ev.args = {{"span", id}, {"parent", parent}, {"request", static_cast<double>(request)}};
  events_.record(std::move(ev));
}

}  // namespace perfbench
