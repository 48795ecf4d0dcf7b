// In-memory span recorder for the benchmark's traced runs.
//
// Spans are recorded by the benchmark around each call it makes into a
// library layer (names are "<layer>.<call>"), never inside the library.
// They stay in memory and are written once, at the end, as Chrome
// trace-event JSON (chrome://tracing and Perfetto read it).  Everything
// runs on the calling thread, so nesting is a stack and a span's children
// never overlap each other.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct Span {
  std::string name;  ///< "<layer>.<call>"
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;   ///< index of the enclosing span, -1 for a root
  std::vector<std::pair<std::string, double>> args;  ///< counts at the boundary

  [[nodiscard]] double seconds() const { return double(end_ns - start_ns) * 1e-9; }
  /// The part of the name before the first '.'.
  [[nodiscard]] std::string layer() const { return name.substr(0, name.find('.')); }
};

class Tracer {
 public:
  Tracer() : origin_(std::chrono::steady_clock::now()) {}

  /// Spans are recorded only while enabled; disabled begin() costs a branch.
  void set_enabled(bool on) { enabled_ = on; }
  [[nodiscard]] bool enabled() const noexcept { return enabled_; }

  /// Opens a span under the innermost open one; returns its index, or -1
  /// when disabled.
  int begin(std::string name);
  void end(int index);
  void arg(int index, std::string key, double value);

  [[nodiscard]] const std::vector<Span>& spans() const noexcept { return spans_; }

  /// Writes every recorded span as Chrome trace-event JSON ("X" events,
  /// microsecond timestamps, span id and parent id in args).
  void write_chrome_json(const std::string& path) const;

 private:
  [[nodiscard]] std::int64_t now_ns() const;

  bool enabled_ = false;
  std::chrono::steady_clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII span.  Safe to use with a disabled tracer.
class SpanScope {
 public:
  SpanScope(Tracer& tracer, std::string name)
      : tracer_(tracer), index_(tracer.begin(std::move(name))) {}
  ~SpanScope() { tracer_.end(index_); }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

  void arg(std::string key, double value) { tracer_.arg(index_, std::move(key), value); }
  [[nodiscard]] int index() const noexcept { return index_; }

 private:
  Tracer& tracer_;
  int index_;
};

/// Self time of every span below `root` (its duration minus the part its
/// children cover), summed by layer.  Children of one span never overlap,
/// so the covered part is the sum of the children's durations.
[[nodiscard]] std::map<std::string, double> self_seconds_by_layer(
    const std::vector<Span>& spans, int root);

/// Total duration of the spans below `root` named exactly `name`.
[[nodiscard]] double seconds_in(const std::vector<Span>& spans, int root,
                                const std::string& name);

}  // namespace perfbench
