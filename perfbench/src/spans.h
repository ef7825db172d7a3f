// Spans recorded by the benchmark around its calls into the library.
//
// A span has a name ("<layer>.<call>"), a start and end on the steady
// clock, and the span that was open when it began (its parent).  Spans are
// kept in memory and summarized when the run ends: per-name duration
// histograms and per-layer self time (a span's duration minus the part its
// children cover), written as one discs.metrics.v1 sample.
//
// A disabled Tracer records nothing and reads no clock, so the untraced
// run executes the same code with only a branch per call site.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/registry.h"

namespace perfbench {

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

struct Span {
  std::string name;
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  int parent = -1;  ///< index into Tracer::spans(), -1 for a root
};

class Tracer {
 public:
  explicit Tracer(bool on) : on_(on) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool on() const { return on_; }

  /// Open span for the lifetime of the scope.  Scopes nest strictly.
  class Scope {
   public:
    Scope(Tracer& t, const char* name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* t_ = nullptr;  ///< null when tracing is off
    int index_ = -1;
  };

  const std::vector<Span>& spans() const { return spans_; }

  /// Total duration of every span named `name`, in ns.
  std::uint64_t total_ns(const std::string& name) const;
  /// Self time per layer (the name before the first '.'), in ns.
  std::map<std::string, std::uint64_t> self_ns_by_layer() const;

  /// The spans summarized into `reg`: histogram "span.<prefix><name>.ns"
  /// of durations, counter "span.self_ns.<prefix><layer>" per layer.
  void summarize(discs::obs::Registry& reg, const std::string& prefix) const;

 private:
  bool on_;
  int open_ = -1;
  std::vector<Span> spans_;
};

/// Writes `reg` as a one-sample discs.metrics.v1 artifact at `path`
/// (readable by `trace_explorer timeline`).  Returns false when the file
/// cannot be written.
bool write_metrics_sample(const std::string& path, const std::string& source,
                          const discs::obs::Registry& reg, std::uint64_t at_us);

}  // namespace perfbench
