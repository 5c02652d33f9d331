#pragma once
// In-memory span recorder for the benchmark's traced runs.
//
// Spans are opened by the benchmark's own code around its calls into each
// layer's public functions; the program under test carries no
// instrumentation. A span is named "<layer>.<operation>", knows the span
// that caused it (the innermost span open on the same thread) and carries
// a trace id shared by every span of one case or job. Spans stay in memory
// until the run ends, when they are written out in one go.

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  std::string name;
  std::size_t parent = kNone;  ///< index of the causing span, or kNone
  std::uint64_t trace = 0;     ///< case / job the span belongs to
  double start = 0.0;          ///< seconds since the tracer was created
  double end = 0.0;

  static constexpr std::size_t kNone = static_cast<std::size_t>(-1);
};

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled), t0_(Clock::now()) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const { return enabled_; }

  std::size_t begin(const char* name, std::size_t parent,
                    std::uint64_t trace) {
    const Clock::time_point entered = Clock::now();
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(Span{name, parent, trace, since(entered), 0.0});
    overhead_ += since(Clock::now()) - since(entered);
    return spans_.size() - 1;
  }

  void end(std::size_t index) {
    const Clock::time_point entered = Clock::now();
    std::lock_guard<std::mutex> lock(mu_);
    spans_[index].end = since(entered);
    overhead_ += since(Clock::now()) - since(entered);
  }

  /// Summed duration of every span with this exact name.
  double seconds(const std::string& name) const {
    std::lock_guard<std::mutex> lock(mu_);
    double total = 0.0;
    for (const Span& s : spans_)
      if (s.name == name) total += s.end - s.start;
    return total;
  }

  /// Self time per layer: each span's duration minus the part its direct
  /// children cover, summed by the name's prefix before the first '.'.
  std::map<std::string, double> layerSelfSeconds() const {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<double> self(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i)
      self[i] = spans_[i].end - spans_[i].start;
    for (const Span& s : spans_)
      if (s.parent != Span::kNone) self[s.parent] -= s.end - s.start;
    std::map<std::string, double> byLayer;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const std::string& n = spans_[i].name;
      byLayer[n.substr(0, n.find('.'))] += self[i] > 0.0 ? self[i] : 0.0;
    }
    return byLayer;
  }

  /// Time spent inside begin()/end() bookkeeping.
  double overheadSeconds() const {
    std::lock_guard<std::mutex> lock(mu_);
    return overhead_;
  }

  std::size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return spans_.size();
  }

  /// Writes one JSON object per span. Returns false when the file cannot
  /// be written.
  bool writeJsonLines(const std::string& path) const {
    std::lock_guard<std::mutex> lock(mu_);
    FILE* f = std::fopen(path.c_str(), "w");
    if (!f) return false;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "{\"id\":%zu,\"parent\":%lld,\"trace\":%llu,"
                   "\"name\":\"%s\",\"start_s\":%.9f,\"end_s\":%.9f}\n",
                   i,
                   s.parent == Span::kNone ? -1LL
                                           : static_cast<long long>(s.parent),
                   static_cast<unsigned long long>(s.trace), s.name.c_str(),
                   s.start, s.end);
    }
    return std::fclose(f) == 0;
  }

 private:
  using Clock = std::chrono::steady_clock;

  double since(Clock::time_point t) const {
    return std::chrono::duration<double>(t - t0_).count();
  }

  const bool enabled_;
  const Clock::time_point t0_;
  mutable std::mutex mu_;  // guards spans_ and overhead_
  std::vector<Span> spans_;
  double overhead_ = 0.0;
};

/// Opens a span for the enclosing scope when the tracer is enabled. The
/// innermost open span of the calling thread becomes its parent, and the
/// trace id is inherited from it unless one is given.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const char* name, std::uint64_t trace = 0)
      : tracer_(tracer), parent_(current()), parentTrace_(currentTrace()) {
    if (!tracer_.enabled()) return;
    const std::uint64_t id = trace != 0 ? trace : parentTrace_;
    index_ = tracer_.begin(name, parent_, id);
    current() = index_;
    currentTrace() = id;
  }
  ~ScopedSpan() {
    if (index_ == Span::kNone) return;
    tracer_.end(index_);
    current() = parent_;
    currentTrace() = parentTrace_;
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  static std::size_t& current() {
    thread_local std::size_t open = Span::kNone;
    return open;
  }
  static std::uint64_t& currentTrace() {
    thread_local std::uint64_t trace = 0;
    return trace;
  }

  Tracer& tracer_;
  const std::size_t parent_;
  const std::uint64_t parentTrace_;
  std::size_t index_ = Span::kNone;
};

}  // namespace perfbench
