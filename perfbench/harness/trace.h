// In-memory span recorder for the traced benchmark run. Spans are opened
// and closed by the harness around its calls into the study's public
// functions (single-threaded: the harness's own thread), kept in memory,
// and written out once as trace-event JSON when the run ends.
//
// A span's layer is its name up to the first '.', e.g. "snapshot" for
// "snapshot.decode". Self time is a span's duration minus the time its
// direct children cover.
#pragma once

#include <cstddef>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  std::string name;
  double start_s = 0;
  double end_s = 0;  // < start_s while the span is open
  int parent = -1;   // index into the recorder's spans, -1 for a root
  int run = 0;       // identifier shared by the spans of one run

  double duration_s() const { return end_s - start_s; }
};

class SpanRecorder {
 public:
  explicit SpanRecorder(int run_id) : run_(run_id) {}

  /// Opens a span under the innermost open span; returns its index.
  int begin(std::string name);
  /// Closes span `id`, which must be the innermost open one.
  void end(int id);

  /// Closes the span on scope exit; value() gives its duration after.
  class Scope {
   public:
    Scope(SpanRecorder& recorder, std::string name)
        : recorder_(recorder), id_(recorder.begin(std::move(name))) {}
    ~Scope() { close(); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

    /// Closes early and returns the span's duration in seconds.
    double close();

   private:
    SpanRecorder& recorder_;
    int id_;
    bool open_ = true;
  };

  const std::vector<Span>& spans() const { return spans_; }

  /// Summed duration of every closed span named `name`.
  double total_s(const std::string& name) const;

  /// Summed self time per layer.
  std::map<std::string, double> self_s_by_layer() const;

  /// {"traceEvents": [...], "metadata": {...}} with one complete ("X")
  /// event per closed span; `metadata` is spliced in verbatim and must be
  /// a JSON object.
  std::string trace_event_json(const std::string& metadata) const;

 private:
  int run_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// The layer of a span name: the text before the first '.'.
std::string layer_of(const std::string& name);

}  // namespace perfbench
