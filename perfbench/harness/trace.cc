#include "trace.h"

#include <cstdio>
#include <sstream>

#include "measure.h"

namespace perfbench {

int SpanRecorder::begin(std::string name) {
  Span span;
  span.name = std::move(name);
  span.start_s = now_s();
  span.end_s = span.start_s - 1;
  span.parent = open_.empty() ? -1 : open_.back();
  span.run = run_;
  spans_.push_back(std::move(span));
  open_.push_back(static_cast<int>(spans_.size()) - 1);
  return open_.back();
}

void SpanRecorder::end(int id) {
  spans_[static_cast<std::size_t>(id)].end_s = now_s();
  if (!open_.empty() && open_.back() == id) open_.pop_back();
}

double SpanRecorder::Scope::close() {
  if (open_) {
    recorder_.end(id_);
    open_ = false;
  }
  return recorder_.spans_[static_cast<std::size_t>(id_)].duration_s();
}

double SpanRecorder::total_s(const std::string& name) const {
  double total = 0;
  for (const Span& span : spans_) {
    if (span.name == name && span.end_s >= span.start_s) {
      total += span.duration_s();
    }
  }
  return total;
}

std::map<std::string, double> SpanRecorder::self_s_by_layer() const {
  std::vector<double> self(spans_.size(), 0);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].end_s < spans_[i].start_s) continue;
    self[i] += spans_[i].duration_s();
    if (spans_[i].parent >= 0) {
      self[static_cast<std::size_t>(spans_[i].parent)] -=
          spans_[i].duration_s();
    }
  }
  std::map<std::string, double> by_layer;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].end_s < spans_[i].start_s) continue;
    by_layer[layer_of(spans_[i].name)] += self[i];
  }
  return by_layer;
}

std::string SpanRecorder::trace_event_json(const std::string& metadata) const {
  std::ostringstream os;
  os << "{\"traceEvents\": [";
  const double origin = spans_.empty() ? 0 : spans_.front().start_s;
  bool first = true;
  char line[512];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    if (span.end_s < span.start_s) continue;
    std::snprintf(line, sizeof line,
                  "%s\n  {\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
                  "\"ts\": %.3f, \"dur\": %.3f, \"pid\": %d, \"tid\": 1, "
                  "\"args\": {\"id\": %zu, \"parent\": %d, \"run\": %d}}",
                  first ? "" : ",", span.name.c_str(),
                  layer_of(span.name).c_str(),
                  (span.start_s - origin) * 1e6, span.duration_s() * 1e6,
                  span.run, i, span.parent, span.run);
    os << line;
    first = false;
  }
  os << "\n], \"displayTimeUnit\": \"ms\", \"metadata\": " << metadata
     << "}\n";
  return os.str();
}

std::string layer_of(const std::string& name) {
  return name.substr(0, name.find('.'));
}

}  // namespace perfbench
