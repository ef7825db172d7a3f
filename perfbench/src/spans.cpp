#include "spans.h"

#include <algorithm>
#include <fstream>

#include "obs/metrics_io.h"

namespace perfbench {

Tracer::Scope::Scope(Tracer& t, const char* name) {
  if (!t.on_) return;
  t_ = &t;
  index_ = static_cast<int>(t.spans_.size());
  t.spans_.push_back({name, now_ns(), 0, t.open_});
  t.open_ = index_;
}

Tracer::Scope::~Scope() {
  if (t_ == nullptr) return;
  Span& s = t_->spans_[static_cast<std::size_t>(index_)];
  s.end_ns = now_ns();
  t_->open_ = s.parent;
}

std::uint64_t Tracer::total_ns(const std::string& name) const {
  std::uint64_t sum = 0;
  for (const auto& s : spans_)
    if (s.name == name) sum += s.end_ns - s.start_ns;
  return sum;
}

namespace {
std::string layer_of(const std::string& name) {
  return name.substr(0, name.find('.'));
}
}  // namespace

std::map<std::string, std::uint64_t> Tracer::self_ns_by_layer() const {
  std::vector<std::uint64_t> child_ns(spans_.size(), 0);
  for (const auto& s : spans_)
    if (s.parent >= 0)
      child_ns[static_cast<std::size_t>(s.parent)] += s.end_ns - s.start_ns;
  std::map<std::string, std::uint64_t> self;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const std::uint64_t dur = spans_[i].end_ns - spans_[i].start_ns;
    self[layer_of(spans_[i].name)] += dur - std::min(dur, child_ns[i]);
  }
  return self;
}

void Tracer::summarize(discs::obs::Registry& reg,
                       const std::string& prefix) const {
  for (const auto& s : spans_)
    reg.histogram("span." + prefix + s.name + ".ns")
        .record(s.end_ns - s.start_ns);
  for (const auto& [layer, ns] : self_ns_by_layer())
    reg.counter("span.self_ns." + prefix + layer) += ns;
}

bool write_metrics_sample(const std::string& path, const std::string& source,
                          const discs::obs::Registry& reg,
                          std::uint64_t at_us) {
  discs::obs::MetricsSeries series;
  series.source = source;
  series.samples.push_back(discs::obs::sample_registry(reg, at_us));
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << discs::obs::export_metrics_jsonl(series);
  return static_cast<bool>(out);
}

}  // namespace perfbench
