#include "tracer.h"

#include <fstream>
#include <stdexcept>

namespace perfbench {
namespace {

bool descends_from(const std::vector<Span>& spans, int index, int root) {
  for (int p = spans[static_cast<std::size_t>(index)].parent; p >= 0;
       p = spans[static_cast<std::size_t>(p)].parent) {
    if (p == root) return true;
  }
  return false;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

}  // namespace

std::int64_t Tracer::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - origin_)
      .count();
}

int Tracer::begin(std::string name) {
  if (!enabled_) return -1;
  Span s;
  s.name = std::move(name);
  s.parent = open_.empty() ? -1 : open_.back();
  s.start_ns = now_ns();
  spans_.push_back(std::move(s));
  open_.push_back(static_cast<int>(spans_.size()) - 1);
  return open_.back();
}

void Tracer::end(int index) {
  if (index < 0) return;
  spans_[static_cast<std::size_t>(index)].end_ns = now_ns();
  // Spans close in LIFO order (they are RAII scopes).
  if (!open_.empty() && open_.back() == index) open_.pop_back();
}

void Tracer::arg(int index, std::string key, double value) {
  if (index < 0) return;
  spans_[static_cast<std::size_t>(index)].args.emplace_back(std::move(key), value);
}

void Tracer::write_chrome_json(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write " + path);
  out.precision(17);
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << (i == 0 ? "" : ",\n") << "{\"name\":\"" << json_escape(s.name)
        << "\",\"cat\":\"" << json_escape(s.layer()) << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1"
        << ",\"ts\":" << double(s.start_ns) / 1e3
        << ",\"dur\":" << double(s.end_ns - s.start_ns) / 1e3 << ",\"args\":{\"id\":" << i
        << ",\"parent\":" << s.parent;
    for (const auto& [k, v] : s.args) out << ",\"" << json_escape(k) << "\":" << v;
    out << "}}";
  }
  out << "\n]}\n";
  if (!out.flush()) throw std::runtime_error("short write to " + path);
}

std::map<std::string, double> self_seconds_by_layer(const std::vector<Span>& spans,
                                                    int root) {
  std::map<std::string, double> self;
  for (int i = root + 1; i < static_cast<int>(spans.size()); ++i) {
    if (!descends_from(spans, i, root)) continue;
    const Span& s = spans[static_cast<std::size_t>(i)];
    self[s.layer()] += s.seconds();
    if (s.parent != root) {
      self[spans[static_cast<std::size_t>(s.parent)].layer()] -= s.seconds();
    }
  }
  return self;
}

double seconds_in(const std::vector<Span>& spans, int root, const std::string& name) {
  double total = 0;
  for (int i = root + 1; i < static_cast<int>(spans.size()); ++i) {
    const Span& s = spans[static_cast<std::size_t>(i)];
    if (s.name == name && descends_from(spans, i, root)) total += s.seconds();
  }
  return total;
}

}  // namespace perfbench
