#include "trace.hpp"

#include <cstdio>
#include <stdexcept>

namespace bench_e2e {

namespace {

std::chrono::steady_clock::time_point epoch() {
  static const auto t0 = std::chrono::steady_clock::now();
  return t0;
}

}  // namespace

int64_t now_ns() {
  const auto t0 = epoch();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

std::chrono::steady_clock::time_point steady_at(int64_t ns) {
  return epoch() + std::chrono::nanoseconds(ns);
}

Tracer::Buffer& Tracer::local() {
  // One tracer per process, so a plain thread_local cache is enough.
  thread_local Buffer* buffer = nullptr;
  if (buffer == nullptr) {
    auto fresh = std::make_unique<Buffer>();
    fresh->spans.reserve(1 << 14);
    std::lock_guard<std::mutex> lk(m_);
    fresh->index = static_cast<uint32_t>(buffers_.size());
    buffer = fresh.get();
    buffers_.push_back(std::move(fresh));
  }
  return *buffer;
}

void Tracer::record(const char* name, int64_t start_ns, int64_t end_ns,
                    uint64_t session, uint64_t parent, uint64_t id) {
  if (!enabled()) return;
  if (id == 0) id = next_id();
  Buffer& b = local();
  b.spans.push_back({name, start_ns, end_ns, session, id, parent, b.index});
}

std::vector<Span> Tracer::collect() const {
  std::lock_guard<std::mutex> lk(m_);
  std::vector<Span> out;
  for (const auto& b : buffers_) {
    out.insert(out.end(), b->spans.begin(), b->spans.end());
  }
  return out;
}

void Tracer::write_chrome(const std::string& path,
                          const std::vector<Span>& spans) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) throw std::runtime_error("cannot write trace " + path);
  std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    const bool instant = s.end_ns == s.start_ns;
    std::fprintf(f,
                 "{\"name\":\"%s\",\"ph\":\"%s\",\"pid\":1,\"tid\":%u,"
                 "\"ts\":%.3f,",
                 s.name, instant ? "i" : "X", s.thread,
                 static_cast<double>(s.start_ns) / 1e3);
    if (instant) {
      std::fprintf(f, "\"s\":\"t\",");
    } else {
      std::fprintf(f, "\"dur\":%.3f,",
                   static_cast<double>(s.end_ns - s.start_ns) / 1e3);
    }
    std::fprintf(f,
                 "\"args\":{\"session\":%llu,\"id\":%llu,\"parent\":%llu}}%s\n",
                 static_cast<unsigned long long>(s.session),
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 i + 1 < spans.size() ? "," : "");
  }
  std::fprintf(f, "]}\n");
  if (std::fclose(f) != 0) {
    throw std::runtime_error("cannot write trace " + path);
  }
}

}  // namespace bench_e2e
