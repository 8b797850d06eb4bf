#include "util/event_log.h"

#include <cstdio>
#include <utility>

#include "util/str_format.h"

namespace magicrecs {

namespace {

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out += StrFormat("\\u%04x", c);
        } else {
          out.push_back(c);
        }
        break;
    }
  }
  return out;
}

}  // namespace

LogEvent::Field LogEvent::Num(std::string key, int64_t value) {
  return Field{std::move(key),
               StrFormat("%lld", static_cast<long long>(value)), false};
}

LogEvent::Field LogEvent::Num(std::string key, uint64_t value) {
  return Field{std::move(key),
               StrFormat("%llu", static_cast<unsigned long long>(value)),
               false};
}

LogEvent::Field LogEvent::Num(std::string key, double value) {
  return Field{std::move(key), StrFormat("%.3f", value), false};
}

std::string LogEvent::RenderJson() const {
  std::string out = StrFormat("{\"ts_us\":%lld,\"type\":\"%s\"",
                              static_cast<long long>(ts_us),
                              JsonEscape(type).c_str());
  for (const Field& f : fields) {
    out += ",\"" + JsonEscape(f.key) + "\":";
    if (f.quoted) {
      out += "\"" + JsonEscape(f.value) + "\"";
    } else {
      out += f.value;
    }
  }
  out += "}";
  return out;
}

EventLog::EventLog(std::string path, size_t recent_capacity)
    : path_(std::move(path)), recent_capacity_(recent_capacity) {}

void EventLog::Append(int64_t ts_us, std::string type,
                      std::vector<LogEvent::Field> fields) {
  LogEvent event;
  event.ts_us = ts_us;
  event.type = std::move(type);
  event.fields = std::move(fields);
  const std::string line = event.RenderJson();

  std::lock_guard<std::mutex> lock(mu_);
  ++appended_;
  if (!path_.empty()) {
    // Open-per-append keeps external log rotation working without a signal
    // handler.
    std::FILE* out = std::fopen(path_.c_str(), "a");
    if (out != nullptr) {
      std::fprintf(out, "%s\n", line.c_str());
      std::fclose(out);
    } else {
      if (write_failures_ == 0) {
        std::fprintf(stderr, "event log: cannot append to %s\n",
                     path_.c_str());
      }
      ++write_failures_;
    }
  }
  recent_.push_back(std::move(event));
  while (recent_.size() > recent_capacity_) recent_.pop_front();
}

std::vector<LogEvent> EventLog::Recent() const {
  std::lock_guard<std::mutex> lock(mu_);
  return std::vector<LogEvent>(recent_.begin(), recent_.end());
}

uint64_t EventLog::appended() const {
  std::lock_guard<std::mutex> lock(mu_);
  return appended_;
}

uint64_t EventLog::write_failures() const {
  std::lock_guard<std::mutex> lock(mu_);
  return write_failures_;
}

}  // namespace magicrecs
