// Structured JSONL event journal for operational state transitions: health
// state changes and policy flips. One JSON object per line, append-only,
// shared by the broker and magicrecsd.
//
// Rotation-friendly by construction: the file is opened in append mode per
// write, so an external logrotate can rename the file between events
// without signaling the process. A bounded
// in-memory ring of recent events backs tests and the scrape surface when
// no file is configured.

#ifndef MAGICRECS_UTIL_EVENT_LOG_H_
#define MAGICRECS_UTIL_EVENT_LOG_H_

#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <vector>

namespace magicrecs {

/// One journal entry: a type tag plus flat key/value fields.
struct LogEvent {
  /// One field. `quoted` distinguishes JSON strings from bare numbers so
  /// the line stays machine-parseable without schema knowledge.
  struct Field {
    std::string key;
    std::string value;
    bool quoted = true;
  };

  static Field Str(std::string key, std::string value) {
    return Field{std::move(key), std::move(value), true};
  }
  static Field Num(std::string key, int64_t value);
  static Field Num(std::string key, uint64_t value);
  static Field Num(std::string key, double value);

  int64_t ts_us = 0;
  std::string type;
  std::vector<Field> fields;

  /// The JSONL line (no trailing newline):
  /// {"ts_us":<ts>,"type":"<type>","k":"v",...}
  std::string RenderJson() const;
};

/// Append-only journal. Thread-safe. With an empty path, events are kept
/// only in the in-memory ring.
class EventLog {
 public:
  /// `path` is the JSONL file ("" = in-memory only); `recent_capacity`
  /// bounds the in-memory ring.
  explicit EventLog(std::string path = "", size_t recent_capacity = 256);

  /// Appends one event. Stamps ts_us into the event, renders it, appends
  /// the line to the file (if configured), and records it in the ring.
  void Append(int64_t ts_us, std::string type,
              std::vector<LogEvent::Field> fields);

  /// Copy of the in-memory ring, oldest first.
  std::vector<LogEvent> Recent() const;

  uint64_t appended() const;
  /// File writes that failed (disk full, directory gone). Events still
  /// land in the ring; the first failure logs to stderr.
  uint64_t write_failures() const;

  const std::string& path() const { return path_; }

 private:
  const std::string path_;
  const size_t recent_capacity_;
  mutable std::mutex mu_;
  std::deque<LogEvent> recent_;
  uint64_t appended_ = 0;
  uint64_t write_failures_ = 0;
};

}  // namespace magicrecs

#endif  // MAGICRECS_UTIL_EVENT_LOG_H_
