#include "obs/log.hpp"

#include <fstream>
#include <sstream>

#include "util/json.hpp"

namespace ifsyn::obs {

const char* severity_name(Severity severity) {
  switch (severity) {
    case Severity::kDebug:
      return "debug";
    case Severity::kInfo:
      return "info";
    case Severity::kWarn:
      return "warn";
    case Severity::kError:
      return "error";
  }
  return "info";
}

bool EventLog::log_at(
    std::uint64_t ts_us, Severity severity, std::string component,
    std::string message,
    std::vector<std::pair<std::string, std::string>> fields) {
  if (severity < options_.min_severity) return false;
  if (options_.capacity == 0) return false;
  std::lock_guard<std::mutex> lock(mu_);
  Window& window =
      windows_[{static_cast<int>(severity), component}];
  if (ts_us >= window.start_us + options_.window_us) {
    window.start_us = ts_us;
    window.count = 0;
  }
  if (window.count >= options_.max_per_window) {
    ++suppressed_;
    return false;
  }
  ++window.count;
  if (events_.size() >= options_.capacity) {
    events_.pop_front();
    ++evicted_;
  }
  events_.push_back(LogEvent{ts_us, severity, std::move(component),
                             std::move(message), std::move(fields)});
  return true;
}

std::vector<LogEvent> EventLog::recent() const {
  std::lock_guard<std::mutex> lock(mu_);
  return {events_.begin(), events_.end()};
}

std::size_t EventLog::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return events_.size();
}

std::uint64_t EventLog::evicted() const {
  std::lock_guard<std::mutex> lock(mu_);
  return evicted_;
}

std::uint64_t EventLog::suppressed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return suppressed_;
}

std::string EventLog::to_jsonl() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ostringstream os;
  for (const LogEvent& e : events_) {
    os << "{\"ts_us\":" << e.ts_us << ",\"severity\":\""
       << severity_name(e.severity)
       << "\",\"component\":" << json_quote(e.component)
       << ",\"message\":" << json_quote(e.message);
    if (!e.fields.empty()) {
      os << ",\"fields\":{";
      bool first = true;
      for (const auto& [key, value] : e.fields) {
        if (!first) os << ",";
        first = false;
        os << json_quote(key) << ":" << json_quote(value);
      }
      os << "}";
    }
    os << "}\n";
  }
  return os.str();
}

bool EventLog::write_jsonl(const std::string& path,
                           std::string* error) const {
  std::ofstream out(path);
  if (!out) {
    if (error) *error = "cannot open " + path + " for writing";
    return false;
  }
  out << to_jsonl();
  out.flush();
  if (!out) {
    if (error) *error = "write to " + path + " failed";
    return false;
  }
  return true;
}

}  // namespace ifsyn::obs
