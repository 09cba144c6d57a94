#include "obs/trace_sink.hpp"

#include <sstream>

#include "util/json.hpp"

namespace ifsyn::obs {

// ---- recording -----------------------------------------------------------

int TraceSink::tid_locked(std::thread::id id) {
  auto it = tids_.find(id);
  if (it != tids_.end()) return it->second;
  const int tid = static_cast<int>(tids_.size());
  tids_.emplace(id, tid);
  return tid;
}

int TraceSink::current_tid() {
  std::lock_guard<std::mutex> lock(mu_);
  return tid_locked(std::this_thread::get_id());
}

void TraceSink::set_thread_name(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  thread_names_[tid_locked(std::this_thread::get_id())] = name;
}

void TraceSink::push(Event event) {
  std::lock_guard<std::mutex> lock(mu_);
  event.tid = tid_locked(std::this_thread::get_id());
  events_.push_back(std::move(event));
}

void TraceSink::duration_event(const std::string& name,
                               const std::string& category,
                               std::uint64_t ts_us, std::uint64_t dur_us,
                               const RequestContext* request) {
  Event e{'X', name, category, ts_us, dur_us, 0, 0, "", 0};
  if (request) e.trace_id = request->trace_id;
  push(std::move(e));
}

void TraceSink::instant_event(const std::string& name,
                              const std::string& category,
                              const RequestContext* request) {
  Event e{'i', name, category, now_us(), 0, 0, 0, "", 0};
  if (request) e.trace_id = request->trace_id;
  push(std::move(e));
}

void TraceSink::counter_event(const std::string& name, std::int64_t value) {
  push(Event{'C', name, "", now_us(), 0, value, 0, "", 0});
}

void TraceSink::flow_begin(const std::string& name,
                           const std::string& category,
                           std::uint64_t flow_id) {
  push(Event{'s', name, category, now_us(), 0, 0, flow_id, "", 0});
}

void TraceSink::flow_end(const std::string& name, const std::string& category,
                         std::uint64_t flow_id) {
  push(Event{'f', name, category, now_us(), 0, 0, flow_id, "", 0});
}

void TraceSink::async_begin(const std::string& name,
                            const std::string& category, std::uint64_t id,
                            const RequestContext* request) {
  Event e{'b', name, category, now_us(), 0, 0, id, "", 0};
  if (request) e.trace_id = request->trace_id;
  push(std::move(e));
}

void TraceSink::async_end(const std::string& name,
                          const std::string& category, std::uint64_t id,
                          const RequestContext* request) {
  Event e{'e', name, category, now_us(), 0, 0, id, "", 0};
  if (request) e.trace_id = request->trace_id;
  push(std::move(e));
}

std::size_t TraceSink::event_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return events_.size();
}

// ---- serialization -------------------------------------------------------

std::string TraceSink::to_json() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ostringstream os;
  os << "{\"traceEvents\": [\n";
  bool first = true;
  const auto sep = [&] {
    if (!first) os << ",\n";
    first = false;
  };
  for (const auto& [tid, name] : thread_names_) {
    sep();
    os << "  {\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, "
          "\"tid\": "
       << tid << ", \"args\": {\"name\": " << json_quote(name) << "}}";
  }
  for (const Event& e : events_) {
    sep();
    os << "  {\"name\": " << json_quote(e.name) << ", \"ph\": \"" << e.ph
       << "\", \"ts\": " << e.ts << ", \"pid\": 1, \"tid\": " << e.tid;
    if (!e.category.empty()) {
      os << ", \"cat\": " << json_quote(e.category);
    }
    switch (e.ph) {
      case 'X':
        os << ", \"dur\": " << e.dur;
        break;
      case 'i':
        os << ", \"s\": \"t\"";
        break;
      case 'C':
        os << ", \"args\": {\"value\": " << e.value << "}";
        break;
      case 's':
      case 'f':
      case 'b':
      case 'e':
        os << ", \"id\": " << e.id;
        if (e.ph == 'f') os << ", \"bp\": \"e\"";
        break;
      default:
        break;
    }
    if (!e.trace_id.empty() && e.ph != 'C') {
      os << ", \"args\": {\"trace_id\": " << json_quote(e.trace_id) << "}";
    }
    os << "}";
  }
  os << "\n], \"displayTimeUnit\": \"ms\"}\n";
  return os.str();
}

// ---- validation ----------------------------------------------------------
//
// The document is read with the project's one JSON parser (util/json),
// whose strictness — no raw control characters, no lone surrogates —
// matches scripts/validate_trace_json.py; the schema checks below walk
// the parsed value.

namespace {

bool event_error(std::string* error, std::size_t index,
                 const std::string& why) {
  if (error && error->empty()) {
    *error = "traceEvents[" + std::to_string(index) + "]: " + why;
  }
  return false;
}

bool is_flow_phase(char ph) { return ph == 's' || ph == 't' || ph == 'f'; }
bool is_async_phase(char ph) { return ph == 'b' || ph == 'n' || ph == 'e'; }

bool check_event(const Json& event, std::size_t index, std::string* error) {
  if (!event.is_object()) {
    return event_error(error, index, "not an object");
  }
  const Json* name = event.find("name");
  if (!name || !name->is_string()) {
    return event_error(error, index, "missing string \"name\"");
  }
  const Json* ph = event.find("ph");
  if (!ph || !ph->is_string() || ph->as_string().size() != 1) {
    return event_error(error, index, "missing one-char \"ph\"");
  }
  for (const char* key : {"pid", "tid"}) {
    const Json* v = event.find(key);
    if (!v || !v->is_number()) {
      return event_error(error, index,
                         std::string("missing numeric \"") + key + "\"");
    }
  }
  const char phase = ph->as_string()[0];
  if (phase != 'M') {  // metadata events are timestamp-free
    const Json* ts = event.find("ts");
    if (!ts || !ts->is_number()) {
      return event_error(error, index, "missing numeric \"ts\"");
    }
  }
  if (phase == 'X') {
    const Json* dur = event.find("dur");
    if (!dur || !dur->is_number()) {
      return event_error(error, index, "complete event missing \"dur\"");
    }
  }
  if (phase == 'C' || phase == 'M') {
    const Json* args = event.find("args");
    if (!args || !args->is_object()) {
      return event_error(error, index, "missing object \"args\"");
    }
  }
  if (is_flow_phase(phase) || is_async_phase(phase)) {
    const Json* id = event.find("id");
    if (!id || (!id->is_number() && !id->is_string())) {
      return event_error(error, index,
                         std::string("phase \"") + phase +
                             "\" missing \"id\" (number or string)");
    }
    if (is_async_phase(phase)) {
      const Json* cat = event.find("cat");
      if (!cat || !cat->is_string()) {
        return event_error(error, index,
                           std::string("async phase \"") + phase +
                               "\" missing string \"cat\"");
      }
    }
  }
  return true;
}

std::string event_id_string(const Json& event) {
  const Json* id = event.find("id");
  // dump() prints integral ids exactly (no 6-digit stream rounding, which
  // would merge ids like 1234567 and 1234568).
  return id->is_string() ? id->as_string() : id->dump();
}

/// Cross-event pairing rules: flows must form s -> [t...] -> f chains per
/// id (no double-start, no end or step without a start, no id left open),
/// and async begins/ends must balance per (category, id, name).
bool check_bindings(const JsonArray& events, std::string* error) {
  std::map<std::string, std::size_t> open_flows;  // id -> start index
  std::map<std::string, int> open_async;  // cat|id|name -> nesting depth
  for (std::size_t i = 0; i < events.size(); ++i) {
    const Json& event = events[i];
    const char phase = event.find("ph")->as_string()[0];
    if (is_flow_phase(phase)) {
      const std::string id = event_id_string(event);
      if (phase == 's') {
        if (open_flows.count(id)) {
          return event_error(error, i,
                             "flow id " + id + " started twice without an "
                             "\"f\" in between");
        }
        open_flows.emplace(id, i);
      } else {  // 't' step or 'f' end both need a live flow
        auto it = open_flows.find(id);
        if (it == open_flows.end()) {
          return event_error(error, i,
                             std::string("flow \"") + phase + "\" with id " +
                                 id + " has no matching \"s\" start");
        }
        if (phase == 'f') open_flows.erase(it);
      }
    } else if (is_async_phase(phase)) {
      const std::string key = event.find("cat")->as_string() + "|" +
                              event_id_string(event) + "|" +
                              event.find("name")->as_string();
      if (phase == 'b') {
        ++open_async[key];
      } else if (phase == 'e') {
        auto it = open_async.find(key);
        if (it == open_async.end() || it->second == 0) {
          return event_error(error, i,
                             "async end (" + key +
                                 ") has no matching \"b\" begin");
        }
        if (--it->second == 0) open_async.erase(it);
      }
    }
  }
  if (!open_flows.empty()) {
    const auto& [id, index] = *open_flows.begin();
    return event_error(error, index,
                       "flow id " + id + " started (\"s\") but never "
                       "finished (\"f\")");
  }
  if (!open_async.empty()) {
    if (error && error->empty()) {
      *error = "async span (" + open_async.begin()->first +
               ") begun but never ended";
    }
    return false;
  }
  return true;
}

}  // namespace

bool validate_trace_json(const std::string& json, std::string* error) {
  if (error) error->clear();
  const Result<Json> root = parse_json(json);
  if (!root.is_ok()) {
    if (error) *error = root.status().message();
    return false;
  }
  if (!root->is_object()) {
    if (error) *error = "top level is not an object";
    return false;
  }
  const Json* events = root->find("traceEvents");
  if (!events || !events->is_array()) {
    if (error) *error = "missing \"traceEvents\" array";
    return false;
  }
  for (std::size_t i = 0; i < events->as_array().size(); ++i) {
    if (!check_event(events->as_array()[i], i, error)) return false;
  }
  return check_bindings(events->as_array(), error);
}

}  // namespace ifsyn::obs
