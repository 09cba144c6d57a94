#include "serve/request.hpp"

#include <cmath>

namespace ifsyn::serve {

namespace {

Status parse_protocol(const Json& value, spec::ProtocolKind& out) {
  if (!value.is_string()) return invalid_argument("protocol must be a string");
  const std::string& name = value.as_string();
  if (name == "full") out = spec::ProtocolKind::kFullHandshake;
  else if (name == "half") out = spec::ProtocolKind::kHalfHandshake;
  else if (name == "fixed") out = spec::ProtocolKind::kFixedDelay;
  else if (name == "wired") out = spec::ProtocolKind::kHardwiredPort;
  else return invalid_argument("unknown protocol '" + name + "'");
  return Status::ok();
}

/// JSON numbers arrive as double; request integers must be whole and in
/// range (untrusted input — reject rather than truncate).
Status parse_int(const Json& value, const char* field, long long min,
                 long long max, long long& out) {
  if (!value.is_number() || value.as_number() != std::floor(value.as_number())) {
    return invalid_argument(std::string(field) + " must be an integer");
  }
  const double n = value.as_number();
  if (n < static_cast<double>(min) || n > static_cast<double>(max)) {
    return invalid_argument(std::string(field) + " out of range");
  }
  out = static_cast<long long>(n);
  return Status::ok();
}

Status parse_options(const Json& json, RequestOptions& out) {
  if (!json.is_object()) return invalid_argument("options must be an object");
  for (const auto& [key, value] : json.as_object()) {
    long long n = 0;
    if (key == "protocol") {
      spec::ProtocolKind kind;
      IFSYN_RETURN_IF_ERROR(parse_protocol(value, kind));
      out.protocol = kind;
    } else if (key == "fixed_delay") {
      IFSYN_RETURN_IF_ERROR(parse_int(value, "fixed_delay", 1, 1 << 20, n));
      out.fixed_delay_cycles = static_cast<int>(n);
    } else if (key == "arbitrate") {
      if (!value.is_bool()) return invalid_argument("arbitrate must be a bool");
      out.arbitrate = value.as_bool();
    } else if (key == "cosim") {
      if (!value.is_bool()) return invalid_argument("cosim must be a bool");
      out.cosim = value.as_bool();
    } else if (key == "conform") {
      if (!value.is_bool()) return invalid_argument("conform must be a bool");
      out.conform = value.as_bool();
    } else if (key == "max_time") {
      IFSYN_RETURN_IF_ERROR(parse_int(value, "max_time", 1, 1ll << 50, n));
      out.max_time = static_cast<std::uint64_t>(n);
    } else if (key == "threads") {
      IFSYN_RETURN_IF_ERROR(parse_int(value, "threads", 1, 256, n));
      out.threads = static_cast<int>(n);
    } else if (key == "top_k") {
      IFSYN_RETURN_IF_ERROR(parse_int(value, "top_k", 0, 1 << 20, n));
      out.top_k = static_cast<int>(n);
    } else if (key == "protocols") {
      if (!value.is_array()) {
        return invalid_argument("protocols must be an array");
      }
      std::vector<spec::ProtocolKind> kinds;
      for (const Json& item : value.as_array()) {
        spec::ProtocolKind kind;
        IFSYN_RETURN_IF_ERROR(parse_protocol(item, kind));
        kinds.push_back(kind);
      }
      if (kinds.empty()) return invalid_argument("protocols must be non-empty");
      out.protocols = std::move(kinds);
    } else if (key == "min_width") {
      IFSYN_RETURN_IF_ERROR(parse_int(value, "min_width", 1, 1 << 16, n));
      out.min_width = static_cast<int>(n);
    } else if (key == "max_width") {
      IFSYN_RETURN_IF_ERROR(parse_int(value, "max_width", 1, 1 << 16, n));
      out.max_width = static_cast<int>(n);
    } else if (key == "alt_groupings") {
      if (!value.is_bool()) {
        return invalid_argument("alt_groupings must be a bool");
      }
      out.alt_groupings = value.as_bool();
    } else if (key == "sim_max_time") {
      IFSYN_RETURN_IF_ERROR(parse_int(value, "sim_max_time", 1, 1ll << 50, n));
      out.sim_max_time = static_cast<std::uint64_t>(n);
    } else if (key == "max_clocks") {
      if (!value.is_object()) {
        return invalid_argument("max_clocks must be an object");
      }
      for (const auto& [process, limit] : value.as_object()) {
        IFSYN_RETURN_IF_ERROR(parse_int(limit, "max_clocks", 1, 1ll << 50, n));
        out.max_clocks[process] = n;
      }
    } else if (key == "format") {
      if (!value.is_string() ||
          (value.as_string() != "markdown" && value.as_string() != "json")) {
        return invalid_argument("format must be \"markdown\" or \"json\"");
      }
      out.exploration_json = value.as_string() == "json";
    } else {
      return invalid_argument("unknown option '" + key + "'");
    }
  }
  if (out.min_width && out.max_width && *out.min_width > *out.max_width) {
    return invalid_argument("min_width exceeds max_width");
  }
  return Status::ok();
}

}  // namespace

const char* request_op_name(RequestOp op) {
  switch (op) {
    case RequestOp::kSynth: return "synth";
    case RequestOp::kExplore: return "explore";
    case RequestOp::kCheck: return "check";
    case RequestOp::kMetrics: return "metrics";
    case RequestOp::kStats: return "stats";
  }
  return "?";
}

std::string status_error_code(StatusCode code) {
  switch (code) {
    case StatusCode::kOk: return "ok";
    case StatusCode::kInvalidArgument: return "invalid_argument";
    case StatusCode::kInfeasible: return "infeasible";
    case StatusCode::kNotFound: return "not_found";
    case StatusCode::kFailedPrecondition: return "failed_precondition";
    case StatusCode::kUnsupported: return "unsupported";
    case StatusCode::kSimulationError: return "simulation_error";
    case StatusCode::kCheckFailed: return "check_failed";
  }
  return "internal";
}

Result<Request> parse_request(const Json& json) {
  if (!json.is_object()) return invalid_argument("request must be an object");
  Request request;
  for (const auto& [key, value] : json.as_object()) {
    if (key == "id") {
      if (!value.is_string()) return invalid_argument("id must be a string");
      request.id = value.as_string();
    } else if (key == "op") {
      if (!value.is_string()) return invalid_argument("op must be a string");
      const std::string& op = value.as_string();
      if (op == "synth") request.op = RequestOp::kSynth;
      else if (op == "explore") request.op = RequestOp::kExplore;
      else if (op == "check") request.op = RequestOp::kCheck;
      else if (op == "metrics") request.op = RequestOp::kMetrics;
      else if (op == "stats") request.op = RequestOp::kStats;
      else return invalid_argument("unknown op '" + op + "'");
    } else if (key == "spec") {
      if (!value.is_string()) return invalid_argument("spec must be a string");
      request.target = value.as_string();
    } else if (key == "spec_text") {
      if (!value.is_string()) {
        return invalid_argument("spec_text must be a string");
      }
      request.spec_text = value.as_string();
    } else if (key == "options") {
      IFSYN_RETURN_IF_ERROR(parse_options(value, request.options));
    } else if (key == "deadline_ms") {
      long long n = 0;
      IFSYN_RETURN_IF_ERROR(parse_int(value, "deadline_ms", 0, 1ll << 40, n));
      request.deadline_ms = static_cast<std::uint64_t>(n);
    } else if (key == "trace_file") {
      if (!value.is_string()) {
        return invalid_argument("trace_file must be a string");
      }
      request.trace_file = value.as_string();
    } else {
      return invalid_argument("unknown request field '" + key + "'");
    }
  }
  if (json.find("op") == nullptr) return invalid_argument("missing op");
  const bool introspection =
      request.op == RequestOp::kMetrics || request.op == RequestOp::kStats;
  if (!introspection && request.target.empty() && request.spec_text.empty()) {
    return invalid_argument("missing spec (or spec_text)");
  }
  if (!request.target.empty() && !request.spec_text.empty()) {
    return invalid_argument("spec and spec_text are mutually exclusive");
  }
  return request;
}

std::string render_response(const Response& response, bool include_timing) {
  JsonObject object;
  object["id"] = response.id;
  object["op"] = response.op;
  object["ok"] = response.ok;
  if (!response.ok) {
    JsonObject error;
    error["code"] = response.error.code;
    error["message"] = response.error.message;
    object["error"] = std::move(error);
  }
  if (!response.spec_hash.empty()) object["spec_hash"] = response.spec_hash;
  if (!response.report.empty()) object["report"] = response.report;
  if (include_timing) {
    object["elapsed_us"] = response.elapsed_us;
    object["queue_us"] = response.queue_us;
    if (!response.trace_id.empty()) object["trace_id"] = response.trace_id;
  }
  return Json(std::move(object)).dump();
}

}  // namespace ifsyn::serve
