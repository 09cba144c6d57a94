// ifsyn/serve/request.hpp
//
// The serve front end's wire format: one JSON object per line in, one
// per line out (JSONL). A request names an operation and a spec and
// optionally overrides synthesis/exploration options:
//
//   {"id": "r1", "op": "synth", "spec": "examples/specs/pipeline.ifs",
//    "options": {"protocol": "half", "arbitrate": true},
//    "deadline_ms": 2000}
//   {"id": "r2", "op": "explore", "spec": "builtin:flc",
//    "options": {"top_k": 4, "protocols": ["full", "fixed"]}}
//   {"id": "r3", "op": "check", "spec": "builtin:ethernet",
//    "options": {"conform": true}}
//   {"id": "r4", "op": "metrics"}
//   {"id": "r5", "op": "stats"}
//
// Spec targets: a `.ifs` path, "builtin:flc|am|ethernet|fig3", or inline
// text via "spec_text". Responses echo the id, carry ok/error plus the
// operation's deterministic report, and wall-clock latency fields that
// are explicitly *outside* the determinism contract:
//
//   {"id": "r1", "ok": true, "op": "synth", "spec_hash": "…",
//    "report": "…", "elapsed_us": 1234, "queue_us": 7}
//   {"id": "rX", "ok": false, "error": {"code": "deadline_exceeded",
//    "message": "…"}}
//
// `report` and `spec_hash` are byte-identical for a given request
// whether it runs alone, concurrently, or entirely from warm caches —
// the serve determinism contract. Tests compare them verbatim.
//
// Option fields are all optional; absent fields take the spec's builtin
// defaults (see serve/spec_intern) then the engine defaults. Unknown
// fields and unknown ops are structured errors, not crashes: the input
// side is hardened against untrusted bytes.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "serve/json.hpp"
#include "spec/system.hpp"
#include "util/status.hpp"

namespace ifsyn::serve {

enum class RequestOp { kSynth, kExplore, kCheck, kMetrics, kStats };

const char* request_op_name(RequestOp op);

/// Simulation budget (cycles) of synth co-simulation and conform mining
/// when a request sets no max_time.
inline constexpr std::uint64_t kDefaultMaxTime = 10'000'000;

/// Request-level option overrides. Optionals distinguish "absent" (use
/// the spec's defaults) from an explicit value.
struct RequestOptions {
  std::optional<spec::ProtocolKind> protocol;
  std::optional<int> fixed_delay_cycles;
  std::optional<bool> arbitrate;
  std::optional<bool> cosim;                    // synth only
  std::optional<bool> conform;                  // check only: mine the trace
  std::optional<std::uint64_t> max_time;        // synth cosim / conform budget
  // ---- explore ----
  std::optional<int> threads;
  std::optional<int> top_k;
  std::optional<std::vector<spec::ProtocolKind>> protocols;
  std::optional<int> min_width;
  std::optional<int> max_width;
  std::optional<bool> alt_groupings;
  std::optional<std::uint64_t> sim_max_time;
  std::map<std::string, long long> max_clocks;
  bool exploration_json = false;  // JSON report instead of Markdown
};

struct Request {
  std::string id;
  RequestOp op = RequestOp::kSynth;
  std::string target;     ///< spec path or builtin:<name>; empty if inline
  std::string spec_text;  ///< inline source; used when target is empty
  RequestOptions options;
  /// Per-request deadline in wall milliseconds; 0 = service default. A
  /// request past its deadline yields a structured deadline_exceeded
  /// error — never a hang.
  std::uint64_t deadline_ms = 0;
  /// Optional path: write this request's Chrome trace there. Precedence
  /// vs the service-wide sink: when set, the request's *engine* phase
  /// spans go to a private sink written to this path and are NOT
  /// duplicated into the service-wide trace; the request's lifecycle
  /// events (submit/execute spans, flow arrows, async request span)
  /// always go to the service-wide sink when one is configured, so the
  /// service trace stays complete. An unwritable path is a structured
  /// "trace_unwritable" error response, not a silent drop — the check
  /// runs *before* execution so no engine work is wasted.
  std::string trace_file;
  /// Service-assigned trace ID ("t1", "t2", ...), stamped at admission
  /// (submit) or on direct execute() if unset. Not a wire field:
  /// parse_request rejects it in incoming JSON; it is echoed on the
  /// response (timing section) and tags every span of this request in
  /// the service-wide Chrome trace (args.trace_id).
  std::string trace_id;
};

struct RequestArtifacts;  // serve/service.hpp

struct ErrorInfo {
  std::string code;     ///< stable identifier, e.g. "deadline_exceeded"
  std::string message;  ///< human-readable detail
};

struct Response {
  std::string id;
  std::string op;
  bool ok = false;
  ErrorInfo error;        ///< set when !ok
  std::string spec_hash;  ///< interned content hash (when resolved)
  std::string report;     ///< deterministic payload (see file comment)
  // Wall-clock, excluded from the determinism contract (rendered only
  // when include_timing):
  std::uint64_t elapsed_us = 0;  ///< execution time
  std::uint64_t queue_us = 0;    ///< time spent queued before a worker
  std::string trace_id;          ///< service-assigned request trace ID
  /// In-process only, never rendered: what the engine left behind for a
  /// direct Service::execute caller (see RequestArtifacts).
  std::shared_ptr<RequestArtifacts> artifacts;
};

/// Stable error code for a Status ("invalid_argument", "not_found", …).
std::string status_error_code(StatusCode code);

/// Parse one request object. Unknown op / malformed fields are
/// kInvalidArgument.
Result<Request> parse_request(const Json& json);

/// Serialize a response as one compact JSON object (no newline).
/// Deterministic fields first-class; latency fields included only when
/// `include_timing` (tests compare byte-identical responses without it).
std::string render_response(const Response& response,
                            bool include_timing = true);

}  // namespace ifsyn::serve
