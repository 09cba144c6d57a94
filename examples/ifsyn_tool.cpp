// ifsyn_tool: command-line front end for the whole flow.
//
//   ifsyn_tool <spec> [options]                  synthesize (the Fig. 1 flow)
//   ifsyn_tool check <spec> [options]            static protocol check
//   ifsyn_tool conform <spec> [options]          check + trace conformance
//   ifsyn_tool explore <spec> [options]          design-space exploration
//   ifsyn_tool batch <manifest.jsonl> [options]  JSONL requests from a file
//   ifsyn_tool serve [options]                   JSONL requests on stdin
//
// <spec> is a .ifs file (src/spec/parser.hpp) or builtin:flc|am|ethernet|
// fig3; a relative path, here or in a batch manifest, resolves against the
// working directory. Without arguments the tool lists every flag (kFlags
// below).
//
// The one-shot subcommands are a batch of one: their flags become one
// serve::Request (src/serve/request.hpp) that an in-process
// serve::Service executes, so spec resolution, per-spec defaults, option
// validation, error codes and reports are serve's, and `conform X` is
// `check X` with "conform": true. The tool prints the response's report
// and writes the requested files from its artifacts; synth's --report
// appends the measured bus traffic of one traced run of the refined
// system, which --vcd shares. Exit 0 when the response is ok (for conform:
// every lane mined and none disagreeing), 1 when not, 2 on a usage error
// or an option serve rejects. batch and serve drain requests through the
// worker pool, responses in request order.
#include <algorithm>
#include <charconv>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <deque>
#include <fstream>
#include <future>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "check/trace_miner.hpp"
#include "codegen/vhdl_emitter.hpp"
#include "core/report.hpp"
#include "explore/report.hpp"
#include "obs/log.hpp"
#include "obs/trace_sink.hpp"
#include "serve/json.hpp"
#include "serve/request.hpp"
#include "serve/service.hpp"
#include "sim/interpreter.hpp"
#include "sim/vcd.hpp"
#include "spec/printer.hpp"

using namespace ifsyn;

namespace {

enum Command : unsigned {
  kSynth = 1 << 0,
  kCheck = 1 << 1,
  kConform = 1 << 2,
  kExplore = 1 << 3,
  kBatch = 1 << 4,
  kServe = 1 << 5,
};

struct CommandInfo {
  Command command;
  const char* name;  ///< argv[1] keyword; empty for the default (synth)
  const char* operand;
};

constexpr CommandInfo kCommands[] = {
    {kSynth, "", "<spec>"},
    {kCheck, "check", "<spec>"},
    {kConform, "conform", "<spec>"},
    {kExplore, "explore", "<spec>"},
    {kBatch, "batch", "<manifest.jsonl>"},
    {kServe, "serve", ""},
};

/// Where a flag's value goes: a tool-side setting, or a request option
/// set to true/false, the value as a number/string, its comma-separated
/// list, LO:HI as min_width/max_width, or KEY=N into an object.
enum Kind { kTool, kOn, kOff, kNumber, kText, kList, kRange, kPair };

struct Flag {
  const char* name;    ///< spelling after "--"
  const char* value;   ///< usage placeholder; nullptr for a switch
  unsigned commands;   ///< subcommands accepting the flag
  Kind kind;
  const char* option;  ///< the request option it fills
  const char* help;
};

constexpr unsigned kSynthCheck = kSynth | kCheck | kConform;
constexpr unsigned kOneShot = kSynthCheck | kExplore;
constexpr unsigned kPool = kBatch | kServe;

constexpr Flag kFlags[] = {
    {"protocol", "full|half|fixed|wired", kSynthCheck, kText, "protocol",
     "protocol of generated buses (default full)"},
    {"fixed-delay", "N", kOneShot, kNumber, "fixed_delay",
     "cycles per word of the fixed-delay protocol"},
    {"arbitrate", nullptr, kSynthCheck, kOn, "arbitrate",
     "serialize masters with a bus lock"},
    {"no-cosim", nullptr, kSynth, kOff, "cosim", "skip the co-simulation"},
    {"max-time", "N", kSynth | kConform, kNumber, "max_time",
     "simulation budget (cycles)"},
    {"threads", "N", kExplore, kNumber, "threads", "worker threads"},
    {"top-k", "K", kExplore, kNumber, "top_k", "sim-validate K front points"},
    {"protocols", "full,half,fixed", kExplore, kList, "protocols",
     "protocols to enumerate"},
    {"widths", "LO:HI", kExplore, kRange, nullptr, "bus width range"},
    {"max-clocks", "PROC=N", kExplore, kPair, "max_clocks",
     "per-process execution-time limit"},
    {"alt-groupings", nullptr, kExplore, kOn, "alt_groupings",
     "also try alternative channel groupings"},
    {"sim-max-time", "N", kExplore, kNumber, "sim_max_time",
     "budget per validation run (cycles)"},
    {"print-spec", nullptr, kSynth, kTool, nullptr, "print the refined IR"},
    {"emit-vhdl", "FILE", kSynth, kTool, nullptr, "write the refined VHDL"},
    {"vcd", "FILE", kSynth, kTool, nullptr, "write the refined waveform"},
    {"report", "FILE", kSynth | kConform | kExplore, kTool, nullptr,
     "write the report (synth: plus mined bus traffic)"},
    {"json", "FILE", kExplore, kTool, nullptr, "write the exploration JSON"},
    {"metrics", "FILE", kOneShot, kTool, nullptr, "write the metrics JSON"},
    {"chrome-trace", "FILE", kSynth | kExplore, kTool, nullptr,
     "write the request's Chrome trace"},
    {"workers", "N", kPool, kTool, nullptr, "worker pool size (default 1)"},
    {"queue", "N", kPool, kTool, nullptr, "queue capacity (default 64)"},
    {"deadline-ms", "N", kPool, kTool, nullptr, "default request deadline"},
    {"repeat", "N", kBatch, kTool, nullptr, "drain the manifest N times"},
    {"responses", "FILE", kBatch, kTool, nullptr, "JSONL out (default stdout)"},
    {"metrics-text", "FILE", kPool, kTool, nullptr, "Prometheus metrics"},
    {"no-timing", nullptr, kPool, kTool, nullptr, "omit wall-clock fields"},
    {"trace", "FILE", kPool, kTool, nullptr, "service-wide Chrome trace"},
    {"event-log", "FILE", kPool, kTool, nullptr, "JSONL event log"},
    {"watchdog-ms", "N", kPool, kTool, nullptr, "watchdog poll interval"},
    {"trace-dir", "DIR", kPool, kTool, nullptr, "slow-request capture dir"},
    {"slow-trace-ms", "N", kPool, kTool, nullptr, "capture slower requests"},
    {"slow-trace-keep", "N", kPool, kTool, nullptr, "captures kept (def. 4)"},
};

int usage() {
  std::string out;
  for (const CommandInfo& command : kCommands) {
    std::string line = out.empty() ? "usage: ifsyn_tool" : "       ifsyn_tool";
    for (const char* word : {command.name, command.operand}) {
      if (*word) line = line + " " + word;
    }
    for (const Flag& flag : kFlags) {
      if (!(flag.commands & command.command)) continue;
      std::string item = std::string(" [--") + flag.name;
      if (flag.value) item = item + " " + flag.value;
      item += "]";
      if (line.size() + item.size() > 79) {
        out += line + "\n";
        line = "         ";
      }
      line += item;
    }
    out += line + "\n";
  }
  out += "\n<spec> is a .ifs file or builtin:flc|am|ethernet|fig3. Relative\n"
         "paths, including a batch manifest's \"spec\" paths, resolve against\n"
         "the working directory, not the manifest's directory.\n\n";
  for (const Flag& flag : kFlags) {
    std::string left = std::string("--") + flag.name;
    if (flag.value) left = left + " " + flag.value;
    left.resize(std::max<std::size_t>(left.size() + 1, 34), ' ');
    out += "  " + left + flag.help + "\n";
  }
  std::fputs(out.c_str(), stderr);
  return 2;
}

/// A command line, mapped: the request options serve will validate plus
/// the tool-side settings.
struct Invocation {
  Command command = kSynth;
  std::string target;  ///< the spec, or batch's manifest
  serve::JsonObject options;
  std::map<std::string, std::string> settings;  ///< kTool flags by name

  std::string setting(const std::string& name) const {
    const auto it = settings.find(name);
    return it == settings.end() ? std::string() : it->second;
  }
};

/// A numeric flag value as JSON: a number when it reads as one, else the
/// text itself, so serve's schema rejects it with its own message.
serve::Json number_or_text(const std::string& text) {
  Result<serve::Json> json = serve::parse_json(text);
  if (json.is_ok() && json->is_number()) return *json;
  return serve::Json(text);
}

bool apply_flag(const Flag& flag, const std::string& value, Invocation& inv) {
  serve::JsonObject& options = inv.options;
  switch (flag.kind) {
    case kTool: inv.settings[flag.name] = value; break;
    case kOn: options[flag.option] = true; break;
    case kOff: options[flag.option] = false; break;
    case kNumber: options[flag.option] = number_or_text(value); break;
    case kText: options[flag.option] = value; break;
    case kList: {
      serve::JsonArray items;
      for (std::size_t start = 0;;) {
        const std::size_t comma = value.find(',', start);
        items.emplace_back(value.substr(start, comma - start));
        if (comma == std::string::npos) break;
        start = comma + 1;
      }
      options[flag.option] = std::move(items);
      break;
    }
    case kRange:
    case kPair: {
      const std::size_t at = value.find(flag.kind == kRange ? ':' : '=');
      if (at == std::string::npos) {
        std::fprintf(stderr, "--%s wants %s\n", flag.name, flag.value);
        return false;
      }
      const std::string left = value.substr(0, at);
      const serve::Json right = number_or_text(value.substr(at + 1));
      if (flag.kind == kRange) {
        options["min_width"] = number_or_text(left);
        options["max_width"] = right;
      } else {
        serve::Json& pairs = options[flag.option];
        if (!pairs.is_object()) pairs = serve::JsonObject{};
        pairs.as_object()[left] = right;
      }
      break;
    }
  }
  return true;
}

/// Map the arguments after the subcommand. False on a usage error.
bool parse_flags(int argc, char** argv, Invocation& inv) {
  for (int i = 0; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      if (!inv.target.empty() || inv.command == kServe) return false;
      inv.target = arg;
      continue;
    }
    const Flag* flag = nullptr;
    for (const Flag& candidate : kFlags) {
      if (arg.compare(2, std::string::npos, candidate.name) == 0 &&
          (candidate.commands & inv.command)) {
        flag = &candidate;
        break;
      }
    }
    if (!flag) {
      std::fprintf(stderr, "unknown option '%s'\n", arg.c_str());
      return false;
    }
    std::string value;
    if (flag->value) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s needs a value\n", arg.c_str());
        return false;
      }
      value = argv[++i];
    }
    if (!apply_flag(*flag, value, inv)) return false;
  }
  return inv.command == kServe || !inv.target.empty();
}

bool write_file(const std::string& path, const std::string& content) {
  std::ofstream out(path);
  if (out << content) return true;
  std::fprintf(stderr, "cannot write %s\n", path.c_str());
  return false;
}

/// The one-shot outputs beyond the printed report, all derived from the
/// response's artifacts. False when one cannot be written.
bool write_outputs(const Invocation& inv, const serve::Request& request,
                   const serve::Response& response) {
  const serve::RequestArtifacts& artifacts = *response.artifacts;
  const std::string vcd_path = inv.setting("vcd");
  std::string report = response.report;
  if (artifacts.refined) {
    const spec::System& refined = *artifacts.refined;
    if (inv.settings.count("print-spec")) {
      std::printf("\n%s\n", spec::print_system(refined).c_str());
    }
    if (inv.settings.count("report") || !vcd_path.empty()) {
      // One traced run of the refined system feeds the waveform and the
      // measured traffic, which the conformance miner reads off it.
      const sim::SimulationRun run = sim::simulate(
          refined, request.options.max_time.value_or(serve::kDefaultMaxTime),
          /*trace=*/true);
      const bool ran = run.result.status.is_ok();
      if (!vcd_path.empty()) {
        const Status status =
            ran ? sim::write_vcd(*run.kernel, vcd_path) : run.result.status;
        if (!status.is_ok()) {
          std::fprintf(stderr, "%s\n", status.to_string().c_str());
          return false;
        }
        std::printf("wrote waveform (%zu changes) to %s\n",
                    run.kernel->trace().size(), vcd_path.c_str());
      }
      if (ran) {
        const check::ConformanceReport mined =
            check::mine_and_diff(refined, run.kernel->trace());
        if (!mined.traffic.empty()) {
          report += core::render_traffic_markdown(mined, run.result.end_time);
        }
      }
    }
  }
  // Write one file flag's content, when the flag is given and the
  // content exists.
  const auto output = [&](const char* flag, const char* what, bool exists,
                          auto render) {
    const std::string path = inv.setting(flag);
    if (path.empty() || !exists) return true;
    if (!write_file(path, render())) return false;
    std::printf("wrote %s to %s\n", what, path.c_str());
    return true;
  };
  const char* report_kind = inv.command == kSynth     ? "synthesis report"
                            : inv.command == kExplore ? "exploration report"
                                                      : "conformance report";
  if (!output("report", report_kind, !report.empty(), [&] { return report; }) ||
      !output("json", "exploration JSON", artifacts.exploration.has_value(),
              [&] {
                return explore::render_exploration_json(
                    *artifacts.spec, *artifacts.explore_options,
                    *artifacts.exploration);
              }) ||
      !output("metrics", "metrics", true,
              [&] { return artifacts.registry.snapshot().to_json(); }) ||
      !output("emit-vhdl", "refined VHDL", artifacts.refined.has_value(),
              [&] {
                return codegen::VhdlEmitter().emit_system(*artifacts.refined);
              })) {
    return false;
  }
  if (!request.trace_file.empty()) {
    std::printf("wrote chrome trace to %s\n", request.trace_file.c_str());
  }
  return true;
}

/// synth, check, conform and explore: one request, executed in-process.
int run_request(const Invocation& inv) {
  serve::JsonObject json;
  json["op"] = inv.command == kSynth     ? "synth"
               : inv.command == kExplore ? "explore"
                                         : "check";
  json["spec"] = inv.target;
  serve::JsonObject options = inv.options;
  if (inv.command == kConform) options["conform"] = true;
  json["options"] = std::move(options);
  Result<serve::Request> request =
      serve::parse_request(serve::Json(std::move(json)));
  if (!request.is_ok()) {
    std::fprintf(stderr, "invalid option: %s\n",
                 request.status().message().c_str());
    return 2;
  }
  request->trace_file = inv.setting("chrome-trace");

  serve::ServiceOptions service_options;
  // A local explore gets every thread it asks for, not serve's cap.
  service_options.max_request_threads = request->options.threads.value_or(1);
  serve::Service service(service_options);
  const serve::Response response = service.execute(*request);
  std::printf("%s", response.report.c_str());
  if (!response.ok) {
    std::fprintf(stderr, "%s failed: %s [%s]\n", response.op.c_str(),
                 response.error.message.c_str(), response.error.code.c_str());
  }
  if (response.artifacts && !write_outputs(inv, *request, response)) return 1;
  return response.ok ? 0 : 1;
}

/// A batch/serve numeric setting; left alone when the flag is absent.
template <typename T>
bool count_setting(const Invocation& inv, const char* name, T& out) {
  const auto it = inv.settings.find(name);
  if (it == inv.settings.end()) return true;
  const std::string& text = it->second;
  const auto [end, error] =
      std::from_chars(text.data(), text.data() + text.size(), out);
  if (error == std::errc() && end == text.data() + text.size()) return true;
  std::fprintf(stderr, "--%s wants a whole number, not '%s'\n", name,
               text.c_str());
  return false;
}

/// The worker-pool configuration of batch/serve. False on a usage error.
bool pool_options(const Invocation& inv, serve::ServiceOptions& options,
                  int& repeat) {
  if (!count_setting(inv, "workers", options.workers) ||
      !count_setting(inv, "queue", options.queue_capacity) ||
      !count_setting(inv, "deadline-ms", options.default_deadline_ms) ||
      !count_setting(inv, "watchdog-ms", options.watchdog_poll_ms) ||
      !count_setting(inv, "slow-trace-ms", options.slow_trace_ms) ||
      !count_setting(inv, "slow-trace-keep", options.slow_trace_keep) ||
      !count_setting(inv, "repeat", repeat)) {
    return false;
  }
  repeat = std::max(repeat, 1);
  options.slow_trace_dir = inv.setting("trace-dir");
  if (options.slow_trace_ms > 0 && options.slow_trace_dir.empty()) {
    std::fprintf(stderr, "--slow-trace-ms requires --trace-dir\n");
    return false;
  }
  return true;
}

/// One manifest/stdin line -> either a request for the pool or an
/// immediate structured parse-error response (the id is salvaged from
/// the malformed object when possible, so callers can correlate).
std::future<serve::Response> dispatch_line(serve::Service& service,
                                           const std::string& line) {
  Result<serve::Json> json = serve::parse_json(line);
  serve::Response response;
  response.ok = false;
  if (json.is_ok()) {
    Result<serve::Request> parsed = serve::parse_request(*json);
    if (parsed.is_ok()) return service.submit(std::move(*parsed));
    if (const serve::Json* id = json->find("id"); id && id->is_string()) {
      response.id = id->as_string();
    }
    response.error = {"invalid_request", parsed.status().message()};
  } else {
    response.error = {"invalid_request", json.status().message()};
  }
  std::promise<serve::Response> ready;
  ready.set_value(std::move(response));
  return ready.get_future();
}

/// batch: drain the manifest `repeat` times. True when every response
/// was ok.
bool drain_manifest(serve::Service& service,
                    const std::vector<std::string>& lines, int repeat,
                    std::ostream& out, bool timing) {
  bool all_ok = true;
  for (int pass = 0; pass < repeat; ++pass) {
    // The manifest is a work list, not a load test: keep at most the
    // queue capacity outstanding so nothing gets admission-rejected,
    // and emit responses in manifest order.
    std::deque<std::future<serve::Response>> window;
    std::size_t emitted = 0;
    auto drain_one = [&] {
      serve::Response response = window.front().get();
      window.pop_front();
      ++emitted;
      all_ok = all_ok && response.ok;
      out << serve::render_response(response, timing) << "\n";
    };
    for (const std::string& line : lines) {
      if (window.size() >= service.options().queue_capacity) drain_one();
      window.push_back(dispatch_line(service, line));
    }
    while (!window.empty()) drain_one();
    std::fprintf(stderr, "pass %d: %zu request(s) drained\n", pass + 1,
                 emitted);
  }
  return all_ok;
}

/// serve: answer stdin's requests on stdout until EOF.
void serve_stdin(serve::Service& service, bool timing) {
  // Responses stream back in request order; a full queue answers with
  // admission_rejected immediately (that's the back-pressure signal —
  // the loop never blocks the reader on a slow request).
  std::deque<std::future<serve::Response>> window;
  auto drain_ready = [&](bool block) {
    while (!window.empty() &&
           (block || window.front().wait_for(std::chrono::seconds(0)) ==
                         std::future_status::ready)) {
      std::printf("%s\n",
                  serve::render_response(window.front().get(), timing).c_str());
      std::fflush(stdout);
      window.pop_front();
    }
  };
  for (std::string line; std::getline(std::cin, line);) {
    if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
    window.push_back(dispatch_line(service, line));
    drain_ready(/*block=*/false);
  }
  drain_ready(/*block=*/true);
}

/// batch and serve: JSONL requests through the worker pool.
int pool_main(const Invocation& inv) {
  serve::ServiceOptions options;
  int repeat = 1;
  if (!pool_options(inv, options, repeat)) return 2;
  const bool timing = !inv.settings.count("no-timing");

  std::vector<std::string> lines;
  std::ofstream responses_file;
  std::ostream* out = &std::cout;
  if (inv.command == kBatch) {
    std::ifstream manifest(inv.target);
    if (!manifest) {
      std::fprintf(stderr, "cannot read manifest %s\n", inv.target.c_str());
      return 1;
    }
    for (std::string line; std::getline(manifest, line);) {
      if (line.find_first_not_of(" \t\r") != std::string::npos) {
        lines.push_back(line);
      }
    }
    if (const std::string path = inv.setting("responses"); !path.empty()) {
      responses_file.open(path);
      if (!responses_file) {
        std::fprintf(stderr, "cannot write %s\n", path.c_str());
        return 1;
      }
      out = &responses_file;
    }
  }

  // The service-wide trace and event log outlive the service.
  obs::TraceSink trace;
  obs::EventLog event_log;
  if (inv.settings.count("trace")) {
    options.trace = &trace;
    trace.set_thread_name("submit");
  }
  if (inv.settings.count("event-log")) options.event_log = &event_log;

  serve::Service service(options);
  service.start();
  const bool all_ok = inv.command == kBatch
                          ? drain_manifest(service, lines, repeat, *out, timing)
                          : (serve_stdin(service, timing), true);
  service.stop();

  if (const std::string path = inv.setting("metrics-text"); !path.empty()) {
    if (!write_file(path, service.metrics_text())) return 1;
    std::fprintf(stderr, "wrote metrics snapshot to %s\n", path.c_str());
  }
  if (const std::string path = inv.setting("trace"); !path.empty()) {
    const std::string json = trace.to_json();
    std::string error;
    if (!obs::validate_trace_json(json, &error)) {
      std::fprintf(stderr, "internal: service trace invalid: %s\n",
                   error.c_str());
      return 1;
    }
    if (!write_file(path, json)) return 1;
    std::fprintf(stderr, "wrote service trace to %s (%zu events)\n",
                 path.c_str(), trace.event_count());
  }
  if (const std::string path = inv.setting("event-log"); !path.empty()) {
    std::string error;
    if (!event_log.write_jsonl(path, &error)) {
      std::fprintf(stderr, "cannot write event log: %s\n", error.c_str());
      return 1;
    }
    std::fprintf(stderr, "wrote event log to %s (%zu events)\n",
                 path.c_str(), event_log.size());
  }
  return all_ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  Invocation inv;
  int first = 1;
  for (const CommandInfo& command : kCommands) {
    if (*command.name && std::strcmp(argv[1], command.name) == 0) {
      inv.command = command.command;
      first = 2;
    }
  }
  if (!parse_flags(argc - first, argv + first, inv)) return usage();
  return inv.command & kPool ? pool_main(inv) : run_request(inv);
}
