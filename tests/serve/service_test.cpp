// End-to-end tests of the serve front end's contracts:
//
//   - determinism: a request's report is byte-identical run alone, run
//     concurrently against a loaded pool, and run from warm caches;
//   - admission control: a saturated bounded queue answers with
//     structured admission_rejected errors — every future resolves,
//     nothing hangs (the asan preset runs this file too);
//   - deadlines: an expired request yields a structured
//     deadline_exceeded error;
//   - hardened ingestion: malformed specs and requests come back as
//     structured error responses.
//   - observability: tracing on vs off never changes a report byte;
//     the service-wide trace is schema-valid with every request
//     flow-linked; unwritable trace files are structured errors; the
//     stats op answers over the wire format; slow requests are captured.
#include "serve/service.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <future>
#include <sstream>
#include <string>
#include <vector>

#include "explore/report.hpp"
#include "obs/log.hpp"
#include "obs/trace_sink.hpp"
#include "scoped_env.hpp"
#include "serve/json.hpp"
#include "sim/interpreter.hpp"

namespace ifsyn::serve {
namespace {

Request check_request(const std::string& id, const std::string& target) {
  Request request;
  request.id = id;
  request.op = RequestOp::kCheck;
  request.target = target;
  return request;
}

Request explore_request(const std::string& id, const std::string& target,
                        int top_k = 1) {
  Request request;
  request.id = id;
  request.op = RequestOp::kExplore;
  request.target = target;
  request.options.top_k = top_k;
  return request;
}

TEST(ServiceTest, ExecutesEveryOperation) {
  Service service;
  Response check = service.execute(check_request("c", "builtin:fig3"));
  EXPECT_TRUE(check.ok) << check.error.message;
  EXPECT_NE(check.report.find("check clean"), std::string::npos);
  EXPECT_FALSE(check.spec_hash.empty());

  Request synth;
  synth.id = "s";
  synth.op = RequestOp::kSynth;
  synth.target = "builtin:fig3";
  Response synthesized = service.execute(synth);
  EXPECT_TRUE(synthesized.ok) << synthesized.error.message;
  EXPECT_NE(synthesized.report.find("Interface synthesis report"),
            std::string::npos);

  Response explored = service.execute(explore_request("e", "builtin:fig3"));
  EXPECT_TRUE(explored.ok) << explored.error.message;
  EXPECT_NE(explored.report.find("Pareto"), std::string::npos);

  Request metrics;
  metrics.id = "m";
  metrics.op = RequestOp::kMetrics;
  Response snapshot = service.execute(metrics);
  EXPECT_TRUE(snapshot.ok);
  EXPECT_NE(snapshot.report.find("ifsyn_serve_program_cache_hits_total"),
            std::string::npos);
}

TEST(ServiceTest, ExecuteHandsOffArtifactsAndSubmitDropsThem) {
  Service service;
  Request synth;
  synth.id = "s";
  synth.op = RequestOp::kSynth;
  synth.target = "builtin:fig3";
  const Response synthesized = service.execute(synth);
  ASSERT_TRUE(synthesized.ok) << synthesized.error.message;
  ASSERT_TRUE(synthesized.artifacts);
  ASSERT_TRUE(synthesized.artifacts->refined);
  EXPECT_EQ(synthesized.artifacts->refined->name(),
            synthesized.artifacts->spec->name() + "_refined");
  EXPECT_NE(synthesized.artifacts->registry.snapshot().find(
                "protocol.procedures_generated"),
            nullptr);
  // In-process only: the wire form never mentions them.
  EXPECT_EQ(render_response(synthesized, false).find("artifacts"),
            std::string::npos);

  const Response explored =
      service.execute(explore_request("e", "builtin:fig3"));
  ASSERT_TRUE(explored.ok) << explored.error.message;
  ASSERT_TRUE(explored.artifacts && explored.artifacts->exploration &&
              explored.artifacts->explore_options && explored.artifacts->spec);
  EXPECT_EQ(explore::render_exploration_markdown(
                *explored.artifacts->spec, *explored.artifacts->explore_options,
                *explored.artifacts->exploration),
            explored.report);

  service.start();
  const Response queued = service.submit(synth).get();
  ASSERT_TRUE(queued.ok) << queued.error.message;
  EXPECT_EQ(queued.report, synthesized.report);
  EXPECT_FALSE(queued.artifacts);
}

TEST(ServiceTest, ConformFlagMinesTheTraceOnTheCheckPath) {
  Service service;

  // Opt-in: a plain check request never pays for a simulation.
  Response plain = service.execute(check_request("p", "builtin:fig3"));
  ASSERT_TRUE(plain.ok) << plain.error.message;
  EXPECT_EQ(plain.report.find("conform"), std::string::npos);

  Request request = check_request("c", "builtin:fig3");
  request.options.conform = true;
  request.options.arbitrate = true;  // fig3's bus is multi-master
  Response response = service.execute(request);
  ASSERT_TRUE(response.ok) << response.error.message;
  EXPECT_NE(response.report.find("check clean"), std::string::npos);
  EXPECT_NE(response.report.find("conform clean"), std::string::npos);
  EXPECT_NE(response.report.find("0 disagreement(s)"), std::string::npos);

  // The determinism contract extends to the mined section.
  Response again = service.execute(request);
  ASSERT_TRUE(again.ok) << again.error.message;
  EXPECT_EQ(again.report, response.report);

  // Counters surface in /stats and prometheus; the plain check request
  // did not bump them.
  Request stats;
  stats.id = "s";
  stats.op = RequestOp::kStats;
  Response stats_response = service.execute(stats);
  ASSERT_TRUE(stats_response.ok);
  EXPECT_NE(stats_response.report.find("\"conform_requests\":2"),
            std::string::npos)
      << stats_response.report;
  EXPECT_NE(stats_response.report.find("\"conform_clean\":2"),
            std::string::npos);
  EXPECT_NE(stats_response.report.find("\"conform_disagreements\":0"),
            std::string::npos);

  Request metrics;
  metrics.id = "m";
  metrics.op = RequestOp::kMetrics;
  Response snapshot = service.execute(metrics);
  ASSERT_TRUE(snapshot.ok);
  EXPECT_NE(snapshot.report.find("ifsyn_check_conform_requests_total 2"),
            std::string::npos)
      << snapshot.report;
}

// A lane the miner skips was never checked, so it never counts as clean:
// the request fails as conform_incomplete and the clean counter stays put.
TEST(ServiceTest, ConformWithASkippedLaneIsIncompleteNotClean) {
  Service service;
  Request request = check_request("c", "builtin:fig3");
  request.options.conform = true;
  request.options.arbitrate = false;  // P and Q share the bus unserialized
  const Response response = service.execute(request);
  EXPECT_FALSE(response.ok);
  EXPECT_EQ(response.error.code, "conform_incomplete");
  EXPECT_NE(response.report.find("check clean"), std::string::npos);
  EXPECT_NE(response.report.find("conform INCOMPLETE: 0 lane(s)"),
            std::string::npos)
      << response.report;
  EXPECT_NE(response.report.find("1 skipped"), std::string::npos);

  Request stats;
  stats.id = "s";
  stats.op = RequestOp::kStats;
  const Response stats_response = service.execute(stats);
  ASSERT_TRUE(stats_response.ok);
  EXPECT_NE(stats_response.report.find("\"conform_requests\":1"),
            std::string::npos)
      << stats_response.report;
  EXPECT_NE(stats_response.report.find("\"conform_clean\":0"),
            std::string::npos);
}

// A relative spec path resolves against the working directory (a batch
// manifest's own directory is not consulted), and the not_found message
// says so.
TEST(ServiceTest, RelativeSpecPathsResolveAgainstTheWorkingDirectory) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::path(::testing::TempDir()) / "service_test_rel";
  fs::create_directories(dir);
  const fs::path spec = dir / "tiny.ifs";
  std::ofstream(spec) << "system tiny;\n";

  Service service;
  Request found = check_request("f", fs::relative(spec).string());
  ASSERT_TRUE(fs::path(found.target).is_relative()) << found.target;
  const Response ok = service.execute(found);
  EXPECT_NE(ok.error.code, "not_found") << ok.error.message;
  EXPECT_FALSE(ok.spec_hash.empty());

  const Response missing =
      service.execute(check_request("m", "no/such/dir/tiny.ifs"));
  EXPECT_EQ(missing.error.code, "not_found");
  EXPECT_NE(missing.error.message.find(
                "relative paths resolve against the working directory"),
            std::string::npos)
      << missing.error.message;
  fs::remove_all(dir);
}

TEST(ServiceTest, ReportsAreByteIdenticalAloneConcurrentlyAndWarm) {
  // Reference: a fresh service executing the request cold and alone.
  std::string reference;
  {
    Service service;
    reference = service.execute(explore_request("r", "builtin:fig3")).report;
    ASSERT_FALSE(reference.empty());
  }

  ServiceOptions options;
  options.workers = 4;
  Service service(options);
  service.start();
  // Concurrent + cold, concurrent + warm, different request mix around it.
  std::vector<std::future<Response>> futures;
  for (int i = 0; i < 8; ++i) {
    futures.push_back(service.submit(
        explore_request("e" + std::to_string(i), "builtin:fig3")));
    futures.push_back(service.submit(
        check_request("c" + std::to_string(i), "builtin:fig3")));
  }
  for (auto& future : futures) {
    Response response = future.get();
    ASSERT_TRUE(response.ok) << response.error.message;
    if (response.op == "explore") {
      EXPECT_EQ(response.report, reference);
    }
  }
  service.stop();

  // Warm shared stores were actually exercised. (The program cache only
  // sees traffic on the VM engine; the AST reference leg bypasses it.)
  const obs::MetricsSnapshot snapshot = service.metrics_snapshot();
  EXPECT_GT(snapshot.find("serve.spec_cache.hits")->counter, 0u);
  EXPECT_GT(snapshot.find("serve.estimation_cache.hits")->counter, 0u);
  if (sim::engine_from_env() == sim::Engine::kVm) {
    EXPECT_GT(snapshot.find("serve.program_cache.hits")->counter, 0u);
  }
}

TEST(ServiceTest, SynthReportIdenticalOnProgramCacheHit) {
  Service service;
  Request synth;
  synth.op = RequestOp::kSynth;
  synth.target = "builtin:fig3";
  synth.id = "cold";
  const Response cold = service.execute(synth);
  ASSERT_TRUE(cold.ok) << cold.error.message;
  synth.id = "warm";
  const Response warm = service.execute(synth);
  ASSERT_TRUE(warm.ok);
  // The report embeds deterministic sim metrics (vm compile counts
  // included); a bytecode-cache hit must not change a byte.
  EXPECT_EQ(cold.report, warm.report);
  if (sim::engine_from_env() == sim::Engine::kVm) {
    EXPECT_GT(service.metrics_snapshot().find("serve.program_cache.hits")
                  ->counter,
              0u);
  }
}

TEST(ServiceTest, SaturatedQueueRejectsStructurallyAndNeverHangs) {
  ServiceOptions options;
  options.workers = 1;
  options.queue_capacity = 2;
  Service service(options);
  service.start();

  // Flood far past capacity. Every future must resolve: accepted ones
  // with results, the overflow with admission_rejected.
  std::vector<std::future<Response>> futures;
  for (int i = 0; i < 32; ++i) {
    futures.push_back(service.submit(
        check_request("f" + std::to_string(i), "builtin:fig3")));
  }
  int rejected = 0;
  for (auto& future : futures) {
    Response response = future.get();
    if (!response.ok) {
      EXPECT_EQ(response.error.code, "admission_rejected");
      ++rejected;
    }
  }
  EXPECT_GT(rejected, 0);
  service.stop();
  EXPECT_EQ(service.metrics_snapshot()
                .find("serve.requests.admission_rejected")
                ->counter,
            static_cast<std::uint64_t>(rejected));
}

TEST(ServiceTest, ExpiredDeadlineYieldsStructuredError) {
  ServiceOptions options;
  options.workers = 1;
  Service service(options);
  service.start();
  // Pile enough work on the single worker that a trailing request's 1 ms
  // deadline is long gone by the time it reaches the front of the queue
  // (each full-sweep flc exploration takes a few ms even warm; either
  // deadline check — at dequeue or post-execution — must fire).
  std::vector<std::future<Response>> slow;
  for (int i = 0; i < 8; ++i) {
    Request heavy = explore_request("slow" + std::to_string(i),
                                    "builtin:flc", /*top_k=*/0);
    heavy.options.protocols = {spec::ProtocolKind::kFullHandshake,
                               spec::ProtocolKind::kHalfHandshake,
                               spec::ProtocolKind::kFixedDelay};
    heavy.options.alt_groupings = true;
    slow.push_back(service.submit(std::move(heavy)));
  }
  Request quick = check_request("quick", "builtin:fig3");
  quick.deadline_ms = 1;
  std::future<Response> expired = service.submit(std::move(quick));

  Response response = expired.get();
  EXPECT_FALSE(response.ok);
  EXPECT_EQ(response.error.code, "deadline_exceeded");
  for (auto& future : slow) EXPECT_TRUE(future.get().ok);
  service.stop();
  EXPECT_EQ(service.metrics_snapshot()
                .find("serve.requests.deadline_exceeded")
                ->counter,
            1u);
}

TEST(ServiceTest, MalformedSpecsAreStructuredErrors) {
  Service service;
  Request truncated;
  truncated.op = RequestOp::kCheck;
  truncated.spec_text = "system t;\nprocess P {";
  Response response = service.execute(truncated);
  EXPECT_FALSE(response.ok);
  EXPECT_EQ(response.error.code, "invalid_argument");
  EXPECT_NE(response.error.message.find("line"), std::string::npos);

  Request garbage;
  garbage.op = RequestOp::kSynth;
  garbage.spec_text = "\x7f\x03not a spec at all";
  Response garbage_response = service.execute(garbage);
  EXPECT_FALSE(garbage_response.ok);

  Request missing;
  missing.op = RequestOp::kSynth;
  missing.target = "/no/such/spec.ifs";
  EXPECT_EQ(service.execute(missing).error.code, "not_found");
}

TEST(ServiceTest, RequestParsingRejectsUnknownFieldsAndOps) {
  for (const char* bad : {
           R"({"op": "transmogrify", "spec": "builtin:fig3"})",
           R"({"op": "synth"})",
           R"({"op": "synth", "spec": "a", "spec_text": "b"})",
           R"({"op": "synth", "spec": "a", "bogus": 1})",
           R"({"op": "synth", "spec": "a", "options": {"threads": 1.5}})",
           R"({"spec": "builtin:fig3"})",
       }) {
    Result<Json> json = parse_json(bad);
    ASSERT_TRUE(json.is_ok()) << bad;
    EXPECT_FALSE(parse_request(*json).is_ok()) << bad;
  }
}

TEST(ServiceTest, SubmitWithoutStartIsRejectedNotHung) {
  Service service;
  Response response =
      service.submit(check_request("x", "builtin:fig3")).get();
  EXPECT_FALSE(response.ok);
  EXPECT_EQ(response.error.code, "admission_rejected");
}

std::size_t count_occurrences(const std::string& haystack,
                              const std::string& needle) {
  std::size_t count = 0;
  for (std::size_t pos = haystack.find(needle); pos != std::string::npos;
       pos = haystack.find(needle, pos + needle.size())) {
    ++count;
  }
  return count;
}

TEST(ServiceTest, TracingOnOrOffNeverChangesAReportByte) {
  // Reference: no tracing at all.
  std::string reference;
  {
    Service service;
    reference = service.execute(explore_request("r", "builtin:fig3")).report;
    ASSERT_FALSE(reference.empty());
  }

  // Full observability on: service-wide trace, event log, watchdog.
  obs::TraceSink trace;
  obs::EventLog event_log;
  ServiceOptions options;
  options.workers = 2;
  options.trace = &trace;
  options.event_log = &event_log;
  options.watchdog_poll_ms = 1;
  Service service(options);
  service.start();
  std::vector<std::future<Response>> futures;
  for (int i = 0; i < 4; ++i) {
    futures.push_back(service.submit(
        explore_request("e" + std::to_string(i), "builtin:fig3")));
    futures.push_back(service.submit(
        check_request("c" + std::to_string(i), "builtin:fig3")));
  }
  for (auto& future : futures) {
    Response response = future.get();
    ASSERT_TRUE(response.ok) << response.error.message;
    EXPECT_FALSE(response.trace_id.empty());
    if (response.op == "explore") {
      EXPECT_EQ(response.report, reference);
    }
  }
  service.stop();

  // The service-wide trace is one schema-valid document: every flow
  // start has its finish, every async request span is balanced (that is
  // what "every request flow-linked across threads" means to the
  // validator), and engine phase spans landed in the same trace.
  const std::string json = trace.to_json();
  std::string error;
  EXPECT_TRUE(obs::validate_trace_json(json, &error)) << error;
  EXPECT_EQ(count_occurrences(json, "\"ph\": \"s\""), 8u);
  EXPECT_EQ(count_occurrences(json, "\"ph\": \"b\""), 8u);
  EXPECT_NE(json.find("\"trace_id\": \"t1\""), std::string::npos);
  EXPECT_NE(json.find("execute explore"), std::string::npos);
  // Engine spans (the explore work queue drain) are in the service
  // trace, request-attributed, since no per-request trace_file diverted
  // them.
  EXPECT_NE(json.find("drain"), std::string::npos);

  // The event log saw the service lifecycle.
  EXPECT_NE(event_log.to_jsonl().find("service started"),
            std::string::npos);
  // The watchdog exported its liveness gauges at least once.
  const obs::MetricsSnapshot snap = service.metrics_snapshot();
  EXPECT_NE(snap.find("serve.workers.busy"), nullptr);
  EXPECT_NE(snap.find("serve.inflight.oldest_age_us"), nullptr);
  EXPECT_NE(snap.find("serve.worker.0.inflight_age_us"), nullptr);
}

// Regression: request ids flow into span names, so an id with a tab or CR
// used to make the service-wide trace invalid JSON (strict readers such
// as scripts/validate_trace_json.py reject raw control characters).
TEST(ServiceTest, RequestIdWithControlCharactersKeepsTheTraceValid) {
  obs::TraceSink trace;
  obs::EventLog event_log;
  ServiceOptions options;
  options.workers = 1;
  options.trace = &trace;
  options.event_log = &event_log;
  Service service(options);
  service.start();
  const std::string id = "tab\there\rcr";
  Response response = service.submit(check_request(id, "builtin:fig3")).get();
  service.stop();
  EXPECT_TRUE(response.ok) << response.error.message;
  EXPECT_EQ(response.id, id);

  const std::string json = trace.to_json();
  std::string error;
  EXPECT_TRUE(obs::validate_trace_json(json, &error)) << error;
  ASSERT_TRUE(parse_json(json).is_ok());
  EXPECT_NE(json.find("tab\\there\\rcr"), std::string::npos);
  std::istringstream lines(event_log.to_jsonl());
  for (std::string line; std::getline(lines, line);) {
    EXPECT_TRUE(parse_json(line).is_ok()) << line;
  }
}

TEST(ServiceTest, PerRequestTraceFileTakesPrecedenceOverServiceSink) {
  obs::TraceSink trace;
  ServiceOptions options;
  options.trace = &trace;
  Service service(options);
  service.start();
  Request request = explore_request("e", "builtin:fig3");
  const std::string path = ::testing::TempDir() + "service_test_trace.json";
  request.trace_file = path;
  Response response = service.submit(std::move(request)).get();
  ASSERT_TRUE(response.ok) << response.error.message;
  service.stop();

  std::ifstream in(path);
  std::stringstream file_contents;
  file_contents << in.rdbuf();
  std::string error;
  EXPECT_TRUE(obs::validate_trace_json(file_contents.str(), &error)) << error;
  // Engine spans went to the private file, not the service sink...
  EXPECT_NE(file_contents.str().find("drain"), std::string::npos);
  const std::string service_json = trace.to_json();
  EXPECT_EQ(service_json.find("drain"), std::string::npos);
  // ...while the lifecycle (flow-linked submit/execute) stayed in the
  // service-wide trace, so the request is still visible there.
  EXPECT_NE(service_json.find("\"ph\": \"s\""), std::string::npos);
  EXPECT_NE(service_json.find("execute explore"), std::string::npos);
  EXPECT_TRUE(obs::validate_trace_json(service_json, &error)) << error;
  std::remove(path.c_str());
}

TEST(ServiceTest, UnwritableTraceFileIsAStructuredError) {
  Service service;
  Request request = check_request("c", "builtin:fig3");
  request.trace_file = "/nonexistent-dir/trace.json";
  Response response = service.execute(request);
  EXPECT_FALSE(response.ok);
  EXPECT_EQ(response.error.code, "trace_unwritable");
  EXPECT_NE(response.error.message.find("/nonexistent-dir/trace.json"),
            std::string::npos);
}

TEST(ServiceTest, StatsOpAnswersOverTheWireFormat) {
  Service service;
  Request stats;
  stats.id = "s";
  stats.op = RequestOp::kStats;
  Response response = service.execute(stats);
  ASSERT_TRUE(response.ok) << response.error.message;
  EXPECT_FALSE(response.trace_id.empty());
  Result<Json> parsed = parse_json(response.report);
  ASSERT_TRUE(parsed.is_ok()) << response.report;
  const JsonObject& root = parsed->as_object();
  EXPECT_TRUE(root.count("queue_depth"));
  EXPECT_TRUE(root.count("workers"));
  EXPECT_TRUE(root.count("inflight"));
  EXPECT_TRUE(root.count("counters"));
  ASSERT_TRUE(root.count("program_cache"));
  const JsonObject& pc = root.at("program_cache").as_object();
  EXPECT_TRUE(pc.count("size"));
  EXPECT_TRUE(pc.count("hits"));
  EXPECT_TRUE(pc.count("misses"));
  // The live IFSYN_SIM_OPT level (0 or 1) new compiles run at.
  ASSERT_TRUE(pc.count("opt_level"));
  const double level = pc.at("opt_level").as_number();
  EXPECT_TRUE(level == 0.0 || level == 1.0) << level;

  // The stats op is parseable from the wire like any other request.
  Result<Json> wire = parse_json(R"({"id": "r5", "op": "stats"})");
  ASSERT_TRUE(wire.is_ok());
  Result<Request> request = parse_request(*wire);
  ASSERT_TRUE(request.is_ok()) << request.status().to_string();
  EXPECT_EQ(request->op, RequestOp::kStats);
}

TEST(ServiceTest, StatsAndMetricsReportTheActiveSimEngine) {
  // The active engine rides alongside opt_level everywhere it already
  // appears: /stats JSON (by name) and the prometheus text
  // (serve.sim_engine gauge: 0=vm, 1=ast).
  for (const char* engine : {"vm", "ast"}) {
    const ScopedEnv engine_env("IFSYN_SIM_ENGINE", engine);
    Service service;
    Request stats;
    stats.id = "s";
    stats.op = RequestOp::kStats;
    Response response = service.execute(stats);
    ASSERT_TRUE(response.ok) << response.error.message;
    Result<Json> parsed = parse_json(response.report);
    ASSERT_TRUE(parsed.is_ok()) << response.report;
    const JsonObject& root = parsed->as_object();
    ASSERT_TRUE(root.count("sim_engine"));
    EXPECT_EQ(root.at("sim_engine").as_string(), engine);
    // No block for the retired AOT engine's artifact cache.
    for (const auto& [key, value] : root) {
      EXPECT_EQ(key.find("native"), std::string::npos) << key;
    }

    Request metrics;
    metrics.id = "m";
    metrics.op = RequestOp::kMetrics;
    Response text = service.execute(metrics);
    ASSERT_TRUE(text.ok) << text.error.message;
    const std::string needle =
        std::string("serve_sim_engine ") +
        (std::string(engine) == "ast" ? "1" : "0");
    EXPECT_NE(text.report.find(needle), std::string::npos)
        << engine << " gauge missing from:\n"
        << text.report;
  }
}

TEST(ServiceTest, SlowRequestsAreCapturedToTraceDir) {
  const std::string dir = ::testing::TempDir() + "service_test_slow";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  ServiceOptions options;
  options.workers = 1;
  options.slow_trace_ms = 1;  // full flc sweeps take well over 1 ms
  options.slow_trace_keep = 2;
  options.slow_trace_dir = dir;
  Service service(options);
  service.start();
  std::vector<std::future<Response>> futures;
  for (int i = 0; i < 4; ++i) {
    Request heavy = explore_request("slow" + std::to_string(i),
                                    "builtin:flc", /*top_k=*/0);
    heavy.options.protocols = {spec::ProtocolKind::kFullHandshake,
                               spec::ProtocolKind::kHalfHandshake,
                               spec::ProtocolKind::kFixedDelay};
    heavy.options.alt_groupings = true;
    futures.push_back(service.submit(std::move(heavy)));
  }
  for (auto& future : futures) ASSERT_TRUE(future.get().ok);
  service.stop();

  // Capped at slow_trace_keep captures, each a schema-valid trace with
  // the request's engine spans (no service-wide sink was configured).
  std::vector<std::string> captures;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    captures.push_back(entry.path().string());
  }
  ASSERT_FALSE(captures.empty());
  EXPECT_LE(captures.size(), 2u);
  for (const std::string& path : captures) {
    EXPECT_NE(path.find("slow-t"), std::string::npos);
    std::ifstream in(path);
    std::stringstream contents;
    contents << in.rdbuf();
    std::string error;
    EXPECT_TRUE(obs::validate_trace_json(contents.str(), &error))
        << path << ": " << error;
    EXPECT_NE(contents.str().find("drain"), std::string::npos) << path;
  }
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace ifsyn::serve
