// Serving throughput ablation: an in-process StreamServer on a loopback
// socket, hit by the load generator at increasing connection counts.
// Reports frames/s and p50/p95/p99 frame latency per point and emits one
// machine-readable JSON object on stdout (recorded as BENCH_serve.json).
//
// `--smoke` shrinks the sweep for CI. Every point runs with --verify
// semantics: received ESTIMATE frames are byte-compared against the
// offline pipeline, so the ablation doubles as a parity check under load.
//
// After the clean sweep one degraded-network point runs through an
// in-process chaos proxy (5 ms latency + 5 ms jitter, 1% per-chunk
// disconnect probability) with resilient clients, recording what the
// resume-and-retry path costs in throughput and tail latency.
#include <cstdio>
#include <cstring>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "runtime/thread_pool.hpp"
#include "serve/chaos.hpp"
#include "serve/loadgen.hpp"
#include "serve/server.hpp"

namespace {

using namespace safe;

struct Point {
  std::size_t connections = 0;
  serve::LoadReport report;
};

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }

  const std::vector<std::size_t> sweep =
      smoke ? std::vector<std::size_t>{1, 4}
            : std::vector<std::size_t>{1, 2, 4, 8};
  const std::int64_t steps = smoke ? 120 : 300;

  runtime::ThreadPool pool(
      std::max<std::size_t>(2, std::thread::hardware_concurrency()));
  serve::ServerOptions options;
  options.session.max_sessions = 64;
  serve::StreamServer server(options, pool);
  try {
    server.bind_and_listen();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bind failed: %s\n", e.what());
    return 1;
  }
  std::thread loop([&server] { server.run(); });

  std::vector<Point> points;
  bool ok = true;
  std::printf("Serving throughput: loopback, %lld steps/session, DoS trace\n\n",
              static_cast<long long>(steps));
  std::printf("%12s %12s %12s %10s %10s %10s\n", "connections", "frames",
              "frames/s", "p50[ms]", "p95[ms]", "p99[ms]");
  for (const std::size_t connections : sweep) {
    serve::LoadOptions load;
    load.host = "127.0.0.1";
    load.port = server.port();
    load.connections = connections;
    load.sessions = connections;
    load.spec.attack = core::AttackKind::kDosJammer;
    load.spec.horizon_steps = steps;
    load.master_seed = 42 + connections;
    load.verify = true;
    Point point;
    point.connections = connections;
    try {
      point.report = serve::run_load(load);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "loadgen failed: %s\n", e.what());
      ok = false;
      break;
    }
    if (!point.report.ok()) ok = false;
    for (const serve::SessionError& error : point.report.session_errors) {
      std::fprintf(stderr, "error: session %zu [%s] %s\n", error.session,
                   serve::to_string(error.kind), error.detail.c_str());
    }
    std::printf("%12zu %12llu %12.0f %10.2f %10.2f %10.2f\n", connections,
                static_cast<unsigned long long>(
                    point.report.estimates_received),
                point.report.throughput_frames_per_s,
                static_cast<double>(point.report.latency_p50_ns) / 1e6,
                static_cast<double>(point.report.latency_p95_ns) / 1e6,
                static_cast<double>(point.report.latency_p99_ns) / 1e6);
    points.push_back(std::move(point));
  }

  // Degraded-network point: the same workload through a chaos proxy that
  // adds 5 ms latency with 5 ms jitter, re-splits writes, and cuts links at 1%
  // probability per forwarded chunk. Resilient clients resume across the
  // cuts; the parity check still holds byte-for-byte.
  const std::string chaos_spec =
      "latency:ms=5,jitter=5;split:min=16,max=256;disconnect:prob=0.01";
  const std::uint64_t chaos_seed = 9;
  serve::LoadReport degraded;
  {
    serve::ChaosProxy proxy(serve::parse_chaos_spec(chaos_spec), chaos_seed,
                            "127.0.0.1", server.port());
    try {
      proxy.bind_and_listen("127.0.0.1", 0);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "chaos proxy bind failed: %s\n", e.what());
      server.request_drain();
      loop.join();
      pool.drain();
      return 1;
    }
    std::thread chaos_loop([&proxy] { proxy.run(); });

    serve::LoadOptions load;
    load.host = "127.0.0.1";
    load.port = proxy.port();
    load.connections = 4;
    load.sessions = 4;
    load.spec.attack = core::AttackKind::kDosJammer;
    load.spec.horizon_steps = steps;
    load.master_seed = 99;
    load.verify = true;
    load.retry.max_attempts = 40;
    load.retry.initial_backoff_ns = 5'000'000;
    load.retry.max_backoff_ns = 100'000'000;
    try {
      degraded = serve::run_load(load);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "degraded loadgen failed: %s\n", e.what());
      ok = false;
    }
    if (!degraded.ok()) ok = false;
    for (const serve::SessionError& error : degraded.session_errors) {
      std::fprintf(stderr, "degraded error: session %zu [%s] %s\n",
                   error.session, serve::to_string(error.kind),
                   error.detail.c_str());
    }
    std::printf("\nDegraded network (%s, seed %llu):\n", chaos_spec.c_str(),
                static_cast<unsigned long long>(chaos_seed));
    std::printf("%12zu %12llu %12.0f %10.2f %10.2f %10.2f  "
                "(%llu reconnects, %llu resumes)\n",
                load.connections,
                static_cast<unsigned long long>(degraded.estimates_received),
                degraded.throughput_frames_per_s,
                static_cast<double>(degraded.latency_p50_ns) / 1e6,
                static_cast<double>(degraded.latency_p95_ns) / 1e6,
                static_cast<double>(degraded.latency_p99_ns) / 1e6,
                static_cast<unsigned long long>(degraded.reconnects),
                static_cast<unsigned long long>(degraded.resumes));

    proxy.request_stop();
    chaos_loop.join();
  }

  server.request_drain();
  loop.join();
  pool.drain();

  std::ostringstream json;
  json << "{\"bench\":\"serve_throughput\",\"steps_per_session\":" << steps
       << ",\"verified\":true,\"points\":[";
  for (std::size_t i = 0; i < points.size(); ++i) {
    if (i > 0) json << ",";
    json << "{\"connections\":" << points[i].connections
         << ",\"report\":" << serve::to_json(points[i].report) << "}";
  }
  json << "],\"degraded\":{\"chaos\":\"" << chaos_spec
       << "\",\"seed\":" << chaos_seed << ",\"connections\":4,\"report\":"
       << serve::to_json(degraded) << "}";
  json << ",\"ok\":" << (ok ? "true" : "false") << "}";
  std::printf("\n%s\n", json.str().c_str());
  return ok ? 0 : 1;
}
