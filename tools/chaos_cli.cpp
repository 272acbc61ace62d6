// Deterministic chaos proxy for the streaming safe-sensing service
// (DESIGN.md §13): interposes on serve_cli's TCP port and injects latency,
// jitter, throttling, write re-splitting, corruption, disconnects, and
// half-closes per a seeded fault plan.
//
// Usage:
//   chaos_cli --target-port N [--target-host ADDR] [--bind ADDR] [--port N]
//             [--port-file PATH] [--chaos SPEC] [--seed N]
//             [--stats-json PATH]
//
// SIGTERM/SIGINT stop the proxy; a summary goes to stderr and, with
// --stats-json, a machine-readable copy to PATH.
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <limits>
#include <stdexcept>
#include <string>

#include "serve/chaos.hpp"
#include "spec/spec.hpp"

namespace {

[[noreturn]] void usage(const char* argv0) {
  std::cerr << "usage: " << argv0
            << " --target-port N [--target-host ADDR] [--bind ADDR]\n"
               "       [--port N] [--port-file PATH] [--chaos SPEC]\n"
               "       [--seed N] [--stats-json PATH]\n"
               "\n"
               "  --target-port  upstream server port (required)\n"
               "  --target-host  upstream server address (default 127.0.0.1)\n"
               "  --bind         listen address (default 127.0.0.1)\n"
               "  --port         listen port; 0 = kernel-assigned\n"
               "  --port-file    write the resolved port to PATH once\n"
               "                 listening (readiness signal for scripts)\n"
               "  --chaos        fault spec: "
            << safe::serve::chaos_spec_help()
            << "\n"
               "  --seed         master seed for the per-connection plans\n"
               "  --stats-json   write final proxy stats as JSON to PATH\n";
  std::exit(2);
}

safe::serve::ChaosProxy* g_proxy = nullptr;

extern "C" void handle_stop_signal(int) {
  if (g_proxy != nullptr) g_proxy->request_stop();
}

}  // namespace

int run(int argc, char** argv) {
  using namespace safe;

  std::string target_host = "127.0.0.1";
  std::uint16_t target_port = 0;
  std::string bind_address = "127.0.0.1";
  std::uint16_t port = 0;
  std::string port_file;
  std::string chaos_spec;
  std::uint64_t seed = 1;
  std::string stats_path;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> std::string {
      if (i + 1 >= argc) usage(argv[0]);
      return argv[++i];
    };
    try {
      if (arg == "--target-host") {
        target_host = next();
      } else if (arg == "--target-port") {
        target_port = static_cast<std::uint16_t>(spec::flag_uint(
            arg, next(), std::numeric_limits<std::uint16_t>::max()));
      } else if (arg == "--bind") {
        bind_address = next();
      } else if (arg == "--port") {
        port = static_cast<std::uint16_t>(spec::flag_uint(
            arg, next(), std::numeric_limits<std::uint16_t>::max()));
      } else if (arg == "--port-file") {
        port_file = next();
      } else if (arg == "--chaos") {
        chaos_spec = next();
      } else if (arg == "--seed") {
        seed = spec::flag_uint(arg, next());
      } else if (arg == "--stats-json") {
        stats_path = next();
      } else {
        usage(argv[0]);
      }
    } catch (const std::invalid_argument& e) {
      std::cerr << "chaos_cli: " << e.what() << "\n";
      return 2;
    }
  }
  if (target_port == 0) usage(argv[0]);

  serve::ChaosSpec spec;
  try {
    spec = serve::parse_chaos_spec(chaos_spec);
  } catch (const std::exception& e) {
    std::cerr << "chaos_cli: " << e.what() << "\n";
    return 2;
  }

  serve::ChaosProxy proxy(spec, seed, target_host, target_port);
  try {
    proxy.bind_and_listen(bind_address, port);
  } catch (const std::exception& e) {
    std::cerr << "chaos_cli: " << e.what() << "\n";
    return 1;
  }

  if (!port_file.empty()) {
    std::ofstream out(port_file);
    if (!out) {
      std::cerr << "chaos_cli: cannot open " << port_file << "\n";
      return 1;
    }
    out << proxy.port() << "\n";
  }

  g_proxy = &proxy;
  std::signal(SIGTERM, handle_stop_signal);
  std::signal(SIGINT, handle_stop_signal);
  std::signal(SIGPIPE, SIG_IGN);

  std::fprintf(stderr,
               "chaos_cli: %s:%u -> %s:%u (seed %llu, spec '%s')\n",
               bind_address.c_str(), static_cast<unsigned>(proxy.port()),
               target_host.c_str(), static_cast<unsigned>(target_port),
               static_cast<unsigned long long>(seed),
               chaos_spec.empty() ? "none" : chaos_spec.c_str());
  proxy.run();
  g_proxy = nullptr;

  const serve::ChaosProxy::Stats stats = proxy.stats();
  std::fprintf(stderr,
               "chaos_cli: stopped — %llu accepted, %llu closed, %llu "
               "upstream connect failure(s), %llu injected disconnect(s), "
               "%llu half-close(s), %llu bytes forwarded (%llu corrupted), "
               "%llu re-split write(s)\n",
               static_cast<unsigned long long>(stats.accepted),
               static_cast<unsigned long long>(stats.closed),
               static_cast<unsigned long long>(stats.connect_failures),
               static_cast<unsigned long long>(stats.disconnects_injected),
               static_cast<unsigned long long>(stats.half_closes_injected),
               static_cast<unsigned long long>(stats.bytes_forwarded),
               static_cast<unsigned long long>(stats.corrupted_bytes),
               static_cast<unsigned long long>(stats.resplit_writes));

  if (!stats_path.empty()) {
    std::ofstream out(stats_path);
    if (!out) {
      std::cerr << "chaos_cli: cannot open " << stats_path << "\n";
      return 1;
    }
    out << "{\n"
        << "  \"accepted\": " << stats.accepted << ",\n"
        << "  \"closed\": " << stats.closed << ",\n"
        << "  \"connect_failures\": " << stats.connect_failures << ",\n"
        << "  \"disconnects_injected\": " << stats.disconnects_injected
        << ",\n"
        << "  \"half_closes_injected\": " << stats.half_closes_injected
        << ",\n"
        << "  \"bytes_forwarded\": " << stats.bytes_forwarded << ",\n"
        << "  \"corrupted_bytes\": " << stats.corrupted_bytes << ",\n"
        << "  \"resplit_writes\": " << stats.resplit_writes << "\n"
        << "}\n";
  }
  return 0;
}

// Keeps bugprone-exception-escape honest for the CLI entry points: any
// exception the command loop does not handle becomes a diagnostic and a
// nonzero exit instead of std::terminate.
int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "fatal: %s\n", e.what());
    return 1;
  } catch (...) {
    std::fprintf(stderr, "fatal: unknown error\n");
    return 1;
  }
}
