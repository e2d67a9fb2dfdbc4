// scenario_runner: drive the protocol from a tiny scenario script and dump
// the checked trace — a debugging/exploration tool for the library.
//
// Usage:
//   ./build/examples/scenario_runner [-n N] [-seed S] [-loss P] [-trace] CMD...
//
// Commands (executed in order):
//   run <ms>                advance simulated time
//   send <idx> <svc> [k]    queue k (default 1) messages at process idx;
//                           svc = causal | agreed | safe
//   part <g1|g2|...>        partition, groups are comma-separated indexes
//   heal                    merge all components
//   crash <idx>             crash a process
//   recover <idx>           recover a crashed process
//   stable                  run until every component stabilizes
//   quiesce                 run until traffic drains
//
// Example — the Figure 6 scenario:
//   scenario_runner -n 5 part 0,1,2|3,4 stable send 0 agreed 3 quiesce part 0|1,2,3,4 quiesce -trace
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "evs/evs.hpp"
#include "testkit/cluster.hpp"

using namespace evs;

namespace {

int fail(const char* msg) {
  std::fprintf(stderr, "scenario_runner: %s\n", msg);
  return 2;
}

std::vector<std::vector<std::size_t>> parse_groups(const std::string& spec) {
  std::vector<std::vector<std::size_t>> groups(1);
  std::size_t value = 0;
  bool have = false;
  for (char c : spec) {
    if (c >= '0' && c <= '9') {
      value = value * 10 + static_cast<std::size_t>(c - '0');
      have = true;
    } else if (c == ',' || c == '|') {
      if (have) groups.back().push_back(value);
      value = 0;
      have = false;
      if (c == '|') groups.emplace_back();
    }
  }
  if (have) groups.back().push_back(value);
  return groups;
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t n = 3;
  std::uint64_t seed = 1;
  double loss = 0.0;
  bool dump_trace = false;

  std::vector<std::string> args(argv + 1, argv + argc);
  std::size_t i = 0;
  // Leading options.
  while (i < args.size() && args[i][0] == '-') {
    if (args[i] == "-n" && i + 1 < args.size()) {
      n = std::strtoul(args[++i].c_str(), nullptr, 10);
    } else if (args[i] == "-seed" && i + 1 < args.size()) {
      seed = std::strtoull(args[++i].c_str(), nullptr, 10);
    } else if (args[i] == "-loss" && i + 1 < args.size()) {
      loss = std::atof(args[++i].c_str());
    } else if (args[i] == "-trace") {
      dump_trace = true;
    } else {
      return fail(("unknown option " + args[i]).c_str());
    }
    ++i;
  }

  Cluster::Options opts;
  opts.num_processes = n;
  opts.seed = seed;
  opts.net.loss_probability = loss;
  Cluster cluster(opts);
  std::printf("# %zu processes, seed %llu, loss %.3f\n", n,
              static_cast<unsigned long long>(seed), loss);

  for (; i < args.size(); ++i) {
    const std::string& cmd = args[i];
    if (cmd == "-trace") {
      dump_trace = true;
    } else if (cmd == "run" && i + 1 < args.size()) {
      const SimTime ms = std::strtoull(args[++i].c_str(), nullptr, 10);
      cluster.run_for(ms * 1000);
      std::printf("# t=%llu us after run %llu ms\n",
                  static_cast<unsigned long long>(cluster.now()),
                  static_cast<unsigned long long>(ms));
    } else if (cmd == "send" && i + 2 < args.size()) {
      const std::size_t idx = std::strtoul(args[++i].c_str(), nullptr, 10);
      const std::string svc = args[++i];
      int count = 1;
      if (i + 1 < args.size() && std::isdigit(args[i + 1][0])) {
        count = std::atoi(args[++i].c_str());
      }
      if (idx >= n) return fail("send: index out of range");
      const Service service = svc == "safe"     ? Service::Safe
                              : svc == "causal" ? Service::Causal
                                                : Service::Agreed;
      for (int k = 0; k < count; ++k) {
        cluster.node(idx).send(service, {static_cast<std::uint8_t>(k)});
      }
      std::printf("# queued %d %s message(s) at P%zu\n", count, svc.c_str(), idx + 1);
    } else if (cmd == "part" && i + 1 < args.size()) {
      cluster.partition(parse_groups(args[++i]));
      std::printf("# partition %s\n", args[i].c_str());
    } else if (cmd == "heal") {
      cluster.heal();
      std::printf("# heal\n");
    } else if (cmd == "crash" && i + 1 < args.size()) {
      const std::size_t idx = std::strtoul(args[++i].c_str(), nullptr, 10);
      if (idx >= n) return fail("crash: index out of range");
      cluster.crash(cluster.pid(idx));
      std::printf("# crash P%zu\n", idx + 1);
    } else if (cmd == "recover" && i + 1 < args.size()) {
      const std::size_t idx = std::strtoul(args[++i].c_str(), nullptr, 10);
      if (idx >= n) return fail("recover: index out of range");
      cluster.recover(cluster.pid(idx));
      std::printf("# recover P%zu\n", idx + 1);
    } else if (cmd == "stable") {
      std::printf("# stable: %s\n", cluster.await_stable() ? "ok" : "TIMEOUT");
    } else if (cmd == "quiesce") {
      std::printf("# quiesce: %s\n", cluster.await_quiesce() ? "ok" : "TIMEOUT");
    } else {
      return fail(("unknown command " + cmd).c_str());
    }
  }

  std::printf("# final configurations:\n");
  for (std::size_t p = 0; p < n; ++p) {
    if (!cluster.node(p).running()) {
      std::printf("#   P%zu: down\n", p + 1);
      continue;
    }
    std::printf("#   P%zu: %s (%llu delivered)\n", p + 1,
                to_string(cluster.node(p).config()).c_str(),
                static_cast<unsigned long long>(cluster.node(p).stats().delivered));
  }
  if (dump_trace) {
    std::printf("%s", cluster.trace().dump().c_str());
  }
  const std::string report = cluster.check_report();
  std::printf("# specification check: %s\n",
              report.empty() ? "conformant" : report.c_str());
  return report.empty() ? 0 : 1;
}
