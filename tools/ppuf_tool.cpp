// ppuf_tool — command-line front end for the max-flow PPUF library.
//
//   ppuf_tool fabricate <nodes> <grid> <seed> <model-file>
//       Fabricate an instance and publish its model to <model-file>.
//   ppuf_tool info <model-file>
//       Print the model's geometry and capacity statistics.
//   ppuf_tool challenge <model-file> [seed]
//       Sample a random challenge; prints "source sink bitstring".
//   ppuf_tool predict <model-file> <source> <sink> <bits> [deadline-ms]
//       Predict the response from the public model (two max-flow solves).
//       With a deadline, an over-budget solve exits with a typed status
//       instead of running to completion — the ESG made tangible.
//   ppuf_tool evaluate <nodes> <grid> <seed> <source> <sink> <bits>
//       Re-fabricate from <seed> and execute the challenge on "silicon".
//   ppuf_tool predict-batch <model-file> <count> [seed] [repeats]
//       Predict `count` random challenges, `repeats` passes over the
//       batch, on the worker pool; reports items/sec and cache counters.
//   ppuf_tool export-spice <input-bit> <deck-file>
//       Emit the building block (Fig. 2d) as a SPICE deck for external
//       cross-checking against a real SPICE engine.
//   ppuf_tool enroll <registry-dir> <nodes> <grid> <seed> [--label <text>]
//       Fabricate an instance and enroll its public model into the
//       persistent device registry; prints the assigned device id.
//   ppuf_tool registry <registry-dir> list
//   ppuf_tool registry <registry-dir> revoke <device-id>
//   ppuf_tool registry <registry-dir> compact
//       Inspect and administer a device registry.
//   ppuf_tool serve --registry <dir> [--port <p>] ...
//       Run the authentication service (DESIGN.md §12) on 127.0.0.1:
//       PREDICT / VERIFY / VERIFY_BATCH / CHALLENGE / CHAINED_AUTH over
//       the framed wire protocol.  SIGTERM/SIGINT drain gracefully.
//       Serves every enrolled device by id (to serve one chip, `enroll`
//       it first) and self-seeds the challenge RNG from the OS entropy
//       pool unless --seed overrides it (for reproducible tests).
//   ppuf_tool auth <host:port> <nodes> <grid> <seed> [--device <id>]
//                  [--report-file <f>]
//       Authenticate against a running server as the device holder:
//       fetch a chain grant, execute the chain on the re-fabricated
//       "silicon", submit the chained report.  --device names the
//       enrolled device id to authenticate as.
//   ppuf_tool chaos [--seed <s>] [--seeds <n>] [--seconds <sec>]
//                   [--torture <iters>] [--json <file>]
//       Run the chaos campaign (DESIGN.md §14): kill-9 crash-recovery
//       torture, then seeded fault-schedule campaigns against a live
//       registry-mode server while concurrent clients hammer it.  Exits
//       0 only when every invariant held; --seed replays one schedule
//       (e.g. to reproduce a CI failure), --seeds widens the default
//       fixed set, --json names the aggregate report (BENCH_chaos.json).
//   ppuf_tool gateway --shard <name>=<host:port> ... [--port <p>] ...
//       Run the fleet gateway (DESIGN.md §17): consistent-hash device ids
//       across the named shards, forward frames with remaining-budget
//       deadlines, pin chained-auth sessions, health-check shards.
//       SIGTERM/SIGINT drain gracefully.
//   ppuf_tool fleet <gateway-host:port> status|add|drain|undrain|remove|
//                   enroll ...
//       Administer a running gateway (shard lifecycle) or enroll a device
//       through it (explicit --device id, consistent-hash routed).
//   ppuf_tool standby <registry-dir> <primary-host:port> [--poll-ms <n>]
//       Run a WAL-shipping standby replica of a shard's registry.
//       SIGUSR1 promotes: replication stops, the loss window is printed,
//       and the replica starts serving as an AuthServer; SIGTERM exits.
//
// Global options (before the command):
//   --threads <n>        worker threads for batch commands and serve
//   --cache-mb <m>       response-cache budget in MiB (default 0 = no cache)
//   --metrics-json <f>   enable the metrics registry and write its JSON
//                        snapshot to <f> when the command finishes
//
// Exit codes (stable contract, exercised by tests/CI):
//   0      success (for `auth`: authentication ACCEPTED)
//   1      runtime error (I/O failure, transport failure, bad file, ...)
//   2      no/unknown command, or bad global options
//   3      predict aborted by its deadline (typed status)
//   4      auth completed but the server REJECTED the proof
//   5      auth refused: the server does not know the addressed device
//          (unknown or revoked id -> typed UNKNOWN_DEVICE reply)
//   10-24  bad arguments for a specific subcommand (usage printed to
//          stderr): fabricate=10 info=11 challenge=12 predict=13
//          predict-batch=14 evaluate=15 export-spice=16 serve=17 auth=18
//          enroll=19 registry=20 chaos=21 gateway=22 fleet=23 standby=24.
//          `serve` without --registry, or with a positional argument,
//          exits 17.  `auth` through a gateway keeps the same codes: the
//          gateway forwards typed error replies verbatim, so an unknown
//          device still exits 5.
//
// The fabricate/evaluate pair demonstrates the PPUF lifecycle: the device
// owner needs only the seed (the physical chip); everyone else works from
// the published model file — and pays simulation time for every response.
#include <chrono>
#include <csignal>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "attack/heuristic.hpp"
#include "backend/backend.hpp"
#include "backend/pdl_backend.hpp"
#include "circuit/spice_export.hpp"
#include "fleet/gateway.hpp"
#include "fleet/standby.hpp"
#include "net/client.hpp"
#include "obs/metrics.hpp"
#include "ppuf/block.hpp"
#include "ppuf/ppuf.hpp"
#include "ppuf/response_cache.hpp"
#include "ppuf/sim_model.hpp"
#include "protocol/authentication.hpp"
#include "protocol/codec.hpp"
#include "registry/device_registry.hpp"
#include "server/auth_server.hpp"
#include "testing/chaos/chaos.hpp"
#include "util/statistics.hpp"
#include "util/status.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace ppuf;

/// Modelled chip execution delay reported by the honest prover; the chip
/// settles in ~nanoseconds, our host merely simulates it (DESIGN.md on the
/// elapsed-time substitution).  Matches the convention of the test suite.
constexpr double kChipDelaySeconds = 1e-6;

/// Global options parsed ahead of the command.
struct ToolOptions {
  unsigned threads = 1;
  std::size_t cache_mb = 0;   ///< 0 disables the response cache
  std::string metrics_json;   ///< empty = metrics disabled
};

/// Thrown on a bad *argument* (unparsable number, wrong shape) so main()
/// can print the offending command's usage and return its distinct code —
/// as opposed to runtime errors, which exit 1.
struct UsageError {
  std::string command;  ///< empty = global usage
};

struct CommandSpec {
  const char* name;
  int bad_args_code;  ///< exit code for bad arguments (usage audit)
  const char* usage;
};

constexpr CommandSpec kCommands[] = {
    {"fabricate", 10, "fabricate <nodes> <grid> <seed> <model-file>"},
    {"info", 11, "info <model-file>"},
    {"challenge", 12, "challenge <model-file> [seed]"},
    {"predict", 13, "predict <model-file> <source> <sink> <bits> [deadline-ms]"},
    {"predict-batch", 14, "predict-batch <model-file> <count> [seed] [repeats]"},
    {"evaluate", 15, "evaluate <nodes> <grid> <seed> <source> <sink> <bits>"},
    {"export-spice", 16, "export-spice <input-bit> <deck-file>"},
    {"serve", 17,
     "serve --registry <dir> [--seed <s>]\n"
     "                 [--port <p>] [--port-file <f>]\n"
     "                 [--max-inflight <n>] [--deadline-s <sec>]\n"
     "                 [--chain-k <k>] [--spot-checks <s>]\n"
     "                 [--cache-entries <n>]\n"
     "                 [--coalesce-batch <n>] [--coalesce-wait-us <us>]\n"
     "       (the global --cache-mb sizes the serve response cache)"},
    {"auth", 18,
     "auth <host:port> <nodes> <grid> <seed> [--device <id>]\n"
     "                 [--backend maxflow|pdl] [--report-file <f>]\n"
     "                 [--pipeline-depth <n>]"},
    {"enroll", 19,
     "enroll <registry-dir> <nodes> <grid> <seed> [--label <text>]\n"
     "                 [--backend maxflow|pdl]\n"
     "       (pdl geometry: <nodes> = chain stages, <grid> = XORed\n"
     "        instances)"},
    {"registry", 20, "registry <registry-dir> list|compact|revoke <id>"},
    {"chaos", 21,
     "chaos [--seed <s>] [--seeds <n>] [--seconds <sec>]\n"
     "                 [--torture <iters>] [--json <file>]"},
    {"gateway", 22,
     "gateway --shard <name>=<host:port> [--shard ...]\n"
     "                 [--port <p>] [--port-file <f>] [--vnodes <n>]\n"
     "                 [--max-inflight <n>] [--health-interval-ms <ms>]"},
    {"fleet", 23,
     "fleet <gateway-host:port> status\n"
     "       ppuf_tool fleet <gw> add <name> <host:port>\n"
     "       ppuf_tool fleet <gw> drain <name> [<successor-host:port>]\n"
     "       ppuf_tool fleet <gw> undrain <name>\n"
     "       ppuf_tool fleet <gw> remove <name>\n"
     "       ppuf_tool fleet <gw> enroll <nodes> <grid> <seed>\n"
     "                 --device <id> [--label <text>]\n"
     "                 [--backend maxflow|pdl]"},
    {"standby", 24,
     "standby <registry-dir> <primary-host:port> [--poll-ms <n>]\n"
     "                 [--port <p>] [--port-file <f>] [--seed <s>]\n"
     "       (SIGUSR1 = promote and serve; SIGTERM = exit)"},
};

int usage() {
  std::cerr <<
      "usage: ppuf_tool [--threads <n>] [--cache-mb <m>]\n"
      "                 [--metrics-json <file>] <command> ...\n";
  for (const CommandSpec& spec : kCommands)
    std::cerr << "  ppuf_tool " << spec.usage << "\n";
  std::cerr <<
      "--threads sizes the worker pool of batch commands and the serve\n"
      "command; --cache-mb bounds the CRP response cache (repeated\n"
      "challenges skip the solve); --metrics-json enables solver/batch/\n"
      "cache/server metrics on any command and writes the registry\n"
      "snapshot to <file> on exit.\n";
  return 2;
}

/// Print one command's usage line to stderr and return its distinct
/// bad-arguments exit code.
int usage_for(const std::string& command) {
  for (const CommandSpec& spec : kCommands) {
    if (command == spec.name) {
      std::cerr << "usage: ppuf_tool " << spec.usage << "\n";
      return spec.bad_args_code;
    }
  }
  return usage();
}

/// Strict unsigned parse: the whole token must be a number, else the
/// command's usage error.
std::uint64_t parse_number(const std::string& command,
                           const std::string& text) {
  try {
    std::size_t pos = 0;
    const unsigned long long v = std::stoull(text, &pos);
    if (pos != text.size()) throw UsageError{command};
    return v;
  } catch (const UsageError&) {
    throw;
  } catch (const std::exception&) {
    throw UsageError{command};
  }
}

double parse_double(const std::string& command, const std::string& text) {
  try {
    std::size_t pos = 0;
    const double v = std::stod(text, &pos);
    if (pos != text.size() || !(v >= 0.0)) throw UsageError{command};
    return v;
  } catch (const UsageError&) {
    throw;
  } catch (const std::exception&) {
    throw UsageError{command};
  }
}

std::uint16_t parse_port(const std::string& command,
                         const std::string& text) {
  const std::uint64_t v = parse_number(command, text);
  if (v > 65535) throw UsageError{command};
  return static_cast<std::uint16_t>(v);
}

SimulationModel load_model(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open model file: " + path);
  return SimulationModel::load(in);
}

Challenge parse_challenge(const std::string& command,
                          const CrossbarLayout& layout,
                          const std::string& source, const std::string& sink,
                          const std::string& bits) {
  Challenge c;
  c.source = static_cast<graph::VertexId>(parse_number(command, source));
  c.sink = static_cast<graph::VertexId>(parse_number(command, sink));
  if (c.source >= layout.node_count() || c.sink >= layout.node_count() ||
      c.source == c.sink)
    throw std::runtime_error("bad source/sink pair");
  if (bits.size() != layout.cell_count())
    throw std::runtime_error("expected " +
                             std::to_string(layout.cell_count()) + " bits");
  for (const char ch : bits) {
    if (ch != '0' && ch != '1') throw std::runtime_error("bits must be 0/1");
    c.bits.push_back(ch == '1' ? 1 : 0);
  }
  return c;
}

std::string bits_to_string(const Challenge& c) {
  std::string s;
  for (const auto b : c.bits) s.push_back(b ? '1' : '0');
  return s;
}

int cmd_fabricate(const std::vector<std::string>& args) {
  if (args.size() != 4) return usage_for("fabricate");
  PpufParams params;
  params.node_count = static_cast<std::size_t>(
      parse_number("fabricate", args[0]));
  params.grid_size = static_cast<std::size_t>(
      parse_number("fabricate", args[1]));
  MaxFlowPpuf puf(params, parse_number("fabricate", args[2]));
  SimulationModel model(puf);
  std::ofstream out(args[3]);
  if (!out) throw std::runtime_error("cannot write " + args[3]);
  model.save(out);
  std::cout << "fabricated " << params.node_count << "-node PPUF (seed "
            << args[2] << "); public model written to " << args[3] << "\n";
  return 0;
}

int cmd_info(const std::vector<std::string>& args) {
  if (args.size() != 1) return usage_for("info");
  const SimulationModel model = load_model(args[0]);
  util::RunningStats caps;
  for (graph::EdgeId e = 0; e < model.layout().edge_count(); ++e) {
    for (int net = 0; net < 2; ++net) {
      caps.add(model.capacity(net, e, 0));
      caps.add(model.capacity(net, e, 1));
    }
  }
  std::cout << "nodes " << model.layout().node_count() << ", grid "
            << model.layout().grid_size() << " ("
            << model.layout().cell_count() << " control bits), edges "
            << model.layout().edge_count() << " per network\n";
  std::cout << "capacities: mean " << caps.mean() * 1e9 << " nA, sigma "
            << caps.stddev() * 1e9 << " nA, range ["
            << caps.min() * 1e9 << ", " << caps.max() * 1e9 << "] nA\n";
  std::cout << "comparator offset " << model.comparator_offset() * 1e9
            << " nA\n";
  return 0;
}

int cmd_challenge(const std::vector<std::string>& args) {
  if (args.empty() || args.size() > 2) return usage_for("challenge");
  const SimulationModel model = load_model(args[0]);
  util::Rng rng(args.size() == 2 ? parse_number("challenge", args[1]) : 1);
  const Challenge c = random_challenge(model.layout(), rng);
  std::cout << c.source << ' ' << c.sink << ' ' << bits_to_string(c) << "\n";
  return 0;
}

int cmd_predict(const std::vector<std::string>& args) {
  if (args.size() != 4 && args.size() != 5) return usage_for("predict");
  const SimulationModel model = load_model(args[0]);
  const Challenge c =
      parse_challenge("predict", model.layout(), args[1], args[2], args[3]);
  util::SolveControl control;
  if (args.size() == 5)
    control.deadline = util::Deadline::after_seconds(
        static_cast<double>(parse_number("predict", args[4])) * 1e-3);
  const auto p =
      model.predict(c, maxflow::Algorithm::kPushRelabel, control);
  if (!p.ok()) {
    std::cout << "prediction aborted: " << p.status.to_string() << "\n";
    return 3;
  }
  std::cout << "max-flow A " << p.flow_a * 1e9 << " nA, B "
            << p.flow_b * 1e9 << " nA -> predicted bit " << p.bit << "\n";
  std::cout << "(O(n) two-hop heuristic would guess "
            << attack::predict_bit_two_hop(model, c) << ")\n";
  return 0;
}

int cmd_predict_batch(const std::vector<std::string>& args,
                      const ToolOptions& opts) {
  if (args.size() < 2 || args.size() > 4) return usage_for("predict-batch");
  const SimulationModel model = load_model(args[0]);
  const auto count = static_cast<std::size_t>(
      parse_number("predict-batch", args[1]));
  util::Rng rng(args.size() >= 3 ? parse_number("predict-batch", args[2])
                                 : 1);
  const std::size_t repeats =
      args.size() == 4
          ? static_cast<std::size_t>(parse_number("predict-batch", args[3]))
          : 1;
  if (count == 0 || repeats == 0)
    throw std::runtime_error("count and repeats must be positive");

  std::vector<Challenge> batch;
  batch.reserve(count);
  for (std::size_t i = 0; i < count; ++i)
    batch.push_back(random_challenge(model.layout(), rng));

  util::ThreadPool pool(opts.threads);
  ResponseCache cache(opts.cache_mb * 1024 * 1024);
  SimulationModel::PredictBatchOptions options;
  options.pool = &pool;
  if (opts.cache_mb > 0) options.cache = &cache;

  std::size_t ok = 0, failed = 0;
  int ones = 0;
  const auto t0 = std::chrono::steady_clock::now();
  for (std::size_t pass = 0; pass < repeats; ++pass) {
    const auto predictions = model.predict_batch(batch, options);
    for (const auto& p : predictions) {
      if (p.ok()) {
        ++ok;
        ones += p.bit;
      } else {
        ++failed;
      }
    }
  }
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  const std::size_t items = count * repeats;
  std::cout << items << " predictions (" << count << " challenges x "
            << repeats << " passes) on " << opts.threads << " threads in "
            << seconds << " s -> "
            << static_cast<double>(items) / seconds << " items/s\n";
  std::cout << "ok " << ok << ", failed " << failed << ", response ones "
            << ones << "\n";
  if (opts.cache_mb > 0) {
    const ResponseCacheStats s = cache.stats();
    std::cout << "cache: " << s.hits << " hits, " << s.misses
              << " misses (hit rate " << s.hit_rate() * 100.0 << "%), "
              << s.evictions << " evictions, " << s.entries
              << " entries, ~" << s.charged_bytes / 1024 << " KiB\n";
  }
  // Shard occupancy is cache state, not an event stream, so it is mirrored
  // into the registry here — once, after the batch — rather than on every
  // lookup.
  cache.publish_metrics(obs::MetricsRegistry::global());
  return 0;
}

int cmd_evaluate(const std::vector<std::string>& args) {
  if (args.size() != 6) return usage_for("evaluate");
  PpufParams params;
  params.node_count = static_cast<std::size_t>(
      parse_number("evaluate", args[0]));
  params.grid_size = static_cast<std::size_t>(
      parse_number("evaluate", args[1]));
  MaxFlowPpuf puf(params, parse_number("evaluate", args[2]));
  const Challenge c =
      parse_challenge("evaluate", puf.layout(), args[3], args[4], args[5]);
  const auto e = puf.evaluate(c);
  std::cout << "I_A " << e.current_a * 1e9 << " nA, I_B "
            << e.current_b * 1e9 << " nA -> response bit " << e.bit << "\n";
  return 0;
}

int cmd_export_spice(const std::vector<std::string>& args) {
  if (args.size() != 2) return usage_for("export-spice");
  const auto bit = static_cast<int>(parse_number("export-spice", args[0]));
  if (bit != 0 && bit != 1) throw std::runtime_error("input bit must be 0/1");
  PpufParams params;
  SweepCircuit sc = build_block(params, circuit::BlockVariation{}, bit,
                                circuit::Environment::nominal());
  std::ofstream out(args[1]);
  if (!out) throw std::runtime_error("cannot write " + args[1]);
  circuit::SpiceExportOptions opts;
  opts.title = "maxflow-ppuf building block, nominal devices, input bit " +
               args[0];
  circuit::export_spice(sc.netlist, out, opts);
  std::cout << "SPICE deck written to " << args[1]
            << " (sweep source is V" << sc.sweep_source << ")\n";
  return 0;
}

// --- enroll / registry -----------------------------------------------------

int cmd_enroll(const std::vector<std::string>& args) {
  if (args.size() < 4) return usage_for("enroll");
  registry::EnrollRequest req;
  req.node_count = static_cast<std::size_t>(parse_number("enroll", args[1]));
  req.grid_size = static_cast<std::size_t>(parse_number("enroll", args[2]));
  req.seed = parse_number("enroll", args[3]);
  for (std::size_t i = 4; i < args.size(); i += 2) {
    if (args[i] == "--label" && i + 1 < args.size()) {
      req.label = args[i + 1];
    } else if (args[i] == "--backend" && i + 1 < args.size()) {
      if (!backend::parse_backend(args[i + 1], &req.backend))
        return usage_for("enroll");
    } else {
      return usage_for("enroll");
    }
  }
  registry::DeviceRegistry registry;
  if (util::Status s = registry.open(args[0]); !s.is_ok())
    throw std::runtime_error("cannot open registry: " + s.to_string());
  std::uint64_t id = 0;
  if (util::Status s = registry.enroll(req, &id); !s.is_ok())
    throw std::runtime_error("enroll failed: " + s.to_string());
  std::cout << "enrolled device " << id << " ["
            << backend::backend_name(req.backend) << "] (" << req.node_count
            << " nodes, grid " << req.grid_size << ", seed " << req.seed
            << (req.label.empty() ? "" : ", label \"" + req.label + "\"")
            << ") into " << args[0] << "\n";
  return 0;
}

int cmd_registry(const std::vector<std::string>& args) {
  if (args.size() < 2) return usage_for("registry");
  const std::string& verb = args[1];
  registry::DeviceRegistry registry;
  if (util::Status s = registry.open(args[0]); !s.is_ok())
    throw std::runtime_error("cannot open registry: " + s.to_string());
  if (verb == "list" && args.size() == 2) {
    const registry::DeviceRegistry::RecoveryStats rs =
        registry.recovery_stats();
    std::cout << "registry " << args[0] << ": " << registry.device_count()
              << " devices (" << rs.snapshot_entries << " from snapshot, "
              << rs.wal_records << " WAL records";
    if (rs.truncated_tail_bytes > 0)
      std::cout << ", torn tail of " << rs.truncated_tail_bytes
                << " bytes dropped";
    std::cout << ")\n";
    for (const registry::DeviceInfo& d : registry.list()) {
      std::cout << "  device " << d.id << " ["
                << backend::backend_name(d.backend) << "]: " << d.nodes
                << " nodes, grid " << d.grid
                << (d.revoked ? ", REVOKED" : "");
      if (!d.label.empty()) std::cout << ", label \"" << d.label << "\"";
      std::cout << "\n";
    }
    return 0;
  }
  if (verb == "revoke" && args.size() == 3) {
    const std::uint64_t id = parse_number("registry", args[2]);
    if (util::Status s = registry.revoke(id); !s.is_ok())
      throw std::runtime_error("revoke failed: " + s.to_string());
    std::cout << "revoked device " << id << "\n";
    return 0;
  }
  if (verb == "compact" && args.size() == 2) {
    if (util::Status s = registry.compact(); !s.is_ok())
      throw std::runtime_error("compact failed: " + s.to_string());
    std::cout << "compacted " << args[0] << " ("
              << registry.device_count() << " devices in snapshot)\n";
    return 0;
  }
  return usage_for("registry");
}

// --- chaos -----------------------------------------------------------------

/// Run the chaos campaign from the command line.  Mirrors bench_chaos so a
/// CI failure (which prints the failing seed) can be replayed on a
/// workstation with `ppuf_tool chaos --seed <s>`.
int cmd_chaos(const std::vector<std::string>& args) {
  std::vector<std::uint64_t> seeds;
  std::size_t fixed_seed_count = 5;
  bool single_seed = false;
  double seconds = 1.5;
  int torture_iterations = 20;
  std::string json_path = "BENCH_chaos.json";
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    if (i + 1 >= args.size()) return usage_for("chaos");
    const std::string& value = args[++i];
    if (arg == "--seed") {
      seeds.assign(1, parse_number("chaos", value));
      single_seed = true;
    } else if (arg == "--seeds") {
      fixed_seed_count = static_cast<std::size_t>(
          parse_number("chaos", value));
      if (fixed_seed_count == 0) return usage_for("chaos");
    } else if (arg == "--seconds") {
      seconds = parse_double("chaos", value);
      if (seconds <= 0.0) return usage_for("chaos");
    } else if (arg == "--torture") {
      torture_iterations = static_cast<int>(parse_number("chaos", value));
    } else if (arg == "--json") {
      json_path = value;
    } else {
      return usage_for("chaos");
    }
  }
  if (!single_seed)
    for (std::uint64_t s = 1; s <= fixed_seed_count; ++s) seeds.push_back(s);

  testing::chaos::Aggregate aggregate;

  // Torture first: fork() wants a single-threaded process, and every
  // campaign spawns (and joins) server/client/scheduler threads.
  if (torture_iterations > 0) {
    testing::chaos::TortureOptions topts;
    topts.iterations = torture_iterations;
    topts.seed = 11;
    std::cout << "[chaos] kill-9 torture: " << topts.iterations
              << " iterations\n";
    const testing::chaos::TortureResult torture =
        testing::chaos::run_kill9_torture(topts);
    aggregate.add(torture);
    std::cout << "[chaos]   committed enrolls=" << torture.committed_enrolls
              << " revokes=" << torture.committed_revokes
              << " violations=" << torture.violations.size() << "\n";
  }

  for (const std::uint64_t seed : seeds) {
    testing::chaos::CampaignOptions copts;
    copts.seed = seed;
    copts.duration_s = seconds;
    copts.restarts = 2;
    std::cout << "[chaos] campaign seed=" << seed << " (" << seconds
              << " s)\n";
    const testing::chaos::CampaignResult result =
        testing::chaos::run_campaign(copts);
    aggregate.add(result);
    std::cout << "[chaos]   faults=" << result.faults_injected
              << " requests=" << result.requests << " ok=" << result.ok
              << " transient=" << result.typed_transient
              << " violations=" << result.violations.size() << "\n";
    for (const std::string& v : result.violations)
      std::cout << "[chaos]   VIOLATION: " << v << "\n";
  }

  {
    std::ofstream out(json_path);
    out << aggregate.to_json();
    if (!out) throw std::runtime_error("cannot write " + json_path);
  }
  std::cout << "[chaos] wrote " << json_path << "\n";

  if (!aggregate.passed()) {
    std::cout << "[chaos] FAILED: " << aggregate.violation_count
              << " violation(s), first failing seed "
              << aggregate.failing_seed << "\n"
              << "[chaos] reproduce: ppuf_tool chaos --seed "
              << aggregate.failing_seed << " --torture 0\n";
    return 1;
  }
  if (!seeds.empty() && aggregate.faults_injected == 0) {
    std::cout << "[chaos] FAILED: no faults injected — the campaign "
                 "tested nothing\n";
    return 1;
  }
  std::cout << "[chaos] PASS: " << aggregate.faults_injected
            << " faults injected, 0 violations";
  if (!aggregate.recovery_ms.empty())
    std::cout << ", recovery p99 "
              << testing::chaos::percentile(aggregate.recovery_ms, 99.0)
              << " ms";
  std::cout << "\n";
  return 0;
}

// --- serve -----------------------------------------------------------------

/// Set by SIGTERM/SIGINT; polled by cmd_serve.  A signal handler may only
/// touch sig_atomic_t, so the actual drain call happens on the main thread.
volatile std::sig_atomic_t g_drain_requested = 0;

void on_drain_signal(int) { g_drain_requested = 1; }

int cmd_serve(const std::vector<std::string>& args, const ToolOptions& opts) {
  // Registered before any setup work: registry recovery can take a while
  // on big stores, and an operator's Ctrl-C (or a CI supervisor's
  // SIGTERM/SIGINT) during that window must still drain gracefully
  // instead of killing the process mid-recovery.
  std::signal(SIGTERM, on_drain_signal);
  std::signal(SIGINT, on_drain_signal);
  server::AuthServerOptions so;
  so.threads = opts.threads;
  std::string port_file;
  std::string registry_dir;
  bool seed_given = false;
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    if (arg.rfind("--", 0) != 0 || i + 1 >= args.size())
      return usage_for("serve");
    const std::string& value = args[++i];
    if (arg == "--port") {
      so.port = parse_port("serve", value);
    } else if (arg == "--port-file") {
      port_file = value;
    } else if (arg == "--registry") {
      registry_dir = value;
    } else if (arg == "--max-inflight") {
      so.max_inflight = static_cast<std::size_t>(
          parse_number("serve", value));
      if (so.max_inflight == 0) return usage_for("serve");
    } else if (arg == "--deadline-s") {
      so.verifier_deadline_seconds = parse_double("serve", value);
    } else if (arg == "--chain-k") {
      so.chain_length = static_cast<std::uint32_t>(
          parse_number("serve", value));
      if (so.chain_length == 0) return usage_for("serve");
    } else if (arg == "--spot-checks") {
      so.spot_checks = static_cast<std::size_t>(parse_number("serve", value));
    } else if (arg == "--cache-entries") {
      so.hydration_cache_entries = static_cast<std::size_t>(
          parse_number("serve", value));
      if (so.hydration_cache_entries == 0) return usage_for("serve");
    } else if (arg == "--seed") {
      so.challenge_seed = parse_number("serve", value);
      seed_given = true;
    } else if (arg == "--coalesce-batch") {
      so.coalesce_max_batch = static_cast<std::size_t>(
          parse_number("serve", value));
      if (so.coalesce_max_batch == 0) return usage_for("serve");
    } else if (arg == "--coalesce-wait-us") {
      so.coalesce_wait_us = static_cast<std::uint32_t>(
          parse_number("serve", value));
    } else {
      return usage_for("serve");
    }
  }
  // The global --cache-mb sizes the serving response cache here, the same
  // way it sizes predict-batch's cache.
  so.response_cache_bytes = opts.cache_mb * 1024 * 1024;
  if (registry_dir.empty()) return usage_for("serve");
  if (!seed_given) {
    // An unpredictable seed by default (a guessable one means guessable
    // challenges); --seed remains available so tests can pin the stream.
    std::random_device entropy;
    so.challenge_seed = (static_cast<std::uint64_t>(entropy()) << 32) ^
                        entropy();
  }

  registry::DeviceRegistry registry;
  if (util::Status s = registry.open(registry_dir); !s.is_ok())
    throw std::runtime_error("cannot open registry: " + s.to_string());
  const registry::DeviceRegistry::RecoveryStats rs = registry.recovery_stats();
  if (rs.truncated_tail_bytes > 0)
    std::cout << "registry recovery: dropped a torn WAL tail of "
              << rs.truncated_tail_bytes << " bytes\n";
  server::AuthServer srv(registry, so);
  const util::Status started = srv.start();
  if (!started.is_ok())
    throw std::runtime_error("cannot start server: " + started.to_string());
  if (!port_file.empty()) {
    // Written after bind so scripts can wait for the file, then connect to
    // the ephemeral port it names.
    std::ofstream pf(port_file);
    pf << srv.port() << "\n";
    if (!pf) throw std::runtime_error("cannot write " + port_file);
  }
  std::cout << "serving registry " << registry_dir << " ("
            << registry.device_count() << " devices) on 127.0.0.1:"
            << srv.port() << " (" << so.threads
            << " worker threads, max-inflight " << so.max_inflight
            << ", chain k=" << so.chain_length << ")\n"
            << std::flush;

  while (srv.running() && g_drain_requested == 0)
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  std::cout << "drain requested; finishing in-flight requests\n"
            << std::flush;
  srv.stop();

  const server::AuthServer::Stats s = srv.stats();
  std::cout << "served " << s.requests << " requests on "
            << s.connections_accepted << " connections ("
            << s.overloaded_rejections << " overloaded, "
            << s.shutdown_rejections << " rejected while draining, "
            << s.malformed_frames << " malformed, "
            << s.unknown_device_rejections << " unknown-device)\n";
  if (so.coalesce_max_batch > 1)
    std::cout << "coalescing: " << s.coalesced_items << " items in "
              << s.coalesced_batches << " batches, " << s.solo_dispatches
              << " solo (budget-tight), " << s.slow_peer_disconnects
              << " slow peers disconnected\n";
  return 0;
}

// --- fleet: gateway / admin / standby --------------------------------------

/// Split "host:port" or throw the command's usage error.
std::pair<std::string, std::uint16_t> parse_hostport(
    const std::string& command, const std::string& text) {
  const std::size_t colon = text.rfind(':');
  if (colon == std::string::npos || colon == 0 || colon + 1 == text.size())
    throw UsageError{command};
  return {text.substr(0, colon), parse_port(command, text.substr(colon + 1))};
}

int cmd_gateway(const std::vector<std::string>& args,
                const ToolOptions& opts) {
  std::signal(SIGTERM, on_drain_signal);
  std::signal(SIGINT, on_drain_signal);
  fleet::GatewayOptions go;
  go.threads = opts.threads > 1 ? opts.threads : 4;
  std::string port_file;
  struct ShardArg {
    std::string name, host;
    std::uint16_t port;
  };
  std::vector<ShardArg> shard_args;
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    if (i + 1 >= args.size()) return usage_for("gateway");
    const std::string& value = args[++i];
    if (arg == "--shard") {
      const std::size_t eq = value.find('=');
      if (eq == std::string::npos || eq == 0) return usage_for("gateway");
      const auto [host, port] =
          parse_hostport("gateway", value.substr(eq + 1));
      shard_args.push_back({value.substr(0, eq), host, port});
    } else if (arg == "--port") {
      go.port = parse_port("gateway", value);
    } else if (arg == "--port-file") {
      port_file = value;
    } else if (arg == "--vnodes") {
      go.vnodes = static_cast<std::size_t>(parse_number("gateway", value));
      if (go.vnodes == 0) return usage_for("gateway");
    } else if (arg == "--max-inflight") {
      go.max_inflight = static_cast<std::size_t>(
          parse_number("gateway", value));
      if (go.max_inflight == 0) return usage_for("gateway");
    } else if (arg == "--health-interval-ms") {
      go.health_interval_ms = static_cast<int>(
          parse_number("gateway", value));
      if (go.health_interval_ms <= 0) return usage_for("gateway");
    } else {
      return usage_for("gateway");
    }
  }
  if (shard_args.empty()) return usage_for("gateway");

  fleet::Gateway gateway(go);
  for (const ShardArg& s : shard_args)
    if (util::Status st = gateway.add_shard(s.name, s.host, s.port);
        !st.is_ok())
      throw std::runtime_error("bad shard: " + st.to_string());
  if (util::Status st = gateway.start(); !st.is_ok())
    throw std::runtime_error("cannot start gateway: " + st.to_string());
  if (!port_file.empty()) {
    std::ofstream pf(port_file);
    pf << gateway.port() << "\n";
    if (!pf) throw std::runtime_error("cannot write " + port_file);
  }
  std::cout << "gateway on 127.0.0.1:" << gateway.port() << " fronting "
            << shard_args.size() << " shard(s)";
  for (const ShardArg& s : shard_args)
    std::cout << " " << s.name << "=" << s.host << ":" << s.port;
  std::cout << "\n" << std::flush;

  while (gateway.running() && g_drain_requested == 0)
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  std::cout << "drain requested; finishing in-flight forwards\n"
            << std::flush;
  gateway.stop();

  const fleet::Gateway::Stats s = gateway.stats();
  std::cout << "forwarded " << s.forwarded << " of " << s.requests
            << " requests on " << s.connections_accepted << " connections ("
            << s.redirects_sent << " redirects, "
            << s.unavailable_rejections << " shard-unavailable, "
            << s.pins_created << " sessions pinned, "
            << s.dropped_inflight << " dropped in-flight, "
            << s.malformed_frames << " malformed, "
            << s.slow_peer_disconnects << " slow-peer disconnects)\n";
  return 0;
}

int cmd_fleet(const std::vector<std::string>& args) {
  if (args.size() < 2) return usage_for("fleet");
  const auto [host, port] = parse_hostport("fleet", args[0]);
  const std::string& verb = args[1];
  net::ClientOptions copts;
  net::AuthClient client(host, port, copts);

  if (verb == "enroll") {
    if (args.size() < 5) return usage_for("fleet");
    net::EnrollRequestBody spec;
    spec.node_count = static_cast<std::uint32_t>(
        parse_number("fleet", args[2]));
    spec.grid_size = static_cast<std::uint32_t>(
        parse_number("fleet", args[3]));
    spec.fabrication_seed = parse_number("fleet", args[4]);
    std::uint64_t device_id = 0;
    for (std::size_t i = 5; i < args.size(); i += 2) {
      if (args[i] == "--device" && i + 1 < args.size())
        device_id = parse_number("fleet", args[i + 1]);
      else if (args[i] == "--label" && i + 1 < args.size())
        spec.label = args[i + 1];
      else if (args[i] == "--backend" && i + 1 < args.size()) {
        auto kind = backend::BackendKind::kMaxFlow;
        if (!backend::parse_backend(args[i + 1], &kind))
          return usage_for("fleet");
        spec.backend = static_cast<std::uint8_t>(kind);
      } else
        return usage_for("fleet");
    }
    if (device_id == 0) {
      // The gateway routes by hashing the id, so "assign me one" cannot
      // be forwarded — the operator picks the id (their id space).
      std::cerr << "fleet enroll: --device <id> is required through a "
                   "gateway (0 = shard-assigned is unroutable)\n";
      return usage_for("fleet");
    }
    std::uint64_t assigned = 0;
    if (util::Status s = client.enroll_device(spec, device_id, &assigned);
        !s.is_ok())
      throw std::runtime_error("enroll failed: " + s.to_string());
    std::cout << "enrolled device " << assigned << " via gateway " << args[0]
              << "\n";
    return 0;
  }

  net::AdminRequestBody req;
  if (verb == "status" && args.size() == 2) {
    req.op = net::AdminOp::kStatus;
  } else if (verb == "add" && args.size() == 4) {
    req.op = net::AdminOp::kAddShard;
    req.shard = args[2];
    std::tie(req.host, req.port) = parse_hostport("fleet", args[3]);
  } else if (verb == "drain" && (args.size() == 3 || args.size() == 4)) {
    req.op = net::AdminOp::kDrainShard;
    req.shard = args[2];
    if (args.size() == 4)
      std::tie(req.host, req.port) = parse_hostport("fleet", args[3]);
  } else if (verb == "undrain" && args.size() == 3) {
    req.op = net::AdminOp::kUndrainShard;
    req.shard = args[2];
  } else if (verb == "remove" && args.size() == 3) {
    req.op = net::AdminOp::kRemoveShard;
    req.shard = args[2];
  } else {
    return usage_for("fleet");
  }

  net::AdminReplyBody reply;
  if (util::Status s = client.admin(req, &reply); !s.is_ok())
    throw std::runtime_error("admin request failed: " + s.to_string());
  if (reply.ok == 0) {
    std::cerr << "admin refused: " << reply.message << "\n";
    return 1;
  }
  if (req.op == net::AdminOp::kStatus) {
    std::cout << reply.shards.size() << " shard(s):\n";
    for (const net::ShardStatus& st : reply.shards) {
      const char* state = st.state == 1   ? "up"
                          : st.state == 2 ? "draining"
                          : st.state == 3 ? "down"
                                          : "?";
      std::cout << "  " << st.name << " " << st.host << ":" << st.port
                << " state=" << state
                << " backend_draining=" << static_cast<int>(st.draining)
                << " inflight=" << st.inflight
                << " pinned=" << st.pinned_sessions
                << " forwarded=" << st.forwarded
                << " devices=" << st.device_count << " wal=" << st.wal_epoch
                << ":" << st.wal_offset << "\n";
    }
  } else {
    std::cout << verb << " " << req.shard << ": " << reply.message << "\n";
  }
  return 0;
}

/// Set by SIGUSR1: the operator (or failover script) wants this standby
/// promoted to a serving primary.
volatile std::sig_atomic_t g_promote_requested = 0;

void on_promote_signal(int) { g_promote_requested = 1; }

int cmd_standby(const std::vector<std::string>& args,
                const ToolOptions& opts) {
  if (args.size() < 2) return usage_for("standby");
  std::signal(SIGTERM, on_drain_signal);
  std::signal(SIGINT, on_drain_signal);
  std::signal(SIGUSR1, on_promote_signal);

  fleet::StandbyOptions sopts;
  sopts.directory = args[0];
  std::tie(sopts.primary_host, sopts.primary_port) =
      parse_hostport("standby", args[1]);
  server::AuthServerOptions so;  // used only after promotion
  so.threads = opts.threads;
  std::string port_file;
  bool seed_given = false;
  for (std::size_t i = 2; i < args.size(); ++i) {
    const std::string& arg = args[i];
    if (i + 1 >= args.size()) return usage_for("standby");
    const std::string& value = args[++i];
    if (arg == "--poll-ms") {
      sopts.poll_interval_ms = static_cast<int>(
          parse_number("standby", value));
      if (sopts.poll_interval_ms <= 0) return usage_for("standby");
    } else if (arg == "--port") {
      so.port = parse_port("standby", value);
    } else if (arg == "--port-file") {
      port_file = value;
    } else if (arg == "--seed") {
      so.challenge_seed = parse_number("standby", value);
      seed_given = true;
    } else {
      return usage_for("standby");
    }
  }
  if (!seed_given) {
    std::random_device entropy;
    so.challenge_seed = (static_cast<std::uint64_t>(entropy()) << 32) ^
                        entropy();
  }

  fleet::WalStandby standby(sopts);
  if (util::Status s = standby.start(); !s.is_ok())
    throw std::runtime_error("cannot start standby: " + s.to_string());
  std::cout << "standby replicating " << sopts.primary_host << ":"
            << sopts.primary_port << " into " << sopts.directory
            << " every " << sopts.poll_interval_ms << " ms\n"
            << std::flush;

  while (g_drain_requested == 0 && g_promote_requested == 0)
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  if (g_drain_requested != 0) {
    standby.stop();
    const fleet::WalStandby::Stats st = standby.stats();
    std::cout << "standby exiting: " << st.fetches << " fetches, "
              << st.bootstraps << " bootstraps, " << st.bytes_applied
              << " bytes applied (position " << st.wal_epoch << ":"
              << st.wal_offset << ")\n";
    return 0;
  }

  const fleet::PromotionReport report = standby.promote();
  std::cout << "PROMOTED: " << report.device_count << " devices at WAL "
            << report.wal_epoch << ":" << report.wal_offset << " ("
            << report.fetches << " fetches, " << report.bootstraps
            << " bootstraps, "
            << (report.caught_up ? "caught up at last contact"
                                 : "NOT caught up: enrollments inside the "
                                   "last poll window may be lost")
            << ")\n"
            << std::flush;

  server::AuthServer srv(standby.registry(), so);
  if (util::Status s = srv.start(); !s.is_ok())
    throw std::runtime_error("cannot serve promoted registry: " +
                             s.to_string());
  if (!port_file.empty()) {
    std::ofstream pf(port_file);
    pf << srv.port() << "\n";
    if (!pf) throw std::runtime_error("cannot write " + port_file);
  }
  std::cout << "serving promoted registry on 127.0.0.1:" << srv.port()
            << "\n"
            << std::flush;
  while (srv.running() && g_drain_requested == 0)
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  srv.stop();
  const server::AuthServer::Stats s = srv.stats();
  std::cout << "served " << s.requests << " requests after promotion\n";
  return 0;
}

// --- auth ------------------------------------------------------------------

int cmd_auth(const std::vector<std::string>& args) {
  if (args.size() < 4) return usage_for("auth");
  const std::string& hostport = args[0];
  const std::size_t colon = hostport.rfind(':');
  if (colon == std::string::npos || colon == 0 ||
      colon + 1 == hostport.size())
    return usage_for("auth");
  const std::string host = hostport.substr(0, colon);
  const std::uint16_t port = parse_port("auth", hostport.substr(colon + 1));

  PpufParams params;
  params.node_count = static_cast<std::size_t>(parse_number("auth", args[1]));
  params.grid_size = static_cast<std::size_t>(parse_number("auth", args[2]));
  const std::uint64_t seed = parse_number("auth", args[3]);

  std::string report_file;
  net::ClientOptions copts;
  auto holder_backend = backend::BackendKind::kMaxFlow;
  for (std::size_t i = 4; i < args.size(); i += 2) {
    if (args[i] == "--report-file" && i + 1 < args.size())
      report_file = args[i + 1];
    else if (args[i] == "--device" && i + 1 < args.size())
      copts.device_id = parse_number("auth", args[i + 1]);
    else if (args[i] == "--backend" && i + 1 < args.size()) {
      if (!backend::parse_backend(args[i + 1], &holder_backend))
        return usage_for("auth");
    } else if (args[i] == "--pipeline-depth" && i + 1 < args.size()) {
      copts.pipeline_depth = static_cast<int>(
          parse_number("auth", args[i + 1]));
      if (copts.pipeline_depth < 1) return usage_for("auth");
    } else
      return usage_for("auth");
  }

  net::AuthClient client(host, port, copts);
  net::ChallengeGrant grant;
  util::Status st = client.get_challenge(&grant);
  if (st.code() == util::StatusCode::kNotFound) {
    // Typed UNKNOWN_DEVICE from the server: the id is not enrolled or has
    // been revoked.  Distinct exit code so scripts can tell "wrong
    // device" from transport failures.
    std::cerr << "auth refused: " << st.message() << "\n";
    return 5;
  }
  if (!st.is_ok())
    throw std::runtime_error("challenge request failed: " + st.to_string());
  std::cout << "grant: chain k=" << grant.chain_length << ", nonce "
            << grant.nonce << ", response deadline "
            << grant.deadline_seconds << " s\n";

  // The "chip": only the holder of <seed> can fabricate it.  For a PDL
  // device <nodes>/<grid> are the (stages, instances) used at enrollment.
  protocol::ChainedReport report;
  if (holder_backend == backend::BackendKind::kPdlDelay) {
    if (grant.challenge.bits.size() != params.node_count)
      throw std::runtime_error(
          "server challenge does not fit this device geometry "
          "(wrong <stages> for that server's device?)");
    const std::vector<puf::ArbiterPuf> instances =
        backend::fabricate_pdl_instances(params.node_count,
                                         params.grid_size, seed);
    report = backend::prove_chain_with_pdl(instances, grant.challenge,
                                           grant.chain_length, grant.nonce,
                                           kChipDelaySeconds);
  } else {
    MaxFlowPpuf puf(params, seed);
    if (grant.challenge.bits.size() != puf.layout().cell_count() ||
        grant.challenge.source >= puf.layout().node_count() ||
        grant.challenge.sink >= puf.layout().node_count())
      throw std::runtime_error(
          "server challenge does not fit this device geometry "
          "(wrong <nodes>/<grid> for that server's model?)");
    report = protocol::prove_chain_with_ppuf(puf, grant.challenge,
                                             grant.chain_length, grant.nonce,
                                             kChipDelaySeconds);
  }
  if (!report_file.empty()) {
    std::ofstream out(report_file, std::ios::binary);
    if (!out) throw std::runtime_error("cannot write " + report_file);
    protocol::codec::write_chained_report(out, report);
    std::cout << "chained report saved to " << report_file << "\n";
  }

  protocol::ChainedVerifyResult result;
  st = client.chained_auth(grant, report, &result);
  if (st.code() == util::StatusCode::kNotFound) {
    // The device can vanish between grant and proof (revoked mid-auth).
    std::cerr << "auth refused: " << st.message() << "\n";
    return 5;
  }
  if (!st.is_ok())
    throw std::runtime_error("chained auth failed: " + st.to_string());
  std::cout << (result.accepted ? "ACCEPTED" : "REJECTED")
            << ": chain_consistent=" << result.chain_consistent
            << " rounds_valid=" << result.rounds_valid
            << " in_time=" << result.in_time;
  if (!result.detail.empty()) std::cout << " (" << result.detail << ")";
  std::cout << "\n";
  return result.accepted ? 0 : 4;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> argv_rest(argv + 1, argv + argc);
  ToolOptions opts;
  std::string cmd;
  try {
    std::size_t consumed = 0;
    while (consumed + 1 < argv_rest.size()) {
      const std::string& flag = argv_rest[consumed];
      if (flag == "--threads") {
        opts.threads = static_cast<unsigned>(
            std::stoul(argv_rest[consumed + 1]));
        if (opts.threads == 0)
          throw std::runtime_error("--threads must be positive");
        consumed += 2;
      } else if (flag == "--cache-mb") {
        opts.cache_mb = std::stoul(argv_rest[consumed + 1]);
        consumed += 2;
      } else if (flag == "--metrics-json") {
        opts.metrics_json = argv_rest[consumed + 1];
        if (opts.metrics_json.empty())
          throw std::runtime_error("--metrics-json needs a file path");
        consumed += 2;
      } else {
        break;
      }
    }
    argv_rest.erase(argv_rest.begin(),
                    argv_rest.begin() + static_cast<std::ptrdiff_t>(consumed));
    if (argv_rest.empty()) return usage();
    if (!opts.metrics_json.empty()) {
      // Enable before dispatch and pre-register the canonical schema, so
      // the snapshot always carries the full set of solver/Newton/batch/
      // server metric names (as zeros) even for commands that exercise
      // only a subset of the stack.
      ppuf::obs::MetricsRegistry::global().set_enabled(true);
      ppuf::obs::register_standard_metrics(
          ppuf::obs::MetricsRegistry::global());
    }
    cmd = argv_rest[0];
    const std::vector<std::string> args(argv_rest.begin() + 1,
                                        argv_rest.end());
    int rc = -1;
    if (cmd == "fabricate") rc = cmd_fabricate(args);
    else if (cmd == "info") rc = cmd_info(args);
    else if (cmd == "challenge") rc = cmd_challenge(args);
    else if (cmd == "predict") rc = cmd_predict(args);
    else if (cmd == "predict-batch") rc = cmd_predict_batch(args, opts);
    else if (cmd == "evaluate") rc = cmd_evaluate(args);
    else if (cmd == "export-spice") rc = cmd_export_spice(args);
    else if (cmd == "serve") rc = cmd_serve(args, opts);
    else if (cmd == "auth") rc = cmd_auth(args);
    else if (cmd == "enroll") rc = cmd_enroll(args);
    else if (cmd == "registry") rc = cmd_registry(args);
    else if (cmd == "chaos") rc = cmd_chaos(args);
    else if (cmd == "gateway") rc = cmd_gateway(args, opts);
    else if (cmd == "fleet") rc = cmd_fleet(args);
    else if (cmd == "standby") rc = cmd_standby(args, opts);
    if (rc >= 0) {
      if (!opts.metrics_json.empty())
        ppuf::obs::MetricsRegistry::global().write_json(opts.metrics_json);
      return rc;
    }
  } catch (const UsageError& e) {
    return e.command.empty() ? usage() : usage_for(e.command);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
  return usage();
}
