// perfbench_harness — the benchmark's two in-process modes. Both link the
// library and call the same public functions the tools call.
//
//   perfbench_harness loadgen --socket=unix:PATH --server-pid=PID --seconds=S
//       --graphs=DIR --tenants=NAME:VARIANT:K,... --routes=DIR
//     One closed-loop client per tenant, each with its own thread and
//     connection, opens SpnlClient sessions against a running spnl_server on
//     the graph DIR/VARIANT.sadj at K partitions. They run in whole rounds
//     (all sessions start together and the round ends when the last route
//     arrives) until S seconds have passed. Each round records its wall time
//     and the CPU time of the server and of this process. Every session's
//     route must equal the first round's route of the same tenant; the first
//     round's routes are written to DIR/NAME.route.
//
//   perfbench_harness trace --socket=unix:PATH --graphs=DIR
//       --tenants=NAME:VARIANT:K,... --routes=DIR
//     The layer ledger: times each layer's calls from outside, per block of
//     records (one clock read per block, never per record), over these flows:
//     text → sadj conversion of DIR/ordered.adj, sequential SPNL jobs at
//     K = 8, 32, 128 on DIR/ordered.sadj (the scorer the server sessions
//     run), the 3-worker pipeline at K=32 and one round of the tenants'
//     sessions. Writes every route it makes to DIR for the checker.
//
// Both print one JSON object on their last line of standard output.
#include <sys/resource.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/parallel_driver.hpp"
#include "core/spnl.hpp"
#include "graph/io.hpp"
#include "graph/mmap_stream.hpp"
#include "graph/stream_binary.hpp"
#include "partition/metrics.hpp"
#include "server/client.hpp"
#include "util/perf_stats.hpp"

namespace {

using namespace spnl;
using Clock = std::chrono::steady_clock;

double since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double own_cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
         static_cast<double>(usage.ru_utime.tv_usec + usage.ru_stime.tv_usec) * 1e-6;
}

// User plus system CPU of another process, from /proc/<pid>/stat (fields 14
// and 15, counted after the parenthesised command name).
double process_cpu_seconds(long pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
  std::string stat((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  const auto close = stat.rfind(')');
  if (close == std::string::npos) throw std::runtime_error("cannot read process stat");
  std::istringstream fields(stat.substr(close + 2));
  std::string field;
  unsigned long long utime = 0, stime = 0;
  for (int i = 3; i <= 15 && fields >> field; ++i) {
    if (i == 14) utime = std::stoull(field);
    if (i == 15) stime = std::stoull(field);
  }
  return static_cast<double>(utime + stime) / static_cast<double>(sysconf(_SC_CLK_TCK));
}

std::map<std::string, std::string> parse_flags(int argc, char** argv) {
  std::map<std::string, std::string> flags;
  for (int i = 2; i < argc; ++i) {
    const std::string a = argv[i];
    const auto eq = a.find('=');
    if (a.rfind("--", 0) != 0 || eq == std::string::npos) {
      throw std::runtime_error("expected --key=value, got '" + a + "'");
    }
    flags[a.substr(2, eq - 2)] = a.substr(eq + 1);
  }
  return flags;
}

std::string flag(const std::map<std::string, std::string>& flags, const std::string& key) {
  const auto it = flags.find(key);
  if (it == flags.end()) throw std::runtime_error("missing --" + key);
  return it->second;
}

// Wraps a stream and pulls records from it a block at a time, so the time
// spent decoding is one timed span per block and the consumer's time lies
// outside it. The block copy is charged to decoding.
class BlockStream final : public AdjacencyStream {
 public:
  static constexpr std::size_t kBlock = 4096;

  explicit BlockStream(AdjacencyStream& inner) : inner_(inner) {}

  /// Decodes the next block; false at end of stream.
  bool refill() {
    const auto start = Clock::now();
    ids_.clear();
    offsets_.assign(1, 0);
    neighbors_.clear();
    pos_ = 0;
    while (ids_.size() < kBlock) {
      const std::optional<VertexRecord> record = inner_.next();
      if (!record) break;
      ids_.push_back(record->id);
      neighbors_.insert(neighbors_.end(), record->out.begin(), record->out.end());
      offsets_.push_back(neighbors_.size());
    }
    decode_seconds_ += since(start);
    records_ += ids_.size();
    return !ids_.empty();
  }
  std::size_t size() const { return ids_.size(); }
  VertexId id(std::size_t i) const { return ids_[i]; }
  std::span<const VertexId> out(std::size_t i) const {
    return {neighbors_.data() + offsets_[i], neighbors_.data() + offsets_[i + 1]};
  }

  std::optional<VertexRecord> next() override {
    if (pos_ == ids_.size() && !refill()) return std::nullopt;
    const VertexRecord record{ids_[pos_], out(pos_)};
    ++pos_;
    return record;
  }
  void reset() override {
    inner_.reset();
    ids_.clear();
    pos_ = 0;
  }
  VertexId num_vertices() const override { return inner_.num_vertices(); }
  EdgeId num_edges() const override { return inner_.num_edges(); }

  double decode_seconds() const { return decode_seconds_; }
  std::uint64_t records() const { return records_; }

 private:
  AdjacencyStream& inner_;
  std::vector<VertexId> ids_;
  std::vector<std::size_t> offsets_{0};
  std::vector<VertexId> neighbors_;
  std::size_t pos_ = 0;
  double decode_seconds_ = 0.0;
  std::uint64_t records_ = 0;
};

struct Tenant {
  std::string name;
  std::string variant;
  std::string file;
  PartitionId k;
};

// --tenants=NAME:VARIANT:K,... over the graphs DIR/VARIANT.sadj of --graphs.
std::vector<Tenant> tenants(const std::map<std::string, std::string>& flags) {
  const std::string dir = flag(flags, "graphs");
  std::vector<Tenant> list;
  std::istringstream items(flag(flags, "tenants"));
  std::string item;
  while (std::getline(items, item, ',')) {
    const auto a = item.find(':');
    const auto b = item.find(':', a == std::string::npos ? a : a + 1);
    if (a == std::string::npos || b == std::string::npos) {
      throw std::runtime_error("expected NAME:VARIANT:K, got '" + item + "'");
    }
    const std::string variant = item.substr(a + 1, b - a - 1);
    list.push_back({item.substr(0, a), variant, dir + "/" + variant + ".sadj",
                    static_cast<PartitionId>(std::stoul(item.substr(b + 1)))});
  }
  if (list.empty()) throw std::runtime_error("no tenants");
  return list;
}

// One SpnlClient session, configured as spnl_client configures it by default.
std::vector<PartitionId> run_session(const std::string& socket, AdjacencyStream& stream,
                                     PartitionId k) {
  ClientOptions options;
  options.endpoint = Endpoint::parse(socket);
  options.deadline_seconds = 120.0;
  WireSessionConfig config;
  config.algo = "spnl";
  config.num_vertices = stream.num_vertices();
  config.num_edges = stream.num_edges();
  config.num_partitions = k;
  SpnlClient client(options);
  return client.partition(stream, config).route;
}

std::string json_number(double value) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.9g", value);
  return buf;
}

int loadgen(const std::map<std::string, std::string>& flags) {
  const std::string socket = flag(flags, "socket");
  const long server_pid = std::stol(flag(flags, "server-pid"));
  const double seconds = std::stod(flag(flags, "seconds"));
  const std::string routes_dir = flag(flags, "routes");
  const std::vector<Tenant> list = tenants(flags);

  std::vector<std::unique_ptr<BinaryAdjacencyStream>> streams;
  for (const Tenant& t : list) streams.push_back(std::make_unique<BinaryAdjacencyStream>(t.file));
  std::vector<std::vector<PartitionId>> first(list.size());
  std::uint64_t sessions = 0, failed = 0, mismatched = 0, records_per_round = 0;
  for (const auto& s : streams) records_per_round += s->num_vertices();

  std::string rounds_json;
  const auto begin = Clock::now();
  for (int round = 0; round == 0 || since(begin) < seconds; ++round) {
    std::vector<std::vector<PartitionId>> routes(list.size());
    std::vector<std::string> errors(list.size());
    const double server_cpu0 = process_cpu_seconds(server_pid);
    const double own_cpu0 = own_cpu_seconds();
    const auto start = Clock::now();
    std::vector<std::thread> clients;
    for (std::size_t i = 0; i < list.size(); ++i) {
      clients.emplace_back([&, i] {
        try {
          routes[i] = run_session(socket, *streams[i], list[i].k);
        } catch (const std::exception& e) {
          errors[i] = e.what();
        }
      });
    }
    for (std::thread& c : clients) c.join();
    const double wall = since(start);
    const double cpu = process_cpu_seconds(server_pid) - server_cpu0 + own_cpu_seconds() - own_cpu0;
    for (std::size_t i = 0; i < list.size(); ++i) {
      ++sessions;
      if (!errors[i].empty()) {
        ++failed;
        std::fprintf(stderr, "session %s failed: %s\n", list[i].name.c_str(), errors[i].c_str());
      } else if (round == 0) {
        first[i] = std::move(routes[i]);
      } else if (routes[i] != first[i]) {
        ++mismatched;
        std::fprintf(stderr, "session %s: route differs from round 1\n", list[i].name.c_str());
      }
    }
    rounds_json += std::string(rounds_json.empty() ? "" : ",") + "{\"wall_s\":" +
                   json_number(wall) + ",\"cpu_s\":" + json_number(cpu) + "}";
  }
  for (std::size_t i = 0; i < list.size(); ++i) {
    if (!first[i].empty()) write_route_table(first[i], routes_dir + "/" + list[i].name + ".route");
  }
  std::printf("{\"rounds\":[%s],\"records_per_round\":%llu,\"sessions\":%llu,"
              "\"failed\":%llu,\"mismatched\":%llu}\n",
              rounds_json.c_str(), static_cast<unsigned long long>(records_per_round),
              static_cast<unsigned long long>(sessions),
              static_cast<unsigned long long>(failed),
              static_cast<unsigned long long>(mismatched));
  return 0;
}

// Accumulates the ledger's metrics, the routes the checker must see, and
// the wall time covered by some layer's span: the rest of a pass is the
// unattributed remainder.
struct Ledger {
  std::map<std::string, double> metrics;
  std::string routes_json;
  double attributed_s = 0.0;
  double evaluate_s = 0.0;
  int evaluations = 0;
  double route_write_s = 0.0;
  int route_writes = 0;

  /// Times fn() as one span of a layer; returns its seconds.
  template <typename Fn>
  double span(Fn&& fn) {
    const auto start = Clock::now();
    fn();
    const double seconds = since(start);
    attributed_s += seconds;
    return seconds;
  }

  /// The quality pass the CLI runs after routing.
  void evaluate(AdjacencyStream& stream, const std::vector<PartitionId>& route,
                PartitionId k, const std::string& path, const std::string& variant) {
    stream.reset();
    QualityMetrics quality;
    evaluate_s += span([&] { quality = evaluate_partition(stream, route, k); });
    ++evaluations;
    add_route(path, variant, k, std::to_string(quality.cut_edges), stream.num_edges());
  }

  void write(const std::vector<PartitionId>& route, const std::string& path) {
    route_write_s += span([&] { write_route_table(route, path); });
    ++route_writes;
  }

  void add_route(const std::string& path, const std::string& variant, PartitionId k,
                 const std::string& cut, EdgeId edges) {
    routes_json += std::string(routes_json.empty() ? "" : ",") + "{\"path\":\"" + path +
                   "\",\"variant\":\"" + variant + "\",\"k\":" + std::to_string(k) +
                   ",\"cut\":" + cut + ",\"edges\":" + std::to_string(edges) + "}";
  }
};

struct SequentialJob {
  std::vector<PartitionId> route;
  double decode_s = 0.0;
  double place_s = 0.0;
};

// One sequential SPNL job, as spnl_partition --stream runs it: construct,
// place every record, validate, then (with `evaluate`) the quality pass, and
// the route write.
SequentialJob sequential_job(Ledger& ledger, const std::string& file, PartitionId k,
                             const std::string& label, const std::string& route_path,
                             const std::string& variant, bool evaluate) {
  SequentialJob job;
  BinaryAdjacencyStream stream(file);
  BlockStream blocks(stream);
  const PartitionConfig config{.num_partitions = k};
  std::optional<SpnlPartitioner> partitioner;
  const double construct_s = ledger.span(
      [&] { partitioner.emplace(stream.num_vertices(), stream.num_edges(), config); });
  while (blocks.refill()) {
    job.place_s += ledger.span([&] {
      for (std::size_t i = 0; i < blocks.size(); ++i) {
        partitioner->place(blocks.id(i), blocks.out(i));
      }
    });
  }
  job.decode_s = blocks.decode_seconds();
  ledger.attributed_s += job.decode_s;
  job.route = partitioner->route();
  validate_route(job.route, k, stream.num_vertices());
  ledger.metrics["core.place_ns_per_rec." + label] =
      job.place_s * 1e9 / static_cast<double>(stream.num_vertices());
  if (evaluate) {
    ledger.metrics["core.construct_s." + label] = construct_s;
    ledger.metrics["core.footprint_mb." + label] =
        static_cast<double>(partitioner->memory_footprint_bytes()) / (1024.0 * 1024.0);
    ledger.evaluate(stream, job.route, k, route_path, variant);
  } else {
    ledger.add_route(route_path, variant, k, "null", stream.num_edges());
  }
  ledger.write(job.route, route_path);
  return job;
}

int trace(const std::map<std::string, std::string>& flags) {
  const auto pass_start = Clock::now();
  const std::string socket = flag(flags, "socket");
  const std::string graphs = flag(flags, "graphs");
  const std::string dir = flag(flags, "routes");
  const std::string ordered = graphs + "/ordered.sadj";
  const std::vector<Tenant> list = tenants(flags);
  Ledger ledger;
  auto& m = ledger.metrics;

  // Set-up layer: text decode and sadj write, as spnl_convert runs them.
  {
    MmapAdjacencyStream text(graphs + "/ordered.adj");
    BlockStream blocks(text);
    const double total = ledger.span([&] { write_sadj(blocks, dir + "/trace.sadj"); });
    m["graph.text_decode_ns_per_rec"] =
        blocks.decode_seconds() * 1e9 / static_cast<double>(blocks.records());
    m["graph.sadj_write_s"] = total - blocks.decode_seconds();
  }

  // The sequential jobs at K = 8, 32, 128, as spnl_partition --stream runs
  // them. Keyed by (variant, K) so the sessions below can find the
  // in-process job that matches them.
  std::map<std::pair<std::string, PartitionId>, SequentialJob> jobs;
  double seq_decode = 0.0;
  std::uint64_t seq_records = 0;
  for (PartitionId k : {8u, 32u, 128u}) {
    const std::string label = "k" + std::to_string(k);
    SequentialJob job = sequential_job(ledger, ordered, k, label,
                                       dir + "/trace_seq_" + label + ".route", "ordered", true);
    seq_decode += job.decode_s;
    seq_records += job.route.size();
    jobs.emplace(std::make_pair(std::string("ordered"), k), std::move(job));
  }
  m["graph.sadj_decode_ns_per_rec"] = seq_decode * 1e9 / static_cast<double>(seq_records);
  m["core.place_ns_per_rec.ordered"] = m["core.place_ns_per_rec.k32"];

  // par-m3 flow, with the program's PerfStats sink attached.
  double par_partition_s = 0.0;
  {
    BinaryAdjacencyStream stream(ordered);
    BlockStream blocks(stream);
    const PartitionConfig config{.num_partitions = 32};
    PerfStats perf;
    ParallelOptions options;
    options.num_threads = 3;
    options.batch_size = validated_batch_size(64, options.queue_capacity);
    options.perf = &perf;
    const double cpu0 = own_cpu_seconds();
    ParallelRunResult result;
    m["parallel.run_s"] = ledger.span([&] { result = run_parallel(blocks, config, options); });
    m["parallel.cpu_s"] = own_cpu_seconds() - cpu0;
    par_partition_s = result.partition_seconds;
    validate_route(result.route, 32, stream.num_vertices());
    for (std::size_t s = 0; s < kPerfStageCount; ++s) {
      const auto stage = static_cast<PerfStage>(s);
      m[std::string("parallel.stage.") + perf_stage_name(stage) + "_s"] =
          static_cast<double>(perf.nanos(stage)) * 1e-9;
    }
    m["parallel.untracked_overflow"] = static_cast<double>(result.untracked_overflow);
    m["parallel.delayed_vertices"] = static_cast<double>(result.delayed_vertices);
    m["parallel.forced_vertices"] = static_cast<double>(result.forced_vertices);
    m["parallel.gamma_delta_dropped"] = static_cast<double>(result.contention.gamma_delta_dropped);
    m["parallel.queue_lock_contended"] =
        static_cast<double>(result.contention.queue_lock_contended);
    m["parallel.rct_exclusive_acquires"] =
        static_cast<double>(result.contention.rct_exclusive_acquires);
    const std::string path = dir + "/trace_par_k32.route";
    ledger.evaluate(stream, result.route, 32, path, "ordered");
    ledger.write(result.route, path);
  }

  // serve-mixed flow: each tenant's decode and place in-process (the
  // sequential jobs above where they match), then one round of the
  // tenants' concurrent sessions.
  double in_process = 0.0;
  for (const Tenant& t : list) {
    auto it = jobs.find({t.variant, t.k});
    if (it == jobs.end()) {
      it = jobs.emplace(std::make_pair(t.variant, t.k),
                        sequential_job(ledger, t.file, t.k, t.variant,
                                       dir + "/trace_inproc_" + t.name + ".route",
                                       t.variant, false))
               .first;
    }
    in_process += it->second.decode_s + it->second.place_s;
  }
  std::vector<std::vector<PartitionId>> routes(list.size());
  std::vector<double> session_s(list.size(), 0.0);
  std::vector<std::unique_ptr<BinaryAdjacencyStream>> streams;
  for (const Tenant& t : list) streams.push_back(std::make_unique<BinaryAdjacencyStream>(t.file));
  std::vector<std::string> errors(list.size());
  const double serve_round_s = ledger.span([&] {
    std::vector<std::thread> clients;
    for (std::size_t i = 0; i < list.size(); ++i) {
      clients.emplace_back([&, i] {
        const auto start = Clock::now();
        try {
          routes[i] = run_session(socket, *streams[i], list[i].k);
        } catch (const std::exception& e) {
          errors[i] = e.what();
        }
        session_s[i] = since(start);
      });
    }
    for (std::thread& c : clients) c.join();
  });
  double session_total = 0.0, serve_records = 0.0;
  for (std::size_t i = 0; i < list.size(); ++i) {
    if (!errors[i].empty()) throw std::runtime_error("session " + list[i].name + ": " + errors[i]);
    m["server.session_s." + list[i].name] = session_s[i];
    session_total += session_s[i];
    serve_records += streams[i]->num_vertices();
    const std::string path = dir + "/trace_session_" + list[i].name + ".route";
    ledger.write(routes[i], path);
    ledger.add_route(path, list[i].variant, list[i].k, "null", streams[i]->num_edges());
  }
  m["server.overhead_ns_per_rec"] = (session_total - in_process) * 1e9 / serve_records;
  m["partition.evaluate_s"] = ledger.evaluate_s / ledger.evaluations;
  m["graph.route_write_s"] = ledger.route_write_s / ledger.route_writes;

  const double pass_s = since(pass_start);
  std::string metrics_json;
  for (const auto& [name, value] : m) {
    metrics_json += std::string(metrics_json.empty() ? "" : ",") + "\"" + name +
                    "\":" + json_number(value);
  }
  std::printf("{\"metrics\":{%s},\"pass_s\":%s,\"attributed_s\":%s,"
              "\"par_partition_s\":%s,\"serve_round_s\":%s,\"routes\":[%s]}\n",
              metrics_json.c_str(), json_number(pass_s).c_str(),
              json_number(ledger.attributed_s).c_str(), json_number(par_partition_s).c_str(),
              json_number(serve_round_s).c_str(), ledger.routes_json.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const std::string command = argc > 1 ? argv[1] : "";
    if (command == "loadgen") return loadgen(parse_flags(argc, argv));
    if (command == "trace") return trace(parse_flags(argc, argv));
    std::fprintf(stderr, "usage: perfbench_harness loadgen|trace --key=value ...\n");
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_harness: %s\n", e.what());
    return 1;
  }
}
