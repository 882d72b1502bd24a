// perfbench_graph — the benchmark's input generator and independent output
// checker. It links none of the program's code: graphs come from gen.hpp and
// routes are parsed here, so a fault in the program's readers, writers or
// metrics cannot hide itself.
//
//   perfbench_graph gen --variant=ordered|random --seed=S --out=G.adj
//   perfbench_graph check --seed=S JOBS
//   perfbench_graph --self-test
//
// Every graph has kVertices vertices and every partition the capacity slack
// kSlack (gen.hpp).
//
// JOBS holds one check per line:
//   route <variant> <K> <extra> <route-file> <printed-cut|-> <printed-E|->
//   same <file-a> <file-b>
// A route passes when it has exactly |V| entries "v p" in id order with every
// p in [0, K); no partition holds more than kSlack·|V|/K + 1 + extra vertices
// (extra allows for workers that read loads without a lock); its cut-edge
// and edge counts equal what the program printed; and its ECR is below
// 1 − 1/K, the expected ECR of a uniform random assignment. "same" passes
// when the two files are byte-identical. One result line per job is printed
// ("ok ..." or "FAIL ..."); the exit code is 0 only if every job passed.
#include <unistd.h>

#include <charconv>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "gen.hpp"

namespace {

using perfbench::Csr;

struct Args {
  std::map<std::string, std::string> flags;
  std::vector<std::string> positional;

  Args(int argc, char** argv) {
    for (int i = 1; i < argc; ++i) {
      const std::string a = argv[i];
      if (a.rfind("--", 0) == 0) {
        const auto eq = a.find('=');
        flags[a.substr(2, eq == std::string::npos ? std::string::npos : eq - 2)] =
            eq == std::string::npos ? "1" : a.substr(eq + 1);
      } else {
        positional.push_back(a);
      }
    }
  }
  std::string get(const std::string& key) const {
    const auto it = flags.find(key);
    if (it == flags.end()) throw std::runtime_error("missing --" + key);
    return it->second;
  }
};

std::uint64_t to_u64(const std::string& s) {
  std::uint64_t v = 0;
  const auto [end, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
  if (ec != std::errc() || end != s.data() + s.size()) {
    throw std::runtime_error("not an unsigned integer: '" + s + "'");
  }
  return v;
}

// Text adjacency list with the "# V <n> E <m>" header the program's readers
// honour: one line per vertex, "<id> <out1> <out2> ...".
void write_adjacency(const Csr& g, const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) throw std::runtime_error("cannot write " + path);
  std::string buf;
  buf.reserve(1 << 20);
  buf += "# V " + std::to_string(g.num_vertices()) + " E " +
         std::to_string(g.num_edges()) + "\n";
  char num[24];
  auto put = [&](std::uint64_t x) {
    const auto r = std::to_chars(num, num + sizeof num, x);
    buf.append(num, r.ptr);
  };
  for (std::uint32_t v = 0; v < g.num_vertices(); ++v) {
    put(v);
    for (std::uint64_t e = g.offsets[v]; e < g.offsets[v + 1]; ++e) {
      buf.push_back(' ');
      put(g.targets[e]);
    }
    buf.push_back('\n');
    if (buf.size() > (1u << 20) - 64 * 1024) {
      if (std::fwrite(buf.data(), 1, buf.size(), f) != buf.size()) {
        throw std::runtime_error("short write to " + path);
      }
      buf.clear();
    }
  }
  // Flushed to disk here, so the timed set-up that reads the file next does
  // not share the disk with the generator's write-back.
  if (std::fwrite(buf.data(), 1, buf.size(), f) != buf.size() || std::fflush(f) != 0 ||
      fsync(fileno(f)) != 0 || std::fclose(f) != 0) {
    throw std::runtime_error("short write to " + path);
  }
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

struct RouteCheck {
  bool ok = false;
  std::string reason;
  std::uint64_t cut = 0;
  std::uint64_t edges = 0;
  double ecr = 0.0;
  std::uint64_t max_load = 0;
  double load_bound = 0.0;
};

RouteCheck check_route(const Csr& g, const std::string& text, std::uint32_t k,
                       std::uint32_t extra,
                       std::optional<std::uint64_t> printed_cut,
                       std::optional<std::uint64_t> printed_edges) {
  RouteCheck r;
  const std::uint32_t n = g.num_vertices();
  std::vector<std::uint32_t> route;
  route.reserve(n);
  const char* p = text.data();
  const char* end = p + text.size();
  while (p < end) {
    const char* eol = static_cast<const char*>(std::memchr(p, '\n', end - p));
    if (eol == nullptr) eol = end;
    if (p != eol && *p != '#') {
      std::uint64_t v = 0, part = 0;
      auto a = std::from_chars(p, eol, v);
      if (a.ec != std::errc() || a.ptr == eol || *a.ptr != ' ') {
        r.reason = "malformed line " + std::to_string(route.size());
        return r;
      }
      auto b = std::from_chars(a.ptr + 1, eol, part);
      if (b.ec != std::errc() || b.ptr != eol) {
        r.reason = "malformed line " + std::to_string(route.size());
        return r;
      }
      if (v != route.size()) {
        r.reason = "entry " + std::to_string(route.size()) + " names vertex " +
                   std::to_string(v);
        return r;
      }
      if (part >= k) {
        r.reason = "vertex " + std::to_string(v) + " in partition " +
                   std::to_string(part) + ", outside [0, " + std::to_string(k) + ")";
        return r;
      }
      route.push_back(static_cast<std::uint32_t>(part));
    }
    p = eol + 1;
  }
  if (route.size() != n) {
    r.reason = "route has " + std::to_string(route.size()) + " entries, want " +
               std::to_string(n);
    return r;
  }
  std::vector<std::uint64_t> load(k, 0);
  for (std::uint32_t part : route) ++load[part];
  for (std::uint64_t l : load) r.max_load = std::max(r.max_load, l);
  r.load_bound = perfbench::kSlack * static_cast<double>(n) / k + 1.0 + extra;
  r.edges = g.num_edges();
  for (std::uint32_t v = 0; v < n; ++v) {
    for (std::uint64_t e = g.offsets[v]; e < g.offsets[v + 1]; ++e) {
      r.cut += route[v] != route[g.targets[e]];
    }
  }
  r.ecr = r.edges == 0 ? 0.0 : static_cast<double>(r.cut) / static_cast<double>(r.edges);
  if (static_cast<double>(r.max_load) > r.load_bound) {
    r.reason = "a partition holds " + std::to_string(r.max_load) +
               " vertices, over the bound " + std::to_string(r.load_bound);
  } else if (printed_cut && *printed_cut != r.cut) {
    r.reason = "program printed cut=" + std::to_string(*printed_cut) +
               ", checker counts " + std::to_string(r.cut);
  } else if (printed_edges && *printed_edges != r.edges) {
    r.reason = "program printed E=" + std::to_string(*printed_edges) +
               ", checker counts " + std::to_string(r.edges);
  } else if (!(r.ecr < 1.0 - 1.0 / k)) {
    r.reason = "ECR " + std::to_string(r.ecr) + " is not below 1-1/K";
  } else {
    r.ok = true;
  }
  return r;
}

std::optional<std::uint64_t> printed(const std::string& field) {
  if (field == "-") return std::nullopt;
  return to_u64(field);
}

int run_check(const Args& args) {
  if (args.positional.size() != 2) throw std::runtime_error("check wants one JOBS file");
  const std::uint64_t seed = to_u64(args.get("seed"));
  std::map<std::string, Csr> graphs;
  std::ifstream jobs(args.positional[1]);
  if (!jobs) throw std::runtime_error("cannot open " + args.positional[1]);
  std::string line;
  int failures = 0, checked = 0;
  while (std::getline(jobs, line)) {
    std::istringstream in(line);
    std::string kind;
    if (!(in >> kind)) continue;
    ++checked;
    if (kind == "same") {
      std::string a, b;
      in >> a >> b;
      const bool same = read_file(a) == read_file(b);
      std::printf("%s same %s %s\n", same ? "ok" : "FAIL", a.c_str(), b.c_str());
      failures += !same;
      continue;
    }
    if (kind != "route") throw std::runtime_error("unknown job '" + kind + "'");
    std::string variant, k, extra, path, cut, edges;
    if (!(in >> variant >> k >> extra >> path >> cut >> edges)) {
      throw std::runtime_error("malformed job: " + line);
    }
    auto it = graphs.find(variant);
    if (it == graphs.end()) {
      it = graphs.emplace(variant, perfbench::build_graph(variant, perfbench::kVertices, seed)).first;
    }
    const RouteCheck r = check_route(
        it->second, read_file(path), static_cast<std::uint32_t>(to_u64(k)),
        static_cast<std::uint32_t>(to_u64(extra)), printed(cut), printed(edges));
    if (r.ok) {
      std::printf("ok route %s K=%s cut=%llu E=%llu ecr=%.6f max_load=%llu bound=%.1f\n",
                  path.c_str(), k.c_str(), static_cast<unsigned long long>(r.cut),
                  static_cast<unsigned long long>(r.edges), r.ecr,
                  static_cast<unsigned long long>(r.max_load), r.load_bound);
    } else {
      std::printf("FAIL route %s K=%s: %s\n", path.c_str(), k.c_str(), r.reason.c_str());
      ++failures;
    }
  }
  std::printf("checked %d failed %d\n", checked, failures);
  return failures == 0 ? 0 : 1;
}

std::string route_text(const std::vector<std::uint32_t>& route) {
  std::string s = "# vertex partition\n";
  for (std::size_t v = 0; v < route.size(); ++v) {
    s += std::to_string(v) + " " + std::to_string(route[v]) + "\n";
  }
  return s;
}

// Shows that the checker refuses each fault it exists to catch: a valid
// route passes, and a route with an out-of-range id, a missing entry, an
// over-capacity partition, or a printed cut off by one fails.
int self_test() {
  constexpr std::uint32_t n = 20000, k = 8;
  const Csr g = perfbench::build_graph("ordered", n, 7);
  std::vector<std::uint32_t> good(n);
  for (std::uint32_t v = 0; v < n; ++v) good[v] = v * k / n;
  const RouteCheck base = check_route(g, route_text(good), k, 0, std::nullopt,
                                      g.num_edges());
  int failures = 0;
  auto expect = [&](const char* what, bool pass, const RouteCheck& r) {
    const bool right = r.ok == pass;
    std::printf("%s %s (checker: %s%s%s)\n", right ? "ok" : "FAIL", what,
                r.ok ? "pass" : "fail", r.ok ? "" : ", ", r.reason.c_str());
    failures += !right;
  };
  expect("valid route passes", true, base);
  expect("valid route passes with its own cut", true,
         check_route(g, route_text(good), k, 0, base.cut, base.edges));

  std::vector<std::uint32_t> bad = good;
  bad[17] = k;
  expect("out-of-range partition id fails", false,
         check_route(g, route_text(bad), k, 0, std::nullopt, std::nullopt));

  bad = good;
  bad.pop_back();
  expect("missing entry fails", false,
         check_route(g, route_text(bad), k, 0, std::nullopt, std::nullopt));

  // Partition 0 holds n/K; the bound is kSlack·n/K + 1. Move (kSlack − 1)·n/K + 2
  // more in.
  bad = good;
  const auto extra_members =
      static_cast<std::uint32_t>((perfbench::kSlack - 1.0) * n / k) + 2;
  for (std::uint32_t v = n - extra_members; v < n; ++v) bad[v] = 0;
  expect("over-capacity partition fails", false,
         check_route(g, route_text(bad), k, 0, std::nullopt, std::nullopt));
  expect("over-capacity partition passes with that many workers' slack", true,
         check_route(g, route_text(bad), k, extra_members, std::nullopt,
                     std::nullopt));

  expect("printed cut one too high fails", false,
         check_route(g, route_text(good), k, 0, base.cut + 1, base.edges));
  expect("printed cut one too low fails", false,
         check_route(g, route_text(good), k, 0, base.cut - 1, base.edges));
  expect("printed E off by one fails", false,
         check_route(g, route_text(good), k, 0, base.cut, base.edges + 1));

  // Every vertex in its own 1-of-K random cell cuts ~(1-1/K) of the edges.
  perfbench::Rng rng(3);
  std::vector<std::uint32_t> scattered(n);
  for (std::uint32_t v = 0; v < n; ++v) scattered[v] = v % k;
  for (std::uint32_t i = n; i > 1; --i) std::swap(scattered[i - 1], scattered[rng.below(i)]);
  const RouteCheck worst =
      check_route(g, route_text(scattered), k, 0, std::nullopt, std::nullopt);
  std::printf("note: scattered route ECR %.4f vs 1-1/K %.4f\n", worst.ecr, 1.0 - 1.0 / k);

  std::printf("self-test %s\n", failures == 0 ? "passed" : "FAILED");
  return failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args args(argc, argv);
    if (args.flags.count("self-test") != 0) return self_test();
    if (args.positional.empty()) {
      std::fprintf(stderr, "usage: perfbench_graph gen|check ... | --self-test\n");
      return 2;
    }
    if (args.positional[0] == "gen") {
      const Csr g = perfbench::build_graph(args.get("variant"), perfbench::kVertices,
                                           to_u64(args.get("seed")));
      write_adjacency(g, args.get("out"));
      std::printf("V=%u E=%llu\n", g.num_vertices(),
                  static_cast<unsigned long long>(g.num_edges()));
      return 0;
    }
    if (args.positional[0] == "check") return run_check(args);
    std::fprintf(stderr, "unknown command '%s'\n", args.positional[0].c_str());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_graph: %s\n", e.what());
    return 2;
  }
}
