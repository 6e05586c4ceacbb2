// perfbench: one paper workload per invocation, timed from outside the
// library.  Prints a human-readable summary, then the result line as the
// last line of stdout.  Exit 0 when every output check held, 1 when one
// did not (the result line says "correct": false), 2 on bad arguments or an
// error that stopped the run (no result line then).
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--base-seed <n>] [--work-dir <dir>]
//   perfbench --list-metrics
#include <charconv>
#include <cstdint>
#include <exception>
#include <iostream>
#include <string>
#include <string_view>
#include <system_error>

#include "harness.hpp"
#include "workloads.hpp"

namespace {

bool parse_u64(std::string_view text, std::uint64_t& out) {
  const auto* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, out);
  return ec == std::errc{} && ptr == end;
}

int usage(const std::string& error) {
  std::cerr << "error: " << error << "\n"
            << "usage: perfbench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> [--base-seed <n>] [--work-dir <dir>]\n"
            << "       perfbench --list-metrics\n";
  return 2;
}

void list_metrics() {
  auto dump = [](const char* key, const auto& defs) {
    std::cout << "\"" << key << "\": [";
    bool first = true;
    for (const auto& d : defs) {
      std::cout << (first ? "" : ", ") << "{\"name\": \"" << d.name
                << "\", \"unit\": \"" << d.unit << "\"}";
      first = false;
    }
    std::cout << "]";
  };
  std::cout << "{";
  dump("end_to_end", perfbench::end_to_end_metrics());
  std::cout << ", ";
  dump("per_layer", perfbench::per_layer_metrics());
  std::cout << ", \"workloads\": [";
  bool first = true;
  for (const auto& w : perfbench::workload_names()) {
    std::cout << (first ? "" : ", ") << "\"" << w << "\"";
    first = false;
  }
  std::cout << "]}\n";
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opts;
  opts.work_dir = ".";
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--list-metrics") {
      list_metrics();
      return 0;
    }
    if (i + 1 >= argc) return usage("missing value for " + std::string{arg});
    const std::string_view val = argv[++i];
    std::uint64_t n = 0;
    if (arg == "--workload") {
      opts.workload = val;
      have_workload = true;
    } else if (arg == "--seed" && parse_u64(val, n)) {
      opts.seed = n;
      have_seed = true;
    } else if (arg == "--seconds" && parse_u64(val, n) && n > 0) {
      opts.seconds = static_cast<double>(n);
      have_seconds = true;
    } else if (arg == "--trace" && (val == "0" || val == "1")) {
      opts.trace = val == "1";
      have_trace = true;
    } else if (arg == "--base-seed" && parse_u64(val, n)) {
      opts.base_seed = n;
    } else if (arg == "--work-dir") {
      opts.work_dir = std::string{val};
    } else {
      return usage("bad argument " + std::string{arg} + " " +
                   std::string{val});
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace) {
    return usage("--workload, --seed, --seconds and --trace are required");
  }
  bool known = false;
  for (const auto& w : perfbench::workload_names()) known |= w == opts.workload;
  if (!known) return usage("unknown workload " + opts.workload);

  try {
    const auto out = perfbench::run_workload(opts);
    std::cout << "workload " << opts.workload << ", seed " << opts.seed
              << ", " << opts.seconds << " s, trace " << opts.trace << "\n";
    for (const auto& note : out.notes) std::cout << "  " << note << "\n";
    for (const auto& f : out.failures) std::cout << "  CHECK FAILED: " << f << "\n";
    const auto& catalogue = opts.trace ? perfbench::per_layer_metrics()
                                       : perfbench::end_to_end_metrics();
    for (const auto& def : catalogue) {
      std::cout << "  " << def.name << " = "
                << out.metrics.at(std::string{def.name}) << " " << def.unit
                << "\n";
    }
    std::cout << perfbench::result_line(out.correct(), out.attempted,
                                        out.failed, catalogue, out.metrics)
              << std::endl;
    return out.correct() ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "perfbench: run stopped: " << e.what() << "\n";
    return 2;
  }
}
