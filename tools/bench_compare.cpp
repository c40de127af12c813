// CLI gate over metrics::bench_compare: diff two wall-clock bench documents
// (bench/wallclock --json output) and exit non-zero when the current one
// regressed past the tolerance, dropped a row, or missed a required speedup.
// Exits 2 without comparing when one document is fast mode and the other
// full mode (meta.fast_mode).
//
//   bench_compare BASELINE.json CURRENT.json [--tolerance 0.25]
//                 [--metric refs_per_sec|ns_per_ref] [--require-speedup 1.5]
//                 [--rows SUBSTR]
#include <cstdio>
#include <cstring>
#include <iostream>
#include <string>

#include "common/parse_number.h"
#include "metrics/bench_compare.h"

namespace {

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s BASELINE.json CURRENT.json [--tolerance F] "
               "[--metric refs_per_sec|ns_per_ref] [--require-speedup F] "
               "[--rows SUBSTR]\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string paths[2];
  int npaths = 0;
  cmcp::metrics::CompareOptions options;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--tolerance") == 0 && i + 1 < argc) {
      options.tolerance = cmcp::common::parse_flag<double>(argv[i], argv[i + 1]);
      ++i;
    } else if (std::strcmp(argv[i], "--metric") == 0 && i + 1 < argc) {
      options.metric = argv[++i];
      if (options.metric != "refs_per_sec" && options.metric != "ns_per_ref")
        return usage(argv[0]);
    } else if (std::strcmp(argv[i], "--require-speedup") == 0 && i + 1 < argc) {
      options.require_speedup =
          cmcp::common::parse_flag<double>(argv[i], argv[i + 1]);
      ++i;
    } else if (std::strcmp(argv[i], "--rows") == 0 && i + 1 < argc) {
      options.rows = argv[++i];
    } else if (argv[i][0] != '-' && npaths < 2) {
      paths[npaths++] = argv[i];
    } else {
      return usage(argv[0]);
    }
  }
  if (npaths != 2) return usage(argv[0]);

  const auto baseline = cmcp::metrics::load_bench_file(paths[0]);
  if (!baseline.ok) {
    std::fprintf(stderr, "bench_compare: cannot load baseline %s\n",
                 paths[0].c_str());
    return 2;
  }
  const auto current = cmcp::metrics::load_bench_file(paths[1]);
  if (!current.ok) {
    std::fprintf(stderr, "bench_compare: cannot load current %s\n",
                 paths[1].c_str());
    return 2;
  }

  if (!cmcp::metrics::same_mode(baseline, current)) {
    std::fprintf(stderr,
                 "bench_compare: cannot compare meta.fast_mode=%s (%s) with "
                 "meta.fast_mode=%s (%s): fast and full mode run different "
                 "rows\n",
                 baseline.fast_mode.c_str(), paths[0].c_str(),
                 current.fast_mode.c_str(), paths[1].c_str());
    return 2;
  }

  const auto result = cmcp::metrics::compare_bench(baseline, current, options);
  cmcp::metrics::print_comparison(result, options, std::cout);
  return result.ok() ? 0 : 1;
}
