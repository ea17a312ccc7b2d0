// Shared table-printing helpers for the benchmark suites. Grids come
// from runner::GridSpec, the one grid generator.
//
// Every bench prints aligned, self-describing tables so the series can
// be compared row-by-row against the paper's figures (shape targets:
// who wins, by what factor, where crossovers and peaks fall). The
// harness silences these tables when aggregating many suites; the
// numbers that persist run-to-run live in the BENCH_*.json artifacts.
#pragma once

#include <cstdio>
#include <string>
#include <vector>

namespace bevr::bench {

inline void print_header(const std::string& title) {
  std::printf("\n=== %s ===\n", title.c_str());
}

inline void print_columns(const std::vector<std::string>& names) {
  for (const auto& name : names) std::printf("%14s", name.c_str());
  std::printf("\n");
  for (std::size_t i = 0; i < names.size(); ++i) std::printf("%14s", "------");
  std::printf("\n");
}

inline void print_row(const std::vector<double>& values) {
  for (const double v : values) std::printf("%14.6g", v);
  std::printf("\n");
}

inline void print_note(const std::string& note) {
  std::printf("  note: %s\n", note.c_str());
}

}  // namespace bevr::bench
