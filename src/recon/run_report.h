// Machine-readable run reports: serialize a RunResult (+ its RunConfig and
// observability session) to JSON, schema "gpumbir.run_report/1".
//
// The report is the tooling-facing counterpart of the human-facing bench
// tables: convergence curve, work counters, per-engine stats (including the
// GPU chunk-table lookups), the metrics-registry snapshot, and a
// summary of the trace (DESIGN.md §observability).
#pragma once

#include <string>

namespace mbir {

struct RunResult;
struct RunConfig;

/// Serialize the report to a JSON string.
std::string runReportJson(const RunResult& result, const RunConfig& config);

/// Serialize and write to `path` (throws mbir::Error on I/O failure).
void writeRunReport(const std::string& path, const RunResult& result,
                    const RunConfig& config);

}  // namespace mbir
