/**
 * @file
 * Campaign result serialisation.
 *
 * Two artefacts per run, written under the `--out` directory:
 *
 *  - `report.json` — the canonical machine-readable report. Contains
 *    only deterministic fields (spec + metrics + labels), so two runs
 *    with the same campaign are byte-identical regardless of `--jobs`,
 *    caching, or the machine's speed. Schema documented in README.md.
 *  - `report.csv` — long-format rows `id,workload,scheme,kind,seed,
 *    key,value` for spreadsheet use; includes a `wall_ms` row per job
 *    (timing lives here, never in the JSON).
 */

#ifndef ACT_RUNNER_REPORT_HH
#define ACT_RUNNER_REPORT_HH

#include <string>
#include <vector>

#include "runner/job.hh"

namespace act
{

/** The deterministic JSON report. */
std::string reportJson(const Campaign &campaign,
                       const std::vector<JobResult> &results);

/** The long-format CSV (includes wall_ms rows). */
std::string reportCsv(const Campaign &campaign,
                      const std::vector<JobResult> &results);

/** Write @p content to @p path (parent directory must exist). */
bool writeTextFile(const std::string &path, const std::string &content);

/** One parsed CSV row, as `actrun report` consumes it. */
struct ReportRow
{
    std::uint32_t id = 0;
    std::string workload;
    std::string scheme;
    std::string kind;
    std::uint64_t seed = 0;
    std::string key;
    std::string value;
};

/**
 * Load `report.csv` rows from @p path. Returns false when the file is
 * missing or malformed.
 */
bool loadReportCsv(const std::string &path, std::vector<ReportRow> &rows);

} // namespace act

#endif // ACT_RUNNER_REPORT_HH
