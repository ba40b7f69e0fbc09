#include "runner/report.hh"

#include <cstdlib>
#include <fstream>
#include <sstream>

#include "telemetry/json.hh"

namespace act
{

using telemetry::formatDouble;
using telemetry::jsonEscape;

namespace
{

/** CSV cells: strip the two characters our simple reader cannot take. */
std::string
csvSanitise(const std::string &s)
{
    std::string out = s;
    for (char &c : out) {
        if (c == ',' || c == '\n')
            c = ' ';
    }
    return out;
}

} // namespace

std::string
reportJson(const Campaign &campaign, const std::vector<JobResult> &results)
{
    std::ostringstream out;
    out << "{\n";
    out << "  \"format\": 1,\n";
    out << "  \"campaign\": \"" << jsonEscape(campaign.name) << "\",\n";
    out << "  \"description\": \"" << jsonEscape(campaign.description)
        << "\",\n";
    out << "  \"jobs\": [\n";
    for (std::size_t i = 0; i < results.size(); ++i) {
        const JobResult &result = results[i];
        const JobSpec &spec = campaign.jobs[i];
        out << "    {\n";
        out << "      \"id\": " << spec.id << ",\n";
        out << "      \"workload\": \"" << jsonEscape(spec.workload)
            << "\",\n";
        out << "      \"scheme\": \"" << schemeName(spec.scheme) << "\",\n";
        out << "      \"kind\": \"" << jobKindName(spec.kind) << "\",\n";
        out << "      \"seed\": " << spec.seed << ",\n";
        out << "      \"ok\": " << (result.ok ? "true" : "false") << ",\n";
        // Failure fields appear only for failed jobs: fault-free
        // reports stay byte-identical to the pre-resilience schema.
        if (result.failure != JobFailure::kNone) {
            out << "      \"failure\": \""
                << jobFailureName(result.failure) << "\",\n";
            out << "      \"error\": \"" << jsonEscape(result.error)
                << "\",\n";
        }
        out << "      \"metrics\": {";
        bool first = true;
        for (const auto &[key, value] : result.metrics) {
            out << (first ? "" : ", ") << "\"" << jsonEscape(key)
                << "\": " << formatDouble(value);
            first = false;
        }
        out << "},\n";
        out << "      \"labels\": {";
        first = true;
        for (const auto &[key, value] : result.labels) {
            out << (first ? "" : ", ") << "\"" << jsonEscape(key)
                << "\": \"" << jsonEscape(value) << "\"";
            first = false;
        }
        out << "}\n";
        out << "    }" << (i + 1 < results.size() ? "," : "") << "\n";
    }
    out << "  ]\n";
    out << "}\n";
    return out.str();
}

std::string
reportCsv(const Campaign &campaign, const std::vector<JobResult> &results)
{
    std::ostringstream out;
    out << "id,workload,scheme,kind,seed,key,value\n";
    for (std::size_t i = 0; i < results.size(); ++i) {
        const JobResult &result = results[i];
        const JobSpec &spec = campaign.jobs[i];
        const auto prefix = [&](std::ostringstream &row) {
            row << spec.id << "," << csvSanitise(spec.workload) << ","
                << schemeName(spec.scheme) << "," << jobKindName(spec.kind)
                << "," << spec.seed << ",";
        };
        for (const auto &[key, value] : result.metrics) {
            std::ostringstream row;
            prefix(row);
            row << csvSanitise(key) << "," << formatDouble(value) << "\n";
            out << row.str();
        }
        for (const auto &[key, value] : result.labels) {
            std::ostringstream row;
            prefix(row);
            row << csvSanitise(key) << "," << csvSanitise(value) << "\n";
            out << row.str();
        }
        if (result.failure != JobFailure::kNone) {
            std::ostringstream row;
            prefix(row);
            row << "failure," << jobFailureName(result.failure) << "\n";
            prefix(row);
            row << "error," << csvSanitise(result.error) << "\n";
            out << row.str();
        }
        std::ostringstream row;
        prefix(row);
        row << "wall_ms," << formatDouble(result.wall_ms) << "\n";
        out << row.str();
    }
    return out.str();
}

bool
writeTextFile(const std::string &path, const std::string &content)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    if (!out)
        return false;
    out << content;
    return static_cast<bool>(out.flush());
}

bool
loadReportCsv(const std::string &path, std::vector<ReportRow> &rows)
{
    rows.clear();
    std::ifstream in(path);
    if (!in)
        return false;
    std::string line;
    bool header = true;
    while (std::getline(in, line)) {
        if (header) {
            header = false;
            continue;
        }
        if (line.empty())
            continue;
        std::vector<std::string> cells;
        std::size_t start = 0;
        while (cells.size() < 6) {
            const std::size_t comma = line.find(',', start);
            if (comma == std::string::npos)
                break;
            cells.push_back(line.substr(start, comma - start));
            start = comma + 1;
        }
        if (cells.size() != 6)
            return false;
        cells.push_back(line.substr(start)); // value (never contains ',').
        ReportRow row;
        row.id = static_cast<std::uint32_t>(
            std::strtoul(cells[0].c_str(), nullptr, 10));
        row.workload = cells[1];
        row.scheme = cells[2];
        row.kind = cells[3];
        row.seed = std::strtoull(cells[4].c_str(), nullptr, 10);
        row.key = cells[5];
        row.value = cells[6];
        rows.push_back(std::move(row));
    }
    return true;
}

} // namespace act
