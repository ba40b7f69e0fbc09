/**
 * @file
 * The campaign runner's unit of work.
 *
 * A Job is one experiment cell: a workload crossed with a diagnosis
 * scheme (ACT, Aviso, PBI), a job-level seed and a bundle of knobs
 * (trace counts, training epochs, machine overrides). Campaigns are
 * flat lists of jobs; the runner executes them in any order, on any
 * number of threads, and each job's entire behaviour is a pure
 * function of its spec — results land in per-job slots, so a report is
 * byte-identical at `--jobs 1` and `--jobs 8`.
 */

#ifndef ACT_RUNNER_JOB_HH
#define ACT_RUNNER_JOB_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace act
{

class TraceCache;

/** What a job computes. */
enum class JobKind : std::uint8_t
{
    kPrediction,   //!< Table IV cell: train, report false positives.
    kInvalidDeps,  //!< Fig 7(a) cell: synthesised invalid dependences.
    kDiagnoseAct,  //!< Table V ACT column: full single-failure loop.
    kDiagnoseAviso, //!< Table V Aviso column.
    kDiagnosePbi,  //!< Table V PBI column.
    kResilience,   //!< Diagnose-act under an injected fault plan.
    kCorpus,       //!< table6-corpus cell: one injected-bug variant.
    kAdaptivity    //!< table-adaptivity cell: weight protection
                   //!< under a weight-concentrated fault plan.
};

/** Why a job's result slot carries no trustworthy numbers. */
enum class JobFailure : std::uint8_t
{
    kNone,      //!< The job ran to completion.
    kException, //!< It threw; JobResult::error holds the message.
    kSkipped    //!< Never ran (--fail-fast after a failure).
};

const char *jobFailureName(JobFailure failure);

/** Diagnosis scheme a job exercises (informational in report rows). */
enum class Scheme : std::uint8_t
{
    kAct,
    kAviso,
    kPbi
};

const char *jobKindName(JobKind kind);
const char *schemeName(Scheme scheme);

/**
 * Tunables. Defaults reproduce the original bench settings exactly;
 * the smoke campaign dials them down for speed.
 */
struct JobKnobs
{
    // Prediction / invalid-deps jobs.
    std::size_t train_traces = 10;
    std::size_t test_traces = 10;
    std::uint64_t train_seed_base = 100;
    std::uint64_t test_seed_base = 200;
    std::size_t max_epochs = 400;
    std::size_t max_examples = 24000;
    std::size_t sequence_length = 3;
    std::uint64_t shuffle_seed = 0xbe4c; //!< fig7a overrides with 0x7a.
    bool sweep_topology = false;
    std::string encoder = "pair"; //!< pair | dictionary | hash.

    // Diagnosis jobs.
    std::size_t postmortem_traces = 20;
    std::size_t diagnosis_epochs = 500;
    std::size_t diagnosis_max_examples = 30000;
    std::size_t debug_buffer_entries = 0; //!< 0 = Table III default.
    std::uint64_t failure_seed = 999;
    std::size_t baseline_correct_traces = 15;
    std::uint64_t baseline_seed_base = 500;
    std::uint32_t aviso_max_failures = 10;

    /**
     * Additional root-cause PCs for the PBI diagnoser beyond the buggy
     * dependence's load (e.g. pbzip2's consumer emptiness check also
     * implicates the bug).
     */
    std::vector<std::uint64_t> extra_root_pcs;

    /**
     * Run the multi-detector analysis pipeline on diagnose-act jobs:
     * mine atomicity/order invariants from the training traces, run
     * every detector over the failing trace, and report per-detector +
     * fused ensemble precision/recall columns. Off by default; only
     * table5 turns it on, and it adds columns without changing any
     * other metric or label of the job.
     */
    bool analyze = false;

    // Resilience and adaptivity jobs (kResilience, kAdaptivity).
    double fault_rate = 0.0;      //!< Uniform FaultPlan rate.
    std::uint64_t fault_seed = 1; //!< FaultPlan seed.

    // Adaptivity jobs (kAdaptivity). Off by default: a diagnose-act
    // cell with it untouched is bit-identical to the pre-adaptivity
    // runner.
    bool protect_weights = false; //!< Guard every stored weight set.
};

/** One experiment cell. */
struct JobSpec
{
    std::uint32_t id = 0;     //!< Dense index; fixes the report order.
    JobKind kind = JobKind::kPrediction;
    Scheme scheme = Scheme::kAct;
    std::string workload;
    std::uint64_t seed = 0;   //!< Job-level seed (varies smoke cells).
    JobKnobs knobs;
};

/**
 * What a job produced. Everything here except wall_ms is a
 * deterministic function of the spec; wall_ms is reported in the CSV
 * and the console summary but kept out of the JSON report so reports
 * diff clean across machines and thread counts.
 */
struct JobResult
{
    std::uint32_t id = 0;
    bool ok = false;

    /**
     * Why ok is false (kNone while ok). Serialised, with error, only
     * for failed jobs, so a fault-free report carries neither.
     */
    JobFailure failure = JobFailure::kNone;
    std::string error; //!< Diagnostic for a failed job.

    /** Numeric outcomes; ordered map for stable serialisation. */
    std::map<std::string, double> metrics;

    /** Pre-formatted outcomes (topology strings, rank cells). */
    std::map<std::string, std::string> labels;

    double wall_ms = 0.0;
};

/**
 * Execute one job. All trace recordings go through @p cache; the
 * workload registry must already be populated. May throw — the
 * runner's executor turns exceptions into structured failed results.
 */
JobResult runJob(const JobSpec &spec, TraceCache &cache);

/** A campaign: a named, ordered list of jobs. */
struct Campaign
{
    std::string name;
    std::string description;
    std::vector<JobSpec> jobs;
};

} // namespace act

#endif // ACT_RUNNER_JOB_HH
