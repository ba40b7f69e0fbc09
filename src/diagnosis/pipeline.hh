/**
 * @file
 * End-to-end diagnosis drivers: offline training (Figure 4(a)), the
 * production run on the simulated machine, and the offline
 * postprocessing after a failure — the full loop of Figure 1.
 */

#ifndef ACT_DIAGNOSIS_PIPELINE_HH
#define ACT_DIAGNOSIS_PIPELINE_HH

#include <functional>
#include <optional>

#include "act/weight_store.hh"
#include "diagnosis/postprocess.hh"
#include "nn/trainer.hh"
#include "sim/system.hh"
#include "workloads/workload.hh"

namespace act
{

/**
 * Source of execution traces for the offline phases. The default
 * (an empty function) records the workload directly; the campaign
 * runner plugs in its on-disk trace cache here so identical
 * (workload, params) executions are generated only once.
 */
using TraceProvider =
    std::function<Trace(const Workload &, const WorkloadParams &)>;

/** Offline-training parameters (Section III-B). */
struct OfflineTrainingConfig
{
    std::size_t traces = 10;          //!< Correct executions to analyse.
    std::uint64_t seed_base = 100;    //!< Seeds seed_base .. +traces-1.
    std::size_t sequence_length = 3;  //!< N.
    std::size_t hidden_neurons = 10;  //!< h (<= M).
    std::size_t max_examples = 60000; //!< Dataset cap (subsampled).
    TrainerConfig trainer;
    std::uint64_t rng_seed = 0xac1;

    /**
     * Loads whose dependences are withheld from training — the "new
     * code" methodology of Figure 7(b) and Table VI: sequences
     * containing any dependence of these loads never reach the
     * trainer.
     */
    std::vector<Pc> exclude_load_pcs;

    /**
     * Specialise weights per thread (Section III-B: "we use the same
     * topology for each thread. However, the weights can be different
     * across threads"): after training the shared base network, each
     * thread's copy is fine-tuned on its own sequences.
     */
    bool per_thread_weights = false;

    /** Fine-tuning epochs per thread when per_thread_weights is set. */
    std::size_t per_thread_epochs = 40;

    /** Trace source for the training runs (empty = record directly). */
    TraceProvider trace_provider;
};

/** Output of offline training. */
struct TrainedModel
{
    Topology topology;
    std::vector<double> weights; //!< Shared base weights.
    TrainResult training;
    std::size_t dependence_count = 0; //!< RAW deps across the traces.
    std::size_t example_count = 0;

    /** Per-thread specialised weights (per_thread_weights only). */
    std::unordered_map<ThreadId, std::vector<double>> per_thread;
};

/**
 * Build the binary-resident weight table for @p threads: per-thread
 * specialised weights where the model has them, the shared base
 * weights otherwise.
 */
WeightStore buildWeightStore(const TrainedModel &model,
                             std::uint32_t threads);

/**
 * Analyse correct-execution traces of @p workload and train the
 * network (the OpenCV step of Figure 4(a)).
 */
TrainedModel offlineTrain(const Workload &workload,
                          DependenceEncoder &encoder,
                          const OfflineTrainingConfig &config);

/**
 * Replay @p trace through the cache model and return the dependence
 * sequences exactly as an online AM would form them (including losses
 * from evictions and clean transfers). Used to build the Correct Set
 * so pruning sees the same sequence population the Debug Buffer logs.
 */
std::vector<DependenceSequence> collectCacheSequences(
    const Trace &trace, const MemSystemConfig &mem_config,
    std::size_t sequence_length);

/** Everything diagnoseFailure needs. */
struct DiagnosisSetup
{
    OfflineTrainingConfig training;
    SystemConfig system;
    std::size_t postmortem_traces = 20; //!< Correct runs for pruning.
    std::uint64_t postmortem_seed_base = 500;
    std::uint64_t failure_seed = 999;
    std::uint32_t scale = 1;

    /**
     * Trace source for the failure and postmortem runs (empty = record
     * directly). The training phase has its own provider inside
     * `training`.
     */
    TraceProvider trace_provider;

    /**
     * Applied to the binary-resident weight table after it is built
     * and before the production run loads from it (empty = untouched).
     * The resilience campaign corrupts stored weights here; the ACT
     * Modules must quarantine what comes out.
     */
    std::function<void(WeightStore &)> weight_store_hook;

    /**
     * Weight protection. When set, a WeightGuard is built from the
     * *clean* store — after training, before weight_store_hook
     * corrupts it, mirroring a deployment that computes checksums at
     * patch time — and wired into the production run's modules so
     * flipped stored bits are repaired at thread start instead of
     * quarantined.
     */
    bool protect_weights = false;
};

/** Outcome of a full diagnosis. */
struct DiagnosisResult
{
    DiagnosisReport report;
    TrainedModel model;
    SystemStats run_stats;

    /** Was the root-cause sequence in the Debug Buffer at failure? */
    bool root_logged = false;

    /** Debug Buffer position (0 = newest) of the root cause. */
    std::optional<std::size_t> debug_position;

    /** 1-based post-filter rank of the root cause (sequence count). */
    std::optional<std::size_t> sequence_rank;

    /** Rank in distinct final dependences (what Table V reports). */
    std::optional<std::size_t> rank;
};

/**
 * Run the whole Figure 1 loop on a bug workload: offline training,
 * one failing production run on the simulated machine, postmortem
 * correct runs, pruning, ranking.
 */
DiagnosisResult diagnoseFailure(const Workload &workload,
                                const DiagnosisSetup &setup);

/** A DiagnosisSetup with Table III defaults. */
DiagnosisSetup defaultDiagnosisSetup();

} // namespace act

#endif // ACT_DIAGNOSIS_PIPELINE_HH
