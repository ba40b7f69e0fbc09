/**
 * @file
 * The fleet-scale streaming diagnosis service (ROADMAP item 1).
 *
 * Batch mode replays a whole recorded trace through one AM after the
 * fact; this service runs ACT the way the paper means it to run — as
 * always-on production monitoring, modelled after Mycroft-style online
 * communication tracing across a training fleet. N simulated client
 * processes (the deterministic workload generators) stream event
 * blocks concurrently into K diagnosis shards over bounded MPSC
 * queues with explicit backpressure; each shard multiplexes its
 * clients over one ActModule engine via per-client arenas, coalesces
 * staged sequences through the bit-exact batched NN inference, and
 * accumulates a mergeable FleetReport.
 *
 * Determinism contract (the `actfleet validate` gate): for fault-free
 * deterministic inputs under the kBlock (lossless) policy with a
 * bounded repeat count, the final merged report is byte-identical
 * across shard counts AND to replayFleetBatch() of the same
 * configuration. The pieces that buy this:
 *
 *  - disjoint mutable state: each client owns its front-end
 *    (tracker / memory system) and its ActArena; shards share only
 *    the immutable engine (config, stateless encoder, frozen weight
 *    registers);
 *  - testing-only modules: the misprediction-rate interval is pinned
 *    unreachably long, so no module ever switches to training and no
 *    commit ever back-propagates — the forward pass is pure and batch
 *    boundaries cannot be observed;
 *  - fixed client->shard assignment (client mod shards) and
 *    per-producer FIFO queues, so each client's events are processed
 *    in client order on every shard layout;
 *  - order-independent report merging (sums and mins only).
 *
 * Under kShed the contract is explicitly *not* byte-equivalence —
 * drops depend on timing — but it is still "never silent": every shed
 * block and event is counted in the report and in telemetry.
 */

#ifndef ACT_FLEET_SERVICE_HH
#define ACT_FLEET_SERVICE_HH

#include <cstdint>
#include <cstdio>
#include <string>

#include "fleet/queue.hh"
#include "fleet/report.hh"

namespace act::fleet
{

/** Which per-client front-end forms RAW dependences from events. */
enum class FrontEnd : std::uint8_t
{
    kTracker, //!< Exact software last-writer table (fast; default).
    kMem      //!< Simulated MESI memory system with writer extension.
};

/** Service parameters. */
struct FleetConfig
{
    std::uint32_t clients = 8;
    std::uint32_t shards = 2;

    /** Base seed; client i records its workload with seed + i. */
    std::uint64_t seed = 1;

    /** Fixed workload for every client; empty rotates the prediction
     *  kernel catalog (client i gets kernel i mod catalog size). */
    std::string workload;

    /** Workload scale multiplier. */
    std::uint32_t scale = 1;

    /** Times each client re-streams its recorded trace. */
    std::uint32_t repeat = 1;

    /**
     * Bench mode: stream until this wall-clock deadline instead of a
     * repeat count (0 disables). Nondeterministic by nature — never
     * used by the equivalence contract.
     */
    double duration_s = 0.0;

    std::size_t block_events = 512; //!< Events per ingress block.
    std::size_t queue_blocks = 64;  //!< Ingress queue capacity (blocks).
    std::size_t batch_max = 64;     //!< Staged inferences per NN batch.
    std::size_t top_k = 10;         //!< Suspects in the rendered report.

    Backpressure backpressure = Backpressure::kBlock;

    /** Incremental-report period in seconds (0 = final report only). */
    double epoch_s = 0.0;

    /** Run the streaming batch linter on every ingested block. */
    bool lint_blocks = false;

    FrontEnd front = FrontEnd::kTracker;
};

/** Outcome of one service run. */
struct FleetResult
{
    FleetReport report;
    double wall_s = 0.0;        //!< Streaming phase only (no recording).
    std::uint64_t epochs = 0;   //!< Incremental reports emitted.
};

/**
 * Run the full threaded service: record client traces, stream them
 * through the shard pipeline, and merge the final report. Epoch
 * reports (config.epoch_s > 0) are written to @p epoch_out when
 * non-null.
 */
FleetResult runFleetService(const FleetConfig &config,
                            std::FILE *epoch_out = nullptr);

/**
 * Sequential reference pipeline: the same clients, front-ends, arenas
 * and batcher, fed client by client with no threads or queues. The
 * equivalence oracle for the streaming service.
 */
FleetResult replayFleetBatch(const FleetConfig &config);

} // namespace act::fleet

#endif // ACT_FLEET_SERVICE_HH
