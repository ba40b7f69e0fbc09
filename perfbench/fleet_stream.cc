/**
 * @file
 * `fleet_stream` workload: runFleetService with the tracker front-end
 * and lossless backpressure, two clients sharing one shard, as a closed
 * loop (clients push as fast as backpressure allows). Every stream
 * replays a fixed event total. Set-up builds the reference report with
 * replayFleetBatch; every streamed report must match it byte for byte.
 *
 * The traced run re-runs the shard loop single-threaded from public
 * calls (tracker, stage, batched inference, commit) with each call
 * timed; it must reproduce the reference report exactly.
 */

#include <limits>
#include <span>

#include "act/act_module.hh"
#include "bench.hh"
#include "host_speed.hh"
#include "deps/tracker.hh"
#include "fleet/service.hh"
#include "workloads/kernel.hh"
#include "workloads/workload.hh"

namespace act::perfbench
{

namespace
{

/** Clients and shards: clients + shards stays within 4 cores. */
constexpr std::uint32_t kClients = 2;
constexpr std::uint32_t kShards = 1;

/** Events per stream: about 0.7 s of streaming on an idle host. */
constexpr std::uint64_t kStreamEvents = 2'000'000;

/**
 * FleetConfig.seed seeds the client recordings and also draws the frozen
 * shard weights (fleetWeights in src/fleet/service.cc). Under those
 * untrained weights the flag ratio is a property of the seed: of seeds
 * 1-20, six flag (almost) every sequence and the rest almost none, and
 * each flag costs a suspect-map update. The benchmark seed therefore
 * picks among the service seeds that flag every sequence, 1 (the
 * service default) among them, so every seed measures the same regime.
 */
const std::vector<std::uint64_t> kServiceSeeds = {1, 8, 12, 13};

/** Client recordings at scale 2, re-streamed to the event total. */
constexpr std::uint32_t kRecordingScale = 2;

/**
 * How strongly a stream slows with the host (host_speed.hh): less than
 * the reference loop's random reads when the neighbours load the memory
 * system (README, Host-speed correction).
 */
constexpr double kSensitivity = 0.7;

/**
 * The frozen shard weights runFleetService derives from the run seed
 * (uniform in [-0.9, 0.9] from Rng(seed ^ 0xf1ee7c0ffee)). The re-run
 * needs the same engine; the report comparison catches any drift.
 */
std::vector<double>
shardWeights(std::size_t count, std::uint64_t seed)
{
    Rng rng(seed ^ 0xf1ee7c0ffeeULL);
    std::vector<double> weights(count);
    for (double &w : weights)
        w = rng.uniform(-0.9, 0.9);
    return weights;
}

/** The client traces the service records for @p config. */
std::vector<Trace>
clientTraces(const fleet::FleetConfig &config)
{
    const std::vector<std::string> catalog = predictionKernelNames();
    std::vector<Trace> traces;
    for (std::uint32_t c = 0; c < config.clients; ++c) {
        WorkloadParams params;
        params.seed = config.seed + c;
        params.scale = config.scale;
        traces.push_back(
            makeWorkload(catalog[c % catalog.size()])->record(params));
    }
    return traces;
}

/**
 * The shard loop of replayFleetBatch rebuilt from public calls, each
 * call charged to its layer: dependence tracking, staging, batched
 * inference and the commit of each prediction.
 */
fleet::FleetReport
rerunShardLoop(const fleet::FleetConfig &config,
               const std::vector<Trace> &traces, Layers &layers)
{
    ActConfig act;
    act.interval_length = std::numeric_limits<std::uint64_t>::max();
    ActModule module(act, PairEncoder{});
    module.restoreWeights(
        shardWeights(module.network().weightCount(), config.seed));
    const std::size_t width =
        module.config().sequence_length * PairEncoder{}.width();

    struct Client
    {
        explicit Client(const ActModule &m) : arena(m.makeArena()) {}
        ActArena arena;
        DependenceTracker tracker;
    };
    struct Pending
    {
        std::uint32_t client;
        DependenceSequence sequence;
        ThreadId tid;
    };
    std::vector<std::unique_ptr<Client>> clients(config.clients);
    fleet::FleetReport report;
    std::vector<double> flat;
    std::vector<Pending> pending;
    std::vector<double> outputs;

    double flush_s = 0.0;
    const auto flush = [&] {
        if (pending.empty())
            return;
        const auto start = Clock::now();
        layers.time("hwnn.infer_batch_s", [&] {
            module.network().inferBatchFlat(flat, width, pending.size(),
                                            outputs);
        });
        layers.time("act.commit_s", [&] {
            for (std::size_t i = 0; i < pending.size(); ++i) {
                const Pending &p = pending[i];
                module.bindArena(&clients[p.client]->arena);
                const StagedOutcome outcome = module.commitPrediction(
                    p.sequence,
                    std::span<const double>(flat).subspan(i * width, width),
                    outputs[i], p.tid);
                if (outcome.predicted_invalid) {
                    ++report.totals.flagged;
                    const RawDependence &last = p.sequence.deps.back();
                    report.addSuspect(last.store_pc, last.load_pc,
                                      outcome.raw);
                }
            }
            report.totals.predictions += pending.size();
            flat.clear();
            pending.clear();
        });
        flush_s += elapsed(start);
    };

    std::vector<std::pair<RawDependence, ThreadId>> deps;
    const std::uint32_t reps = config.repeat == 0 ? 1 : config.repeat;
    for (std::uint32_t c = 0; c < config.clients; ++c) {
        clients[c] = std::make_unique<Client>(module);
        Client &client = *clients[c];
        const std::vector<TraceEvent> &events = traces[c].events();
        for (std::uint32_t rep = 0; rep < reps; ++rep) {
            for (std::size_t offset = 0; offset < events.size();
                 offset += config.block_events) {
                const std::size_t end =
                    std::min(offset + config.block_events, events.size());
                // A fresh block per chunk, as the replay builds them.
                std::vector<TraceEvent> block;
                layers.time("fleet.block_copy_s", [&] {
                    block.assign(events.begin() + offset,
                                 events.begin() + end);
                });
                layers.time("deps.track_s", [&] {
                    deps.clear();
                    for (const TraceEvent &event : block) {
                        if (const auto dep = client.tracker.observe(event))
                            deps.emplace_back(*dep, event.tid);
                    }
                });
                const auto stage_start = Clock::now();
                flush_s = 0.0;
                module.bindArena(&client.arena);
                for (const auto &[dep, tid] : deps) {
                    if (!module.stageDependence(dep))
                        continue;
                    const std::vector<double> &inputs =
                        module.stagedInputs();
                    flat.insert(flat.end(), inputs.begin(), inputs.end());
                    pending.push_back(
                        Pending{c, module.stagedSequence(), tid});
                    if (pending.size() >= config.batch_max) {
                        flush();
                        module.bindArena(&client.arena);
                    }
                }
                layers.charge("act.stage_s",
                              elapsed(stage_start) - flush_s);
                report.totals.events += block.size();
                ++report.totals.blocks;
                report.totals.dependences += deps.size();
            }
        }
    }
    flush();
    for (const auto &client : clients) {
        report.totals.input_overwrites +=
            client->arena.stats.input_buffer_overwrites;
        report.totals.debug_overwrites +=
            client->arena.stats.debug_buffer_overwrites;
    }
    report.totals.clients = config.clients;
    return report;
}

} // namespace

Report
runFleetStream(const Options &options)
{
    Report report;
    fleet::FleetConfig config;
    config.clients = kClients;
    config.shards = kShards;
    config.seed = kServiceSeeds[options.seed % kServiceSeeds.size()];
    config.scale = kRecordingScale;
    config.backpressure = fleet::Backpressure::kBlock;
    config.front = fleet::FrontEnd::kTracker;

    // Set-up: record the client traces (they size the stream to a fixed
    // event total) and build the reference report with the sequential
    // replay.
    std::string reference;
    fleet::FleetTotals expected;
    HostSpeed setup_speed(false, kSensitivity);
    const double setup_s = setup_speed.time([&] {
        std::uint64_t events = 0;
        for (const Trace &trace : clientTraces(config))
            events += trace.size();
        config.repeat = options.small
                            ? 2
                            : static_cast<std::uint32_t>(
                                  (kStreamEvents + events - 1) / events);
        const fleet::FleetResult batch = fleet::replayFleetBatch(config);
        reference = batch.report.toText(config.top_k);
        expected = batch.report.totals;
    });
    const double flag_ratio = static_cast<double>(expected.flagged) /
                              static_cast<double>(expected.predictions);

    // Timed part: whole streams until the run time is spent; the run
    // reports the median stream.
    std::vector<double> stream_times;
    HostSpeed speed(true, kSensitivity);
    const auto run_start = Clock::now();
    do {
        fleet::FleetResult stream;
        speed.time([&] { stream = fleet::runFleetService(config); });
        const fleet::FleetTotals &t = stream.report.totals;
        ++report.attempted;
        report.check(t.events_dropped == 0 && t.blocks_dropped == 0,
                     "fleet dropped events");
        report.check(stream.report.toText(config.top_k) == reference,
                     "streamed report differs from replayFleetBatch");
        stream_times.push_back(stream.wall_s);
    } while (!options.small && elapsed(run_start) < options.seconds);
    const double slowdown = speed.slowdown();
    const double stream_s = median(stream_times);
    const double events = static_cast<double>(expected.events);
    std::printf("fleet_stream %u clients, %u shard, service seed %llu, "
                "scale %u x %u repeats, %.0f events per stream, %zu "
                "streams, %.4g events/s as measured, host slowdown %.4f, "
                "flag ratio %.4f\n",
                config.clients, config.shards,
                static_cast<unsigned long long>(config.seed), config.scale,
                config.repeat, events, stream_times.size(),
                events / stream_s, slowdown, flag_ratio);

    if (!options.trace) {
        report.add("ops_per_s", events / stream_s * slowdown, "1/s");
        report.add("setup_s", setup_s / setup_speed.slowdown(),
                   "s");
        return report;
    }

    // Traced run: the shard loop re-run from public calls, alternating
    // with the sequential replay (the untraced shard loop); five of
    // each, and the fastest of each kind kept, so a burst of host load
    // (which only ever adds time) cannot decide the layer-sum check.
    constexpr int kRounds = 5;
    const std::vector<Trace> traces = clientTraces(config);
    Layers layers;
    double pipeline_s = 0.0;
    double rerun_s = 0.0;
    for (int round = 0; round < kRounds; ++round) {
        double replay_s = 0.0;
        speed.time(
            [&] { replay_s = fleet::replayFleetBatch(config).wall_s; });
        if (round == 0 || replay_s < pipeline_s)
            pipeline_s = replay_s;
        fleet::FleetReport rerun;
        Layers round_layers;
        const double took = speed.time(
            [&] { rerun = rerunShardLoop(config, traces, round_layers); });
        if (round == 0 || took < rerun_s) {
            rerun_s = took;
            layers = std::move(round_layers);
        }
        ++report.attempted;
        report.check(rerun.toText(config.top_k) == reference &&
                         rerun.totals.dependences == expected.dependences &&
                         rerun.totals.predictions == expected.predictions &&
                         rerun.totals.flagged == expected.flagged,
                     "shard-loop re-run differs from replayFleetBatch");
    }

    // Per-layer times are per stream, at the reference host speed.
    const double handoff_s = stream_s - pipeline_s;
    report.add("fleet.pipeline_s", pipeline_s / slowdown, "s");
    report.add("fleet.handoff_s", handoff_s / slowdown, "s");
    for (const char *layer : {"fleet.block_copy_s", "deps.track_s",
                              "act.stage_s", "hwnn.infer_batch_s",
                              "act.commit_s"})
        report.add(layer, layers.get(layer) / slowdown, "s");
    report.add("fleet.blocks", static_cast<double>(expected.blocks),
               "count");
    report.add("fleet.predictions",
               static_cast<double>(expected.predictions), "count");
    report.add("fleet.flag_ratio", flag_ratio, "ratio");
    addHostMetrics(report, events / stream_s, slowdown);
    // A stream is the shard loop plus the hand-off between threads; the
    // fastest re-run's layers stand in for the loop.
    addLayerSum(options, report, layers.total() + handoff_s,
                stream_s, rerun_s + handoff_s);
    return report;
}

} // namespace act::perfbench
