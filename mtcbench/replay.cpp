/**
 * @file
 * mtcbench_replay: the benchmark's traced replay driver and output
 * reader.
 *
 *   mtcbench_replay run --mode inprocess|sandbox|fabric|offline
 *       --config NAME...
 *       --tests N --iterations N --seed N [--workers N]
 *       [--journal PATH] [--dump-trace PATH] [--trace PATH]
 *       [--key-file PATH]
 *   mtcbench_replay units (--journal PATH | --trace PATH)
 *   mtcbench_replay measure REPORT -- COMMAND [ARGS...]
 *
 * `run` replays one workload's (config, test) units through the
 * layers' public functions — test generation, instrumentation, the
 * batched executor, signature encode/accumulate/sort, delta decode,
 * incremental edge derivation, the collective checker, and the
 * journal, trace, sandbox and fabric layers around them — with a
 * steady-clock span around every call. Units run where the shipped
 * tool runs them (in this process, in SandboxPool workers, or on a
 * forked fabric fleet behind a Coordinator); workers measure their
 * own spans and ship them back inside the unit response. The mode
 * also fixes whose seed derivation and flow knobs are mirrored: the
 * in-process and sandbox modes are mtc_validate's (two seeder draws
 * per test, no conventional checker), the fabric and offline modes
 * runCampaign's (deriveTestPlans / flowTemplate, as mtc_coordinator
 * and mtc_check use).
 *
 * The replay prints one JSON object: per-unit verdicts and
 * signature-set digests, the deterministic report lines the shipped
 * tool prints for the same campaign, and the per-layer metrics.
 *
 * `units` prints the per-unit records of a journal or trace file the
 * shipped tools wrote, so the benchmark can hold their per-unit
 * signature-set digests to the golden values.
 *
 * `measure` runs a command and writes its wall-clock, user+system CPU
 * and peak resident set (its own and those of the descendants it
 * reaped) to REPORT. The command is forked from this small process
 * rather than from the benchmark's Python interpreter, whose resident
 * set a forked child would otherwise carry into its peak.
 */

#include <algorithm>
#include <array>
#include <bit>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include <csignal>
#include <fstream>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include "core/codesize.h"
#include "core/collective_checker.h"
#include "core/conventional_checker.h"
#include "core/instr_plan.h"
#include "core/load_analysis.h"
#include "core/perturbation.h"
#include "core/signature_accumulator.h"
#include "core/signature_codec.h"
#include "core/trace_format.h"
#include "dist/coordinator.h"
#include "dist/worker_client.h"
#include "graph/graph_builder.h"
#include "graph/ws_inference.h"
#include "harness/campaign.h"
#include "harness/campaign_journal.h"
#include "harness/campaign_plan.h"
#include "harness/campaign_report.h"
#include "harness/dist_campaign.h"
#include "harness/sandbox.h"
#include "harness/trace_check.h"
#include "sim/executor.h"
#include "support/error.h"
#include "support/framing.h"
#include "support/hmac.h"
#include "support/process.h"
#include "support/rng.h"
#include "testgen/generator.h"
#include "testgen/test_config.h"

namespace
{

using namespace mtc;

std::uint64_t
nowNs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

/** Flow layers, named after the src/ module that owns the call. */
enum Layer : std::size_t
{
    kGenerate,
    kInstrument,
    kExecute,
    kEncode,
    kAccumulate,
    kSortUnique,
    kDecode,
    kDerive,
    kCheck,
    kLayerCount
};

constexpr std::array<const char *, kLayerCount> kLayerNames = {
    "testgen.generate_ms", "core.instrument_ms", "sim.execute_ms",
    "core.encode_ms",      "core.accumulate_ms", "core.sort_unique_ms",
    "core.decode_ms",      "graph.derive_ms",    "core.check_ms"};

/**
 * Spans and counters of one unit, measured in the process that ran
 * it and shipped back with its response. Start and end are
 * steady-clock (CLOCK_MONOTONIC) readings, comparable across the
 * processes of one host.
 */
struct UnitTrace
{
    std::array<std::uint64_t, kLayerCount> layerNs{};
    std::uint64_t startNs = 0;
    std::uint64_t endNs = 0;
    std::uint32_t worker = 0;
    std::uint64_t batchCalls = 0;
    std::uint64_t edgesChanged = 0;

    void
    span(Layer layer, std::uint64_t start)
    {
        layerNs[layer] += nowNs() - start;
    }

    std::uint64_t
    coveredNs() const
    {
        std::uint64_t sum = 0;
        for (std::uint64_t ns : layerNs)
            sum += ns;
        return sum;
    }

    void
    encode(ByteWriter &w) const
    {
        for (std::uint64_t ns : layerNs)
            w.u64(ns);
        w.u64(startNs);
        w.u64(endNs);
        w.u32(worker);
        w.u64(batchCalls);
        w.u64(edgesChanged);
    }

    static UnitTrace
    decode(ByteReader &r)
    {
        UnitTrace tr;
        for (std::uint64_t &ns : tr.layerNs)
            ns = r.u64();
        tr.startNs = r.u64();
        tr.endNs = r.u64();
        tr.worker = r.u32();
        tr.batchCalls = r.u64();
        tr.edgesChanged = r.u64();
        return tr;
    }
};

/** Chained FNV over the sorted (words, count) pairs: the
 * signatureSetDigest fold of ValidationFlow::runTest. */
std::uint64_t
streamDigest(const std::vector<SignatureCount> &stream)
{
    std::uint64_t digest = 0xcbf29ce484222325ull;
    for (const SignatureCount &entry : stream) {
        digest = fnv1a64(entry.signature.words.data(),
                         entry.signature.words.size() *
                             sizeof(std::uint64_t),
                         digest);
        digest =
            fnv1a64(&entry.iterations, sizeof(entry.iterations), digest);
    }
    return digest;
}

/**
 * The checking stage of the flow — streaming delta decode,
 * incremental edge derivation and the collective checker, one
 * thread, unsharded — with spans around each layer call.
 */
void
tracedCheck(const TestProgram &program, const SignatureCodec &codec,
            MemoryModel model, const FlowConfig &flow,
            const std::vector<SignatureCount> &unique,
            FlowResult &result, UnitTrace &tr)
{
    StreamDecoder stream(codec);
    WsOrder ws;
    EdgeDeriver deriver(program);
    EdgeDiff diff;
    CollectiveChecker checker(program, model);
    std::optional<ConventionalChecker> conventional;
    DynamicEdgeSet conv_edges;
    std::vector<Edge> conv_scratch;
    if (flow.runConventional)
        conventional.emplace(program, model);

    for (const SignatureCount &entry : unique) {
        std::uint64_t t = nowNs();
        const Execution *exec = nullptr;
        try {
            exec = &stream.next(entry.signature);
        } catch (const SignatureDecodeError &err) {
            tr.span(kDecode, t);
            result.fault.quarantined.push_back(
                {entry.signature, entry.iterations, err.kind(),
                 err.thread(), err.word(), err.what()});
            result.fault.quarantinedIterations += entry.iterations;
            continue;
        }
        tr.span(kDecode, t);

        t = nowNs();
        const std::vector<std::uint32_t> &changed =
            stream.changedThreads();
        ws.inferDelta(program, *exec, changed.data(), changed.size());
        deriver.derive(*exec, ws, changed.data(), changed.size(), diff);
        tr.span(kDerive, t);
        tr.edgesChanged += diff.added.size() + diff.removed.size();
        ++result.fault.decodedSignatures;

        t = nowNs();
        bool conv_verdict = false;
        if (conventional) {
            applyEdgeDiff(conv_edges.edges, diff, conv_scratch);
            conv_edges.coherenceViolation = diff.coherenceViolation;
            conv_verdict =
                conventional->checkOne(conv_edges, result.conventional);
        }
        const bool verdict = checker.checkNextDiff(diff);
        tr.span(kCheck, t);
        if (conventional && conv_verdict != verdict)
            throw Error("replay: checker disagreement on test " +
                        program.config().name());
        result.violatingSignatures += verdict ? 1 : 0;
    }
    result.collective.merge(checker.stats());
    result.sliceReuses = stream.slicesReused();
    result.sliceDecodes = stream.slicesDecoded();
    result.decodeMs =
        static_cast<double>(tr.layerNs[kDecode] + tr.layerNs[kDerive]) /
        1e6;
    result.collectiveMs = static_cast<double>(tr.layerNs[kCheck]) / 1e6;
}

/** A generated test and its instrumentation artifacts. */
struct Instrumented
{
    TestProgram program;
    LoadValueAnalysis analysis;
    InstrumentationPlan plan;
    SignatureCodec codec;

    Instrumented(TestProgram program_arg, const FlowConfig &flow)
        : program(std::move(program_arg)),
          analysis(program, flow.analysis), plan(program, analysis),
          codec(program, analysis, plan)
    {}
};

/** Generate and instrument one test, each under its span. */
std::unique_ptr<Instrumented>
generateAndInstrument(const TestConfig &cfg, const FlowConfig &flow,
                      std::uint64_t gen_seed, FlowResult &result,
                      UnitTrace &tr)
{
    std::uint64_t t = nowNs();
    TestProgram program = generateTest(cfg, gen_seed);
    tr.span(kGenerate, t);

    t = nowNs();
    auto inst = std::make_unique<Instrumented>(std::move(program), flow);
    result.intrusive = intrusiveness(inst->program, inst->plan);
    result.code = codeSize(inst->program, inst->analysis, inst->plan);
    tr.span(kInstrument, t);
    return inst;
}

/**
 * One unit of ValidationFlow::runTest on a clean readout — instrument,
 * batched test loop, encode, accumulate, sort, check — with spans.
 * Every deterministic FlowResult field the campaign summary folds is
 * filled exactly as runTest fills it.
 */
FlowResult
tracedFlow(const TestConfig &cfg, const FlowConfig &flow,
           std::uint64_t gen_seed, UnitTrace &tr)
{
    if (flow.fault.enabled() || flow.coherent || flow.shardSize)
        throw ConfigError("replay covers clean operational-platform "
                          "flows without sharding only");
    tr.startNs = nowNs();
    FlowResult result;
    const auto inst =
        generateAndInstrument(cfg, flow, gen_seed, result, tr);
    const TestProgram &program = inst->program;

    OperationalExecutor platform(flow.exec);
    PerturbationModel perturbation(program, inst->analysis);
    SignatureAccumulator counts;
    std::uint64_t sort_comparisons = 0;
    BatchRunArena arena;
    EncodeResult encoded;
    Rng master(flow.seed);
    const std::uint32_t width = flow.batch ? flow.batch : 32;
    std::vector<Rng> lane_rngs;
    std::vector<LaneStatus> status;
    lane_rngs.reserve(width);
    for (std::uint64_t base = 0; base < flow.iterations;) {
        const std::uint32_t lanes = static_cast<std::uint32_t>(
            std::min<std::uint64_t>(width, flow.iterations - base));
        base += lanes;
        std::uint64_t t = nowNs();
        lane_rngs.clear();
        for (std::uint32_t l = 0; l < lanes; ++l)
            lane_rngs.emplace_back(master());
        status.assign(lanes, LaneStatus::Completed);
        platform.runBatchInto(program, lane_rngs.data(), lanes, arena,
                              nullptr, status.data());
        tr.span(kExecute, t);
        ++tr.batchCalls;

        for (std::uint32_t l = 0; l < lanes; ++l) {
            if (status[l] != LaneStatus::Completed)
                throw PlatformError("replay: a lane of test " +
                                    cfg.name() + " did not complete");
            ++result.iterationsRun;
            const Execution &execution = arena.executions[l];
            try {
                t = nowNs();
                inst->codec.encodeInto(execution, encoded);
                perturbation.record(execution, encoded,
                                    inst->plan.totalWords());
                tr.span(kEncode, t);

                t = nowNs();
                ++result.fault.recordedIterations;
                // The device-side BST insert cost runTest charges.
                const std::uint64_t before = counts.uniqueCount();
                sort_comparisons += before ? std::bit_width(before) : 0;
                counts.record(encoded.signature, 1);
                tr.span(kAccumulate, t);
            } catch (const SignatureAssertError &err) {
                if (result.assertionFailures == 0)
                    result.violationWitness = err.what();
                ++result.assertionFailures;
            }
        }
    }

    result.uniqueSignatures = counts.uniqueCount();
    perturbation.recordSortComparisons(sort_comparisons);
    result.originalCycles = perturbation.originalCycles();
    result.computeCycles = perturbation.signatureComputationCycles();
    result.sortCycles = perturbation.signatureSortingCycles();
    result.computationOverhead = perturbation.computationOverhead();
    result.sortingOverhead = perturbation.sortingOverhead();

    std::uint64_t t = nowNs();
    std::vector<SignatureCount> unique = counts.takeSortedUnique();
    tr.span(kSortUnique, t);
    result.signatureSetDigest = streamDigest(unique);
    if (flow.keepSignatures)
        result.signatureStream = unique;

    tracedCheck(program, inst->codec, flow.exec.model, flow, unique,
                result, tr);
    // A clean readout cannot fabricate a violation: every cyclic
    // signature is confirmed, as in runTest.
    result.fault.confirmedViolations = result.violatingSignatures;
    tr.endNs = nowNs();
    return result;
}

// --- output -----------------------------------------------------------

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (const char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            out += ' ';
        } else {
            out += c;
        }
    }
    return out + "\"";
}

std::string
jsonNumber(double v)
{
    std::ostringstream os;
    os.precision(17);
    os << v;
    return os.str();
}

/** One unit as the benchmark compares it across tools and runs. */
std::string
unitJson(const std::string &config, std::uint32_t test,
         const TestOutcome &outcome)
{
    const FlowResult &r = outcome.result;
    std::ostringstream os;
    os << "{\"config\":" << jsonString(config) << ",\"test\":" << test
       << ",\"ok\":" << (outcome.status == TestStatus::Ok ? "true" : "false")
       << ",\"iterations\":" << r.iterationsRun
       << ",\"unique\":" << r.uniqueSignatures
       << ",\"violating\":" << r.violatingSignatures
       << ",\"assertions\":" << r.assertionFailures
       << ",\"crashes\":" << r.platformCrashes
       << ",\"sim_cycles\":" << r.originalCycles
       << ",\"slices_decoded\":" << r.sliceDecodes
       << ",\"check_work\":"
       << r.collective.verticesProcessed + r.collective.edgesProcessed
       << ",\"sig_digest\":\"" << hex64(r.signatureSetDigest) << "\"}";
    return os.str();
}

// --- workload plumbing -------------------------------------------------

struct Options
{
    std::string command;
    std::string mode = "inprocess";
    std::vector<std::string> configs;
    unsigned tests = 1;
    std::uint64_t iterations = 1;
    std::uint64_t seed = 1;
    unsigned workers = 1;
    std::string journal;
    std::string dumpTrace;
    std::string trace;
    std::string keyFile;
};

Options
parseArgs(int argc, char **argv)
{
    if (argc < 2)
        throw ConfigError("usage: mtcbench_replay run|units [options]");
    Options opt;
    opt.command = argv[1];
    for (int i = 2; i < argc; ++i) {
        const std::string arg = argv[i];
        if (i + 1 >= argc)
            throw ConfigError("missing value after " + arg);
        const std::string value = argv[++i];
        if (arg == "--mode")
            opt.mode = value;
        else if (arg == "--config")
            opt.configs.push_back(value);
        else if (arg == "--tests")
            opt.tests = static_cast<unsigned>(std::stoul(value));
        else if (arg == "--iterations")
            opt.iterations = std::stoull(value);
        else if (arg == "--seed")
            opt.seed = std::stoull(value);
        else if (arg == "--workers")
            opt.workers = static_cast<unsigned>(std::stoul(value));
        else if (arg == "--journal")
            opt.journal = value;
        else if (arg == "--dump-trace")
            opt.dumpTrace = value;
        else if (arg == "--trace")
            opt.trace = value;
        else if (arg == "--key-file")
            opt.keyFile = value;
        else
            throw ConfigError("unknown option: " + arg);
    }
    return opt;
}

/** The in-process and sandbox modes mirror mtc_validate; the fabric
 * and offline modes mirror runCampaign. */
bool
mirrorsValidate(const Options &opt)
{
    return opt.mode == "inprocess" || opt.mode == "sandbox";
}

/** One (config, test) unit with the seeds it runs under. */
struct Unit
{
    std::size_t config = 0;
    std::uint32_t test = 0;
    std::uint64_t genSeed = 0;
    std::uint64_t flowSeed = 0;
};

/** The deterministic plan of a workload: configs, per-config flow
 * templates, and the flat unit list in (config, test) order. */
struct Plan
{
    std::vector<TestConfig> configs;
    std::vector<FlowConfig> flows;
    std::vector<Unit> units;
    CampaignConfig campaign; ///< runCampaign modes only
    std::vector<std::vector<TestPlan>> testPlans; ///< runCampaign modes
};

Plan
makePlan(const Options &opt)
{
    Plan plan;
    for (const std::string &name : opt.configs)
        plan.configs.push_back(parseConfigName(name));
    if (plan.configs.empty())
        throw ConfigError("replay needs at least one --config");

    if (mirrorsValidate(opt)) {
        // mtc_validate: one config, two seeder draws per test, the
        // timed platform, no conventional baseline.
        if (plan.configs.size() != 1)
            throw ConfigError("mtc_validate runs one config");
        FlowConfig flow;
        flow.iterations = opt.iterations;
        flow.runConventional = false;
        flow.exec = bareMetalConfig(plan.configs[0].isa);
        plan.flows.push_back(flow);
        Rng seeder(opt.seed);
        for (std::uint32_t t = 0; t < opt.tests; ++t) {
            Unit u;
            u.test = t;
            u.genSeed = seeder();
            u.flowSeed = seeder();
            plan.units.push_back(u);
        }
        return plan;
    }
    // runCampaign as mtc_coordinator configures it.
    CampaignConfig &c = plan.campaign;
    c.iterations = opt.iterations;
    c.testsPerConfig = opt.tests;
    c.seed = opt.seed;
    c.runConventional = false;
    c.dumpTracePath = opt.dumpTrace;
    if (opt.mode == "fabric") {
        c.mode = ExecutionMode::Distributed;
        c.distWorkers = opt.workers;
        c.distKeyFile = opt.keyFile;
    }
    for (std::size_t ci = 0; ci < plan.configs.size(); ++ci) {
        plan.flows.push_back(flowTemplate(plan.configs[ci], c));
        plan.testPlans.push_back(deriveTestPlans(plan.configs[ci], c));
        for (std::uint32_t t = 0; t < plan.testPlans[ci].size(); ++t) {
            Unit u;
            u.config = ci;
            u.test = t;
            u.genSeed = plan.testPlans[ci][t].genSeed;
            u.flowSeed = plan.testPlans[ci][t].flowSeed;
            plan.units.push_back(u);
        }
    }
    return plan;
}

/** Run unit @p u under spans; returns its journal/trace record. */
UnitRecord
runUnit(const Plan &plan, const Unit &u, UnitTrace &tr)
{
    FlowConfig flow = plan.flows[u.config];
    flow.seed = u.flowSeed;
    UnitRecord record;
    record.configName = plan.configs[u.config].name();
    record.testIndex = u.test;
    record.genSeed = u.genSeed;
    record.flowSeed = u.flowSeed;
    record.outcome.result =
        tracedFlow(plan.configs[u.config], flow, u.genSeed, tr);
    record.outcome.ok = true;
    record.outcome.status = TestStatus::Ok;
    return record;
}

std::vector<std::uint8_t>
packResponse(const UnitRecord &record, const UnitTrace &tr)
{
    const std::vector<std::uint8_t> body = encodeUnitRecord(record);
    ByteWriter w;
    w.str(std::string(body.begin(), body.end()));
    tr.encode(w);
    return w.bytes();
}

std::pair<UnitRecord, UnitTrace>
unpackResponse(const std::vector<std::uint8_t> &payload)
{
    ByteReader r(payload);
    const std::string body = r.str();
    UnitRecord record =
        decodeUnitRecord(std::vector<std::uint8_t>(body.begin(), body.end()));
    return {std::move(record), UnitTrace::decode(r)};
}

/** Everything one replay measured, folded into metrics at the end. */
struct Replay
{
    std::vector<TestOutcome> outcomes; ///< parallel to plan.units
    std::vector<UnitTrace> traces;     ///< parallel to plan.units
    std::vector<std::uint64_t> requestNs; ///< fleets: dispatch time
    std::vector<std::uint64_t> receiveNs; ///< fleets: result arrival
    std::vector<std::uint8_t> unitOk;  ///< replay agreed with record
    std::map<std::string, double> extra; ///< mode-specific metrics
    std::uint64_t parentCoveredNs = 0; ///< parent-side layer spans
    std::uint64_t fleetRunNs = 0;      ///< fleets: dispatch loop span
};

/** Fleet metrics shared by the sandbox and the fabric: per-unit
 * transit (round trip minus worker busy time minus queueing behind
 * the same worker's previous unit) and worker utilisation. */
void
foldFleet(const std::string &prefix, unsigned workers,
          std::uint64_t fleet_start_ns, Replay &rep)
{
    std::map<std::uint32_t, std::vector<std::size_t>> by_worker;
    for (std::size_t u = 0; u < rep.traces.size(); ++u)
        by_worker[rep.traces[u].worker].push_back(u);
    double transit_ns = 0.0, busy_ns = 0.0, covered_ns = 0.0,
           observed_ns = 0.0;
    for (auto &[worker, units] : by_worker) {
        std::sort(units.begin(), units.end(),
                  [&](std::size_t a, std::size_t b) {
                      return rep.traces[a].startNs < rep.traces[b].startNs;
                  });
        std::uint64_t prev_end = 0;
        for (const std::size_t u : units) {
            const UnitTrace &tr = rep.traces[u];
            const std::uint64_t ready =
                std::max(rep.requestNs[u], prev_end);
            const double inbound =
                tr.startNs > ready ? double(tr.startNs - ready) : 0.0;
            const double outbound = rep.receiveNs[u] > tr.endNs
                ? double(rep.receiveNs[u] - tr.endNs)
                : 0.0;
            const double busy = double(tr.endNs - tr.startNs);
            transit_ns += inbound + outbound;
            busy_ns += busy;
            covered_ns += double(tr.coveredNs()) + inbound + outbound;
            observed_ns += busy + inbound + outbound;
            prev_end = tr.endNs;
        }
    }
    const double units = std::max<double>(1.0, double(rep.traces.size()));
    rep.extra[prefix + "fleet_start_ms"] = double(fleet_start_ns) / 1e6;
    rep.extra[prefix + "dispatch_ms_per_unit"] = transit_ns / units / 1e6;
    rep.extra[prefix + "worker_busy_frac"] = rep.fleetRunNs
        ? busy_ns / (double(workers) * double(rep.fleetRunNs))
        : 0.0;
    // Inside the dispatch loop, only the time some unit is in flight
    // (the union of the units' request-to-result intervals) can be
    // attributed, and of it the share of the units' round trips that
    // worker layer spans and transit cover; record encode/decode and
    // glue are not. Time with no unit in flight — scheduling stalls,
    // gaps between leases, the end-of-run drain — is not attributed.
    std::vector<std::pair<std::uint64_t, std::uint64_t>> flights;
    for (std::size_t u = 0; u < rep.traces.size(); ++u)
        if (rep.receiveNs[u] > rep.requestNs[u])
            flights.emplace_back(rep.requestNs[u], rep.receiveNs[u]);
    std::sort(flights.begin(), flights.end());
    std::uint64_t in_flight_ns = 0, open = 0, close = 0;
    for (const auto &[request, receive] : flights) {
        if (request > close) {
            in_flight_ns += close - open;
            open = request;
        }
        close = std::max(close, receive);
    }
    in_flight_ns += close - open;
    const double share = observed_ns > 0.0 ? covered_ns / observed_ns : 0.0;
    rep.parentCoveredNs += fleet_start_ns +
        static_cast<std::uint64_t>(share * double(in_flight_ns));
}

void
replayInProcess(const Plan &plan, Replay &rep)
{
    for (std::size_t u = 0; u < plan.units.size(); ++u) {
        const UnitRecord record = runUnit(plan, plan.units[u], rep.traces[u]);
        rep.outcomes[u] = record.outcome;
        rep.parentCoveredNs += rep.traces[u].coveredNs();
    }
}

void
replaySandbox(const Options &opt, const Plan &plan, Replay &rep)
{
    if (opt.journal.empty())
        throw ConfigError("sandbox replay needs --journal");
    CampaignJournal::Identity identity;
    identity.description = "mtcbench replay config=" + opt.configs[0] +
        " seed=" + std::to_string(opt.seed);
    identity.digest =
        fnv1a64(identity.description.data(), identity.description.size());
    CampaignJournal journal(opt.journal, identity, false);

    SandboxConfig sandbox;
    sandbox.workers = opt.workers;
    const SandboxPool::WorkerFn worker_fn =
        [&](const std::vector<std::uint8_t> &request,
            const WorkerEnv &env) {
            ByteReader reader(request);
            const std::size_t u = reader.u32();
            UnitTrace tr;
            tr.worker = env.workerIndex;
            const UnitRecord record = runUnit(plan, plan.units[u], tr);
            return packResponse(record, tr);
        };

    const std::uint64_t fleet0 = nowNs();
    SandboxPool pool(sandbox, worker_fn);
    std::uint64_t first_request = 0;
    std::uint64_t append_ns = 0;
    const SandboxPool::RequestFn request_fn =
        [&](std::size_t u) -> std::optional<std::vector<std::uint8_t>> {
        rep.requestNs[u] = nowNs();
        if (!first_request)
            first_request = rep.requestNs[u];
        ByteWriter w;
        w.u32(static_cast<std::uint32_t>(u));
        return w.bytes();
    };
    const SandboxPool::ResultFn result_fn =
        [&](std::size_t u, const std::vector<std::uint8_t> &payload) {
        rep.receiveNs[u] = nowNs();
        auto [record, tr] = unpackResponse(payload);
        const std::uint64_t t = nowNs();
        journal.append(record);
        append_ns += nowNs() - t;
        rep.outcomes[u] = std::move(record.outcome);
        rep.traces[u] = tr;
    };
    const SandboxPool::LossFn loss_fn = [&](std::size_t u,
                                            const WorkerLoss &loss) {
        std::cerr << "mtcbench_replay: unit " << u
                  << " lost its sandbox worker: " << loss.describe()
                  << "\n";
        rep.unitOk[u] = 0;
        return false;
    };
    pool.run(plan.units.size(), request_fn, result_fn, loss_fn);
    const std::uint64_t run_end = nowNs();
    rep.fleetRunNs = first_request ? run_end - first_request : 0;
    foldFleet("harness.sandbox.", opt.workers,
              first_request ? first_request - fleet0 : 0, rep);
    rep.extra["support.journal_append_ms"] = double(append_ns) / 1e6;
    rep.extra["support.journal_bytes"] =
        double(std::filesystem::file_size(opt.journal));
}

void
replayFabric(const Options &opt, const Plan &plan, Replay &rep)
{
    FabricConfig fabric;
    fabric.batchSize = plan.campaign.distBatch;
    fabric.maxInFlightPerWorker = plan.campaign.distMaxInFlight;
    fabric.heartbeatTimeoutMs = plan.campaign.distHeartbeatTimeoutMs;
    fabric.stallTimeoutMs = 60000;
    if (!opt.keyFile.empty())
        fabric.key = loadFabricKey(opt.keyFile);
    CampaignSpec spec;
    spec.configs = plan.configs;
    spec.campaign = plan.campaign;

    const std::uint64_t fleet0 = nowNs();
    Coordinator coordinator(fabric, encodeCampaignSpec(spec));
    std::vector<pid_t> fleet;
    for (unsigned i = 0; i < opt.workers; ++i) {
        const pid_t pid = ::fork();
        if (pid < 0)
            throw Error("replay: fork failed");
        if (pid > 0) {
            fleet.push_back(pid);
            continue;
        }
        ::close(coordinator.listenerFd());
        ::prctl(PR_SET_PDEATHSIG, SIGKILL);
        closeParentOnlyFds();
        try {
            WorkerClientConfig wc;
            wc.port = coordinator.port();
            wc.name = "replay-" + std::to_string(i);
            wc.heartbeatMs = 500;
            wc.maxReconnects = 3;
            wc.backoffBaseMs = 50;
            wc.backoffCapMs = 400;
            wc.key = fabric.key;
            runWorkerClient(
                wc, [](const std::vector<std::uint8_t> &) {},
                [&](std::uint64_t,
                    const std::vector<std::uint8_t> &request) {
                    const auto [c, t] = decodeUnitRequest(request);
                    std::size_t u = 0;
                    while (u < plan.units.size() &&
                           (plan.units[u].config != c ||
                            plan.units[u].test != t))
                        ++u;
                    if (u == plan.units.size())
                        throw DistError("replay: lease names a unit "
                                        "outside the plan");
                    UnitTrace tr;
                    tr.worker = i;
                    const UnitRecord record =
                        runUnit(plan, plan.units[u], tr);
                    return packResponse(record, tr);
                });
            ::_exit(0);
        } catch (...) {
            ::_exit(70);
        }
    }

    std::uint64_t first_request = 0;
    const Coordinator::RequestFn request_fn =
        [&](std::size_t u) -> std::optional<std::vector<std::uint8_t>> {
        rep.requestNs[u] = nowNs();
        if (!first_request)
            first_request = rep.requestNs[u];
        return encodeUnitRequest(plan.units[u].config, plan.units[u].test);
    };
    const Coordinator::ResultFn result_fn =
        [&](std::size_t u, const std::vector<std::uint8_t> &payload) {
        rep.receiveNs[u] = nowNs();
        auto [record, tr] = unpackResponse(payload);
        rep.outcomes[u] = std::move(record.outcome);
        rep.traces[u] = tr;
    };
    const Coordinator::LossFn loss_fn =
        [&](std::size_t u, unsigned losses, const std::string &why) {
        std::cerr << "mtcbench_replay: unit " << u << " lost a worker ("
                  << why << ")\n";
        if (losses <= 8)
            return true;
        rep.unitOk[u] = 0;
        return false;
    };
    coordinator.run(plan.units.size(), request_fn, result_fn, loss_fn);
    const std::uint64_t run_end = nowNs();
    for (const pid_t pid : fleet)
        waitChild(pid);
    rep.fleetRunNs = first_request ? run_end - first_request : 0;
    foldFleet("dist.", opt.workers,
              first_request ? first_request - fleet0 : 0, rep);
    const FabricStats &stats = coordinator.stats();
    rep.extra["dist.leases"] = stats.leasesGranted;
    rep.extra["dist.heartbeats"] = stats.heartbeats;
    rep.extra["dist.units_reassigned"] = stats.unitsReassigned;
}

/** The generation seed of a unit's final attempt (see trace_check.cc:
 * the plan's own seed, or the retriesUsed-th retry-stream draw). */
std::uint64_t
finalAttemptGenSeed(const TestPlan &plan, unsigned retries_used)
{
    std::uint64_t gen_seed = plan.genSeed;
    Rng retry_seeder(plan.retrySeed);
    for (unsigned i = 0; i < retries_used; ++i) {
        gen_seed = retry_seeder();
        (void)retry_seeder();
    }
    return gen_seed;
}

/**
 * Offline replay of mtc_check: read the trace, then re-check every
 * unit's recorded signature stream under spans and hold the
 * recomputed verdicts and checker stats to the recorded ones.
 */
void
replayOffline(const Options &opt, Plan &plan, Replay &rep)
{
    std::uint64_t t = nowNs();
    const TraceFile trace = readTraceFile(opt.trace);
    const CampaignSpec spec = decodeCampaignSpec(trace.header.spec);
    std::vector<UnitRecord> records;
    for (const TraceRecord &rec : trace.records)
        if (rec.kind == kTraceUnitTag)
            records.push_back(decodeUnitRecord(rec.body));
    const std::uint64_t read_ns = nowNs() - t;
    rep.extra["harness.trace_read_ms"] = double(read_ns) / 1e6;
    rep.extra["harness.trace_bytes"] =
        double(std::filesystem::file_size(opt.trace));
    rep.parentCoveredNs += read_ns;

    plan = Plan{};
    plan.configs = spec.configs;
    plan.campaign = spec.campaign;
    for (const TestConfig &cfg : plan.configs) {
        plan.flows.push_back(flowTemplate(cfg, spec.campaign));
        plan.testPlans.push_back(deriveTestPlans(cfg, spec.campaign));
    }
    rep.outcomes.resize(records.size());
    rep.traces.resize(records.size());
    rep.unitOk.assign(records.size(), 1);
    for (std::size_t i = 0; i < records.size(); ++i) {
        const UnitRecord &rec = records[i];
        std::size_t c = 0;
        while (c < plan.configs.size() &&
               plan.configs[c].name() != rec.configName)
            ++c;
        if (c == plan.configs.size() ||
            rec.testIndex >= plan.testPlans[c].size())
            throw Error("replay: trace unit outside its spec's plan");
        const TestPlan &tp = plan.testPlans[c][rec.testIndex];
        Unit u;
        u.config = c;
        u.test = rec.testIndex;
        u.genSeed = tp.genSeed;
        u.flowSeed = tp.flowSeed;
        plan.units.push_back(u);
        rep.outcomes[i] = rec.outcome;
        if (rec.outcome.status != TestStatus::Ok)
            continue;

        UnitTrace &tr = rep.traces[i];
        tr.startNs = nowNs();
        const FlowResult &recorded = rec.outcome.result;
        FlowResult chk;
        const auto inst = generateAndInstrument(
            plan.configs[c], plan.flows[c],
            finalAttemptGenSeed(tp, rec.outcome.retriesUsed), chk, tr);
        tracedCheck(inst->program, inst->codec, plan.flows[c].exec.model,
                    plan.flows[c], recorded.signatureStream, chk, tr);
        tr.endNs = nowNs();
        rep.parentCoveredNs += tr.coveredNs();

        const CollectiveStats &a = chk.collective;
        const CollectiveStats &b = recorded.collective;
        const bool agrees =
            streamDigest(recorded.signatureStream) ==
                recorded.signatureSetDigest &&
            chk.violatingSignatures ==
                recorded.violatingSignatures +
                    recorded.fault.transientViolations &&
            chk.fault.decodedSignatures ==
                recorded.fault.decodedSignatures &&
            chk.sliceDecodes == recorded.sliceDecodes &&
            a.graphsChecked == b.graphsChecked &&
            a.completeSorts == b.completeSorts &&
            a.noResortNeeded == b.noResortNeeded &&
            a.verticesProcessed == b.verticesProcessed &&
            a.edgesProcessed == b.edgesProcessed;
        if (!agrees) {
            std::cerr << "mtcbench_replay: unit " << rec.testIndex
                      << " of " << rec.configName
                      << " disagrees with its recorded result\n";
            rep.unitOk[i] = 0;
        }
        // The recomputed stats are what the layers produced; the
        // recorded wall-clock fields are the producer's.
        rep.outcomes[i].result.sliceReuses = chk.sliceReuses;
        rep.outcomes[i].result.sliceDecodes = chk.sliceDecodes;
    }
}

/** The report lines the shipped tool prints for this campaign. */
std::vector<std::string>
reportLines(const Options &opt, const Plan &plan, const Replay &rep)
{
    std::vector<std::string> lines;
    if (mirrorsValidate(opt)) {
        std::uint64_t flagged = 0, bad = 0, asserts = 0, crashes = 0,
                      unique = 0;
        for (std::size_t u = 0; u < plan.units.size(); ++u) {
            const FlowResult &r = rep.outcomes[u].result;
            lines.push_back(std::to_string(plan.units[u].test) + " " +
                            std::to_string(r.uniqueSignatures) + " " +
                            std::to_string(r.violatingSignatures) + " " +
                            std::to_string(r.assertionFailures) + " " +
                            (r.platformCrashes ? "yes" : "no"));
            flagged += r.anyViolation() ? 1 : 0;
            bad += r.violatingSignatures;
            asserts += r.assertionFailures;
            crashes += r.platformCrashes ? 1 : 0;
            unique += r.uniqueSignatures;
        }
        lines.push_back(
            "campaign summary: " + std::to_string(flagged) + "/" +
            std::to_string(plan.units.size()) + " tests flagged, " +
            std::to_string(bad) + " invalid signatures, " +
            std::to_string(asserts) + " runtime assertions, " +
            std::to_string(crashes) + " platform crashes, " +
            std::to_string(unique) + " unique interleavings total");
        return lines;
    }
    std::vector<std::vector<TestOutcome>> outcomes(plan.configs.size());
    for (std::size_t c = 0; c < plan.configs.size(); ++c)
        outcomes[c].resize(plan.testPlans[c].size());
    for (std::size_t u = 0; u < plan.units.size(); ++u)
        outcomes[plan.units[u].config][plan.units[u].test] =
            rep.outcomes[u];
    std::vector<ConfigSummary> summaries;
    for (std::size_t c = 0; c < plan.configs.size(); ++c)
        summaries.push_back(summarizeConfig(plan.configs[c], outcomes[c],
                                            plan.campaign.errorBudget));
    std::ostringstream out;
    printCampaignReport(out, std::cerr, "mtcbench_replay", summaries);
    std::istringstream in(out.str());
    for (std::string line; std::getline(in, line);)
        lines.push_back(line);
    return lines;
}

/** Write the campaign trace exactly as runCampaign's dump does. */
void
dumpTrace(const Options &opt, const Plan &plan, Replay &rep)
{
    std::vector<std::vector<TestOutcome>> outcomes(plan.configs.size());
    for (std::size_t c = 0; c < plan.configs.size(); ++c)
        outcomes[c].resize(plan.testPlans[c].size());
    for (std::size_t u = 0; u < plan.units.size(); ++u)
        outcomes[plan.units[u].config][plan.units[u].test] =
            rep.outcomes[u];
    const std::uint64_t t = nowNs();
    writeCampaignTrace(opt.dumpTrace, plan.configs, plan.campaign,
                       plan.testPlans, outcomes);
    const std::uint64_t write_ns = nowNs() - t;
    rep.parentCoveredNs += write_ns;
    rep.extra["harness.trace_write_ms"] = double(write_ns) / 1e6;
    rep.extra["harness.trace_bytes"] =
        double(std::filesystem::file_size(opt.dumpTrace));
}

int
commandRun(const Options &opt)
{
    const std::uint64_t wall0 = nowNs();
    // The offline replay takes its plan from the trace's own spec.
    Plan plan = opt.mode == "offline" ? Plan{} : makePlan(opt);
    Replay rep;
    rep.outcomes.resize(plan.units.size());
    rep.traces.resize(plan.units.size());
    rep.requestNs.assign(plan.units.size(), 0);
    rep.receiveNs.assign(plan.units.size(), 0);
    rep.unitOk.assign(plan.units.size(), 1);

    if (opt.mode == "inprocess")
        replayInProcess(plan, rep);
    else if (opt.mode == "sandbox")
        replaySandbox(opt, plan, rep);
    else if (opt.mode == "fabric")
        replayFabric(opt, plan, rep);
    else if (opt.mode == "offline")
        replayOffline(opt, plan, rep);
    else
        throw ConfigError("unknown mode: " + opt.mode);
    if (!opt.dumpTrace.empty())
        dumpTrace(opt, plan, rep);
    const std::vector<std::string> lines = reportLines(opt, plan, rep);
    const std::uint64_t wall_ns = nowNs() - wall0;

    // Fold the unit spans and counters into the per-layer metrics.
    std::array<double, kLayerCount> layer_ns{};
    double batch_calls = 0, edges_changed = 0, iterations = 0,
           sim_cycles = 0, unique = 0, slices_decoded = 0,
           slices_reused = 0, decoded = 0;
    CollectiveStats collective;
    std::vector<double> unit_ms;
    for (std::size_t u = 0; u < rep.traces.size(); ++u) {
        const UnitTrace &tr = rep.traces[u];
        const FlowResult &r = rep.outcomes[u].result;
        for (std::size_t l = 0; l < kLayerCount; ++l)
            layer_ns[l] += double(tr.layerNs[l]);
        batch_calls += double(tr.batchCalls);
        edges_changed += double(tr.edgesChanged);
        iterations += double(r.iterationsRun);
        sim_cycles += double(r.originalCycles);
        unique += double(r.uniqueSignatures);
        slices_decoded += double(r.sliceDecodes);
        slices_reused += double(r.sliceReuses);
        decoded += double(r.fault.decodedSignatures);
        collective.merge(r.collective);
        if (tr.endNs > tr.startNs)
            unit_ms.push_back(double(tr.endNs - tr.startNs) / 1e6);
    }
    const auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
    const bool executed = layer_ns[kExecute] > 0;

    std::map<std::string, double> m = rep.extra;
    for (std::size_t l = 0; l < kLayerCount; ++l)
        m[kLayerNames[l]] = layer_ns[l] / 1e6;
    m["sim.ns_per_iter"] = ratio(layer_ns[kExecute], iterations);
    m["sim.ns_per_sim_cycle"] = ratio(layer_ns[kExecute], sim_cycles);
    m["sim.sim_cycles"] = executed ? sim_cycles : 0.0;
    m["sim.batch_calls"] = batch_calls;
    m["core.unique_signatures"] = unique;
    m["core.unique_per_iter"] = ratio(unique, iterations);
    m["core.slices_decoded"] = slices_decoded;
    m["core.slice_reuse_rate"] =
        ratio(slices_reused, slices_reused + slices_decoded);
    m["graph.edges_changed_per_sig"] = ratio(edges_changed, decoded);
    m["core.check_work"] =
        double(collective.verticesProcessed + collective.edgesProcessed);
    m["core.complete_sort_frac"] =
        ratio(double(collective.completeSorts), double(collective.graphsChecked));
    m["core.no_resort_frac"] =
        ratio(double(collective.noResortNeeded), double(collective.graphsChecked));
    m["core.affected_frac"] = collective.affectedFraction.mean();

    std::ostringstream os;
    os << "{\"wall_ms\":" << jsonNumber(double(wall_ns) / 1e6)
       << ",\"attributed_ms\":" << jsonNumber(double(rep.parentCoveredNs) / 1e6)
       << ",\"iterations\":" << jsonNumber(iterations)
       << ",\"sim_cycles_total\":" << jsonNumber(sim_cycles)
       << ",\"units\":[";
    for (std::size_t u = 0; u < plan.units.size(); ++u) {
        TestOutcome outcome = rep.outcomes[u];
        if (!rep.unitOk[u])
            outcome.status = TestStatus::Failed;
        os << (u ? "," : "")
           << unitJson(plan.configs[plan.units[u].config].name(),
                       plan.units[u].test, outcome);
    }
    os << "],\"report\":[";
    for (std::size_t i = 0; i < lines.size(); ++i)
        os << (i ? "," : "") << jsonString(lines[i]);
    os << "],\"unit_ms\":[";
    for (std::size_t i = 0; i < unit_ms.size(); ++i)
        os << (i ? "," : "") << jsonNumber(unit_ms[i]);
    os << "],\"layers\":{";
    bool first = true;
    for (const auto &[name, value] : m) {
        os << (first ? "" : ",") << jsonString(name) << ":"
           << jsonNumber(value);
        first = false;
    }
    os << "}}\n";
    std::cout << os.str();
    return 0;
}

/** Per-unit records of a journal or trace file the tools wrote. */
int
commandUnits(const Options &opt)
{
    std::vector<UnitRecord> records;
    if (!opt.journal.empty()) {
        const JournalRecovery recovery = readJournal(opt.journal);
        for (std::size_t i = 1; i < recovery.records.size(); ++i)
            records.push_back(decodeUnitRecord(recovery.records[i]));
    } else if (!opt.trace.empty()) {
        const TraceFile trace = readTraceFile(opt.trace);
        for (const TraceRecord &rec : trace.records)
            if (rec.kind == kTraceUnitTag)
                records.push_back(decodeUnitRecord(rec.body));
    } else {
        throw ConfigError("units needs --journal or --trace");
    }
    std::sort(records.begin(), records.end(),
              [](const UnitRecord &a, const UnitRecord &b) {
                  return std::tie(a.configName, a.testIndex) <
                      std::tie(b.configName, b.testIndex);
              });
    std::cout << "{\"units\":[";
    for (std::size_t i = 0; i < records.size(); ++i)
        std::cout << (i ? "," : "")
                  << unitJson(records[i].configName,
                              records[i].testIndex, records[i].outcome);
    std::cout << "]}\n";
    return 0;
}

int
commandMeasure(int argc, char **argv)
{
    if (argc < 5 || std::string(argv[3]) != "--")
        throw ConfigError(
            "usage: mtcbench_replay measure REPORT -- COMMAND [ARGS...]");
    const std::uint64_t t0 = nowNs();
    const pid_t pid = ::fork();
    if (pid < 0)
        throw Error("measure: fork failed");
    if (pid == 0) {
        ::execvp(argv[4], argv + 4);
        ::_exit(127);
    }
    int status = 0;
    struct rusage usage = {};
    while (::wait4(pid, &status, 0, &usage) < 0) {
        if (errno != EINTR)
            throw Error("measure: wait4 failed");
    }
    const std::uint64_t wall_ns = nowNs() - t0;
    const auto seconds = [](const timeval &tv) {
        return double(tv.tv_sec) + double(tv.tv_usec) / 1e6;
    };
    const int code = WIFEXITED(status) ? WEXITSTATUS(status)
                                       : 128 + WTERMSIG(status);
    std::ofstream report(argv[2], std::ios::trunc);
    report << "{\"wall_s\":" << jsonNumber(double(wall_ns) / 1e9)
           << ",\"cpu_s\":"
           << jsonNumber(seconds(usage.ru_utime) + seconds(usage.ru_stime))
           << ",\"maxrss_kb\":" << usage.ru_maxrss
           << ",\"exit\":" << code << "}\n";
    if (!report)
        throw Error("measure: cannot write report");
    return code;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    try {
        if (argc > 1 && std::string(argv[1]) == "measure")
            return commandMeasure(argc, argv);
        const Options opt = parseArgs(argc, argv);
        if (opt.command == "run")
            return commandRun(opt);
        if (opt.command == "units")
            return commandUnits(opt);
        throw ConfigError("unknown command: " + opt.command);
    } catch (const std::exception &err) {
        std::cerr << "mtcbench_replay: " << err.what() << "\n";
        return 1;
    }
}
