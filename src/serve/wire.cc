#include "serve/wire.h"

#include <cmath>
#include <limits>
#include <tuple>
#include <type_traits>
#include <utility>

#include "sim/engine.h"
#include "util/build_info.h"
#include "util/logging.h"
#include "util/metrics.h"

namespace vtrain {
namespace wire {

namespace {

using json::Value;

/** Largest double magnitude that still represents integers exactly. */
constexpr double kMaxExactInt = 9007199254740992.0; // 2^53

/** Keys the decoders also look up by hand: the version envelope and
 *  SweepRequest's optional fields. */
constexpr std::string_view kVersionKey = "version";
constexpr std::string_view kDeadlineMs = "deadline_ms";
constexpr std::string_view kPlans = "plans";
constexpr std::string_view kSpec = "spec";

// ------------------------------------------------------------- schemas
//
// Each wire type is written once, as a field list: the key each member
// travels under, in encoding order.  One generic encoder and one
// generic decoder walk these lists, and strictness (rejecting keys
// outside the list, at every nesting level) is a decoder parameter,
// so adding a field is a one-line change that every codec sees.

template <typename T, typename M>
struct Field {
    std::string_view key;
    M T::*member;
    /**
     * Set only on optional fields: whether the encoder writes this
     * one.  Optional fields are decoded by their type's own decode(),
     * because their presence carries meaning a list cannot express.
     */
    bool (*present)(const T &) = nullptr;
};

template <typename T, typename M>
constexpr Field<T, M>
field(std::string_view key, M T::*member,
      std::type_identity_t<bool (*)(const T &)> present = nullptr)
{
    return {key, member, present};
}

/**
 * Schema<T>::what names the type in strict errors ("unknown field 'x'
 * in <what>"); types that declare ::versioned carry the {"version": 1}
 * envelope wherever they appear, nested or not.
 */
template <typename T>
struct Schema;

template <>
struct Schema<GpuSpec> {
    static constexpr std::string_view what = "gpu";
    static constexpr auto fields = std::make_tuple(
        field("name", &GpuSpec::name),
        field("peak_fp16_flops", &GpuSpec::peak_fp16_flops),
        field("peak_fp32_flops", &GpuSpec::peak_fp32_flops),
        field("hbm_bandwidth", &GpuSpec::hbm_bandwidth),
        field("memory_bytes", &GpuSpec::memory_bytes),
        field("kernel_launch_overhead", &GpuSpec::kernel_launch_overhead));
};

template <>
struct Schema<NodeSpec> {
    static constexpr std::string_view what = "node";
    static constexpr auto fields = std::make_tuple(
        field("gpu", &NodeSpec::gpu),
        field("gpus_per_node", &NodeSpec::gpus_per_node),
        field("nvlink_bandwidth", &NodeSpec::nvlink_bandwidth),
        field("nic_bandwidth", &NodeSpec::nic_bandwidth),
        field("nic_latency", &NodeSpec::nic_latency),
        field("nvlink_latency", &NodeSpec::nvlink_latency));
};

template <>
struct Schema<ClusterSpec> {
    static constexpr std::string_view what = "cluster";
    static constexpr auto fields = std::make_tuple(
        field("node", &ClusterSpec::node),
        field("num_nodes", &ClusterSpec::num_nodes),
        field("bandwidth_effectiveness",
              &ClusterSpec::bandwidth_effectiveness),
        field("hierarchical_allreduce",
              &ClusterSpec::hierarchical_allreduce));
};

template <>
struct Schema<ModelConfig> {
    static constexpr std::string_view what = "model";
    static constexpr auto fields = std::make_tuple(
        field("name", &ModelConfig::name),
        field("hidden_size", &ModelConfig::hidden_size),
        field("num_layers", &ModelConfig::num_layers),
        field("seq_length", &ModelConfig::seq_length),
        field("num_heads", &ModelConfig::num_heads),
        field("vocab_size", &ModelConfig::vocab_size));
};

template <>
struct Schema<ParallelConfig> {
    static constexpr std::string_view what = "plan";
    static constexpr auto fields = std::make_tuple(
        field("tensor", &ParallelConfig::tensor),
        field("data", &ParallelConfig::data),
        field("pipeline", &ParallelConfig::pipeline),
        field("micro_batch_size", &ParallelConfig::micro_batch_size),
        field("global_batch_size", &ParallelConfig::global_batch_size),
        field("schedule", &ParallelConfig::schedule),
        field("gradient_bucketing", &ParallelConfig::gradient_bucketing),
        field("bucket_bytes", &ParallelConfig::bucket_bytes),
        field("activation_recompute",
              &ParallelConfig::activation_recompute),
        field("zero_stage", &ParallelConfig::zero_stage),
        field("precision", &ParallelConfig::precision));
};

template <>
struct Schema<SimOptions> {
    static constexpr std::string_view what = "options";
    // The perturber is process-local and never crosses the wire.
    static constexpr auto fields = std::make_tuple(
        field("fast_mode", &SimOptions::fast_mode),
        field("memoize_profiles", &SimOptions::memoize_profiles),
        field("collapse_operators", &SimOptions::collapse_operators),
        field("attention", &SimOptions::attention));
};

template <>
struct Schema<SimRequest> {
    static constexpr std::string_view what = "request document";
    static constexpr bool versioned = true;
    static constexpr auto fields = std::make_tuple(
        field("model", &SimRequest::model),
        field("parallel", &SimRequest::parallel),
        field("cluster", &SimRequest::cluster),
        field("options", &SimRequest::options));
};

template <>
struct Schema<SimulationResult> {
    static constexpr std::string_view what = "result";
    static constexpr bool versioned = true;
    static constexpr auto fields = std::make_tuple(
        field("iteration_seconds", &SimulationResult::iteration_seconds),
        field("utilization", &SimulationResult::utilization),
        field("model_flops", &SimulationResult::model_flops),
        field("bubble_fraction", &SimulationResult::bubble_fraction),
        field("time_by_tag", &SimulationResult::time_by_tag),
        field("num_operators", &SimulationResult::num_operators),
        field("num_tasks", &SimulationResult::num_tasks),
        field("distinct_operators_profiled",
              &SimulationResult::distinct_operators_profiled),
        field("profiler_calls", &SimulationResult::profiler_calls),
        field("extrapolated", &SimulationResult::extrapolated),
        field("simulated_micro_batches",
              &SimulationResult::simulated_micro_batches),
        field("total_micro_batches",
              &SimulationResult::total_micro_batches),
        field("sim_wall_seconds", &SimulationResult::sim_wall_seconds));
};

template <>
struct Schema<SweepSpec> {
    static constexpr std::string_view what = "spec";
    static constexpr auto fields = std::make_tuple(
        field("max_tensor", &SweepSpec::max_tensor),
        field("max_data", &SweepSpec::max_data),
        field("max_pipeline", &SweepSpec::max_pipeline),
        field("micro_batch_sizes", &SweepSpec::micro_batch_sizes),
        field("min_gpus", &SweepSpec::min_gpus),
        field("max_gpus", &SweepSpec::max_gpus),
        field("exact_gpus", &SweepSpec::exact_gpus),
        field("require_memory_fit", &SweepSpec::require_memory_fit),
        field("global_batch_size", &SweepSpec::global_batch_size),
        field("schedule", &SweepSpec::schedule),
        field("gradient_bucketing", &SweepSpec::gradient_bucketing),
        field("activation_recompute", &SweepSpec::activation_recompute),
        field("precision", &SweepSpec::precision));
};

template <>
struct Schema<ExploreResult> {
    static constexpr std::string_view what = "explore result";
    // The embedded result keeps its own versioned payload, as
    // evaluate_batch does.
    static constexpr auto fields =
        std::make_tuple(field("plan", &ExploreResult::plan),
                        field("result", &ExploreResult::sim));
};

template <>
struct Schema<v1::SweepRequest> {
    using T = v1::SweepRequest;
    static constexpr std::string_view what = "sweep request";
    static constexpr bool versioned = true;
    static constexpr auto fields = std::make_tuple(
        field("model", &T::model), field("cluster", &T::cluster),
        field("options", &T::options),
        field(kPlans, &T::plans,
              [](const T &request) { return !request.use_spec; }),
        field(kSpec, &T::spec,
              [](const T &request) { return request.use_spec; }),
        field(kDeadlineMs, &T::deadline_ms,
              [](const T &request) { return request.deadline_ms >= 0; }));
};

/** The {"version":1,"results":[…]} response of evaluate_batch and
 *  sweep (only the latter is ever decoded, hence `what`). */
template <typename R>
struct ResultList {
    std::vector<R> results;
};

template <typename R>
struct Schema<ResultList<R>> {
    static constexpr std::string_view what = "sweep response";
    static constexpr bool versioned = true;
    static constexpr auto fields =
        std::make_tuple(field("results", &ResultList<R>::results));
};

/** Enums travel as their toString() names; `last` bounds the scan. */
template <typename E>
struct EnumWire;

template <>
struct EnumWire<Precision> {
    static constexpr Precision last = Precision::FP32;
    static constexpr std::string_view noun = "precision";
};

template <>
struct EnumWire<PipelineSchedule> {
    static constexpr PipelineSchedule last = PipelineSchedule::OneFOneB;
    static constexpr std::string_view noun = "pipeline schedule";
};

template <>
struct EnumWire<AttentionImpl> {
    static constexpr AttentionImpl last = AttentionImpl::FlashAttention2;
    static constexpr std::string_view noun = "attention impl";
};

template <typename T>
concept WireStruct = requires { Schema<T>::fields; };

template <typename T>
constexpr bool kVersioned = requires { Schema<T>::versioned; };

template <typename M>
constexpr bool kIsVector = false;
template <typename E>
constexpr bool kIsVector<std::vector<E>> = true;

/** Calls fn on each field of T in order, stopping at the first false. */
template <typename T, typename Fn>
bool
eachField(Fn &&fn)
{
    return std::apply([&](const auto &...f) { return (fn(f) && ...); },
                      Schema<T>::fields);
}

// ------------------------------------------------------------ encoding

template <typename T>
Value encodeObject(const T &object);

template <typename M>
Value
encodeValue(const M &value)
{
    if constexpr (std::is_same_v<M, bool> || std::is_same_v<M, double> ||
                  std::is_same_v<M, std::string>) {
        return Value(value);
    } else if constexpr (std::is_integral_v<M>) {
        return Value(static_cast<int64_t>(value));
    } else if constexpr (std::is_enum_v<M>) {
        return Value(toString(value));
    } else if constexpr (WireStruct<M>) {
        return encodeObject(value);
    } else { // std::vector or std::array
        Value items = Value::array();
        for (const auto &item : value)
            items.push(encodeValue(item));
        return items;
    }
}

template <typename T>
Value
encodeObject(const T &object)
{
    Value v = Value::object();
    if constexpr (kVersioned<T>)
        v.set(std::string(kVersionKey), kVersion);
    eachField<T>([&](const auto &f) {
        if (!f.present || f.present(object))
            v.set(std::string(f.key), encodeValue(object.*f.member));
        return true;
    });
    return v;
}

// ------------------------------------------------------------ decoding

bool
decodeError(std::string *error, const std::string &what)
{
    if (error)
        *error = what;
    return false;
}

bool
mistyped(std::string_view key, std::string *error)
{
    return decodeError(error, "missing or mistyped field '" +
                                  std::string(key) + "'");
}

template <typename T>
bool decodeObject(const Value &v, T *out, bool strict,
                  std::string *error);

/**
 * Decodes one value of the field `key` (which names it in errors).
 * Integers are checked: a fraction, or a value the target type cannot
 * hold, is an error rather than a silent narrowing — the decoder is
 * the cross-process input boundary.
 */
template <typename M>
bool
decodeValue(const Value &v, std::string_view key, M *out, bool strict,
            std::string *error)
{
    if constexpr (std::is_same_v<M, bool>) {
        if (!v.isBool())
            return mistyped(key, error);
        *out = v.asBool();
    } else if constexpr (std::is_same_v<M, double>) {
        if (!v.isNumber())
            return mistyped(key, error);
        *out = v.asNumber();
    } else if constexpr (std::is_same_v<M, std::string>) {
        if (!v.isString())
            return mistyped(key, error);
        *out = v.asString();
    } else if constexpr (std::is_integral_v<M>) {
        if (!v.isNumber())
            return mistyped(key, error);
        const double d = v.asNumber();
        if (std::nearbyint(d) != d)
            return decodeError(error, "field '" + std::string(key) +
                                          "' is not an integer");
        // Within +/-2^53 every integer is exact, so the limit
        // comparisons are themselves safe.
        if (d < -kMaxExactInt || d > kMaxExactInt ||
            d < static_cast<double>(std::numeric_limits<M>::min()) ||
            d > static_cast<double>(std::numeric_limits<M>::max()))
            return decodeError(error, "field '" + std::string(key) +
                                          "' is out of range");
        *out = static_cast<M>(d);
    } else if constexpr (std::is_enum_v<M>) {
        if (!v.isString())
            return mistyped(key, error);
        for (int i = 0; i <= static_cast<int>(EnumWire<M>::last); ++i) {
            if (toString(static_cast<M>(i)) == v.asString()) {
                *out = static_cast<M>(i);
                return true;
            }
        }
        return decodeError(error, "unknown " +
                                      std::string(EnumWire<M>::noun) +
                                      " '" + v.asString() + "'");
    } else if constexpr (WireStruct<M>) {
        if (!v.isObject())
            return mistyped(key, error);
        return decodeObject(v, out, strict, error);
    } else { // std::vector or std::array
        if (!v.isArray())
            return mistyped(key, error);
        const std::vector<Value> &items = v.items();
        if constexpr (kIsVector<M>) {
            out->resize(items.size());
        } else if (items.size() != out->size()) {
            return decodeError(error, std::string(key) + " must have " +
                                          std::to_string(out->size()) +
                                          " entries");
        }
        for (size_t i = 0; i < items.size(); ++i) {
            if (!decodeValue(items[i], key, &(*out)[i], strict, error)) {
                // "bad plan at index 3: …": the array's key, singular.
                std::string item(key);
                if (item.back() == 's')
                    item.pop_back();
                return decodeError(error, "bad " + item + " at index " +
                                              std::to_string(i) + ": " +
                                              (error ? *error : ""));
            }
        }
    }
    return true;
}

/** Decodes the required member `key` of `object`. */
template <typename M>
bool
readField(const Value &object, std::string_view key, M *out, bool strict,
          std::string *error)
{
    const Value *v = object.find(key);
    return v ? decodeValue(*v, key, out, strict, error)
             : mistyped(key, error);
}

bool
checkVersion(const Value &root, std::string *error)
{
    int64_t version = 0;
    if (!readField(root, kVersionKey, &version, false, error))
        return false;
    if (version != kVersion)
        return decodeError(error, "unsupported wire version " +
                                      std::to_string(version));
    return true;
}

/**
 * Fills *out from the object `v`.  Strict decoding first rejects any
 * key outside T's field list (the sweep codecs: a typo'd bound must
 * fail the request, not silently fall back to a default); lax decoding
 * ignores them (the evaluate codecs, for older clients).
 */
template <typename T>
bool
decodeObject(const Value &v, T *out, bool strict, std::string *error)
{
    if (strict) {
        for (const auto &member : v.members()) {
            const std::string &key = member.first;
            const bool known =
                (kVersioned<T> && key == kVersionKey) ||
                !eachField<T>([&](const auto &f) { return f.key != key; });
            if (!known)
                return decodeError(error, "unknown field '" + key +
                                              "' in " +
                                              std::string(Schema<T>::what));
        }
    }
    if (kVersioned<T> && !checkVersion(v, error))
        return false;
    return eachField<T>([&](const auto &f) {
        return f.present ||
               readField(v, f.key, &(out->*f.member), strict, error);
    });
}

/** A whole document: *out changes only when the decode succeeds. */
template <typename T>
bool
decodeDocument(const Value &root, T *out, bool strict,
               std::string *error)
{
    if (!root.isObject())
        return decodeError(error, std::string(Schema<T>::what) +
                                      " is not an object");
    T decoded;
    if (!decodeObject(root, &decoded, strict, error))
        return false;
    *out = std::move(decoded);
    return true;
}

template <typename T>
bool
decodeText(std::string_view text, T *out, std::string *error)
{
    Value root;
    return Value::parse(text, &root, error) &&
           v1::decode(root, out, error);
}

/** The optional "deadline_ms" budget of every /v1 request (-1 when
 *  absent; a present value must be a non-negative integer). */
bool
readDeadline(const Value &root, int64_t *deadline_ms, std::string *error)
{
    *deadline_ms = -1;
    if (!root.find(kDeadlineMs))
        return true;
    if (!readField(root, kDeadlineMs, deadline_ms, false, error))
        return false;
    if (*deadline_ms < 0)
        return decodeError(error, "'deadline_ms' must be a "
                                  "non-negative integer");
    return true;
}

void
requireSerializable(const SimOptions &options)
{
    VTRAIN_REQUIRE(options.perturber == nullptr,
                   "requests carrying a perturber are process-local "
                   "and cannot be serialized");
}

/** A finished capture's spans as a JSON object (inline trace flag). */
Value
traceToJson(const util::Trace &trace)
{
    Value spans = Value::array();
    for (const util::TraceEvent &event : trace.events) {
        Value span = Value::object();
        span.set("name", event.name);
        span.set("start_us", event.start_us);
        span.set("dur_us", event.dur_us);
        span.set("depth", static_cast<int64_t>(event.depth));
        spans.push(std::move(span));
    }
    Value v = Value::object();
    v.set("label", trace.label);
    v.set("total_us", trace.total_us);
    if (trace.dropped_spans > 0)
        v.set("dropped_spans",
              static_cast<int64_t>(trace.dropped_spans));
    v.set("spans", std::move(spans));
    return v;
}

/** Serializes CacheStats and TemplateCacheStats (same shape). */
template <typename Stats>
Value
cacheStatsToJson(const Stats &cache)
{
    Value v = Value::object();
    v.set("hits", static_cast<int64_t>(cache.hits));
    v.set("misses", static_cast<int64_t>(cache.misses));
    v.set("insertions", static_cast<int64_t>(cache.insertions));
    v.set("updates", static_cast<int64_t>(cache.updates));
    v.set("evictions", static_cast<int64_t>(cache.evictions));
    v.set("entries", static_cast<int64_t>(cache.entries));
    v.set("bytes", static_cast<int64_t>(cache.bytes));
    v.set("hit_rate", cache.hitRate());
    return v;
}

/** Sets a 400 "bad request payload" envelope; always returns false. */
bool
badPayload(net::HttpResponse *error_response, const std::string &error)
{
    *error_response = net::errorResponse(400, "bad request payload: " +
                                                  error);
    return false;
}

} // namespace

namespace v1 {

Value
encode(const SimRequest &request)
{
    requireSerializable(request.options);
    return encodeObject(request);
}

Value
encode(const SimulationResult &result)
{
    return encodeObject(result);
}

bool
decode(const json::Value &root, SimRequest *out, std::string *error)
{
    return decodeDocument(root, out, /*strict=*/false, error);
}

bool
decode(const json::Value &root, SimulationResult *out,
       std::string *error)
{
    return decodeDocument(root, out, /*strict=*/false, error);
}

bool
decode(std::string_view text, SimRequest *out, std::string *error)
{
    return decodeText(text, out, error);
}

bool
decode(std::string_view text, SimulationResult *out, std::string *error)
{
    return decodeText(text, out, error);
}

Value
encode(const SweepSpec &spec)
{
    return encodeObject(spec);
}

bool
decode(const json::Value &root, SweepSpec *out, std::string *error)
{
    return decodeDocument(root, out, /*strict=*/true, error);
}

Value
encode(const ExploreResult &result)
{
    return encodeObject(result);
}

bool
decode(const json::Value &root, ExploreResult *out, std::string *error)
{
    return decodeDocument(root, out, /*strict=*/true, error);
}

Value
encode(const SweepRequest &request)
{
    requireSerializable(request.options);
    return encodeObject(request);
}

bool
decode(const json::Value &root, SweepRequest *out, std::string *error)
{
    SweepRequest request;
    if (!decodeDocument(root, &request, /*strict=*/true, error))
        return false;
    // The optional fields: exactly one point source, then the budget.
    const Value *plans = root.find(kPlans);
    const Value *spec = root.find(kSpec);
    if ((plans != nullptr) == (spec != nullptr))
        return decodeError(error, "sweep request must carry exactly "
                                  "one of 'plans' and 'spec'");
    request.use_spec = spec != nullptr;
    if (!(spec ? decodeValue(*spec, kSpec, &request.spec, true, error)
               : decodeValue(*plans, kPlans, &request.plans, true,
                             error)) ||
        !readDeadline(root, &request.deadline_ms, error))
        return false;
    *out = std::move(request);
    return true;
}

std::string
encodeSweepResponse(const std::vector<ExploreResult> &results)
{
    return encodeObject(ResultList<ExploreResult>{results}).dump();
}

bool
decodeSweepResponse(std::string_view body,
                    std::vector<ExploreResult> *out, std::string *error)
{
    Value root;
    ResultList<ExploreResult> response;
    if (!Value::parse(body, &root, error) ||
        !decodeDocument(root, &response, /*strict=*/true, error))
        return false;
    *out = std::move(response.results);
    return true;
}

// ------------------------------------------------------------ handlers

net::HttpResponse
errorResponse(int status, std::string_view message)
{
    // Delegates to the HTTP layer's builder so handler-produced errors
    // are byte-compatible with the ones the server itself emits for
    // parse failures: one shape, wherever the error is detected.
    return net::errorResponse(status, message);
}

bool
parseEnvelope(std::string_view body, json::Value *root,
              net::HttpResponse *error_response)
{
    std::string error;
    if (!Value::parse(body, root, &error))
        return badPayload(error_response, error);
    if (!root->isObject())
        return badPayload(error_response, "document is not an object");
    if (!checkVersion(*root, &error))
        return badPayload(error_response, error);
    return true;
}

bool
decodeEvaluateRequest(std::string_view body, SimRequest *out,
                      bool *want_trace, int64_t *deadline_ms,
                      net::HttpResponse *error_response)
{
    json::Value root;
    if (!parseEnvelope(body, &root, error_response))
        return false;
    // Optional wire flag, ignored by the request decoder: return this
    // request's phase breakdown inline in the response.
    const Value *trace_flag = root.find("trace");
    *want_trace =
        trace_flag && trace_flag->isBool() && trace_flag->asBool();
    std::string error;
    if (!readDeadline(root, deadline_ms, &error) ||
        !decode(root, out, &error))
        return badPayload(error_response, error);
    return true;
}

std::string
encodeEvaluateResponse(const SimulationResult &result,
                       const util::Trace *trace)
{
    Value body = encode(result);
    if (trace)
        body.set("trace", traceToJson(*trace));
    return body.dump();
}

bool
decodeEvaluateBatchRequest(std::string_view body,
                           std::vector<SimRequest> *out,
                           int64_t *deadline_ms,
                           net::HttpResponse *error_response)
{
    json::Value root;
    if (!parseEnvelope(body, &root, error_response))
        return false;
    std::string error;
    if (!readDeadline(root, deadline_ms, &error))
        return badPayload(error_response, error);
    const Value *requests = root.find("requests");
    if (!requests || !requests->isArray())
        return badPayload(error_response, "'requests' must be an array");
    std::vector<SimRequest> batch(requests->items().size());
    for (size_t i = 0; i < batch.size(); ++i) {
        if (!decode(requests->items()[i], &batch[i], &error)) {
            *error_response = errorResponse(
                400, "bad request payload at index " +
                         std::to_string(i) + ": " + error);
            return false;
        }
    }
    *out = std::move(batch);
    return true;
}

std::string
encodeEvaluateBatchResponse(const std::vector<SimulationResult> &results)
{
    return encodeObject(ResultList<SimulationResult>{results}).dump();
}

bool
decodeSweepRequest(std::string_view body, SweepRequest *out,
                   net::HttpResponse *error_response)
{
    json::Value root;
    std::string error;
    if (!parseEnvelope(body, &root, error_response))
        return false;
    if (!decode(root, out, &error))
        return badPayload(error_response, error);
    return true;
}

} // namespace v1

// ------------------------------------------------------------ admin

std::string
statzBody(const StatzInfo &info)
{
    Value service = Value::object();
    service.set("requests",
                static_cast<int64_t>(info.service.requests));
    service.set("computed",
                static_cast<int64_t>(info.service.computed));
    service.set("inflight_joins",
                static_cast<int64_t>(info.service.inflight_joins));
    service.set("batch_dedups",
                static_cast<int64_t>(info.service.batch_dedups));
    service.set("cache", cacheStatsToJson(info.service.cache));
    service.set("template_cache",
                cacheStatsToJson(info.service.graph_templates));

    Value engine = Value::object();
    engine.set("replay_runs",
               static_cast<int64_t>(info.service.engine.replay_runs));
    engine.set("queue_runs",
               static_cast<int64_t>(info.service.engine.queue_runs));
    engine.set(
        "batched_points",
        static_cast<int64_t>(info.service.engine.batched_points));
    engine.set("core_merges",
               static_cast<int64_t>(info.service.engine.core_merges));
    engine.set("kernel", replayKernelName(activeReplayKernel()));
    service.set("engine", std::move(engine));

    // Worker-pool block: pinning state and the live migration count
    // (how often workers hopped CPUs; stays 0 when pinning holds).
    Value pool = Value::object();
    pool.set("threads",
             static_cast<int64_t>(info.service.pool.threads));
    pool.set("pinned", info.service.pool.pinned);
    Value pool_cpus = Value::array();
    for (int cpu : info.service.pool.cpus)
        pool_cpus.push(Value(static_cast<int64_t>(cpu)));
    pool.set("cpus", std::move(pool_cpus));
    pool.set("migrations",
             static_cast<int64_t>(info.service.pool.migrations));
    service.set("pool", std::move(pool));

    Value http = Value::object();
    http.set("connections_accepted",
             static_cast<int64_t>(info.http.connections_accepted));
    http.set("connections_open",
             static_cast<int64_t>(info.http.connections_open));
    http.set("requests", static_cast<int64_t>(info.http.requests));
    http.set("responses", static_cast<int64_t>(info.http.responses));
    http.set("parse_errors",
             static_cast<int64_t>(info.http.parse_errors));

    // Percentile blocks for every histogram series with data, keyed
    // "name{label=value,...}": the flat counters above say how much,
    // these say how slow.
    Value latency = Value::object();
    for (const util::MetricRegistry::HistogramSeries &series :
         util::MetricRegistry::global().histogramSeries()) {
        if (series.snapshot.count == 0)
            continue;
        std::string key = series.name;
        if (!series.labels.empty()) {
            key += '{';
            for (size_t i = 0; i < series.labels.size(); ++i) {
                if (i)
                    key += ',';
                key += series.labels[i].first;
                key += '=';
                key += series.labels[i].second;
            }
            key += '}';
        }
        Value block = Value::object();
        block.set("count",
                  static_cast<int64_t>(series.snapshot.count));
        block.set("mean", series.snapshot.mean());
        block.set("p50", series.snapshot.percentile(50.0));
        block.set("p90", series.snapshot.percentile(90.0));
        block.set("p99", series.snapshot.percentile(99.0));
        block.set("max", series.snapshot.max);
        latency.set(std::move(key), std::move(block));
    }

    // The stable "sweep" block: shard-side serving counters always,
    // the coordinator's fleet view when this node runs one.
    Value sweep = Value::object();
    Value sweep_server = Value::object();
    sweep_server.set("requests",
                     static_cast<int64_t>(info.sweep_server.requests));
    sweep_server.set("plans",
                     static_cast<int64_t>(info.sweep_server.plans));
    sweep.set("server", std::move(sweep_server));
    if (info.coordinator) {
        const SweepCoordinatorStats &coord = *info.coordinator;
        Value c = Value::object();
        c.set("sweeps", static_cast<int64_t>(coord.sweeps));
        c.set("plans", static_cast<int64_t>(coord.plans));
        c.set("groups", static_cast<int64_t>(coord.groups));
        c.set("retries", static_cast<int64_t>(coord.retries));
        c.set("failovers", static_cast<int64_t>(coord.failovers));
        Value shards = Value::array();
        for (const SweepShardStats &shard : coord.shards) {
            Value s = Value::object();
            s.set("shard", shard.shard);
            s.set("requests", static_cast<int64_t>(shard.requests));
            s.set("plans", static_cast<int64_t>(shard.plans));
            s.set("retries", static_cast<int64_t>(shard.retries));
            s.set("failures", static_cast<int64_t>(shard.failures));
            s.set("failovers", static_cast<int64_t>(shard.failovers));
            shards.push(std::move(s));
        }
        c.set("shards", std::move(shards));
        sweep.set("coordinator", std::move(c));
    }

    Value body = Value::object();
    body.set("service", std::move(service));
    body.set("http", std::move(http));
    body.set("latency", std::move(latency));
    body.set("threads", static_cast<int64_t>(info.threads));
    body.set("sweep", std::move(sweep));

    // The admission view: one object per tenant, keyed by name, so a
    // scrape can verify admitted + shed.* accounts for every /v1
    // request (expired is a sub-outcome of admitted, not a third
    // partition).
    if (info.tenants) {
        Value tenants = Value::object();
        for (const AdmissionController::TenantStats &t :
             *info.tenants) {
            Value row = Value::object();
            row.set("admitted", static_cast<int64_t>(t.admitted));
            Value shed = Value::object();
            shed.set("rate", static_cast<int64_t>(t.shed_rate));
            shed.set("inflight",
                     static_cast<int64_t>(t.shed_inflight));
            shed.set("queue", static_cast<int64_t>(t.shed_queue));
            shed.set("auth", static_cast<int64_t>(t.shed_auth));
            row.set("shed", std::move(shed));
            row.set("expired", static_cast<int64_t>(t.expired));
            row.set("inflight", static_cast<int64_t>(t.inflight));
            tenants.set(t.tenant, std::move(row));
        }
        body.set("tenants", std::move(tenants));
    }
    return body.dump();
}

std::string
healthzBody(size_t threads, bool draining)
{
    const util::BuildInfo &build = util::buildInfo();
    Value body = Value::object();
    body.set("status", draining ? "draining" : "ok");
    body.set("threads", static_cast<int64_t>(threads));
    body.set("uptime_s", util::processUptimeSeconds());
    body.set("version", build.version);
    body.set("git_describe", build.git_describe);
    body.set("build_type", build.build_type);
    return body.dump();
}

net::HttpResponse
healthzResponse(size_t threads, bool draining)
{
    net::HttpResponse response;
    response.body = healthzBody(threads, draining);
    if (draining) {
        response.status = 503;
        response.headers.push_back({"Retry-After", "1"});
    }
    return response;
}

} // namespace wire
} // namespace vtrain
