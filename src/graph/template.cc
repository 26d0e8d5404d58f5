#include "graph/template.h"

#include "graph/builder.h"
#include "util/hash.h"
#include "util/logging.h"

namespace vtrain {

uint64_t
structuralFingerprint(const ModelConfig &model,
                      const ParallelConfig &parallel, int n_micro,
                      bool collapse_operators, AttentionImpl attention)
{
    Hash64 h;
    // Domain separation + format version: bump when the builder's
    // topology policy changes in a way the fields below do not capture.
    h.mix(std::string_view("vtrain.graph-template.v1"));

    // Model shape (not the name: renamed same-shape models share).
    h.mix(model.hidden_size)
        .mix(model.num_layers)
        .mix(model.seq_length)
        .mix(model.num_heads)
        .mix(model.vocab_size);

    // Structural plan fields.  The DP degree enters only as d>1 (no
    // DP collectives otherwise) — except under ZeRO, whose 1/d
    // weight-update sharding puts d into the operator descriptors.
    // Bucketing fields are mixed only where they shape the graph:
    // without DP there are no gradient collectives at all, and with
    // bucketing disabled bucket_bytes never partitions anything —
    // sweeping an inert field must not re-key the template.
    const bool data_parallel = parallel.data > 1;
    const bool zero = parallel.zero_stage >= 1 && data_parallel;
    const bool bucketing = data_parallel && parallel.gradient_bucketing;
    h.mix(parallel.tensor)
        .mix(parallel.pipeline)
        .mix(parallel.micro_batch_size)
        .mix(static_cast<int64_t>(parallel.schedule))
        .mix(bucketing)
        .mix(bucketing ? parallel.bucket_bytes : 0.0)
        .mix(parallel.activation_recompute)
        .mix(data_parallel)
        .mix(zero)
        .mix(zero ? int64_t{parallel.data} : int64_t{0});

    h.mix(int64_t{n_micro});

    // Expansion mode: collapse changes the task granularity; the
    // attention implementation changes the kernel decomposition.
    h.mix(collapse_operators).mix(static_cast<int64_t>(attention));
    return h.digest();
}

std::shared_ptr<const GraphTemplate>
GraphTemplate::capture(const OpGraph &ops, OperatorToTaskTable &table,
                       const ExpandOptions &options,
                       std::vector<double> *durations)
{
    std::shared_ptr<GraphTemplate> tmpl(new GraphTemplate());
    TaskGraph tasks = TaskGraph::expand(ops, table, options, &tmpl->prov_,
                                        nullptr, std::move(*durations));
    tmpl->topo_ = tasks.topology();
    *durations = std::move(tasks).releaseDurations();
    tmpl->num_operators_ = ops.numNodes();
    tmpl->collapse_ = options.collapse_operators;

    const auto &topo = *tmpl->topo_;
    const auto &p = tmpl->prov_;
    tmpl->bytes_ =
        sizeof(GraphTemplate) +
        topo.meta.size() * sizeof(TaskGraph::TaskMeta) +
        (topo.child_offsets.size() + topo.child_list.size() +
         p.slot.size() + p.kernels_per_desc.size()) *
            sizeof(int32_t) +
        p.descs.size() * sizeof(OpDesc) +
        p.comm_sites.size() * sizeof(TaskGraph::Provenance::CommSite);
    return tmpl;
}

bool
GraphTemplate::retimeDurations(OperatorToTaskTable &table,
                               const ParallelConfig &parallel,
                               const ClusterSpec &cluster,
                               const CommModel &comm,
                               std::vector<double> *out) const
{
    // The duration arena (task_graph.h Provenance): descriptor kernels
    // first, then communication sites.  One table lookup per interned
    // descriptor, verified against the captured kernel counts: a
    // disagreeing decomposition (fingerprint collision, different
    // profiler) must rebuild, never mis-time.
    const size_t n_descs = prov_.descs.size();
    std::vector<const KernelSequence *> seqs(n_descs);
    size_t n_kernel_slots = 0;
    for (size_t d = 0; d < n_descs; ++d) {
        const KernelSequence &seq = table.lookup(prov_.descs[d]);
        if (!collapse_ &&
            static_cast<int32_t>(seq.kernels.size()) !=
                prov_.kernels_per_desc[d])
            return false;
        seqs[d] = &seq;
        n_kernel_slots += collapse_ ? 1 : seq.kernels.size();
    }
    std::vector<double> arena(n_kernel_slots + prov_.comm_sites.size());
    double *slot = arena.data();
    for (const KernelSequence *seq : seqs) {
        if (collapse_) {
            // Same accumulation order as expansion: bit-identical sum.
            double total = 0.0;
            for (const auto &k : seq->kernels)
                total += k.duration;
            *slot++ = total;
        } else {
            for (const auto &k : seq->kernels)
                *slot++ = k.duration;
        }
    }
    // The latency model runs once per distinct site (every TP
    // All-Reduce shares one payload, DP buckets repeat across stages).
    for (const auto &site : prov_.comm_sites)
        *slot++ = comm.latencySeconds(
            commDescFor(site.kind, site.bytes, parallel, cluster));

    const size_t n = prov_.slot.size();
    const int32_t *const slots = prov_.slot.data();
    out->resize(n);
    double *const durations = out->data();
    for (size_t i = 0; i < n; ++i)
        durations[i] = arena[slots[i]];
    return true;
}

GraphTemplateCache::GraphTemplateCache(Options options) : options_(options)
{
}

std::shared_ptr<const GraphTemplate>
GraphTemplateCache::get(uint64_t fingerprint)
{
    util::MutexLock lock(mutex_);
    auto it = index_.find(fingerprint);
    if (it == index_.end()) {
        ++misses_;
        return nullptr;
    }
    ++hits_;
    lru_.splice(lru_.begin(), lru_, it->second);
    return it->second->second;
}

void
GraphTemplateCache::put(uint64_t fingerprint,
                        std::shared_ptr<const GraphTemplate> tmpl)
{
    VTRAIN_CHECK(tmpl != nullptr, "cannot cache a null template");
    util::MutexLock lock(mutex_);
    auto it = index_.find(fingerprint);
    if (it != index_.end()) {
        bytes_ -= it->second->second->approxBytes();
        bytes_ += tmpl->approxBytes();
        it->second->second = std::move(tmpl);
        lru_.splice(lru_.begin(), lru_, it->second);
        ++updates_;
    } else {
        bytes_ += tmpl->approxBytes();
        lru_.emplace_front(fingerprint, std::move(tmpl));
        index_.emplace(fingerprint, lru_.begin());
        ++insertions_;
    }
    shrinkLocked();
}

void
GraphTemplateCache::shrinkLocked()
{
    // Never evict the just-touched front entry: one oversized template
    // still serving its own re-simulations beats an empty cache.
    while (lru_.size() > 1 &&
           (lru_.size() > options_.max_entries ||
            bytes_ > options_.max_bytes)) {
        const Entry &victim = lru_.back();
        bytes_ -= victim.second->approxBytes();
        index_.erase(victim.first);
        lru_.pop_back();
        ++evictions_;
    }
}

void
GraphTemplateCache::clear()
{
    util::MutexLock lock(mutex_);
    lru_.clear();
    index_.clear();
    bytes_ = 0;
}

TemplateCacheStats
GraphTemplateCache::stats() const
{
    util::MutexLock lock(mutex_);
    TemplateCacheStats stats;
    stats.hits = hits_;
    stats.misses = misses_;
    stats.insertions = insertions_;
    stats.updates = updates_;
    stats.evictions = evictions_;
    stats.entries = lru_.size();
    stats.bytes = bytes_;
    return stats;
}

} // namespace vtrain
