/**
 * @file
 * Operator-granularity graph construction (paper Sec. III-B, Fig. 8).
 *
 * Given a model, a (t, d, p, m) plan and a cluster, the builder emits
 * the per-stage operator sequences and inserts the communication
 * operators each parallelism dimension requires:
 *
 *  - tensor parallelism: an intra-node All-Reduce after every MHA and
 *    FFN block, in both the forward and backward pass (Fig. 6); with
 *    activation recomputation the re-executed forward inserts its
 *    All-Reduces again;
 *  - pipeline parallelism: a P2P Send-Receive at every stage boundary,
 *    with intra-GPU ordering chains that realize the GPipe or 1F1B
 *    schedule (Fig. 7) and strict cross-stage micro-batch ordering;
 *  - data parallelism: gradient All-Reduce, either one per gradient
 *    bucket overlapped with the remaining backward pass (Fig. 5(a),
 *    PyTorch-DDP-style bucketing) or a single one at the end
 *    (Fig. 5(b)); the weight-update operator waits for all of them.
 */
#ifndef VTRAIN_GRAPH_BUILDER_H
#define VTRAIN_GRAPH_BUILDER_H

#include "comm/comm_model.h"
#include "graph/op_graph.h"
#include "hw/cluster_spec.h"
#include "model/model_config.h"
#include "parallel/parallel_config.h"

namespace vtrain {

/** Options controlling graph construction. */
struct BuildOptions {
    /**
     * Override the number of micro-batches (0 keeps the plan's
     * count).  The simulator's fast mode builds capped graphs and
     * extrapolates the affine tail; see Simulator.
     */
    int n_micro_override = 0;
};

/**
 * The builder's communication-descriptor policy: everything the
 * latency model needs beyond (kind, payload) is a pure function of
 * the plan and the cluster.  Shared with
 * GraphTemplate::retimeDurations(), which re-derives latencies from
 * recorded (kind, bytes) pairs under a possibly different cluster or
 * DP degree — routing both the build and the retime through this one
 * function keeps them bit-identical.
 */
CommOpDesc commDescFor(CommKind kind, double bytes,
                       const ParallelConfig &parallel,
                       const ClusterSpec &cluster);

/** Builds operator-granularity graphs for training iterations. */
class GraphBuilder
{
  public:
    GraphBuilder(const ModelConfig &model, const ParallelConfig &parallel,
                 const ClusterSpec &cluster, const CommModel &comm);

    /** Constructs the graph for one training iteration (finalized). */
    OpGraph build(const BuildOptions &options = {}) const;

  private:
    /** Per-(stage, micro-batch) block of ops with its boundary ids. */
    struct Block {
        OpGraph::NodeId first = -1;
        OpGraph::NodeId last = -1;
        /** For backward blocks: per-layer MHA-backward node (the op
         *  whose completion finishes that layer's gradients). */
        std::vector<std::pair<int, OpGraph::NodeId>> grad_ready;
    };

    /** Per-build() constants hoisted out of the block loops: interned
     *  operator-descriptor ids and the (shape-invariant) tensor-
     *  parallel All-Reduce descriptor and latency. */
    struct BuildCtx {
        int32_t embed_fwd = -1;
        int32_t mha_fwd = -1;
        int32_t ffn_fwd = -1;
        int32_t lm_fwd = -1;
        int32_t lm_bwd = -1;
        int32_t ffn_bwd = -1;
        int32_t mha_bwd = -1;
        int32_t embed_bwd = -1;
        CommOpDesc tp_desc;
        double tp_latency = 0.0;
    };

    BuildCtx makeCtx(OpGraph &g) const;

    Block buildForwardBlock(OpGraph &g, const BuildCtx &ctx, int stage,
                            int mb) const;
    Block buildBackwardBlock(OpGraph &g, const BuildCtx &ctx, int stage,
                             int mb) const;

    /** Appends node to the block chain (edge from previous last). */
    static void chain(OpGraph &g, Block &block, OpGraph::NodeId node);

    /** Adds a tensor-parallel All-Reduce node into the chain. */
    void addTpAllReduce(OpGraph &g, const BuildCtx &ctx, Block &block,
                        int stage, int mb) const;

    /** The (is_forward, micro_batch) sequence of one stage. */
    std::vector<std::pair<bool, int>> stageSchedule(int stage,
                                                    int n_micro) const;

    /** Gradient-reduction + weight-update ops for one stage. */
    void addGradReduceAndUpdate(OpGraph &g, int stage,
                                const Block &final_bwd) const;

    /** First layer index owned by a stage. */
    int stageFirstLayer(int stage) const;
    int layersPerStage() const;

    /** Parameters updated per GPU on a stage (embedding included). */
    double stageParamsPerGpu(int stage) const;

    double activationBytes() const;

    const ModelConfig &model_;
    const ParallelConfig &parallel_;
    const ClusterSpec &cluster_;
    const CommModel &comm_;
};

} // namespace vtrain

#endif // VTRAIN_GRAPH_BUILDER_H
