"""IR graph builders for Transformer sub-modules (attention, FFN, MoE)."""

from __future__ import annotations

from dataclasses import dataclass, field

from ..ir import Dim, DType, Program, TensorType
from .config import GPT2MoEConfig


@dataclass
class MoELayerInfo:
    """Bookkeeping for one MoE layer emitted into the program.

    Records the uids of the structural instructions so that passes and
    tests can locate the layer without pattern matching.
    """

    layer: int
    routing_uid: int
    dispatch_uid: int
    a2a_first_uid: int
    expert_uid: int
    a2a_second_uid: int
    combine_uid: int
    gate_matmul_uid: int
    expert_param_ids: tuple[int, ...]


@dataclass
class BuildContext:
    """Mutable state threaded through the model builder."""

    program: Program
    cfg: GPT2MoEConfig
    batch: int
    seq: int
    num_gpus: int
    dtype: DType = DType.F16
    moe_layers: list[MoELayerInfo] = field(default_factory=list)
    #: parameter value ids that are expert-local (not all-reduced)
    expert_params: set[int] = field(default_factory=set)

    def param(self, shape, dims, name: str, dtype: DType | None = None) -> int:
        t = TensorType(tuple(shape), dtype or self.dtype, tuple(dims))
        return self.program.add_param(t, name).id


def add_layernorm(ctx: BuildContext, x: int, name: str) -> int:
    """Emit layernorm(x) with fresh gamma/beta params; returns output id."""
    h = ctx.cfg.hidden
    gamma = ctx.param((h,), (Dim.HIDDEN,), f"{name}.gamma")
    beta = ctx.param((h,), (Dim.HIDDEN,), f"{name}.beta")
    (y,) = ctx.program.add("layernorm", [x, gamma, beta], out_names=[name])
    return y.id


def add_linear(
    ctx: BuildContext, x: int, out_features: int, out_dim: Dim, name: str
) -> int:
    """Emit ``bias_add(matmul(x, W), b)``; returns output id."""
    in_features = ctx.program.type_of(x).shape[-1]
    w = ctx.param((in_features, out_features), (Dim.HIDDEN, out_dim), f"{name}.w")
    b = ctx.param((out_features,), (out_dim,), f"{name}.b")
    (y,) = ctx.program.add("matmul", [x, w], out_names=[f"{name}.mm"])
    (y,) = ctx.program.add("bias_add", [y.id, b], out_names=[name])
    return y.id


def add_self_attention(ctx: BuildContext, x: int, layer: int) -> int:
    """Emit a full self-attention block (pre-LN, residual)."""
    cfg = ctx.cfg
    name = f"l{layer}.attn"
    ln = add_layernorm(ctx, x, f"{name}.ln")
    qkv = add_linear(ctx, ln, 3 * cfg.hidden, Dim.HIDDEN, f"{name}.qkv")
    q, k, v = ctx.program.add(
        "split3", [qkv], out_names=[f"{name}.q", f"{name}.k", f"{name}.v"]
    )
    (att,) = ctx.program.add(
        "attention",
        [q.id, k.id, v.id],
        attrs={"num_heads": cfg.num_heads, "causal": True},
        out_names=[f"{name}.ctx"],
    )
    proj = add_linear(ctx, att.id, cfg.hidden, Dim.HIDDEN, f"{name}.proj")
    (out,) = ctx.program.add("add", [x, proj], out_names=[f"{name}.res"])
    return out.id


def add_dense_ffn(ctx: BuildContext, x: int, layer: int) -> int:
    """Emit a dense feed-forward block (pre-LN, residual)."""
    cfg = ctx.cfg
    name = f"l{layer}.ffn"
    ln = add_layernorm(ctx, x, f"{name}.ln")
    h = add_linear(ctx, ln, cfg.ffn_hidden, Dim.FFN, f"{name}.fc1")
    (act,) = ctx.program.add("gelu", [h], out_names=[f"{name}.act"])
    y = add_linear(ctx, act.id, cfg.hidden, Dim.HIDDEN, f"{name}.fc2")
    (out,) = ctx.program.add("add", [x, y], out_names=[f"{name}.res"])
    return out.id


def add_moe_ffn(ctx: BuildContext, x: int, layer: int) -> int:
    """Emit an MoE feed-forward block: gate -> dispatch -> A2A -> experts
    -> A2A -> combine (paper Fig. 1), with residual."""
    cfg = ctx.cfg
    p = ctx.program
    name = f"l{layer}.moe"
    e = cfg.num_experts(ctx.num_gpus)
    el = cfg.experts_per_gpu
    c = cfg.capacity(ctx.batch, ctx.seq, ctx.num_gpus)
    hdim, f = cfg.hidden, cfg.ffn_hidden

    ln = add_layernorm(ctx, x, f"{name}.ln")

    # gate: trainable linear scoring + softmax + discrete routing
    wg = ctx.param((hdim, e), (Dim.HIDDEN, Dim.EXPERT), f"{name}.gate.w")
    (scores,) = p.add("matmul", [ln, wg], out_names=[f"{name}.scores"])
    gate_matmul_uid = p.instructions[-1].uid
    (probs,) = p.add("softmax", [scores.id], out_names=[f"{name}.probs"])
    (route,) = p.add(
        "routing",
        [probs.id],
        attrs={
            "gate_type": cfg.gate,
            "k": cfg.top_k,
            "num_experts": e,
            "capacity": c,
        },
        out_names=[f"{name}.route"],
    )
    routing_uid = p.instructions[-1].uid

    (buf,) = p.add(
        "moe_dispatch",
        [ln, route.id],
        attrs={"num_experts": e, "capacity": c},
        out_names=[f"{name}.disp"],
    )
    dispatch_uid = p.instructions[-1].uid

    # optional shared expert (PR-MoE / DeepSeek-MoE, paper Sec. 8): a dense
    # FFN that every token passes through.  Emitted after the dispatch so
    # the compute stream runs it while the all-to-all is in flight.
    shared_out = None
    if cfg.shared_expert:
        sf = cfg.shared_expert_mult * cfg.hidden
        sw1 = ctx.param((hdim, sf), (Dim.HIDDEN, Dim.FFN), f"{name}.shared.w1")
        sb1 = ctx.param((sf,), (Dim.FFN,), f"{name}.shared.b1")
        sw2 = ctx.param((sf, hdim), (Dim.FFN, Dim.HIDDEN), f"{name}.shared.w2")
        sb2 = ctx.param((hdim,), (Dim.HIDDEN,), f"{name}.shared.b2")
        (sh,) = p.add("matmul", [ln, sw1], out_names=[f"{name}.shared.mm1"])
        (sh,) = p.add("bias_add", [sh.id, sb1], out_names=[f"{name}.shared.h"])
        (sh,) = p.add("gelu", [sh.id], out_names=[f"{name}.shared.act"])
        (sh,) = p.add("matmul", [sh.id, sw2], out_names=[f"{name}.shared.mm2"])
        (sh,) = p.add("bias_add", [sh.id, sb2], out_names=[f"{name}.shared.out"])
        shared_out = sh.id

    (buf,) = p.add(
        "all_to_all",
        [buf.id],
        attrs={
            "irregular": True,
            "direction": "scatter",
            "tokens": ctx.batch * ctx.seq,
            "moe_layer": layer,
        },
        out_names=[f"{name}.a2a1"],
    )
    a2a1_uid = p.instructions[-1].uid

    w1 = ctx.param((el, hdim, f), (Dim.LOCAL_EXPERT, Dim.HIDDEN, Dim.FFN), f"{name}.w1")
    b1 = ctx.param((el, f), (Dim.LOCAL_EXPERT, Dim.FFN), f"{name}.b1")
    w2 = ctx.param((el, f, hdim), (Dim.LOCAL_EXPERT, Dim.FFN, Dim.HIDDEN), f"{name}.w2")
    b2 = ctx.param((el, hdim), (Dim.LOCAL_EXPERT, Dim.HIDDEN), f"{name}.b2")
    ctx.expert_params.update({w1, b1, w2, b2})
    (eout,) = p.add(
        "expert_ffn",
        [buf.id, w1, b1, w2, b2],
        attrs={"tokens": ctx.batch * ctx.seq},
        out_names=[f"{name}.experts"],
    )
    expert_uid = p.instructions[-1].uid

    (buf2,) = p.add(
        "all_to_all",
        [eout.id],
        attrs={
            "irregular": True,
            "direction": "gather",
            "tokens": ctx.batch * ctx.seq,
            "moe_layer": layer,
        },
        out_names=[f"{name}.a2a2"],
    )
    a2a2_uid = p.instructions[-1].uid

    (y,) = p.add(
        "moe_combine", [buf2.id, route.id, probs.id], out_names=[f"{name}.comb"]
    )
    combine_uid = p.instructions[-1].uid

    yid = y.id
    if shared_out is not None:
        (y,) = p.add("add", [yid, shared_out], out_names=[f"{name}.mix"])
        yid = y.id
    (out,) = p.add("add", [x, yid], out_names=[f"{name}.res"])

    ctx.moe_layers.append(
        MoELayerInfo(
            layer=layer,
            routing_uid=routing_uid,
            dispatch_uid=dispatch_uid,
            a2a_first_uid=a2a1_uid,
            expert_uid=expert_uid,
            a2a_second_uid=a2a2_uid,
            combine_uid=combine_uid,
            gate_matmul_uid=gate_matmul_uid,
            expert_param_ids=(w1, b1, w2, b2),
        )
    )
    return out.id


def add_transformer_block(ctx: BuildContext, x: int, layer: int) -> int:
    """Emit one Transformer block (attention + dense-or-MoE FFN)."""
    x = add_self_attention(ctx, x, layer)
    if ctx.cfg.is_moe_layer(layer):
        return add_moe_ffn(ctx, x, layer)
    return add_dense_ffn(ctx, x, layer)
