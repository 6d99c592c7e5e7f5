"""Program JSON serialization round-trips bit-identically.

The plan artifacts of :mod:`repro.api` are only trustworthy if the IR
layer reconstructs programs *exactly*: same values and types, same
instruction sequence with the same uids/attrs/partition annotations,
and -- the property everything else reduces to -- the same simulated
timeline, interval for interval.
"""

from __future__ import annotations

import json

import pytest

from repro import (
    ClusterSpec,
    LancetOptimizer,
    SimulationConfig,
    SyntheticRoutingModel,
    simulate_program,
)
from repro.ir import (
    SerializationError,
    ensure_uid_floor,
    program_from_json,
    program_to_json,
    structural_program_dict,
)
from repro.models import GPT2MoEConfig, build_training_graph


def tiny_graph(num_gpus: int = 8):
    return build_training_graph(
        GPT2MoEConfig.tiny(), batch=4, seq=16, num_gpus=num_gpus
    )


def roundtrip(program, check=True):
    blob = json.dumps(program_to_json(program))
    return program_from_json(json.loads(blob), check=check)


def assert_programs_identical(a, b):
    """Field-for-field equality of two programs."""
    assert a.name == b.name
    assert a.values == b.values
    assert a.instructions == b.instructions
    assert [i.uid for i in a.instructions] == [i.uid for i in b.instructions]
    assert [i.attrs for i in a.instructions] == [i.attrs for i in b.instructions]
    assert (a.inputs, a.params, a.states, a.outputs) == (
        b.inputs,
        b.params,
        b.states,
        b.outputs,
    )
    assert a.grads == b.grads


class TestRoundTrip:
    def test_unoptimized_program_bit_identical(self):
        p = tiny_graph().program
        p2 = roundtrip(p)
        assert_programs_identical(p, p2)
        # serializing the reconstruction yields the same document
        assert program_to_json(p2) == program_to_json(p)

    def test_optimized_program_bit_identical(self):
        graph = tiny_graph()
        cluster = ClusterSpec.for_gpus("a100", 8)
        optimized, _ = LancetOptimizer(cluster).optimize(graph)
        p2 = roundtrip(optimized)
        assert_programs_identical(optimized, p2)

    @pytest.mark.parametrize("hierarchical", [False, True])
    def test_simulated_timeline_identical(self, hierarchical):
        """The property that matters: a reloaded optimized program
        simulates to the same timeline, interval for interval."""
        graph = tiny_graph(num_gpus=16)
        cluster = ClusterSpec.for_gpus("a100", 16)
        optimized, _ = LancetOptimizer(
            cluster, enable_hierarchical_a2a=hierarchical
        ).optimize(graph)
        p2 = roundtrip(optimized)

        def sim(p):
            cfg = SimulationConfig(
                cluster=cluster,
                padded_a2a=False,
                routing=SyntheticRoutingModel(seed=3),
            )
            return simulate_program(p, config=cfg)

        t1, t2 = sim(optimized), sim(p2)
        assert t1.makespan == t2.makespan
        assert [
            (iv.uid, iv.start, iv.end, iv.op) for iv in t1.intervals
        ] == [(iv.uid, iv.start, iv.end, iv.op) for iv in t2.intervals]

    def test_attr_tuples_and_floats_survive(self):
        """Tuples must come back as tuples (not lists) and floats must
        round-trip to the same bits."""
        graph = tiny_graph()
        p = graph.program
        ins = p.instructions[0]
        p.instructions[0] = ins.with_(
            attrs={
                **ins.attrs,
                "a_tuple": (1, 2.5, "x"),
                "nested": [(0.1, 0.2)],
                "tricky_float": 0.1 + 0.2,  # not representable exactly
            },
            uid=ins.uid,
        )
        p2 = roundtrip(p, check=False)
        attrs = p2.instructions[0].attrs
        assert attrs["a_tuple"] == (1, 2.5, "x")
        assert isinstance(attrs["a_tuple"], tuple)
        assert isinstance(attrs["nested"][0], tuple)
        assert attrs["tricky_float"].hex() == (0.1 + 0.2).hex()

    def test_uid_floor_advances_after_load(self):
        """Instructions created after a load can never collide with
        deserialized uids."""
        p = tiny_graph().program
        p2 = roundtrip(p)
        existing = {i.uid for i in p2.instructions}
        fresh = p2.instructions[0].with_()  # allocates a new uid
        assert fresh.uid not in existing

    def test_ensure_uid_floor_is_monotonic(self):
        ensure_uid_floor(0)  # never goes backwards
        a = tiny_graph().program.instructions[0].with_()
        ensure_uid_floor(a.uid + 1000)
        b = a.with_()
        assert b.uid >= a.uid + 1000

    def test_new_values_allocate_above_loaded_ids(self):
        p2 = roundtrip(tiny_graph().program)
        v = p2.new_value(p2.values[0].type, "fresh")
        assert v.id == max(i for i in p2.values if i != v.id) + 1


class TestErrors:
    def test_unknown_op_rejected(self):
        obj = program_to_json(tiny_graph().program)
        obj["instructions"][0]["op"] = "definitely_not_an_op"
        with pytest.raises(SerializationError):
            program_from_json(obj)

    def test_wrong_ir_version_rejected(self):
        obj = program_to_json(tiny_graph().program)
        obj["ir_version"] = 999
        with pytest.raises(SerializationError, match="version"):
            program_from_json(obj)

    def test_truncated_document_rejected(self):
        obj = program_to_json(tiny_graph().program)
        del obj["values"]
        with pytest.raises(SerializationError):
            program_from_json(obj)

    def test_non_dict_rejected(self):
        with pytest.raises(SerializationError):
            program_from_json([1, 2, 3])

    def test_unserializable_attr_rejected(self):
        p = tiny_graph().program
        ins = p.instructions[0]
        p.instructions[0] = ins.with_(
            attrs={**ins.attrs, "bad": object()}, uid=ins.uid
        )
        with pytest.raises(SerializationError, match="attr"):
            program_to_json(p)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("kind", "sideways"),
            ("kind", ["dw"]),
            ("inputs", ["x"]),
            ("outputs", None),
            ("uid", "u"),
            ("partition", [1, "x"]),
            ("origin", [3]),
            ("attrs", {"t": {"__tuple__": 5}}),
        ],
    )
    def test_malformed_instruction_fields_rejected(self, field, value):
        obj = program_to_json(tiny_graph().program)
        obj["instructions"][0][field] = value
        with pytest.raises(SerializationError, match="bad serialized instruction"):
            program_from_json(obj)

    def test_duplicate_value_id_rejected(self):
        obj = program_to_json(tiny_graph().program)
        obj["values"].append(list(obj["values"][0]))
        with pytest.raises(SerializationError, match="duplicate value id"):
            program_from_json(obj)

    def test_validation_catches_inconsistent_program(self):
        obj = program_to_json(tiny_graph().program)
        # point an instruction at a value that does not exist
        obj["instructions"][5]["inputs"] = [10**9]
        with pytest.raises(SerializationError):
            program_from_json(obj, check=True)


class TestStructuralForm:
    def test_same_structure_different_uids_hash_identically(self):
        """Two independent builds of the same model (different global uid
        counters) produce the same structural document."""
        a = structural_program_dict(tiny_graph().program)
        b = structural_program_dict(tiny_graph().program)
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    def test_different_structure_differs(self):
        a = structural_program_dict(tiny_graph().program)
        other = build_training_graph(
            GPT2MoEConfig.tiny(), batch=8, seq=16, num_gpus=8
        )
        b = structural_program_dict(other.program)
        assert json.dumps(a, sort_keys=True) != json.dumps(b, sort_keys=True)

    def test_program_methods_delegate(self):
        p = tiny_graph().program
        from repro.ir import Program

        p2 = Program.from_json(p.to_json())
        assert_programs_identical(p, p2)
