"""Self-tests of the benchmark's own machinery.

    PYTHONPATH=src python3 -m pytest -q perfbench/test_perfbench.py

They check that the layer wrappers put every original back, that a
wrapped call still returns the original's result while recording a
span, that per-layer self time subtracts child spans, and that every
metric name is well formed and declared in ``BENCHMARK.json``.
"""

from __future__ import annotations

import array
import importlib
import json
import os
import re
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import layers  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def _bindings():
    """Every current binding of every wrap target."""
    seen = {}
    for name, module_name, dotted, __ in tracer.TARGETS:
        owner, attr, value = tracer._resolve(module_name, dotted)
        seen[name] = value
    for module_name, dotted, __ in tracer._REGISTRARS:
        seen[dotted] = tracer._resolve(module_name, dotted)[2]
    import repro.host.pool as pool_module

    seen["pool_worker_main"] = pool_module.pool_worker_main
    return seen


def test_restore_puts_every_original_back(tmp_path):
    tracer._import_all()
    before = _bindings()
    import repro.net.flows as flows

    parse_before = flows.parse_ethernet
    inst = tracer.install(tracer.Recorder(str(tmp_path)))
    try:
        during = _bindings()
        assert all(during[key] is not before[key] for key in before)
        assert flows.parse_ethernet is not parse_before
    finally:
        tracer.restore(inst)
    assert _bindings() == before
    assert flows.parse_ethernet is parse_before
    assert not inst.patches


def test_wrapped_call_returns_result_and_records_span(tmp_path):
    from repro.net.pcap import PcapReader

    recorder = tracer.Recorder(str(tmp_path))
    inst = tracer.install(recorder)
    try:
        path = os.path.join(str(tmp_path), "one.pcap")
        frame = bytes(60)
        with open(path, "wb") as stream:
            stream.write(bytes.fromhex(
                "d4c3b2a1020004000000000000000000ffff000001000000"))
            stream.write((1).to_bytes(4, "little") + bytes(4)
                         + len(frame).to_bytes(4, "little") * 2 + frame)
        with PcapReader(path) as reader:
            records = list(reader)
        assert len(records) == 1 and records[0][1] == frame
    finally:
        tracer.restore(inst)
    recorder.flush()
    procs = layers.load(str(tmp_path))
    metrics = layers.analyze(procs, packets=1)
    assert metrics["pcap.records"] == 1


def test_self_time_subtracts_children():
    # root [0, 100) with child [10, 40): self 70 and 30.
    spans = array.array("q", [0, 0, 100, -1, 0,
                              1, 10, 40, 0, 0])
    aggs = {}
    root_ns, __, __, __ = layers._fold(["a", "b"], spans, aggs)
    assert root_ns == 100
    assert aggs["a"].self_ns == 70 and aggs["a"].incl_ns == 100
    assert aggs["b"].self_ns == 30


def test_metric_names_are_well_formed_and_declared():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        bench = json.load(f)
    declared_e2e = {m["name"] for m in bench["end_to_end"]}
    declared_layer = {m["name"] for m in bench["per_layer"]}
    ours_e2e = {name for name, __ in run.END_TO_END}
    ours_layer = {name for name, __ in layers.PER_LAYER}
    assert ours_e2e == declared_e2e
    assert ours_layer == declared_layer
    names = [m["name"] for m in bench["end_to_end"] + bench["per_layer"]
             + bench["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.match(name), name
    assert {w["name"] for w in bench["workloads"]} == set(run.WORKLOADS)


def test_every_wrap_target_exists():
    for __, module_name, dotted, __unused in tracer.TARGETS:
        module = importlib.import_module(module_name)
        owner = module
        for part in dotted.split("."):
            owner = getattr(owner, part)
        assert callable(owner), dotted
