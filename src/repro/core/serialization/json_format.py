"""JSON text format for EVA programs.

The binary proto format (:mod:`repro.core.serialization.proto`) is the
interchange format of the paper; the JSON format is a human-readable
companion that additionally preserves implementation-side metadata such as
kernel labels.  Both round-trip through the same in-memory graph.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List

import numpy as np

from ...errors import SerializationError
from ..instructions import IMMEDIATES, immediate_of
from ..ir import Program, Term
from ..types import Op, ValueType


def program_to_dict(program: Program) -> Dict[str, Any]:
    """Convert a program into a JSON-serializable dictionary."""
    ids: Dict[int, int] = {}
    nodes: List[Dict[str, Any]] = []
    for index, term in enumerate(program.terms()):
        ids[term.id] = index
        node: Dict[str, Any] = {
            "id": index,
            "op": term.op.name,
            "type": term.value_type.name,
            "args": [ids[a.id] for a in term.args],
        }
        if term.is_input:
            node["name"] = term.name
            node["scale"] = float(term.scale or 0.0)
        elif term.is_constant:
            value = np.atleast_1d(np.asarray(term.value, dtype=np.float64)).ravel()
            node["value"] = [float(v) for v in value]
            node["scale"] = float(term.scale or 0.0)
            if term.attributes.get("lane_mask"):
                node["lane_mask"] = True
        immediate = immediate_of(term.op)
        if immediate:
            node[immediate] = getattr(term, immediate)
        if term.kernel is not None:
            node["kernel"] = term.kernel
        nodes.append(node)
    return {
        "name": program.name,
        "vec_size": program.vec_size,
        "nodes": nodes,
        "outputs": [
            {
                "name": name,
                "id": ids[term.id],
                "scale": float(program.output_scales.get(name, 0.0)),
            }
            for name, term in program.outputs.items()
        ],
    }


def dict_to_program(data: Dict[str, Any]) -> Program:
    """Reconstruct a program from its dictionary form."""
    try:
        program = Program(data.get("name", "program"), vec_size=int(data["vec_size"]))
        terms: Dict[int, Term] = {}
        for node in data["nodes"]:
            op = Op[node["op"]]
            value_type = ValueType[node["type"]]
            if op is Op.INPUT:
                term = program.input(node["name"], value_type, scale=node.get("scale", 0.0))
            elif op is Op.CONSTANT:
                raw = node.get("value", [0.0])
                value = raw[0] if value_type is ValueType.SCALAR and len(raw) == 1 else np.asarray(raw)
                term = program.constant(value, scale=node.get("scale", 0.0), value_type=value_type)
                if node.get("lane_mask"):
                    term.attributes["lane_mask"] = True
            else:
                args = [terms[i] for i in node["args"]]
                attrs: Dict[str, Any] = {
                    name: kind(node[name]) for name, kind in IMMEDIATES.items() if name in node
                }
                if "kernel" in node:
                    attrs["kernel"] = node["kernel"]
                term = program.make_term(op, args, **attrs)
            terms[node["id"]] = term
        for out in data["outputs"]:
            program.set_output(out["name"], terms[out["id"]], scale=out.get("scale", 0.0))
        return program
    except (KeyError, ValueError, TypeError) as exc:
        raise SerializationError(f"malformed program dictionary: {exc}") from exc


def dumps(program: Program, indent: int = None) -> str:
    """Serialize a program to a JSON string."""
    return json.dumps(program_to_dict(program), indent=indent)


def loads(text: str) -> Program:
    """Deserialize a program from a JSON string."""
    return dict_to_program(json.loads(text))
