"""JSON schemas for models, metric descriptors and campaign configs.

Complex numbers are [re, im] pairs and matrices are row-major flat lists,
so every file is diff-friendly and exactly specifiable.  The schema is
versioned; only version 1 exists.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Any, Optional

import numpy as np

from .errors import ConfigError, NotFaithfulError, QmsGapError
from .monotone import (
    MonotoneFunction,
    anti_gns,
    bkm,
    from_measure,
    gns,
    kms,
    power,
)
from .qms import (
    INVARIANCE_TOL, DensityMatrix, GKSLModel, _not_invariant, check_invariance,
    density_matrix,
)

SCHEMA_VERSION = 1


def matrix_to_pairs(m: np.ndarray) -> list[list[float]]:
    flat = np.asarray(m, dtype=complex).reshape(-1)  # row-major
    return [[float(z.real), float(z.imag)] for z in flat]


def pairs_to_matrix(pairs, dim: int, where: str) -> np.ndarray:
    if not isinstance(pairs, list) or len(pairs) != dim * dim:
        raise ConfigError(
            f"{where}: expected {dim * dim} [re, im] pairs, got "
            f"{len(pairs) if isinstance(pairs, list) else type(pairs).__name__}"
        )
    out = np.empty(dim * dim, dtype=complex)
    for k, pair in enumerate(pairs):
        if (
            not isinstance(pair, list)
            or len(pair) != 2
            or not all(
                isinstance(v, (int, float)) and not isinstance(v, bool)
                for v in pair
            )
        ):
            raise ConfigError(f"{where}: entry {k} is not a [re, im] pair")
        if not all(math.isfinite(v) for v in pair):
            raise ConfigError(f"{where}: entry {k} {pair!r} is not finite")
        out[k] = pair[0] + 1j * pair[1]
    return out.reshape((dim, dim))  # row-major


def model_to_dict(model: GKSLModel, rho: Optional[DensityMatrix] = None) -> dict:
    doc: dict[str, Any] = {
        "schema_version": SCHEMA_VERSION,
        "dim": model.dim,
        "hamiltonian": matrix_to_pairs(model.hamiltonian),
        "jumps": [matrix_to_pairs(v) for v in model.jumps],
    }
    if rho is not None:
        doc["rho"] = matrix_to_pairs(rho.rho)
    return doc


def model_from_dict(doc) -> tuple[GKSLModel, Optional[DensityMatrix]]:
    """The model of a model document and its rho if it supplies one:
    ConfigError for a malformed document or a rho with |L_*(rho)|_F above
    1e-9, NotFaithfulError for a rho that is not faithful."""
    if not isinstance(doc, dict):
        raise ConfigError("model config must be a JSON object")
    unknown = sorted(set(doc) - {"schema_version", "dim", "hamiltonian", "jumps", "rho"})
    if unknown:
        raise ConfigError(f"unknown keys in model config: {unknown}")
    if doc.get("schema_version") != SCHEMA_VERSION:
        raise ConfigError(
            f"unsupported schema_version {doc.get('schema_version')!r}"
        )
    dim = doc.get("dim")
    if not isinstance(dim, int) or dim < 2:
        raise ConfigError(f"dim must be an integer >= 2, got {dim!r}")
    h = pairs_to_matrix(doc.get("hamiltonian"), dim, "hamiltonian")
    jumps_doc = doc.get("jumps", [])
    if not isinstance(jumps_doc, list):
        raise ConfigError("jumps must be a list of matrices")
    jumps = tuple(
        pairs_to_matrix(j, dim, f"jumps[{k}]") for k, j in enumerate(jumps_doc)
    )
    try:
        model = GKSLModel(hamiltonian=h, jumps=jumps)
    except Exception as exc:
        raise ConfigError(f"invalid model: {exc}") from exc

    rho = None
    if "rho" in doc:
        try:
            rho = density_matrix(pairs_to_matrix(doc["rho"], dim, "rho"))
        except ConfigError:
            raise
        except Exception as exc:
            raise ConfigError(f"invalid rho: {exc}") from exc
        if not rho.faithful:
            raise NotFaithfulError("supplied rho is not faithful")
        residual = check_invariance(model, rho)
        if residual > INVARIANCE_TOL:  # the bar computed states are held to
            raise ConfigError(f"supplied rho is {_not_invariant(residual)}")
    return model, rho


# ---------------------------------------------------------------------------
# Metric descriptors
# ---------------------------------------------------------------------------

_SIMPLE_KINDS = {"gns": gns, "anti-gns": anti_gns, "kms": kms, "bkm": bkm}
_KEYS = {"power": {"kind", "alpha"}, "measure": {"kind", "atoms"}}


def _number(value) -> float:
    """value as a float if it is a JSON number, else TypeError (a boolean
    or a string is no number)."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"{value!r} is not a number")
    return float(value)


def function_from_descriptor(doc) -> MonotoneFunction:
    """The function of {"kind": gns|anti-gns|kms|bkm}, {"kind": "power",
    "alpha": A} or {"kind": "measure", "atoms": [[lambda, weight], ...]};
    ConfigError for any other key or kind and for a number given as a
    boolean or a string (a measure atom's lambda may be "inf")."""
    if not isinstance(doc, dict) or "kind" not in doc:
        raise ConfigError(f"metric descriptor must have a 'kind': {doc!r}")
    kind = doc["kind"]
    if not isinstance(kind, str) or kind not in {*_SIMPLE_KINDS, *_KEYS}:
        raise ConfigError(f"unknown metric kind {kind!r}")
    unknown = sorted(set(doc) - _KEYS.get(kind, {"kind"}))
    if unknown:
        raise ConfigError(f"unknown keys in {kind} metric descriptor: {unknown}")
    if kind in _SIMPLE_KINDS:
        return _SIMPLE_KINDS[kind]()
    if kind == "power":
        if "alpha" not in doc:
            raise ConfigError(f"bad power descriptor {doc!r}: missing key 'alpha'")
        try:
            return power(_number(doc["alpha"]))
        except (TypeError, ValueError, QmsGapError) as exc:
            raise ConfigError(f"bad power descriptor {doc!r}: {exc}") from exc
    try:
        atoms = [
            (math.inf if lam == "inf" else _number(lam), _number(w))
            for lam, w in doc["atoms"]
        ]
        return from_measure(atoms)
    except ConfigError:
        raise
    except Exception as exc:
        raise ConfigError(f"bad measure descriptor {doc!r}") from exc


def parse_f_spec(spec: str) -> MonotoneFunction:
    """The function of the metric descriptor a command-line spec names:
    gns | anti-gns | kms | bkm | power:ALPHA | measure:PATH."""
    kind, colon, arg = spec.partition(":")
    if not colon:
        doc = {"kind": kind}
    elif kind == "power":
        try:
            doc = {"kind": "power", "alpha": float(arg)}
        except ValueError:
            raise ConfigError(f"bad power exponent {arg!r}: not a number") from None
    elif kind == "measure":
        doc = load_json(arg)
        if isinstance(doc, list):
            doc = {"kind": "measure", "atoms": doc}
    else:
        raise ConfigError(f"unknown metric spec {spec!r}")
    return function_from_descriptor(doc)


def load_json(path) -> Any:
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: line {exc.lineno} col {exc.colno}: {exc.msg}")
