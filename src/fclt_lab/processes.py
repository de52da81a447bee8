"""Process specifications, seeded simulation entry points and file formats.

A ProcessSpec is one of IidSpec, AugGarchSpec or ArmaSpec. Simulation is a
pure function of (spec, n, burn_in, seed): identical inputs reproduce the
Path bit-exactly on any thread count.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from typing import Union

import numpy as np

from .arma import ArmaSpec, arma_values_from_innovations
from .errors import ParameterError
from .garch import AugGarchSpec, default_burn_in, garch_values_from_innovations
from .innovations import InnovationDist
from .rng import seed_key, stream_generator

__all__ = [
    "IidSpec",
    "ProcessSpec",
    "Path",
    "simulate",
    "values_from_innovations",
    "innovation_driver",
    "spec_to_json",
    "spec_from_json",
    "spec_fingerprint",
    "path_to_csv",
    "path_from_csv",
]


@dataclass(frozen=True)
class IidSpec:
    """An iid sequence drawn from one innovation law."""

    innovation: InnovationDist = field(default_factory=InnovationDist)


ProcessSpec = Union[IidSpec, AugGarchSpec, ArmaSpec]


@dataclass(frozen=True)
class Path:
    """One simulated realization with its reproducibility metadata."""

    values: np.ndarray
    spec_fingerprint: str
    seed: tuple[int, ...]
    burn_in: int

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        values.flags.writeable = False
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "seed", seed_key(self.seed))

    @property
    def n(self) -> int:
        return int(self.values.shape[-1])

    def __len__(self) -> int:
        return self.n


# --- serialization ----------------------------------------------------------


def _innovation_to_obj(dist: InnovationDist) -> dict:
    obj = {"kind": dist.kind}
    if dist.dof is not None:
        obj["dof"] = dist.dof
    return obj


def _innovation_from_obj(obj, where: str) -> InnovationDist:
    obj = _object(obj, where)
    return InnovationDist(kind=obj.get("kind"), dof=_field(obj, "dof", where, _number))


# --- validation of spec fields: a malformed one raises ParameterError naming it


def _object(value, name: str) -> dict:
    if not isinstance(value, dict):
        got = "nothing" if value is None else type(value).__name__
        raise ParameterError(f"{name} must be a JSON object, got {got}")
    return value


def _text(value) -> str:
    if not isinstance(value, str):
        raise TypeError(value)
    return value


def _number(value):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(value)
    return value  # as given: an integer dof or delta stays one in spec_to_obj


def _integer(value) -> int:
    if not float(_number(value)).is_integer():
        raise ValueError(value)
    return int(value)


def _numbers(value) -> tuple:
    if not isinstance(value, list):
        raise TypeError(value)
    return tuple(_number(v) for v in value)


_EXPECTED = {_text: "a string", _number: "a number", _integer: "an integer", _numbers: "a list of numbers"}


def _field(obj: dict, key: str, where: str, convert, default=None):
    """``obj[key]`` through ``convert``; an absent or null field gives ``default``."""
    value = obj.get(key)
    if value is None:
        return default
    try:
        return convert(value)
    except (TypeError, ValueError):
        raise ParameterError(f"{where}.{key} must be {_EXPECTED[convert]}, got {value!r}") from None


def spec_to_obj(spec: ProcessSpec) -> dict:
    if isinstance(spec, IidSpec):
        return {"model": "iid", "innovation": _innovation_to_obj(spec.innovation)}
    if isinstance(spec, AugGarchSpec):
        if spec.model == "generic":
            raise ParameterError("generic augmented-GARCH specs are not JSON-serializable")
        return {
            "model": spec.model,
            "lambda": "log" if spec.is_exponential else "power",
            "delta": spec.delta,
            "p": spec.p,
            "q": spec.q,
            "omega": spec.omega,
            "alpha": list(spec.alpha),
            "beta": list(spec.beta),
            "gamma": list(spec.gamma),
            "innovation": _innovation_to_obj(spec.innovation),
        }
    if isinstance(spec, ArmaSpec):
        if isinstance(spec.innovation, AugGarchSpec):
            innovation = spec_to_obj(spec.innovation)
        else:
            innovation = _innovation_to_obj(spec.innovation)
        return {
            "model": "arma",
            "phi": list(spec.phi),
            "theta": list(spec.theta),
            "innovation": innovation,
        }
    raise ParameterError(f"unknown spec type {type(spec).__name__}")


def spec_from_obj(obj) -> ProcessSpec:
    """The spec a JSON object describes (the inverse of ``spec_to_obj``).

    A malformed object raises ParameterError naming the offending field.
    """
    return _spec_from_obj(obj, "spec")


def _spec_from_obj(obj, where: str) -> ProcessSpec:
    obj = _object(obj, where)
    model = _field(obj, "model", where, _text)
    if model == "iid":
        return IidSpec(innovation=_innovation_from_obj(obj.get("innovation"), where + ".innovation"))
    if model == "arma":
        inn = _object(obj.get("innovation"), where + ".innovation")
        if "model" in inn:
            innovation = _spec_from_obj(inn, where + ".innovation")
            if not isinstance(innovation, AugGarchSpec):
                raise ParameterError("ARMA innovation spec must be a garch model")
        else:
            innovation = _innovation_from_obj(inn, where + ".innovation")
        return ArmaSpec(
            phi=_field(obj, "phi", where, _numbers, ()),
            theta=_field(obj, "theta", where, _numbers, ()),
            innovation=innovation,
        )
    return AugGarchSpec(
        model=model,
        p=_field(obj, "p", where, _integer, 1),
        q=_field(obj, "q", where, _integer, 0),
        omega=float(_field(obj, "omega", where, _number, 0.0)),
        alpha=_field(obj, "alpha", where, _numbers, ()),
        beta=_field(obj, "beta", where, _numbers, ()),
        gamma=_field(obj, "gamma", where, _numbers, ()),
        delta=_field(obj, "delta", where, _number),
        innovation=_innovation_from_obj(obj.get("innovation"), where + ".innovation"),
    )


def spec_to_json(spec: ProcessSpec) -> str:
    return json.dumps(spec_to_obj(spec), sort_keys=True, separators=(",", ":"))


def spec_from_json(text: str) -> ProcessSpec:
    return spec_from_obj(json.loads(text))


def spec_fingerprint(spec: ProcessSpec) -> str:
    try:
        canonical = spec_to_json(spec)
    except ParameterError:
        canonical = repr(spec)  # generic callables: repr-based, not portable
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


# --- simulation ---------------------------------------------------------------


def innovation_driver(spec: ProcessSpec) -> InnovationDist:
    """The iid law at the bottom of the causal representation."""
    if isinstance(spec, IidSpec):
        return spec.innovation
    if isinstance(spec, AugGarchSpec):
        return spec.innovation
    if isinstance(spec, ArmaSpec):
        return spec.iid_driver
    raise ParameterError(f"unknown spec type {type(spec).__name__}")


def values_from_innovations(spec: ProcessSpec, eps: np.ndarray, strict: bool = True, state=None, final_state=False):
    """Evaluate the causal functional over given driver innovations.

    ``eps`` has shape (..., T); the output drops the GARCH pre-window where
    applicable. This is the deterministic core shared by the seeded
    simulators and the coupling estimator of the NED diagnostics. With
    ``strict=False`` diverging volatility states give NaN rows instead of
    raising, so batch callers can quarantine them. ``state`` (..., S) replaces
    the starting state: the m GARCH states at the pre-window times, then the
    ARMA filter state; ``final_state`` also returns the state after the last
    step in that layout, from which a split path resumes bit for bit.
    """
    if isinstance(spec, IidSpec):
        values = np.asarray(eps, dtype=np.float64)
        return (values, values[..., :0]) if final_state else values
    if isinstance(spec, AugGarchSpec):
        return garch_values_from_innovations(spec, eps, strict, state, final_state)
    if isinstance(spec, ArmaSpec):
        inner = spec.innovation if isinstance(spec.innovation, AugGarchSpec) else IidSpec(spec.innovation)
        if state is None and not final_state:
            return arma_values_from_innovations(spec, values_from_innovations(inner, eps, strict))
        zero = np.zeros(np.shape(eps)[:-1] + (max(spec.p, spec.q, 1),))
        lead, rest = (None, zero) if state is None else np.split(state, [pre_window(spec)], axis=-1)
        u, lead = values_from_innovations(inner, eps, strict, lead, True)
        values, rest = arma_values_from_innovations(spec, u, rest)
        return (values, np.concatenate([lead, rest], axis=-1)) if final_state else values
    raise ParameterError(f"unknown spec type {type(spec).__name__}")


def pre_window(spec: ProcessSpec) -> int:
    """Number of leading innovations consumed before the first output value."""
    if isinstance(spec, AugGarchSpec):
        return spec.pre_window
    if isinstance(spec, ArmaSpec) and isinstance(spec.innovation, AugGarchSpec):
        return spec.innovation.pre_window
    return 0


def _simulate_rows(spec: ProcessSpec, n: int, burn_in: int | None, keys: list, strict: bool) -> tuple[np.ndarray, int]:
    """Draw-and-recurse core of the seeded simulators.

    Row i is driven by the Philox stream ``keys[i]`` and holds the n values
    after the burn-in, which is returned alongside (iid specs take none).
    """
    if n < 1:
        raise ParameterError("n must be >= 1")
    if isinstance(spec, IidSpec):
        burn = 0
    else:
        burn = default_burn_in(spec) if burn_in is None else burn_in
    if burn < 0:
        raise ParameterError("burn_in must be >= 0")
    if isinstance(spec, ArmaSpec):
        spec.require_causal()
    total = pre_window(spec) + burn + n
    dist = innovation_driver(spec)
    eps = np.empty((len(keys), total))
    for row, key in enumerate(keys):
        eps[row] = dist.sample(stream_generator(key), total)
    return values_from_innovations(spec, eps, strict=strict)[:, burn:], burn


def simulate(spec: ProcessSpec, n: int, burn_in: int | None = None, seed=0) -> Path:
    """One path from the stream ``seed``; a diverging volatility state raises.

    ``burn_in`` defaults to max(1000, 20(p+q)) steps and is ignored for iid
    specs.
    """
    values, burn = _simulate_rows(spec, n, burn_in, [seed_key(seed)], strict=True)
    return Path(values[0], spec_fingerprint(spec), seed_key(seed), burn)


def simulate_batch(spec: ProcessSpec, n: int, burn_in: int | None, seed, reps: range) -> np.ndarray:
    """Simulate a batch of replications, row r from stream (seed, r).

    Row r is the path ``simulate(spec, n, burn_in, seed=(seed, r))`` returns
    for an integer seed; the recursion runs vectorized across the batch, and
    a diverging replication becomes a NaN row for quarantining.
    """
    key = seed_key(seed)
    return _simulate_rows(spec, n, burn_in, [key + (rep,) for rep in reps], strict=False)[0]


# --- CSV ---------------------------------------------------------------------


def path_to_csv(path_or_values, fileobj, comments: list[str] | None = None):
    """Write a single-column CSV with header ``x`` (LF line endings).

    ``comments`` become leading ``#`` lines (used by the CLI to reference the
    run manifest); the toolkit's readers skip them.
    """
    values = getattr(path_or_values, "values", path_or_values)
    lines = [f"# {c}" for c in (comments or [])]
    lines.append("x")
    lines.extend(repr(float(v)) for v in np.asarray(values).ravel())
    fileobj.write("\n".join(lines) + "\n")


def path_from_csv(fileobj) -> np.ndarray:
    """Read a single-column CSV produced by path_to_csv (skips # comments)."""
    values = []
    header_seen = False
    for lineno, raw in enumerate(fileobj, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if not header_seen:
            if line != "x":
                raise ParameterError(f"expected header 'x', got {line!r}")
            header_seen = True
            continue
        try:
            values.append(float(line))
        except ValueError:
            raise ParameterError(f"line {lineno}: expected a number, got {line!r}") from None
    if not header_seen:
        raise ParameterError("missing CSV header 'x'")
    return np.asarray(values, dtype=np.float64)
