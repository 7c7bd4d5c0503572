"""Run configuration: YAML schema, validation, and round-trip serialization.

A run file has sections `generators`, `loss`, `topology`, `params`,
`disturbance`, `output`, and optionally `initial`. Powers are MW, costs
$/h. The fields of `GeneratorSpec`, `AlgorithmParams`, `DisturbanceSpec`
and `OutputSpec` are the keys, types, defaults and written order of a
generator entry and of the last three sections. A generator entry may
omit `d0`, in which case its demand share is derived as p0 - P_Li(p0), so
that the powers p0 satisfy the balance equation exactly and a run from
z0 = 0 starts at them.
An unknown key or a value a constructor rejects raises ConfigurationError
naming the file and the section.
"""

from __future__ import annotations

import contextlib
import os
import tempfile
from dataclasses import asdict, dataclass, field, fields, replace

import numpy as np
import yaml

from .dynamics import AlgorithmParams, DisturbanceSpec, DispatchSystem, _check_sizes
from .grid_model import ConfigurationError, GeneratorSpec, KronLossModel
from .topology import LocalTopology


@dataclass(frozen=True)
class OutputSpec:
    directory: str = "out"
    stride: int = 100
    write_trajectory: bool = True
    write_report: bool = True

    def __post_init__(self) -> None:
        if self.stride < 1:
            raise ConfigurationError("output stride must be >= 1")


@dataclass(eq=False)
class RunConfig:
    generators: tuple
    loss: KronLossModel
    topology: LocalTopology
    params: AlgorithmParams
    disturbance: DisturbanceSpec = field(default_factory=DisturbanceSpec)
    output: OutputSpec = field(default_factory=OutputSpec)
    z0: tuple | None = None

    def system(self) -> DispatchSystem:
        return DispatchSystem(gens=self.generators, loss=self.loss, top=self.topology)

    def to_dict(self) -> dict:
        return {
            "generators": [asdict(g) for g in self.generators],
            "loss": {
                "b_matrix": self.loss.B.tolist(),
                "b0": self.loss.B0.tolist(),
                "b00": self.loss.B00,
            },
            "topology": {
                "nodes": self.topology.n,
                "edges": [[i, j, w] for i, j, w in self.topology.edges],
            },
            "params": asdict(self.params),
            "disturbance": asdict(self.disturbance),
            "output": asdict(self.output),
            **({"initial": {"z0": list(self.z0)}} if self.z0 is not None else {}),
        }

    def __eq__(self, other) -> bool:
        return isinstance(other, RunConfig) and self.to_dict() == other.to_dict()


@contextlib.contextmanager
def _errors(path: str, where: str):
    """Re-raise a KeyError, TypeError, ValueError or OverflowError (int of an
    infinity) from the body as a ConfigurationError naming the file and the
    section."""
    try:
        yield
    except KeyError as e:
        raise ConfigurationError(f"{path}: {where}: missing key {e}") from e
    except (TypeError, ValueError, OverflowError) as e:
        raise ConfigurationError(f"{path}: {where}: {e}") from e


def _mapping(sec, keys, where: str, path: str) -> dict:
    """sec, after checking that it is a mapping and that keys name all its keys."""
    if not isinstance(sec, dict):
        raise ConfigurationError(f"{path}: {where} is missing or not a mapping")
    unknown = [k for k in sec if k not in keys]
    if unknown:
        raise ConfigurationError(f"{path}: {where}: unknown key(s) {', '.join(map(repr, unknown))}")
    return sec


def _as_bool(value) -> bool:
    if not isinstance(value, bool):
        raise TypeError(f"expected true or false, got {value!r}")
    return value


def _as_float(value) -> float:
    """float(value), which also reads a numeric string such as "1e-3" (YAML
    reads an exponent without a dot as a string), refusing a boolean."""
    if isinstance(value, bool):
        raise TypeError(f"expected a number, got {value!r}")
    return float(value)


def _as_int(value) -> int:
    """int(value), refusing a boolean and a number with a fractional part."""
    if isinstance(value, bool):
        raise TypeError(f"expected an integer, got {value!r}")
    n = int(value)
    if isinstance(value, float) and n != value:
        raise ValueError(f"expected an integer, got {value!r}")
    return n


def _floats(value):
    """value, a number or a nested list of numbers, with every number read
    by _as_float."""
    return [_floats(v) for v in value] if isinstance(value, list) else _as_float(value)


#: run-file value -> field value, by the field's annotation (a string: the spec
#: modules use postponed evaluation of annotations)
_CONVERT = {"float": _as_float, "int": _as_int, "str": str, "bool": _as_bool}


def _spec(cls, sec, where: str, path: str):
    """Build a spec dataclass from its run-file mapping; keys, types and
    defaults come from the dataclass fields."""
    convert = {f.name: _CONVERT[f.type] for f in fields(cls)}
    kwargs = {}
    for key, value in _mapping(sec, convert, where, path).items():
        with _errors(path, f"{where}.{key}"):
            kwargs[key] = convert[key](value)
    with _errors(path, where):
        return cls(**kwargs)


def config_from_dict(data: dict, path: str = "<config>") -> RunConfig:
    sections = ("generators", "loss", "topology", "params", "disturbance", "output", "initial")
    _mapping(data, sections, "top level", path)
    gens_sec = data.get("generators")
    # consensus needs a neighbour: one generator has loop gain 0 and no dynamics
    if not isinstance(gens_sec, list) or len(gens_sec) < 2:
        raise ConfigurationError(f"{path}: 'generators' must be a list of at least two generators")
    loss_sec = _mapping(data.get("loss"), ("b_matrix", "b0", "b00"), "loss", path)
    with _errors(path, "loss"):
        loss = KronLossModel(_floats(loss_sec["b_matrix"]), _floats(loss_sec["b0"]),
                             _as_float(loss_sec.get("b00", 0.0)))
        _check_sizes(len(gens_sec), loss=loss)

    gens = [_spec(GeneratorSpec, g, f"generators[{k}]", path) for k, g in enumerate(gens_sec)]
    with _errors(path, "generators"):
        own = loss.generator_losses(np.array([g.p0 for g in gens]))
    gens = [g if "d0" in raw else replace(g, d0=float(g.p0 - own[k]))
            for k, (g, raw) in enumerate(zip(gens, gens_sec))]

    topo_sec = _mapping(data.get("topology"), ("nodes", "edges"), "topology", path)
    with _errors(path, "topology.nodes"):
        nodes = _as_int(topo_sec.get("nodes", len(gens)))
    with _errors(path, "topology.edges"):
        edges = [(_as_int(i), _as_int(j), _as_float(w)) for i, j, w in topo_sec.get("edges", [])]
    with _errors(path, "topology"):
        topology = LocalTopology(nodes, edges)
        _check_sizes(len(gens), top=topology)

    params = _spec(AlgorithmParams, data.get("params"), "params", path)
    disturbance = _spec(DisturbanceSpec, data.get("disturbance") or {}, "disturbance", path)
    output = _spec(OutputSpec, data.get("output") or {}, "output", path)

    init_sec = _mapping(data.get("initial") or {}, ("z0",), "initial", path)
    with _errors(path, "initial"):
        z0 = tuple(_as_float(v) for v in init_sec["z0"]) if "z0" in init_sec else None
        if z0 is not None and not np.isfinite(z0).all():
            raise ValueError("z0 must be finite")
        if z0 is not None and len(z0) != len(gens):
            raise ValueError(f"z0 has length {len(z0)}, expected {len(gens)}")

    return RunConfig(generators=tuple(gens), loss=loss, topology=topology,
                     params=params, disturbance=disturbance, output=output, z0=z0)


def load_config(path: str) -> RunConfig:
    """Parse and fully validate a run file; raises ConfigurationError with
    field context on any structural problem."""
    with open(path) as fh:
        try:
            data = yaml.load(fh, Loader=getattr(yaml, "CSafeLoader", yaml.SafeLoader))
        except yaml.YAMLError as e:
            raise ConfigurationError(f"{path}: parse error: {e}") from e
    return config_from_dict(data, path)


def atomic_write_text(path: str, text: str) -> None:
    """Write via a temp file in the target directory, then rename."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", text=True)
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def save_config(config: RunConfig, path: str) -> None:
    dumper = getattr(yaml, "CSafeDumper", yaml.SafeDumper)
    atomic_write_text(path, yaml.dump(config.to_dict(), Dumper=dumper, sort_keys=False))
