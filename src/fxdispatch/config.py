"""Run configuration: run-file schema, validation, and round-trip serialization.

A run file is JSON or YAML. `save_config` writes JSON, which is also valid
YAML; `load_config` tries JSON first and imports PyYAML to parse the file
only if it is not JSON, so a saved file and the shipped reference case
(JSON text whose every number PyYAML reads as the same float) load
without PyYAML, and a hand-written YAML file loads as before. B and B0
are converted in bulk: one pass over their elements' types, then one array
each.

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

import json
import os
from dataclasses import asdict, dataclass, field, fields, replace

import numpy as np

from .dynamics import AlgorithmParams, DisturbanceSpec, DispatchSystem
from .grid_model import ConfigurationError, GeneratorSpec, KronLossModel, _check_count, _check_sizes, _vector
from .topology import LocalTopology


@dataclass(frozen=True)
class OutputSpec:
    directory: str = "out"
    stride: int = 100
    write_trajectory: bool = True
    write_report: bool = True

    def __post_init__(self) -> None:
        _check_count("output stride", self.stride, 1)


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


#: the errors a conversion or a constructor raises for a refused value;
#: OverflowError is int of an infinity
_REFUSED = (TypeError, ValueError, OverflowError)


class _errors:
    """Context manager: re-raise a KeyError or a _REFUSED error from the body
    as a ConfigurationError naming the file and the section. A class, as
    _spec enters one per key: a contextlib generator took a 64-unit run
    file's load from 2.2 to 2.7 ms (Python 3.11, 2-core x86-64)."""

    def __init__(self, path: str, where: str):
        self.path, self.where = path, where

    def __enter__(self) -> None:
        pass

    def __exit__(self, kind, e, tb) -> None:
        if kind is not None and issubclass(kind, (KeyError, *_REFUSED)):
            missing = "missing key " if issubclass(kind, KeyError) else ""
            raise ConfigurationError(f"{self.path}: {self.where}: {missing}{e}") from e


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


#: the exact types of a number that np.array reads as float(value) does;
#: bool, a subclass of int, is not one
_NUMBER = (int, float)


def _numbers(value):
    """value, a number or a nested list of numbers, with every element that
    is not an int or a float (a YAML numeric string such as "1e-3", a
    boolean) read by _as_float."""
    if isinstance(value, list):
        return [v if type(v) in _NUMBER else _numbers(v) for v in value]
    return _as_float(value)


def _floats(value) -> np.ndarray:
    """value, a number or a nested list of numbers, as one float array."""
    return np.array(_numbers(value), dtype=float)


#: run-file value -> field value, by the field's annotation (a string: the spec
#: modules use postponed evaluation of annotations)
_CONVERT = {"float": _as_float, "int": _as_int, "str": str, "bool": _as_bool}

#: field name -> converter, for each spec dataclass of a run file
_CONVERTERS = {cls: {f.name: _CONVERT[f.type] for f in fields(cls)}
               for cls in (GeneratorSpec, AlgorithmParams, DisturbanceSpec, OutputSpec)}


def _spec(cls, sec, where: str, path: str):
    """Build a spec dataclass from its run-file mapping; keys, types and
    defaults come from the dataclass fields (_CONVERTERS)."""
    convert = _CONVERTERS[cls]
    items = _mapping(sec, convert, where, path).items()
    kwargs = {}
    for key, value in items:
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
    if not all("d0" in raw for raw in gens_sec):
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
        z0 = tuple(_vector("z0", _floats(init_sec["z0"]), len(gens)).tolist()) if "z0" in init_sec else None
        # refused here, so that check and bound, which never reach run(), refuse it too
        if z0 is not None and not np.isfinite(z0).all():
            raise ValueError("z0 must be finite")

    return RunConfig(generators=tuple(gens), loss=loss, topology=topology,
                     params=params, disturbance=disturbance, output=output, z0=z0)


def load_config(path: str) -> RunConfig:
    """Parse a JSON or YAML run file and fully validate it; raises
    ConfigurationError with field context on any structural problem."""
    with open(path) as fh:
        try:
            data = json.loads(fh.read())
        except json.JSONDecodeError:
            # from the file, so that a YAML parse error names it
            fh.seek(0)
            import yaml  # only a file that is not JSON needs PyYAML

            try:
                data = yaml.load(fh, Loader=getattr(yaml, "CSafeLoader", yaml.SafeLoader))
            except yaml.YAMLError as e:
                raise ConfigurationError(f"{path}: parse error: {e}") from e
    return config_from_dict(data, path)


def atomic_write_text(path: str, text: str) -> None:
    """Write via a temp file in the target directory, then rename. The temp
    file is created with mode 0666 less the umask, as open(path, "w")
    creates a file (tempfile.mkstemp would make it 0600)."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    tmp = os.path.join(directory, f".tmp-{os.urandom(8).hex()}")
    fd = os.open(tmp, os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o666)
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def save_config(config: RunConfig, path: str) -> None:
    atomic_write_text(path, json.dumps(config.to_dict(), indent=1) + "\n")
