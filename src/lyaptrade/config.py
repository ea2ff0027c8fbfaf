"""Experiment configuration: one JSON document describing the market,
the trader, the price source, and what to run and verify.

Errors carry JSON-pointer-style locations so a bad field in a large
config is findable.  Configs round-trip: to_json(load(x)) == x up to
canonical money formatting.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import ConfigError
from .market import MarketSpec
from .money import _integer, to_cents
from .prices import MarkovPriceModel, PriceDistribution, load_trace
from .trader import TraderParams

DETERMINISTIC_CHECKS = ("dynamics", "queue_band", "slot_optimality",
                        "frame_drift", "thm3")
STATISTICAL_CHECKS = ("thm1", "thm2")
KNOWN_CHECKS = DETERMINISTIC_CHECKS + STATISTICAL_CHECKS
# The keys a config accepts, by section ("" is the top level), each with
# its least value: an int for an integer key, a Fraction for a number,
# None for any other.  options.window is the one frame length T.
INTEGER_OPTIONS = {
    "": {"market": None, "trader": None, "source": None, "horizon": 1,
         "seed": 0, "replications": 1, "verify": None, "oracle": None,
         "scaled": None, "options": None, "write_trajectories": None},
    "options": {"window": 1, "optimality_slots": 0},
    "oracle": {"mode": None},
    "scaled": {"beta": Fraction(0), "frames_per_window": 1, "windows": 1},
}


@dataclass(frozen=True)
class SourceConfig:
    kind: str                     # "iid" | "markov" | "trace"
    dist: PriceDistribution | None = None
    model: MarkovPriceModel | None = None
    path: str | None = None
    cap_policy: str = "reject"

    def resolve(self, spec: MarketSpec):
        """Returns (price source object, possibly cap-expanded spec)."""
        if self.kind == "iid":
            return self.dist, spec
        if self.kind == "markov":
            return self.model, spec
        with open_input(self.path, "/source/path") as fh:
            trace, caps = load_trace(fh, spec, cap_policy=self.cap_policy)
        return trace, spec.with_p_max(caps)


@dataclass(frozen=True)
class ExperimentConfig:
    market: MarketSpec
    trader: TraderParams
    source: SourceConfig
    horizon: int
    seed: int
    replications: int = 1
    verify: tuple = ()
    oracle: dict = field(default_factory=dict)
    scaled: dict = field(default_factory=dict)
    options: dict = field(default_factory=dict)
    write_trajectories: bool = False

    def __post_init__(self):
        for section, keys in INTEGER_OPTIONS.items():
            values = getattr(self, section) if section else vars(self)
            for key, least in keys.items():
                name = f"{section}/{key}".lstrip("/")
                read = _rational if type(least) is Fraction else _integer
                if least is not None and key in values and \
                        read(values[key], f"/{name}") < least:
                    raise ConfigError(f"{name} must be >= {least}",
                                      location=f"/{name}")
        for name in self.verify:
            if name not in KNOWN_CHECKS:
                raise ConfigError(f"unknown check {name!r} "
                                  f"(known: {', '.join(KNOWN_CHECKS)})",
                                  location="/verify")

    @property
    def window(self) -> int:
        """The frame length T of frame_drift, thm2, thm3, the lookahead
        oracle and the scaled run's frames."""
        return int(self.options.get("window", 4))


def _price_vector(obj, where):
    try:
        return tuple(to_cents(p, what=where) for p in obj)
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc), location=where) from exc


def _rational(x, where) -> Fraction:
    """Exact value of a number or a decimal/"p/q" string."""
    try:
        return Fraction(str(x))
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"{x!r} is not a number", location=where) from exc


def _transition_row(row, where) -> tuple:
    if not isinstance(row, list):
        raise ConfigError(f"{row!r} is not a list of probabilities",
                          location=where)
    row = tuple(_rational(x, f"{where}/{j}") for j, x in enumerate(row))
    if sum(row) != 1:
        raise ConfigError(f"row sums to {sum(row)}, not 1; write repeating "
                          'decimals as fraction strings such as "1/3"',
                          location=where)
    return row


def _list(obj, key) -> list:
    """obj[key], a config error at /source/<key> unless it is a list."""
    if not isinstance(value := obj[key], list):
        raise ConfigError(f"{value!r} is not a list", location=f"/source/{key}")
    return value


def _parse_source(obj) -> SourceConfig:
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ConfigError("source needs a 'kind' field", location="/source")
    kind = obj["kind"]
    try:
        if kind == "iid":
            support = tuple(_price_vector(v, "/source/support")
                            for v in _list(obj, "support"))
            probs = tuple(_rational(p, f"/source/probs/{i}")
                          for i, p in enumerate(_list(obj, "probs")))
            return SourceConfig("iid", dist=PriceDistribution(support, probs))
        if kind == "markov":
            states = tuple(_price_vector(v, "/source/states")
                           for v in _list(obj, "states"))
            model = MarkovPriceModel(states, tuple(
                _transition_row(row, f"/source/transition/{i}")
                for i, row in enumerate(_list(obj, "transition"))))
            return SourceConfig("markov", model=model)
        if kind == "trace":
            policy = obj.get("cap_policy", "reject")
            if policy not in ("reject", "auto_expand"):
                raise ConfigError(f"unknown cap policy {policy!r}",
                                  location="/source/cap_policy")
            return SourceConfig("trace", path=obj["path"], cap_policy=policy)
    except KeyError as exc:
        raise ConfigError(f"missing field {exc}", location="/source") from exc
    raise ConfigError(f"unknown source kind {kind!r}", location="/source/kind")


def _boolean(x, where) -> bool:
    # bool("false") is True.
    if not isinstance(x, bool):
        raise ConfigError(f"{x!r} is not true or false", location=where)
    return x


def _parse_trader(obj) -> TraderParams:
    if not isinstance(obj, dict):
        raise ConfigError("must be an object", location="/trader")
    if "V" not in obj:
        raise ConfigError("trader needs V", location="/trader/V")
    placeholder = _boolean(obj.get("placeholder", False),
                           "/trader/placeholder")
    try:
        return TraderParams(V=obj["V"], theta=obj.get("theta"),
                            initial_queue=obj.get("initial_queue"),
                            placeholder=placeholder,
                            buy_solver=obj.get("buy_solver", "exact"))
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc), location="/trader") from exc


def open_input(path, location):
    """open(path) for reading; a file that cannot be opened is a
    ConfigError at `location`, the option or field that named it."""
    try:
        return open(path)
    except OSError as exc:
        raise ConfigError(f"cannot read {path!r}: {exc.strerror}",
                          location=location) from exc


def load_config(path) -> ExperimentConfig:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    return config_from_json(doc)


def config_from_json(doc) -> ExperimentConfig:
    # The document and its sections are objects of the keys in the table.
    for section, keys in INTEGER_OPTIONS.items():
        where = f"/{section}" if section else ""
        obj = doc.get(section, {}) if section else doc
        if not isinstance(obj, dict):
            raise ConfigError("must be an object", location=where or "/")
        for key in obj:
            if key not in keys:
                raise ConfigError(
                    f"unknown key {key!r} (known: {', '.join(keys)})"
                    + ("; the frame length T is options.window"
                       if key in ("window", "frame") else ""),
                    location=f"{where}/{key}")
    for key in ("market", "trader", "source", "horizon"):
        if key not in doc:
            raise ConfigError(f"missing top-level field {key!r}",
                              location=f"/{key}")
    if "seed" not in doc:
        raise ConfigError("seed is required; there is no wall-clock default",
                          location="/seed")
    market = MarketSpec.from_json(doc["market"])
    trader = _parse_trader(doc["trader"])
    for name in ("theta", "initial_queue"):
        value = getattr(trader, name)
        if value is not None and len(value) != market.n_stocks:
            raise ConfigError(f"has {len(value)} entries, the market has "
                              f"{market.n_stocks} stocks",
                              location=f"/trader/{name}")
    source = _parse_source(doc["source"])
    if not isinstance(doc.get("verify", []), list):
        raise ConfigError("must be a list of check names", location="/verify")
    return ExperimentConfig(
        market, trader, source,
        **{k: _integer(doc.get(k, 1), f"/{k}")
           for k in ("horizon", "seed", "replications")},
        verify=tuple(doc.get("verify", ())),
        **{k: dict(doc.get(k, {})) for k in ("oracle", "scaled", "options")},
        write_trajectories=_boolean(doc.get("write_trajectories", False),
                                    "/write_trajectories"))


def config_to_json(cfg: ExperimentConfig) -> dict:
    from .money import cents_to_str

    trader = {"V": str(cfg.trader.V), "buy_solver": cfg.trader.buy_solver,
              "placeholder": cfg.trader.placeholder}
    if cfg.trader.theta is not None:
        trader["theta"] = [str(t) for t in cfg.trader.theta]
    if cfg.trader.initial_queue is not None:
        trader["initial_queue"] = list(cfg.trader.initial_queue)
    src = cfg.source
    if src.kind == "iid":
        source = {"kind": "iid",
                  "support": [[cents_to_str(p) for p in v]
                              for v in src.dist.support],
                  "probs": [str(p) for p in src.dist.probs]}
    elif src.kind == "markov":
        source = {"kind": "markov",
                  "states": [[cents_to_str(p) for p in v]
                             for v in src.model.states],
                  "transition": [[str(x) for x in row]
                                 for row in src.model.transition]}
    else:
        source = {"kind": "trace", "path": src.path,
                  "cap_policy": src.cap_policy}
    out = {
        "market": cfg.market.to_json(),
        "trader": trader,
        "source": source,
        "horizon": cfg.horizon,
        "seed": cfg.seed,
        "replications": cfg.replications,
        "verify": list(cfg.verify),
        "write_trajectories": cfg.write_trajectories,
    }
    out.update((k, getattr(cfg, k)) for k in ("oracle", "scaled", "options")
               if getattr(cfg, k))
    return out
